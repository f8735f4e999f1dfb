//! What one run reports, and the one-line JSON result.
//!
//! The end-to-end metrics are the same five on every workload, so a later
//! change is judged on every workload by every metric:
//!
//! | metric         | `sparsify`          | `query` / `dist`     | `serve`               |
//! |----------------|---------------------|----------------------|-----------------------|
//! | `setup_s`      | graph generation    | graph (+ fleet), warm pass | graph, server, connect, warm pass |
//! | `peak_rss_mib` | peak resident memory of the run, all shapes in one process |||
//! | `heavy_ms`     | one EMD run (`emd_s`) | one world of plan M (1/`mixed_worlds_per_s`) | mean cold round trip (`cold.request_mean_ms`) |
//! | `light_ms`     | one GDB run (`gdb_s`) | one world of plan C (1/`count_worlds_per_s`) | mean cache-hit round trip (`hit.request_mean_ms`) |
//! | `ops_per_s`    | sparsifications/s   | worlds/s, both plans | requests/s, both sides (`requests_per_s`) |
//!
//! `query` and `dist` time their quiet rounds (see
//! [`crate::query::quiet_rounds`]).  The failure share (`failed_frac`)
//! travels in `attempted`/`failed`.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (sparsifications, query answers, requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Correctness-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// The workload's own metrics under their own names (detail line).
    pub detail: Vec<Metric>,
}

impl Report {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a detail-line metric.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the outcome of a correctness check.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            if self.mismatches.len() < 16 {
                self.mismatches.push(why);
            }
        }
    }

    /// `true` when every correctness check passed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut line = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        write_metrics(&mut line, &self.metrics);
        line.push_str("}}");
        line
    }

    /// The detail line: the workload's metrics under their own names.
    pub fn detail_line(&self, workload: &str) -> String {
        let mut line = format!(r#"{{"detail": "{workload}", "metrics": {{"#);
        write_metrics(&mut line, &self.detail);
        line.push_str("}}");
        line
    }
}

fn write_metrics(line: &mut String, metrics: &[Metric]) {
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        // Non-finite values are not JSON; `correct()` already fails them.
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        write!(
            line,
            r#""{}": {{"value": {value:?}, "unit": "{}"}}"#,
            m.name, m.unit
        )
        .expect("writing to a String never fails");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_json_with_exactly_the_contract_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.25, "s");
        let value = minijson::Value::parse(&report.result_line()).unwrap();
        let minijson::Value::Obj(fields) = &value else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get_f64("value"), Some(0.25));
        assert_eq!(setup.get_str("unit"), Some("s"));
        report.check(Err("mismatch".to_string()));
        assert!(report.result_line().starts_with(r#"{"correct": false"#));
    }
}
