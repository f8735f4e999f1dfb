//! Tiny-scale self-check of the benchmark: every workload runs end to end
//! on graphs of a few hundred vertices, reports every metric
//! `BENCHMARK.json` names, finite and in its stated unit, and a deliberately
//! corrupted answer fails the run.

use std::time::Duration;

use minijson::Value;

use perfbench::query::{alternate, plans, Answers};
use perfbench::report::Metric;
use perfbench::{check, run, Report, RunConfig, Scale, WORKLOADS};
use ugs_service::QueryResult;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Value::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get_str("name").expect("name").to_string(),
                m.get_str("unit").expect("unit").to_string(),
            )
        })
        .collect()
}

fn tiny(workload: &str, trace: bool) -> Report {
    let config = RunConfig {
        workload,
        seed: 7,
        measure: Duration::ZERO,
        trace,
        scale: Scale::tiny(),
    };
    run(&config).unwrap_or_else(|why| panic!("{workload} (trace {trace}): {why}"))
}

fn assert_reports_exactly(report: &Report, declared: &[(String, String)], what: &str) {
    assert!(report.correct(), "{what}: {:?}", report.mismatches);
    assert!(report.attempted >= 1, "{what}: nothing attempted");
    assert_eq!(report.failed, 0, "{what}: failures");
    let reported: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m: &Metric| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut want = declared.to_vec();
    let mut got = reported.clone();
    want.sort();
    got.sort();
    assert_eq!(
        got, want,
        "{what}: reported metrics differ from BENCHMARK.json"
    );
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
    let line = Value::parse(&report.result_line()).expect("result line is JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let declared = declared("end_to_end");
    for workload in WORKLOADS {
        let report = tiny(workload, false);
        assert_reports_exactly(&report, &declared, workload);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{workload}: {} must never be 0", m.name);
        }
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    let declared = declared("per_layer");
    let report = tiny("query", true);
    assert_reports_exactly(&report, &declared, "traced query");
}

#[test]
fn unknown_workloads_are_refused() {
    let config = RunConfig {
        workload: "nope",
        seed: 1,
        measure: Duration::ZERO,
        trace: false,
        scale: Scale::tiny(),
    };
    assert!(run(&config).is_err());
}

/// Flips the lowest bit of the first float of the first answer.
fn corrupt(mut answers: Answers) -> Answers {
    if let Some(Ok(answer)) = answers.first_mut() {
        let first = match &mut answer.result {
            QueryResult::DegreeHistogram(values)
            | QueryResult::EdgeFrequency(values)
            | QueryResult::PageRank(values)
            | QueryResult::Clustering(values) => values.first_mut(),
            _ => None,
        };
        let value = first.expect("a float answer to corrupt");
        *value = f64::from_bits(value.to_bits() ^ 1);
    }
    answers
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    let graph = perfbench::graphs::canonical(7, 300);
    // Plans whose first answer is a float vector.
    let [_, count] = plans(7, 1, 4, 1);
    let mut count = count;
    count.queries.swap(0, 2);
    let plans = [count.clone(), count];
    let expected = check::digest(&plans[0].execute_detailed(graph.clone()));

    let mut honest = Report::default();
    alternate(
        &mut honest,
        &plans,
        [expected; 2],
        Duration::ZERO,
        1,
        "honest",
        |plan| plan.execute_detailed(graph.clone()),
    );
    assert!(honest.correct(), "{:?}", honest.mismatches);

    let mut corrupted = Report::default();
    alternate(
        &mut corrupted,
        &plans,
        [expected; 2],
        Duration::ZERO,
        1,
        "corrupted",
        |plan| corrupt(plan.execute_detailed(graph.clone())),
    );
    assert!(!corrupted.correct());
    assert!(corrupted.result_line().starts_with(r#"{"correct": false"#));
}

#[test]
fn a_corrupted_sparsification_fails_the_check() {
    use ugs_core::prelude::CoreScratch;
    let graph = perfbench::graphs::flickr(7, 300);
    let [gdb, _] = perfbench::sparsify::specs();
    let out = perfbench::sparsify::sparsify_once(&gdb, &graph, 7, &mut CoreScratch::new()).unwrap();
    let alpha = perfbench::graphs::ALPHA;
    assert!(check::sparsified(&graph, alpha, &out).is_ok());

    let mut rising = out.clone();
    rising.diagnostics.objective_trace.push(f64::INFINITY);
    assert!(check::sparsified(&graph, alpha, &rising).is_err());

    let mut short = out;
    let edges: Vec<_> = short
        .graph
        .edges()
        .skip(1)
        .map(|e| (e.u, e.v, e.p))
        .collect();
    short.graph = uncertain_graph::UncertainGraph::from_edges(graph.num_vertices(), edges).unwrap();
    assert!(check::sparsified(&graph, alpha, &short).is_err());
}
