//! The provenance line printed before every result: where the numbers come
//! from (machine, toolchain, revision, inputs) and which of the older
//! per-subsystem `BENCH_*.json` records each workload re-bases.

use std::process::Command;

use minijson::{ObjBuilder, Value};

use crate::graphs::canonical;
use crate::sparsify::{self, GRAPHS};
use crate::Scale;

/// The `BENCH_*.json` records (at the checkout root) each workload
/// re-bases.
fn rebases(workload: &str) -> &'static [&'static str] {
    match workload {
        "sparsify" => &["BENCH_sparsify.json"],
        "query" => &["BENCH_batch.json", "BENCH_mc.json", "BENCH_shard.json"],
        "serve" => &["BENCH_server.json"],
        "dist" => &["BENCH_dist.json", "BENCH_halo.json"],
        _ => &[],
    }
}

/// First line of a command's standard output, or why there is none.
fn command_line(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        Ok(out) => format!("unavailable ({} exited with {})", program, out.status),
        Err(e) => format!("unavailable ({program}: {e})"),
    }
}

/// The provenance of one run as a JSON object.  `steal` is the share of CPU
/// time the host took from this machine during the run: timings rise with
/// it, so a reader can tell a slow host from a slow program.
pub fn provenance(workload: &str, seed: u64, scale: &Scale, steal: Option<f64>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let graph = |label: &str, vertices: usize, edges: usize| {
        ObjBuilder::new()
            .field("graph", label)
            .field("vertices", vertices)
            .field("edges", edges)
            .build()
    };
    let graphs = if workload == "sparsify" {
        (0..GRAPHS)
            .map(|i| {
                let g = sparsify::graph(seed, i, scale.sparsify_vertices);
                graph(
                    "preferential_attachment(n, 4, FlickrLike)",
                    g.num_vertices(),
                    g.num_edges(),
                )
            })
            .collect()
    } else {
        let g = canonical(seed, scale.canonical_vertices);
        vec![graph(
            "preferential_attachment(n, 4, Fixed(0.09))",
            g.num_vertices(),
            g.num_edges(),
        )]
    };
    let records = rebases(workload)
        .iter()
        .map(|file| {
            let record = std::fs::read_to_string(file)
                .ok()
                .and_then(|text| Value::parse(&text).ok())
                .unwrap_or_else(|| Value::Str("absent from this checkout".to_string()));
            ObjBuilder::new()
                .field("file", *file)
                .field("record", record)
                .build()
        })
        .collect();
    ObjBuilder::new()
        .field("provenance", workload)
        .field("nproc", nproc)
        .field("rustc", command_line("rustc", &["-V"]))
        .field("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .field("seed", seed.to_string())
        .field(
            "host_cpu_steal",
            steal.map_or(Value::Str("unavailable".to_string()), Value::Num),
        )
        .field("graphs", Value::Arr(graphs))
        .field("rebases", Value::Arr(records))
        .build()
}
