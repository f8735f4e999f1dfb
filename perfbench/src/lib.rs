//! The repository's benchmark: the paper's pipeline — sparsify an uncertain
//! graph, query it, serve the queries over TCP and distribute them over a
//! shard fleet — timed end to end and layer by layer.
//!
//! Four workloads share one graph recipe (see [`graphs`]):
//!
//! | workload   | drives                                            | stresses                         |
//! |------------|---------------------------------------------------|----------------------------------|
//! | `sparsify` | `SparsifierSpec::{gdb, emd}` at α = 0.16           | `ugs-core`                       |
//! | `query`    | `QueryPlan::execute_detailed`, threads 2           | world engine and kernels         |
//! | `serve`    | `serve` + 2 closed-loop `LineClient`s              | protocol, JSON and result cache  |
//! | `dist`     | `DistCoordinator::execute` over 2 loopback workers | wire and halo supersteps         |
//!
//! Every untraced run reports the same end-to-end metrics, whose meaning is
//! fixed per workload (see [`report`]); the per-workload metrics by their own
//! names (`gdb_s`, `mixed_worlds_per_s`, `request_p90_ms`, …) go into the
//! detail line printed before the result.  A traced run times the public
//! entry point of every layer from outside (see [`trace`]).

pub mod alloc;
pub mod check;
pub mod dist;
pub mod graphs;
pub mod provenance;
pub mod query;
pub mod relay;
pub mod report;
pub mod serve;
pub mod sparsify;
pub mod stats;
pub mod trace;

use std::time::Duration;

pub use report::Report;

/// The four workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sparsify", "query", "serve", "dist"];

/// Sizes of every input the benchmark generates.  [`Scale::full`] is the
/// benchmark proper; [`Scale::tiny`] runs the same code in well under a
/// second for the self-check tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Vertices of the canonical graph (`query`, `serve`, `dist`).
    pub canonical_vertices: usize,
    /// Vertices of the `sparsify` graph.
    pub sparsify_vertices: usize,
    /// Worlds of one in-process execution of plan M.
    pub query_mixed_worlds: usize,
    /// Worlds of one in-process execution of plan C.
    pub query_count_worlds: usize,
    /// Worlds of one distributed execution of plan C.
    pub dist_count_worlds: usize,
    /// Worlds of every plan the `serve` clients send.
    pub serve_worlds: usize,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setups: usize,
    /// Fewest repetitions of every measured operation, whatever the time.
    pub min_reps: usize,
}

impl Scale {
    /// The benchmark proper.
    pub fn full() -> Scale {
        Scale {
            canonical_vertices: 60_000,
            sparsify_vertices: 12_000,
            query_mixed_worlds: 16,
            query_count_worlds: 160,
            dist_count_worlds: 72,
            serve_worlds: 4,
            setups: 5,
            min_reps: 3,
        }
    }

    /// The same workloads on graphs of a few hundred vertices.
    pub fn tiny() -> Scale {
        Scale {
            canonical_vertices: 400,
            sparsify_vertices: 300,
            query_mixed_worlds: 4,
            query_count_worlds: 8,
            dist_count_worlds: 4,
            serve_worlds: 2,
            setups: 2,
            min_reps: 2,
        }
    }
}

/// One invocation of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig<'a> {
    /// Which workload to run.
    pub workload: &'a str,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measuring time of the run (set-up and checks come on top).
    pub measure: Duration,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload, untraced or traced.
pub fn run(config: &RunConfig) -> Result<Report, String> {
    if !WORKLOADS.contains(&config.workload) {
        return Err(format!(
            "unknown workload {:?}; expected one of {}",
            config.workload,
            WORKLOADS.join(", ")
        ));
    }
    if config.trace {
        trace::run(config)
    } else {
        match config.workload {
            "sparsify" => sparsify::run(config),
            "query" => query::run(config),
            "serve" => serve::run(config),
            _ => dist::run(config),
        }
    }
}
