//! Workload `sparsify`: `SparsifierSpec::gdb()` and `SparsifierSpec::emd()`
//! at α = 0.16 with default configs on [`GRAPHS`] 12k-vertex Flickr-like
//! graphs.  `ugs-core` does all of the work; no query layer runs.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_core::prelude::{BackboneConfig, CoreScratch, SparsifierSpec, SparsifyOutput};

use crate::graphs::{derive, flickr, ALPHA};
use crate::stats::{median, peak_rss_mib, timed};
use crate::{check, Report, RunConfig};

/// The backbone configuration of both specs: the default one.
pub fn backbone_config() -> BackboneConfig {
    BackboneConfig::default()
}

/// The two specs, GDB first, with default configurations.
pub fn specs() -> [SparsifierSpec; 2] {
    [SparsifierSpec::gdb(), SparsifierSpec::emd()]
        .map(|spec| spec.alpha(ALPHA).backbone_config(backbone_config()))
}

/// Runs one spec with the run's sparsifier seed.  Every repetition uses the
/// same seed, so every repetition does the same work.
pub fn sparsify_once(
    spec: &SparsifierSpec,
    graph: &UncertainGraph,
    seed: u64,
    scratch: &mut CoreScratch,
) -> Result<SparsifyOutput, String> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 3));
    spec.sparsify_with(graph, &mut rng, scratch)
        .map_err(|e| format!("{}: {e}", spec.display_name()))
}

/// Graphs per run.  EMD's running time depends on the graph (its swap count
/// varies by a factor of two between graphs of the same recipe), so each
/// run averages over several graphs from its seed.
pub const GRAPHS: usize = 4;

/// GDB sweeps over every graph after each EMD call: one GDB call takes tens
/// of milliseconds, so it is repeated to give its statistic many samples.
pub const GDB_SWEEPS: usize = 2;

/// Graph `index` of the run with workload seed `seed`.
pub fn graph(seed: u64, index: usize, vertices: usize) -> UncertainGraph {
    let seed = if index == 0 {
        seed
    } else {
        derive(seed, 10 + index as u64)
    };
    flickr(seed, vertices)
}

pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let scale = config.scale;
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..scale.setups {
        let (built, seconds) = timed(|| {
            (0..GRAPHS)
                .map(|i| graph(config.seed, i, scale.sparsify_vertices))
                .collect::<Vec<_>>()
        });
        setups.push(seconds);
        graphs = built;
    }

    let specs = specs();
    let mut scratch = CoreScratch::new();
    // times[k][g]: seconds of spec k on graph g, one entry per call.
    let mut times = vec![vec![Vec::new(); GRAPHS]; specs.len()];
    let mut outputs = vec![vec![None; GRAPHS]; specs.len()];
    let mut measure = |k: usize, g: usize| {
        let (spec, graph) = (&specs[k], &graphs[g]);
        report.attempted += 1;
        let (out, seconds) = timed(|| sparsify_once(spec, graph, config.seed, &mut scratch));
        let out = match out {
            Ok(out) => out,
            Err(why) => {
                report.failed += 1;
                report.check(Err(why));
                return;
            }
        };
        times[k][g].push(seconds);
        report.check(check::sparsified(graph, ALPHA, &out));
        // Same graph, spec and seed: the same sparsified graph.
        match outputs[k][g] {
            None => outputs[k][g] = Some(check::digest(&out.graph)),
            Some(first) => report.check(check::same(
                &format!("repeated {}", spec.display_name()),
                first,
                &out.graph,
            )),
        }
    };
    // Step `i` runs EMD on graph `i % GRAPHS`, then GDB sweeps over every
    // graph, so both specs are sampled evenly over the whole run rather than
    // in bursts, and the run ends within one step of the measuring time.
    let mut steps = 0;
    let started = Instant::now();
    while steps < scale.min_reps * GRAPHS || started.elapsed() < config.measure {
        measure(1, steps % GRAPHS);
        for _ in 0..GDB_SWEEPS {
            for g in 0..GRAPHS {
                measure(0, g);
            }
        }
        steps += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Per graph the median over its calls, then the mean over graphs.
    let mean_median = |per_graph: &[Vec<f64>]| {
        per_graph.iter().map(|t| median(t)).sum::<f64>() / per_graph.len() as f64
    };
    let (gdb_s, emd_s) = (mean_median(&times[0]), mean_median(&times[1]));
    let rss = peak_rss_mib()?;
    let done: usize = times.iter().flatten().map(Vec::len).sum();
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("heavy_ms", emd_s * 1e3, "ms");
    report.metric("light_ms", gdb_s * 1e3, "ms");
    report.metric("ops_per_s", done as f64 / elapsed, "1/s");
    report.detail("setup_s", median(&setups), "s");
    report.detail("peak_rss_mib", rss, "MiB");
    report.detail("gdb_s", gdb_s, "s");
    report.detail("emd_s", emd_s, "s");
    report.detail("failed_frac", report.failed_frac(), "ratio");
    Ok(report)
}
