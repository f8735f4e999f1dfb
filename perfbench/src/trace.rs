//! The traced run: times the public entry point of every layer from
//! outside, counts allocations per world, and relays the fleet's wire
//! traffic through byte-counting [`Relay`]s.  Every traced run measures
//! every layer, whatever its workload; the workload only selects the
//! end-to-end figure `trace.overhead` compares with its untraced value.
//!
//! Which end-to-end metric each layer metric should move, and where:
//!
//! | layer metric | moves | on |
//! |--------------|-------|----|
//! | `core.*` | `heavy_ms` (EMD), `light_ms` (GDB) | `sparsify` |
//! | `engine.*` | `light_ms` (most), `heavy_ms` (a small share) | `query` |
//! | `kernel.*` | `heavy_ms`; `kernel.components_ms` also `light_ms` | `query` |
//! | `service.plan_fixed_ms` | `heavy_ms` (cold requests; not `light_ms`, not `query`) | `serve` |
//! | `batch.parallel_efficiency` | `heavy_ms` | `query` |
//! | `server.*` | `light_ms`, `heavy_ms`, `ops_per_s` | `serve` |
//! | `dist.*`, `partition.*` | `heavy_ms`, `light_ms` (not `query`) | `dist` |
//!
//! `<workload>.layer_coverage` is the sum of the layers' times over the
//! wall-clock of the same work: for `dist`, the mean worker's busy time
//! (request → response on the wire) plus the coordinator's time between
//! exchanges, so time neither accounts for (a worker idle while the other
//! works, the coordinator's work before the first request and after the
//! last response) lowers it.

use std::time::{Duration, Instant};

use graph_algos::clustering::local_clustering_coefficients;
use graph_algos::pagerank::{pagerank, PageRankConfig};
use graph_algos::traversal::{bfs_distances, connected_components};
use minijson::Value;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::{GraphPartition, HaloPlan};

use ugs_core::backbone::build_backbone_into;
use ugs_core::prelude::CoreScratch;
use ugs_queries::engine::WorldEngine;
use ugs_server::LineClient;

use crate::alloc;
use crate::dist::{warm, Fleet, MIXED_WORLDS, WORKERS};
use crate::graphs::{canonical, derive, flickr, plan_json, ALPHA, KNN_SOURCE, PAGERANK_TOLERANCE};
use crate::query::{plans, tally, THREADS};
use crate::relay::Tally;
use crate::serve::{closed_loop, round_trip, setup as serve_setup, Class, Side};
use crate::sparsify::{backbone_config, sparsify_once, specs};
use crate::stats::{median, timed};
use crate::{check, Report, RunConfig};

/// Worlds every per-world layer figure is averaged over.
const TRACE_WORLDS: usize = 12;

pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let mut report = Report::default();
    alloc::set_counting(true);
    let outcome = (|| {
        core(config, &mut report)?;
        query(config, &mut report)?;
        server(config, &mut report)?;
        dist(config, &mut report)?;
        overhead(config, &mut report)
    })();
    alloc::set_counting(false);
    outcome?;
    Ok(report)
}

/// `ugs-core`: the backbone, the optimisers and what they report.
fn core(config: &RunConfig, report: &mut Report) -> Result<(), String> {
    let graph = flickr(config.seed, config.scale.sparsify_vertices);
    let mut scratch = CoreScratch::new();
    let backbone_rng = || SmallRng::seed_from_u64(derive(config.seed, 3));
    let reps = config.scale.min_reps;

    // The specs' backbone, built as `sparsify_once` builds it: the same
    // configuration, RNG stream and warm scratch.
    let mut backbone_s = Vec::new();
    let mut backbone = Vec::new();
    for _ in 0..reps {
        let (built, seconds) = timed(|| {
            build_backbone_into(
                &graph,
                ALPHA,
                &backbone_config(),
                &mut backbone_rng(),
                &mut scratch,
                &mut backbone,
            )
        });
        built.map_err(|e| format!("backbone: {e}"))?;
        backbone_s.push(seconds);
    }
    let backbone_s = median(&backbone_s);
    report.metric("core.backbone_s", backbone_s, "s");

    let mut layers = 0.0;
    let mut wall = 0.0;
    for spec in specs() {
        let method = spec.display_name();
        let name = if method.starts_with("GDB") {
            "gdb"
        } else {
            "emd"
        };
        report.attempted += 1;
        let (out, seconds) = timed(|| sparsify_once(&spec, &graph, config.seed, &mut scratch));
        let out = out?;
        report.check(check::sparsified(&graph, ALPHA, &out));
        report.metric(
            &format!("core.optimize_s.{name}"),
            seconds - backbone_s,
            "s",
        );
        report.metric(
            &format!("core.iterations.{name}"),
            out.diagnostics.iterations as f64,
            "count",
        );
        if name == "emd" {
            report.metric("core.emd_swaps", out.diagnostics.swaps as f64, "count");
        }

        // The call's own split of its optimise and materialise phases; the
        // backbone is timed from outside.
        let phases = &out.diagnostics.phases;
        layers += backbone_s + (phases.optimize + phases.materialize).as_secs_f64();
        wall += seconds;
    }
    report.metric("sparsify.layer_coverage", layers / wall, "ratio");
    Ok(())
}

/// The world engine, the kernels, the per-plan fixed cost and the batch's
/// parallel efficiency.
fn query(config: &RunConfig, report: &mut Report) -> Result<(), String> {
    let scale = config.scale;
    let graph = canonical(config.seed, scale.canonical_vertices);
    let engine = WorldEngine::new(&graph);
    let mut scratch = engine.make_scratch();
    let world_rng = || SmallRng::seed_from_u64(derive(config.seed, 6));
    // Warm the scratch buffers to their steady-state capacity.
    let mut rng = world_rng();
    for _ in 0..2 {
        engine.sample_world(&mut rng, &mut scratch);
    }

    let worlds = TRACE_WORLDS as f64;
    let mut rng = world_rng();
    let ((), advance_s) = timed(|| {
        for _ in 0..TRACE_WORLDS {
            engine.advance_world(&mut rng, &mut scratch);
        }
    });
    let mut rng = world_rng();
    let ((), sample_s) = timed(|| {
        for _ in 0..TRACE_WORLDS {
            engine.sample_world(&mut rng, &mut scratch);
        }
    });
    let mut rng = world_rng();
    let ((), engine_allocs) = alloc::count(|| {
        for _ in 0..TRACE_WORLDS {
            engine.sample_world(&mut rng, &mut scratch);
        }
    });
    let sample_ms = advance_s * 1e3 / worlds;
    let materialise_ms = (sample_s - advance_s) * 1e3 / worlds;
    report.metric("engine.sample_ms", sample_ms, "ms");
    report.metric("engine.materialise_ms", materialise_ms, "ms");
    report.metric("engine.allocs", engine_allocs as f64 / worlds, "count");

    // Kernels on each materialised world.
    let pagerank_config = PageRankConfig {
        tolerance: PAGERANK_TOLERANCE,
        ..PageRankConfig::default()
    };
    let mut kernel_ms = [0.0; 4];
    let mut kernel_allocs = [0u64; 4];
    let mut rng = world_rng();
    for _ in 0..TRACE_WORLDS {
        let world = engine.sample_world(&mut rng, &mut scratch);
        let kernels: [&dyn Fn() -> usize; 4] = [
            &|| pagerank(world, &pagerank_config).len(),
            &|| local_clustering_coefficients(world).len(),
            &|| bfs_distances(world, KNN_SOURCE).len(),
            &|| connected_components(world).1,
        ];
        for (k, kernel) in kernels.iter().enumerate() {
            let started = Instant::now();
            let (out, allocs) = alloc::count(kernel);
            std::hint::black_box(out);
            kernel_ms[k] += started.elapsed().as_secs_f64() * 1e3 / worlds;
            kernel_allocs[k] += allocs;
        }
    }
    for (k, name) in ["pagerank", "clustering", "bfs", "components"]
        .iter()
        .enumerate()
    {
        report.metric(&format!("kernel.{name}_ms"), kernel_ms[k], "ms");
        report.metric(
            &format!("kernel.allocs.{name}"),
            kernel_allocs[k] as f64 / worlds,
            "count",
        );
    }

    // Fixed cost of a plan: a one-world plan minus one world's cost, from
    // one-world and many-world executions of plan C at threads 1.
    let mut fixed = Vec::new();
    for _ in 0..scale.min_reps {
        let [_, one] = plans(config.seed, 1, 1, 1);
        let [_, many] = plans(config.seed, 1, scale.query_count_worlds, 1);
        let (answers, one_s) = timed(|| one.execute_detailed(graph.clone()));
        tally(report, &answers);
        let (answers, many_s) = timed(|| many.execute_detailed(graph.clone()));
        tally(report, &answers);
        let per_world = (many_s - one_s) / (many.worlds - 1) as f64;
        fixed.push((one_s - per_world) * 1e3);
    }
    report.metric("service.plan_fixed_ms", median(&fixed), "ms");

    // Plan M at threads 1 and 2: parallel efficiency, and the layer
    // coverage of one world at threads 1.
    let mixed = |threads| plans(config.seed, TRACE_WORLDS, 1, threads)[0].clone();
    let mut per_world = [Vec::new(), Vec::new()];
    for _ in 0..scale.min_reps.min(2) {
        for (i, threads) in [1, THREADS].into_iter().enumerate() {
            let (answers, seconds) = timed(|| mixed(threads).execute_detailed(graph.clone()));
            tally(report, &answers);
            per_world[i].push(seconds * 1e3 / worlds);
        }
    }
    let (serial_ms, parallel_ms) = (median(&per_world[0]), median(&per_world[1]));
    report.metric(
        "batch.parallel_efficiency",
        serial_ms / (THREADS as f64 * parallel_ms),
        "ratio",
    );
    let layers = sample_ms + materialise_ms + kernel_ms.iter().sum::<f64>();
    report.metric("query.layer_coverage", layers / serial_ms, "ratio");
    Ok(())
}

/// The server: the cache under the workload's own closed loop, per-class
/// round trips cold and from the cache, and the split of one cold request.
fn server(config: &RunConfig, report: &mut Report) -> Result<(), String> {
    let scale = config.scale;
    let mut served = serve_setup(config.seed, scale.canonical_vertices, scale.serve_worlds)?;

    // The cache under the workload's closed loop, both sides, before any
    // other request can evict the working set.
    let before = served.server.cache_stats();
    let measure = (config.measure / 8).max(Duration::from_secs(1));
    let mut bytes = Vec::new();
    for side in [Side::Hit, Side::Cold] {
        let outcome = closed_loop(
            &mut served,
            side,
            config.seed,
            scale.serve_worlds,
            measure,
            16,
        );
        report.attempted += outcome.attempted;
        report.failed += outcome.failed;
        for why in outcome.mismatches {
            report.check(Err(why));
        }
        bytes.extend(outcome.replies.iter().map(|r| r.1 as f64));
    }
    let after = served.server.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.metric(
        "server.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "server.cache_evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    report.metric(
        "server.report_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "B",
    );

    let client = &mut served.clients[0];
    let mut medium_cold = Vec::new();
    let mut medium_plan = String::new();
    for (c, class) in Class::ALL.into_iter().enumerate() {
        let (mut cold, mut hit) = (Vec::new(), Vec::new());
        for rep in 0..scale.min_reps {
            let stream = 200 + (c * 16 + rep) as u64;
            let plan = plan_json(
                &class.queries(),
                scale.serve_worlds,
                1,
                derive(config.seed, stream),
            );
            report.attempted += 2;
            let first = round_trip(client, &plan)?;
            let again = round_trip(client, &plan)?;
            report.check(if first.cached || !again.cached {
                Err(format!(
                    "{} plan: expected a cold request, then a hit",
                    class.name()
                ))
            } else if first.digest != again.digest {
                Err(format!(
                    "{} plan: the hit differs from the cold report",
                    class.name()
                ))
            } else {
                Ok(())
            });
            cold.push(first.round_trip_ms);
            hit.push(again.round_trip_ms);
            if class == Class::Medium {
                medium_plan = plan;
            }
        }
        report.metric(
            &format!("server.cold_ms.{}", class.name()),
            median(&cold),
            "ms",
        );
        report.metric(
            &format!("server.hit_ms.{}", class.name()),
            median(&hit),
            "ms",
        );
        if class == Class::Medium {
            medium_cold = cold;
        }
    }

    // The split of one cold medium request: the in-process execution of the
    // same plan, its encoding, and the client's decoding of the wire line.
    let plan = ugs_service::QueryPlan::parse_str(&medium_plan).map_err(|e| e.to_string())?;
    let (mut execute, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.min_reps {
        let (answers, execute_s) = timed(|| plan.execute_detailed(served.graph.clone()));
        let label = format!("fingerprint:{:016x}", served.server.fingerprint());
        let (line, encode_s) = timed(|| plan.report_for(&label, &answers).render());
        let (parsed, decode_s) = timed(|| Value::parse(&line));
        parsed.map_err(|e| format!("report does not parse: {e}"))?;
        execute.push(execute_s * 1e3);
        encode.push(encode_s * 1e3);
        decode.push(decode_s * 1e3);
    }
    let (execute, encode, decode) = (median(&execute), median(&encode), median(&decode));
    let round_trip_ms = median(&medium_cold);
    report.metric("server.execute_ms", execute, "ms");
    report.metric("server.encode_ms", encode, "ms");
    report.metric("server.decode_ms", decode, "ms");
    report.metric(
        "server.wait_ms",
        round_trip_ms - execute - encode - decode,
        "ms",
    );
    report.metric(
        "serve.layer_coverage",
        (execute + encode + decode) / round_trip_ms,
        "ratio",
    );
    Ok(())
}

/// The fleet's wire traffic per plan, and the partition's halo.
fn dist(config: &RunConfig, report: &mut Report) -> Result<(), String> {
    let scale = config.scale;
    let graph = canonical(config.seed, scale.canonical_vertices);
    let partition = GraphPartition::contiguous(&graph, WORKERS).map_err(|e| e.to_string())?;
    let halo = HaloPlan::new(&graph, &partition).stats();
    report.metric(
        "partition.replication_factor",
        halo.replication_factor,
        "ratio",
    );
    report.metric(
        "partition.ghost_vertices",
        halo.shards.iter().map(|s| s.ghost_vertices).sum::<usize>() as f64,
        "count",
    );

    let tally_handle = Tally::shared();
    let mut fleet = Fleet::start(&graph, Some(&tally_handle))?;
    warm(&mut fleet, config.seed)?;
    let plans = plans(config.seed, MIXED_WORLDS, scale.dist_count_worlds, THREADS);
    let (mut covered, mut wall) = (0.0, 0.0);
    for (plan, name) in plans.iter().zip(["M", "C"]) {
        let expected = check::digest(&plan.execute_detailed(graph.clone()));
        tally_handle.lock().expect("tally lock").reset();
        let (answers, seconds) = timed(|| fleet.coordinator.execute(plan));
        let t = tally_handle.lock().expect("tally lock").clone();
        tally(report, &answers);
        report.check(check::same(
            "relayed distributed vs in-process",
            expected,
            &answers,
        ));
        let worlds = plan.worlds as f64;
        let prefix = format!("dist.{name}");
        report.metric(
            &format!("{prefix}.wire_bytes_per_world.count_ops"),
            t.count_bytes as f64 / worlds,
            "B",
        );
        if name == "M" {
            report.metric(
                &format!("{prefix}.wire_bytes_per_world.halo_ops"),
                t.halo_bytes as f64 / worlds,
                "B",
            );
            report.metric(
                &format!("{prefix}.supersteps_per_world"),
                t.steps as f64 / (WORKERS as f64 * worlds),
                "count",
            );
        } else if t.halo_bytes != 0 || t.steps != 0 {
            // Plan C has no neighbourhood query: no halo exchange at all.
            report.check(Err(format!(
                "plan C sent {} halo bytes in {} supersteps",
                t.halo_bytes, t.steps
            )));
        }
        report.metric(
            &format!("{prefix}.messages_per_world"),
            t.messages as f64 / worlds,
            "count",
        );
        // Busy time of the mean worker: the workers' summed request →
        // response time over the number of workers.
        let busy_s = t.worker_busy_s / WORKERS as f64;
        report.metric(&format!("{prefix}.worker_busy_s"), busy_s / worlds, "s");
        report.metric(
            &format!("{prefix}.coordinator_s"),
            t.coordinator_s / worlds,
            "s",
        );
        covered += busy_s + t.coordinator_s;
        wall += seconds;
    }
    fleet.shutdown();
    report.metric("dist.layer_coverage", covered / wall, "ratio");
    Ok(())
}

/// `trace.overhead`: the workload's light operation timed traced (counting
/// allocator on; relayed fleet for `dist`) over its untraced time.
fn overhead(config: &RunConfig, report: &mut Report) -> Result<(), String> {
    let scale = config.scale;
    let reps = scale.min_reps.max(3);
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut both = |op: &mut dyn FnMut(bool) -> Result<f64, String>| -> Result<(), String> {
        for _ in 0..reps {
            for on in [false, true] {
                alloc::set_counting(on);
                let seconds = op(on);
                alloc::set_counting(true);
                if on {
                    traced.push(seconds?)
                } else {
                    untraced.push(seconds?)
                }
            }
        }
        Ok(())
    };
    match config.workload {
        "sparsify" => {
            let graph = flickr(config.seed, scale.sparsify_vertices);
            let mut scratch = CoreScratch::new();
            let [gdb, _] = specs();
            both(&mut |_| {
                let (out, seconds) =
                    timed(|| sparsify_once(&gdb, &graph, config.seed, &mut scratch));
                out.map(|_| seconds)
            })?;
        }
        "query" => {
            let graph = canonical(config.seed, scale.canonical_vertices);
            let [_, count] = plans(config.seed, 1, scale.query_count_worlds, THREADS);
            both(&mut |_| Ok(timed(|| count.execute_detailed(graph.clone())).1))?;
        }
        "serve" => {
            let mut served =
                serve_setup(config.seed, scale.canonical_vertices, scale.serve_worlds)?;
            let mut index = 0;
            let client: &mut LineClient = &mut served.clients[0];
            both(&mut |_| {
                index += 1;
                let plan = plan_json(
                    &Class::Small.queries(),
                    scale.serve_worlds,
                    1,
                    derive(config.seed, 300 + index),
                );
                round_trip(client, &plan).map(|reply| reply.round_trip_ms / 1e3)
            })?;
        }
        _ => {
            let graph = canonical(config.seed, scale.canonical_vertices);
            let tally_handle = Tally::shared();
            let mut fleets = [
                Fleet::start(&graph, None)?,
                Fleet::start(&graph, Some(&tally_handle))?,
            ];
            for fleet in fleets.iter_mut() {
                warm(fleet, config.seed)?;
            }
            let [_, count] = plans(config.seed, 1, scale.dist_count_worlds, THREADS);
            both(&mut |on| Ok(timed(|| fleets[usize::from(on)].coordinator.execute(&count)).1))?;
            for fleet in fleets {
                fleet.shutdown();
            }
        }
    }
    report.metric(
        "trace.overhead",
        median(&traced) / median(&untraced),
        "ratio",
    );
    Ok(())
}
