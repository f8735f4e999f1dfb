//! Worker half of the `halo` wire op: connection-local ghost-halo exchange
//! sessions driving PageRank, clustering, and BFS supersteps over the
//! shard this server owns.
//!
//! A session is plain data — no background thread.  Each request line
//! carries the full session identity (token, shard role, replay seed and
//! mode, kernel), so a freshly promoted standby rebuilds the session from
//! whatever line arrives first: it replays the shared world stream up to
//! the named world (`advance` consumes the RNG without materialising
//! anything) and re-initialises the kernel.  Supersteps are restartable —
//! `step 0` on the current world resets the kernel *without* resampling,
//! which is how the coordinator recovers a world after a mid-superstep
//! worker loss.
//!
//! Values cross the wire as packed windows: one base64 string per line of
//! fixed-width little-endian records carrying raw IEEE-754 bits
//! ([`ugs_queries::halo::encode_window`]; scalars such as `acc` as
//! [`ugs_queries::halo::f64_to_hex`]), so the exchange adds no rounding:
//! the distributed kernels stay bit-identical to the monolithic ones (see
//! [`ugs_queries::halo`] for the iteration-equivalence argument).  A
//! session keeps its last step report as raw records, and `page`
//! re-windows them.

use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use graph_algos::pagerank::dangling_mass;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ugs_queries::halo::{
    active_boundary_into, encode_window, f64_to_hex, pack_level, pack_rank, pack_value,
    unpack_levels, unpack_ranks, ShardBfs, ShardClustering, ShardPageRank, WorldPresence,
    LEVEL_RECORD, RANK_RECORD, VALUE_RECORD,
};
use ugs_queries::sharded::{ShardScratch, ShardedWorldEngine};
use ugs_queries::SampleMethod;
use uncertain_graph::{GraphPartition, UncertainGraph, VertexId, NOT_IN_HALO};

use crate::protocol::{
    error_line, finish_ok, ok_builder, ErrorCode, HaloKernel, HaloPhase, HaloRequest, RequestError,
    HALO_PAGE,
};

/// What the connection hands the halo dispatcher: the served graph, the
/// worker's shard role, the per-connection session budget, and the
/// server-wide live-session gauge.
pub(crate) struct HaloEnv<'g> {
    pub graph: &'g UncertainGraph,
    pub partition: &'g GraphPartition,
    pub shard: usize,
    pub shards: usize,
    pub budget: usize,
    pub gauge: &'g AtomicUsize,
}

/// Kernel-specific superstep state of one session.
enum Kernel {
    PageRank {
        damping: f64,
        state: ShardPageRank,
        /// The shared dangling rank: `1/n` at iteration 0, the previous
        /// iteration's `base` thereafter (see [`ugs_queries::halo`]).
        rank_d: f64,
        step: usize,
        /// Owned boundary vertices with a present edge to a ghost in the
        /// current world: the ones each step reports.
        active: Vec<VertexId>,
    },
    Clustering {
        state: ShardClustering,
        /// Owned coefficients of the current world, computed lazily on the
        /// first `collect`.
        coefficients: Option<Vec<f64>>,
    },
    Bfs {
        state: ShardBfs,
        step: usize,
    },
}

/// One live ghost-halo exchange session (connection-local, keyed by the
/// request's job token).
pub(crate) struct HaloSession<'g> {
    engine: ShardedWorldEngine<'g>,
    scratch: ShardScratch,
    presence: WorldPresence,
    rng: SmallRng,
    shard: usize,
    seed: u64,
    mode: SampleMethod,
    kernel_id: HaloKernel,
    /// Worlds consumed from the replay stream; the current world is
    /// `sampled - 1` once positive.
    sampled: usize,
    kernel: Kernel,
    /// The last superstep's report as packed records, kept for `page`.
    report: Vec<u8>,
}

impl<'g> HaloSession<'g> {
    fn new(request: &HaloRequest, env: &HaloEnv<'g>) -> Self {
        let engine = ShardedWorldEngine::for_shard(env.graph, env.partition, env.shard)
            .with_method(request.mode);
        let scratch = engine.make_shard_scratch(env.shard);
        let kernel = match &request.kernel {
            HaloKernel::PageRank { damping } => Kernel::PageRank {
                damping: *damping,
                state: ShardPageRank::new(engine.halo_plan().shard(env.shard)),
                rank_d: 0.0,
                step: 0,
                active: Vec::new(),
            },
            HaloKernel::Clustering => Kernel::Clustering {
                state: ShardClustering::new(),
                coefficients: None,
            },
            // The source vertex lives in the identity (`kernel_id`); the
            // coordinator routes the seed settlement through step 0.
            HaloKernel::Bfs { .. } => Kernel::Bfs {
                state: ShardBfs::new(),
                step: 0,
            },
        };
        HaloSession {
            presence: WorldPresence::new(env.graph),
            rng: SmallRng::seed_from_u64(request.seed),
            shard: env.shard,
            seed: request.seed,
            mode: request.mode,
            kernel_id: request.kernel.clone(),
            sampled: 0,
            kernel,
            report: Vec::new(),
            scratch,
            engine,
        }
    }

    /// Whether the session already runs exactly this request's identity.
    fn matches(&self, request: &HaloRequest) -> bool {
        self.seed == request.seed && self.mode == request.mode && self.kernel_id == request.kernel
    }

    /// Bytes of one record of this kernel's step report.
    fn report_width(&self) -> usize {
        match self.kernel {
            Kernel::PageRank { .. } => RANK_RECORD,
            Kernel::Bfs { .. } => LEVEL_RECORD,
            Kernel::Clustering { .. } => VALUE_RECORD,
        }
    }

    /// Whether the kernel has run past its initial state on the current
    /// world (a step-0 request then means "restart this world").
    fn kernel_started(&self) -> bool {
        match &self.kernel {
            Kernel::PageRank { step, .. } | Kernel::Bfs { step, .. } => *step > 0,
            Kernel::Clustering { coefficients, .. } => coefficients.is_some(),
        }
    }

    /// Resets the kernel for the current (already sampled) world.
    fn init_kernel(&mut self) {
        let halo = self.engine.halo_plan().shard(self.shard);
        let n = self.engine.graph().num_vertices();
        match &mut self.kernel {
            Kernel::PageRank {
                state,
                rank_d,
                step,
                ..
            } => {
                let uniform = 1.0 / n as f64;
                state.reset(uniform);
                *rank_d = uniform;
                *step = 0;
            }
            Kernel::Clustering { coefficients, .. } => *coefficients = None,
            Kernel::Bfs { state, step, .. } => {
                state.reset(halo);
                *step = 0;
            }
        }
        self.report.clear();
    }

    /// Moves the session to `request.world`: replays skipped worlds, samples
    /// the target, stamps presence, and (re-)initialises the kernel.  On the
    /// current world, a step-0 request restarts the kernel *without*
    /// resampling — the failover recovery path.
    fn ensure_world(&mut self, request: &HaloRequest) -> Result<(), RequestError> {
        let target = request.world;
        if self.sampled == 0 || target >= self.sampled {
            while self.sampled < target {
                self.engine
                    .advance_shard_world(&mut self.rng, &mut self.scratch);
                self.sampled += 1;
            }
            self.engine
                .sample_shard_world(&mut self.rng, &mut self.scratch);
            self.sampled = target + 1;
            self.presence
                .stamp(self.engine.graph(), self.engine.world_edges(&self.scratch));
            if let Kernel::PageRank { active, .. } = &mut self.kernel {
                let halo = self.engine.halo_plan().shard(self.shard);
                active_boundary_into(halo, &self.presence, active);
            }
            self.init_kernel();
        } else if target + 1 == self.sampled {
            if matches!(request.phase, HaloPhase::Step { step: 0, .. }) && self.kernel_started() {
                self.init_kernel();
            }
        } else {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "halo worlds are monotone: the session is at world {}, the request names world {target}",
                    self.sampled - 1
                ),
            ));
        }
        Ok(())
    }

    fn apply(&mut self, request: &HaloRequest) -> Result<String, RequestError> {
        self.ensure_world(request)?;
        match &request.phase {
            HaloPhase::Feed { ranks } => self.feed(request, ranks),
            HaloPhase::Step { step, acc, levels } => self.step(request, *step, *acc, levels),
            HaloPhase::Page { from, max } => Ok(self.page_response(request, *from, *max)),
            HaloPhase::Collect { from, max } => self.collect(request, *from, *max),
        }
    }

    /// Installs exchanged ghost ranks (global-id addressed) for the next
    /// PageRank superstep.  Every id is checked before any rank lands, so a
    /// rejected feed leaves the session as it was.
    fn feed(&mut self, request: &HaloRequest, ranks: &[u8]) -> Result<String, RequestError> {
        let halo = self.engine.halo_plan().shard(self.shard);
        let Kernel::PageRank { state, .. } = &mut self.kernel else {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "a {} halo kernel exchanges no ghost ranks; feed applies to pagerank only",
                    self.kernel_id.type_name()
                ),
            ));
        };
        let is_ghost = |gid: u32| {
            let halo_local = halo.halo_index(gid as usize);
            halo_local != NOT_IN_HALO && (halo_local as usize) >= halo.owned()
        };
        if let Some((gid, _)) = unpack_ranks(ranks).find(|&(gid, _)| !is_ghost(gid)) {
            return Err((
                ErrorCode::BadRequest,
                format!("vertex {gid} is not a ghost of shard {}", self.shard),
            ));
        }
        for (gid, rank) in unpack_ranks(ranks) {
            state.set_halo_rank(halo.halo_index(gid as usize) as usize, rank);
        }
        Ok(finish_ok(
            ok_builder()
                .field("job", request.job.as_str())
                .field("world", request.world)
                .field("fed", ranks.len() / RANK_RECORD),
        ))
    }

    fn step(
        &mut self,
        request: &HaloRequest,
        step: usize,
        acc: Option<f64>,
        levels: &[u8],
    ) -> Result<String, RequestError> {
        let halo = self.engine.halo_plan().shard(self.shard);
        let n = self.engine.graph().num_vertices();
        let partition = self.engine.partition();
        match &mut self.kernel {
            Kernel::PageRank {
                damping,
                state,
                rank_d,
                step: at,
                active,
            } => {
                if step != *at {
                    return Err((
                        ErrorCode::BadRequest,
                        format!("pagerank session is at step {at}, the request names step {step}"),
                    ));
                }
                let Some(acc) = acc else {
                    return Err((
                        ErrorCode::BadRequest,
                        "a pagerank step threads the delta accumulator: field \"acc\" is required"
                            .to_string(),
                    ));
                };
                if !levels.is_empty() {
                    return Err((
                        ErrorCode::BadRequest,
                        "a pagerank step carries no settlements; exchange ranks via feed"
                            .to_string(),
                    ));
                }
                let uniform = 1.0 / n as f64;
                let mass = dangling_mass(*rank_d, self.presence.dangling());
                let base = (1.0 - *damping) * uniform + *damping * mass * uniform;
                state.superstep(halo, &self.presence, *damping, base);
                let acc_out = state.fold_delta(acc);
                state.commit();
                *rank_d = base;
                *at += 1;
                self.report.clear();
                for &gv in active.iter() {
                    let local = halo.halo_index(gv) as usize;
                    pack_rank(&mut self.report, gv as u32, state.owned_ranks()[local]);
                }
                let builder = ok_builder()
                    .field("job", request.job.as_str())
                    .field("world", request.world)
                    .field("step", step)
                    .field("acc", f64_to_hex(acc_out));
                Ok(finish_ok(report_window(
                    builder,
                    &self.report,
                    RANK_RECORD,
                    0,
                    HALO_PAGE,
                )))
            }
            Kernel::Bfs {
                state, step: at, ..
            } => {
                if step != *at {
                    return Err((
                        ErrorCode::BadRequest,
                        format!("bfs session is at step {at}, the request names step {step}"),
                    ));
                }
                if acc.is_some() {
                    return Err((
                        ErrorCode::BadRequest,
                        "a bfs step threads no accumulator; field \"acc\" applies to pagerank"
                            .to_string(),
                    ));
                }
                let is_owned = |gid: u32| {
                    let halo_local = halo.halo_index(gid as usize);
                    halo_local != NOT_IN_HALO && (halo_local as usize) < halo.owned()
                };
                if let Some((gid, _)) = unpack_levels(levels).find(|&(gid, _)| !is_owned(gid)) {
                    return Err((
                        ErrorCode::BadRequest,
                        format!(
                            "vertex {gid} is not owned by shard {}; settlements route to owners",
                            self.shard
                        ),
                    ));
                }
                for (gid, level) in unpack_levels(levels) {
                    state.absorb(halo.halo_index(gid as usize), level);
                }
                let mut settled: Vec<(u32, u32)> = Vec::new();
                state.expand(halo, &self.presence, step as u32, &mut settled);
                *at += 1;
                self.report.clear();
                for (halo_local, level) in settled {
                    let gid = if (halo_local as usize) < halo.owned() {
                        partition
                            .shard(self.shard)
                            .global_vertex(halo_local as usize) as u32
                    } else {
                        halo.ghosts()[halo_local as usize - halo.owned()] as u32
                    };
                    pack_level(&mut self.report, gid, level);
                }
                let builder = ok_builder()
                    .field("job", request.job.as_str())
                    .field("world", request.world)
                    .field("step", step);
                Ok(finish_ok(report_window(
                    builder,
                    &self.report,
                    LEVEL_RECORD,
                    0,
                    HALO_PAGE,
                )))
            }
            Kernel::Clustering { .. } => Err((
                ErrorCode::BadRequest,
                "clustering is a pure collect kernel; it runs no supersteps".to_string(),
            )),
        }
    }

    /// Re-reads a window of the last superstep's report (idempotent).
    fn page_response(&self, request: &HaloRequest, from: usize, max: usize) -> String {
        let builder = ok_builder()
            .field("job", request.job.as_str())
            .field("world", request.world);
        finish_ok(report_window(
            builder,
            &self.report,
            self.report_width(),
            from,
            max,
        ))
    }

    /// Pages the owned final values of the current world.
    fn collect(
        &mut self,
        request: &HaloRequest,
        from: usize,
        max: usize,
    ) -> Result<String, RequestError> {
        let halo = self.engine.halo_plan().shard(self.shard);
        let presence = &self.presence;
        let owned: &[f64] = match &mut self.kernel {
            Kernel::PageRank { state, .. } => state.owned_ranks(),
            Kernel::Clustering {
                state,
                coefficients,
            } => {
                // One-shot halo materialisation on the first collect.
                coefficients.get_or_insert_with(|| state.run(halo, presence).to_vec())
            }
            Kernel::Bfs { .. } => {
                return Err((
                    ErrorCode::BadRequest,
                    "a bfs session reports settlements in step responses; nothing to collect"
                        .to_string(),
                ))
            }
        };
        let window = window(owned.len(), from, max);
        let mut records = Vec::with_capacity(window.len() * VALUE_RECORD);
        for &value in &owned[window] {
            pack_value(&mut records, value);
        }
        let builder = ok_builder()
            .field("job", request.job.as_str())
            .field("world", request.world);
        Ok(finish_ok(window_fields(
            builder,
            from,
            owned.len(),
            &records,
        )))
    }
}

/// The records `from..` of a `total`-record report that one window of at
/// most `max` records (at least one) carries; empty past the end.
fn window(total: usize, from: usize, max: usize) -> Range<usize> {
    let end = from.saturating_add(max.max(1)).min(total);
    from.min(end)..end
}

/// Appends the paging fields of the requested window of `report` (whole
/// `width`-byte records).
fn report_window(
    builder: minijson::ObjBuilder,
    report: &[u8],
    width: usize,
    from: usize,
    max: usize,
) -> minijson::ObjBuilder {
    let total = report.len() / width;
    let window = window(total, from, max);
    let records = &report[window.start * width..window.end * width];
    window_fields(builder, from, total, records)
}

/// Appends the standard paging fields: the cursor, the report's total
/// record count (so the reader knows whether to page on), and the window's
/// `records` as one packed string.
fn window_fields(
    builder: minijson::ObjBuilder,
    from: usize,
    total: usize,
    records: &[u8],
) -> minijson::ObjBuilder {
    let mut values = String::new();
    encode_window(records, &mut values);
    builder
        .field("from", from)
        .field("total", total)
        .field("values", values)
}

/// Dispatches one `halo` request against the connection's session map.
/// Identity mismatches under a live token replace the session (the
/// coordinator reuses tokens across plans); a kernel panic drops the
/// session and answers a typed `internal` error.
pub(crate) fn handle<'g>(
    request: HaloRequest,
    env: &HaloEnv<'g>,
    sessions: &mut HashMap<String, HaloSession<'g>>,
) -> String {
    if request.shard != env.shard || request.shards != env.shards {
        return error_line(
            ErrorCode::BadRequest,
            &format!(
                "halo names shard {}/{} but this worker serves shard {}/{}",
                request.shard, request.shards, env.shard, env.shards
            ),
        );
    }
    let fresh = match sessions.get(&request.job) {
        Some(session) => !session.matches(&request),
        None => true,
    };
    if fresh {
        if !sessions.contains_key(&request.job) && sessions.len() >= env.budget {
            return error_line(
                ErrorCode::OverBudget,
                &format!(
                    "this connection already holds {} halo sessions (budget {})",
                    sessions.len(),
                    env.budget
                ),
            );
        }
        let session = HaloSession::new(&request, env);
        if sessions.insert(request.job.clone(), session).is_none() {
            env.gauge.fetch_add(1, Ordering::SeqCst);
        }
    }
    let session = sessions
        .get_mut(&request.job)
        .expect("session inserted above");
    match catch_unwind(AssertUnwindSafe(|| session.apply(&request))) {
        Ok(Ok(response)) => response,
        Ok(Err((code, message))) => error_line(code, &message),
        Err(_) => {
            sessions.remove(&request.job);
            env.gauge.fetch_sub(1, Ordering::SeqCst);
            error_line(
                ErrorCode::Internal,
                "the halo kernel panicked; the session was dropped",
            )
        }
    }
}
