//! Worker-side shard sampling jobs: the state behind the `shard_submit` /
//! `boundary` / `shard_result` ops of a server running with a shard role.
//!
//! A job owns one background sampler thread.  The thread builds a
//! single-shard [`ShardedWorldEngine`] (only the owned shard's CSR template
//! is materialised), replays the shared world stream from the submitted
//! batch seed, and appends one encoded
//! [`ShardWorldRecord`](ugs_queries::ShardWorldRecord) per world while
//! folding the world into the job's running aggregates (degree histogram,
//! per-local-edge presence counts).  Readers never block on sampling:
//! `boundary` pages whatever records exist, `shard_result` reports progress
//! until the target is reached.
//!
//! Job state lives and dies with the connection that submitted it — a
//! coordinator that loses a worker reconnects and resubmits, and the fresh
//! job deterministically resamples the identical stream from world 0.  A
//! finished job (every targeted world sampled, or its sampler dead) is
//! released when its connection submits a new token, so a long-lived
//! coordinator connection holds at most its current job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use ugs_queries::{accumulate_shard_aggregates, extract_shard_record, ShardedWorldEngine};
use uncertain_graph::{GraphPartition, UncertainGraph};

use crate::protocol::ShardJobRequest;

/// Mutable job state shared between the sampler thread and the connection
/// handler.
struct JobState {
    /// Absolute world target; raised (never lowered) by resubmission.
    target: usize,
    /// Worlds fully sampled and recorded so far.
    pos: usize,
    /// Encoded boundary record per world, in world order.
    records: Vec<String>,
    /// Running degree histogram (`hist[d]` = vertex-world observations).
    hist: Vec<u64>,
    /// Running per-local-edge presence counts.
    intra: Vec<u64>,
    /// Set by [`ShardJob::drop`]; tells the sampler thread to exit.
    stopped: bool,
    /// Set if the sampler thread died; surfaced as a typed error.
    failed: Option<String>,
}

/// What a `shard_result` read observes.
pub(crate) enum ShardOutcome {
    /// The sampler thread died; the message explains how.
    Failed(String),
    /// Still sampling: `pos` of `target` worlds done.
    Pending {
        /// Worlds sampled so far.
        pos: usize,
        /// Current absolute target.
        target: usize,
    },
    /// Every targeted world is sampled; the cross-world aggregates.
    Done {
        /// Worlds folded into the aggregates.
        worlds: usize,
        /// Degree histogram (`hist[d]` = vertex-world observations).
        hist: Vec<u64>,
        /// Per-local-edge presence counts.
        intra: Vec<u64>,
    },
}

/// One running shard sampling job: parameters, shared state, and the
/// sampler thread handle.  Dropping the job stops and joins the thread.
pub(crate) struct ShardJob {
    request: ShardJobRequest,
    state: Arc<(Mutex<JobState>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

/// Locks a job mutex without cascading a sampler panic into the connection
/// thread: a poisoned guard is recovered, not propagated.
fn lock_state(lock: &Mutex<JobState>) -> MutexGuard<'_, JobState> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl ShardJob {
    /// Starts the sampler thread for `request` over the worker's graph and
    /// partition.  The caller has already validated the request against the
    /// worker's shard role.
    pub(crate) fn spawn(
        graph: Arc<UncertainGraph>,
        partition: Arc<GraphPartition>,
        request: ShardJobRequest,
    ) -> Self {
        let local_edges = partition.shard(request.shard).num_edges();
        let state = Arc::new((
            Mutex::new(JobState {
                target: request.worlds,
                pos: 0,
                records: Vec::new(),
                hist: Vec::new(),
                intra: vec![0; local_edges],
                stopped: false,
                failed: None,
            }),
            Condvar::new(),
        ));
        let thread_state = Arc::clone(&state);
        let shard = request.shard;
        let seed = request.seed;
        let mode = request.mode;
        let handle = std::thread::spawn(move || {
            let (lock, signal) = &*thread_state;
            let run = catch_unwind(AssertUnwindSafe(|| {
                let engine =
                    ShardedWorldEngine::for_shard(&graph, &partition, shard).with_method(mode);
                let mut scratch = engine.make_shard_scratch(shard);
                let mut rng = SmallRng::seed_from_u64(seed);
                loop {
                    {
                        let mut guard = lock_state(lock);
                        while !guard.stopped && guard.pos >= guard.target {
                            guard = signal
                                .wait(guard)
                                .unwrap_or_else(|poison| poison.into_inner());
                        }
                        if guard.stopped {
                            return;
                        }
                    }
                    // The expensive part runs unlocked; the fold below is a
                    // short critical section.
                    engine.sample_shard_world(&mut rng, &mut scratch);
                    let record = extract_shard_record(&partition, &scratch).encode();
                    let mut guard = lock_state(lock);
                    if guard.stopped {
                        return;
                    }
                    let state = &mut *guard;
                    accumulate_shard_aggregates(
                        &partition,
                        &scratch,
                        &mut state.hist,
                        &mut state.intra,
                    );
                    state.records.push(record);
                    state.pos += 1;
                }
            }));
            if run.is_err() {
                lock_state(lock).failed =
                    Some("the shard sampler thread panicked; resubmit the job".to_string());
            }
        });
        ShardJob {
            request,
            state,
            handle: Some(handle),
        }
    }

    /// Whether a resubmission names the same replay identity (everything
    /// but the world target must match; the target may only grow).
    pub(crate) fn matches(&self, request: &ShardJobRequest) -> bool {
        self.request.shard == request.shard
            && self.request.shards == request.shards
            && self.request.seed == request.seed
            && self.request.mode == request.mode
    }

    /// Raises the absolute world target (a lower target is a no-op) and
    /// wakes the sampler.
    pub(crate) fn raise_target(&self, worlds: usize) {
        let (lock, signal) = &*self.state;
        let mut guard = lock_state(lock);
        if worlds > guard.target {
            guard.target = worlds;
        }
        drop(guard);
        signal.notify_all();
    }

    /// `(pos, target)` at this instant.
    pub(crate) fn progress(&self) -> (usize, usize) {
        let guard = lock_state(&self.state.0);
        (guard.pos, guard.target)
    }

    /// Whether the job has nothing left to do: every targeted world is
    /// sampled (its thread is parked until a raise) or the sampler died.
    pub(crate) fn finished(&self) -> bool {
        let guard = lock_state(&self.state.0);
        guard.failed.is_some() || guard.pos >= guard.target
    }

    /// Non-blocking page read: up to `max` encoded records starting at
    /// world `from`, plus the current `(pos, target)`.  Fewer records come
    /// back if sampling has not reached `from + max` yet.
    pub(crate) fn page(&self, from: usize, max: usize) -> (Vec<String>, usize, usize) {
        let guard = lock_state(&self.state.0);
        let end = guard.pos.min(from.saturating_add(max));
        let records = if from < end {
            guard.records[from..end].to_vec()
        } else {
            Vec::new()
        };
        (records, guard.pos, guard.target)
    }

    /// The current `shard_result` view: failed, still pending, or done
    /// with the cross-world aggregates.
    pub(crate) fn outcome(&self) -> ShardOutcome {
        let guard = lock_state(&self.state.0);
        if let Some(message) = &guard.failed {
            return ShardOutcome::Failed(message.clone());
        }
        if guard.pos < guard.target {
            return ShardOutcome::Pending {
                pos: guard.pos,
                target: guard.target,
            };
        }
        ShardOutcome::Done {
            worlds: guard.target,
            hist: guard.hist.clone(),
            intra: guard.intra.clone(),
        }
    }
}

impl Drop for ShardJob {
    fn drop(&mut self) {
        let (lock, signal) = &*self.state;
        lock_state(lock).stopped = true;
        signal.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
