//! A panic-free TCP query front-end for the uncertain-graph query service:
//! thread-per-connection, line-delimited JSON, with a deterministic result
//! cache, typed admission control and graceful shutdown.
//!
//! Start a server with [`serve`]; talk to it with [`LineClient`] (or any
//! newline-framed socket client).  Every request is **one line** of JSON,
//! every response is **one line** of JSON — no client input can panic a
//! worker, hang a ticket, or kill the connection.
//!
//! # Wire protocol
//!
//! Requests are JSON objects with a string `op` field.  Unknown ops,
//! unknown fields, malformed JSON and oversized lines (over
//! [`protocol::MAX_LINE_BYTES`]) are answered with the error envelope and
//! the connection stays up.
//!
//! | request | response on success |
//! |---------|---------------------|
//! | `{"op": "submit", "plan": {…}}` | `{"status": "ok", "job": N, "cached": bool}` |
//! | `{"op": "poll", "job": N}` | `{"status": "ok", "job": N, "done": false}` or `{"status": "ok", "job": N, "done": true, "report": {…}}` |
//! | `{"op": "cancel", "job": N}` | `{"status": "ok", "job": N, "cancelled": true}` |
//! | `{"op": "stats"}` | `{"status": "ok", "graph": …, "jobs": {…}, "cache": {…}, "queue": {…}, "executors": […], "connections": N}` (plus `"shard": {…}` on a worker) |
//! | `{"op": "ping"}` | `{"status": "ok", "pong": true}` |
//! | `{"op": "shutdown"}` | `{"status": "ok", "stopping": true}`, then sockets close |
//! | `{"op": "shard_submit", "job": "t", "shard": K, "shards": W, "worlds": N, "seed": "S", "mode": "skip"}` | `{"status": "ok", "job": "t", "accepted": true, "pos": P, "target": N}` (worker mode only) |
//! | `{"op": "boundary", "job": "t", "from": F, "max": M}` | `{"status": "ok", "job": "t", "from": F, "records": ["…", …], "pos": P, "target": N}` |
//! | `{"op": "shard_result", "job": "t"}` | `{"status": "ok", "job": "t", "done": false, "pos": P, "target": N}` or `{"status": "ok", "job": "t", "done": true, "worlds": N, "hist": […], "intra": […]}` |
//! | `{"op": "halo", "job": "t", "shard": K, "shards": W, "seed": "S", "mode": "skip", "kernel": {…}, "world": N, "phase": "feed", "values": "<base64 rank records>"}` | `{"status": "ok", "job": "t", "world": N, "fed": F}` (worker mode only) |
//! | `{"op": "halo", …, "phase": "step", "step": T, "acc": "hex", "values": "<base64 level records>"}` | `{"status": "ok", "job": "t", "world": N, "step": T, ("acc": "hex",) "from": 0, "total": C, "values": "<base64>"}` |
//! | `{"op": "halo", …, "phase": "page", "from": F, "max": M}` | `{"status": "ok", "job": "t", "world": N, "from": F, "total": C, "values": "<base64>"}` |
//! | `{"op": "halo", …, "phase": "collect", "from": F, "max": M}` | `{"status": "ok", "job": "t", "world": N, "from": F, "total": C, "values": "<base64 value records>"}` |
//!
//! The `plan` document is a [`ugs_service::QueryPlan`] **without** a
//! `graph` field (the server owns its graph): `worlds`, `threads`,
//! `shards`, `mode`, `seed`, an optional adaptive `precision` block, and
//! the `queries` array.  The `report` of a finished job is byte-identical
//! to what `QueryPlan::run_report` prints for the same plan against the
//! same graph, with the graph labelled `fingerprint:<hex>`.
//!
//! ## Worker mode (`shard_submit` / `boundary` / `shard_result`)
//!
//! A server started with [`ServerConfig::shard`]` = Some((k, w))` is a
//! **shard worker**: it builds the contiguous `w`-shard partition of its
//! graph and holds only shard `k`'s CSR state (plus the O(|E|) replay
//! table that keeps the sampled world stream identical across workers).
//! `shard_submit` starts a background sampling job under a client-chosen
//! string token: the worker replays worlds from the submitted batch
//! `seed` (a **decimal string** — JSON numbers here are f64 and cannot
//! carry every u64), recording one boundary message per world (component
//! count, present-cut labels, boundary component sizes) and folding each
//! world into its running aggregates.  `boundary` pages the per-world
//! records without blocking on sampling; `shard_result` reports progress
//! until the target is reached, then the cross-world aggregates.
//! Re-submitting the same token with a larger `worlds` raises the target
//! of a running job (how an adaptive coordinator extends by epochs); any
//! other parameter change is rejected — the replay identity is immutable.
//! Shard jobs are scoped to their connection.  Submitting a new token
//! first releases the connection's finished jobs (every targeted world
//! sampled, or the sampler dead), and the same
//! [`ServerConfig::max_inflight`] budget bounds the jobs still running;
//! when the connection closes, its sampler threads are stopped and joined.
//!
//! ## Ghost-halo exchange (`halo`)
//!
//! Neighbourhood queries (PageRank, clustering coefficients, the BFS core
//! of k-NN) cannot be answered from boundary records alone; a worker runs
//! them through connection-local **halo sessions** instead.  Every `halo`
//! line carries the full session identity — job token, shard role, replay
//! `seed`/`mode` (decimal-string seed, as above), and a `kernel` object
//! (`{"type": "pagerank", "damping": "<16 hex digits>"}` with the damping
//! factor as IEEE-754 bits, `{"type": "clustering"}`, or `{"type": "bfs",
//! "source": V}`) — so a freshly promoted standby rebuilds the session
//! from whatever line arrives first, replaying the shared world stream up
//! to the named `world`.  A world then runs as supersteps: `feed` installs
//! exchanged ghost ranks, `step T` runs one superstep (PageRank threads
//! the convergence accumulator `acc` through shards and reports the ranks
//! of its *active* boundary — the owned vertices with at least one edge to
//! a ghost that is present in the world, the only ranks another shard
//! reads — with `total` counting that list; BFS absorbs routed
//! settlements and reports the newly settled vertices).  A step answers
//! its first [`protocol::HALO_PAGE`] records inline, `page` re-reads a
//! step report window idempotently, and `collect` pages the owned final
//! values (for clustering, `collect` triggers the one-shot halo
//! computation); `page` and `collect` default to a `HALO_PAGE` window.
//!
//! Bulk values travel as **packed windows**: `values` is one string, the
//! standard padded base64 of fixed-width little-endian records — a rank is
//! a `u32` global id plus the `f64` bits as `u64` (12 bytes, 16
//! characters), a BFS settlement a `u32` id plus a `u32` level (8 bytes),
//! a collected value the `f64` bits alone (8 bytes, in owned-vertex
//! order).  `from`, `max` and `total` count records.  Base64 keeps the
//! line free of newlines and escapes, so the packed values ride the same
//! line framing as every other op.  A worker rejects bad base64, a window
//! that is not whole records, the retired array form, a fed id that is not
//! its ghost and a settlement for a vertex it does not own, each with a
//! typed `bad_request` that leaves the session as it was.
//!
//! **`step 0` on the current world restarts its kernel without
//! resampling** — the coordinator's recovery move after a mid-superstep
//! worker loss.  All values cross the wire as f64 bit patterns, so
//! distributed results stay bit-identical to the monolithic engine.
//! Sessions are plain connection-local data bounded by the same
//! [`ServerConfig::max_inflight`] budget and die with their connection.
//!
//! ## Coordinator failure model
//!
//! A distributed coordinator (the `ugs-dist` crate) arms read *and* write
//! timeouts on every worker connection, retries a failed exchange a
//! bounded number of times by reconnecting and resubmitting (the fresh
//! job deterministically resamples the identical stream), and treats a
//! worker whose `pos` stops advancing across a deadline as stale.  When
//! the retries are exhausted the plan degrades to the typed `worker_lost`
//! error — a query against a degraded fleet **never hangs**.  Shutting
//! the coordinator down drops every worker connection, which stops the
//! workers' sampler threads.
//!
//! ## Error envelope
//!
//! Every failure is one line of
//! `{"status": "error", "code": "<code>", "retryable": <bool>,
//! "message": "…"}` with `code` one
//! of `bad_request`, `unknown_op`, `plan`, `over_budget` (the connection's
//! [`ServerConfig::max_inflight`] budget), `overloaded` (the bounded
//! server-wide queue is full), `unknown_job`, `shutting_down`,
//! `worker_lost` (a distributed worker died mid-plan and bounded retries
//! ran out), `internal` — see [`protocol::ErrorCode`].  The `retryable`
//! flag ([`ErrorCode::retryable`]) marks the transient codes
//! (`worker_lost`, `overloaded`, `over_budget`) a client may usefully
//! retry after a backoff.  Job ids are
//! per-connection; a delivered or cancelled job's id answers
//! `unknown_job` afterwards.
//!
//! Request lines are read under a byte cap
//! ([`ServerConfig::max_line_bytes`]): an oversized line is drained —
//! never buffered whole — answered with `bad_request`, and the connection
//! stays alive.
//!
//! ## Result cache
//!
//! Answers are cached under their exact replay identity — graph
//! fingerprint, seed, worlds/threads/shards/mode, precision block and the
//! canonical query spec (adaptive plans additionally hash the whole query
//! mix) — under an LRU byte budget.  A cache hit is **bit-identical** to a
//! fresh run; see the [`cache`] module docs for the full key definition and
//! why fixed-budget answers may be reused across plans while adaptive
//! answers may not.
//!
//! # Example
//!
//! ```
//! use uncertain_graph::UncertainGraph;
//! use ugs_server::{serve, LineClient, ServerConfig};
//!
//! let graph = UncertainGraph::from_edges(3, [(0, 1, 0.9), (1, 2, 0.5)]).unwrap();
//! let server = serve(graph, ServerConfig::default()).unwrap();
//!
//! let mut client = LineClient::connect(server.addr()).unwrap();
//! let accepted = client
//!     .submit(r#"{"worlds": 50, "seed": 7, "queries": [{"type": "connectivity"}]}"#)
//!     .unwrap();
//! assert_eq!(accepted.get_str("status"), Some("ok"));
//! let job = accepted.get_usize("job").unwrap() as u64;
//!
//! let report = client.wait_for_report(job).unwrap();
//! let results = report.get("results").unwrap().as_array().unwrap();
//! assert_eq!(results[0].get_str("status"), Some("ok"));
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
mod halo;
mod line;
pub mod protocol;
pub mod server;
mod shard;

pub use cache::{query_key, CacheStats, ResultCache};
pub use client::LineClient;
pub use fault::{FaultClock, FaultEvent, FaultKind, FaultPlan};
pub use protocol::{ErrorCode, Request};
pub use server::{serve, ServerConfig, ServerHandle};
