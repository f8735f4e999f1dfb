//! The line-delimited minijson wire protocol: request parsing (strict about
//! unknown fields) and response rendering; see the [crate docs](crate) for
//! the full grammar.
//!
//! Every parse failure maps to an [`ErrorCode`] plus a human-readable
//! message — a malformed line is answered, never dropped, and never kills
//! the connection.

use minijson::{ObjBuilder, Value};
use ugs_queries::halo::{decode_window, f64_from_hex, LEVEL_RECORD, RANK_RECORD};
use ugs_queries::SampleMethod;
use ugs_service::{parse_mode, QueryPlan};

/// Hard cap on one request line; longer lines are answered with
/// [`ErrorCode::BadRequest`] so a runaway client cannot balloon the
/// connection thread's buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Machine-readable error class of a `{"status": "error"}` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON (nesting past [`minijson::MAX_DEPTH`]
    /// included), not an object, missing a required field, carried an
    /// unknown field, or exceeded [`MAX_LINE_BYTES`].
    BadRequest,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The submitted plan document failed to parse or validate.
    Plan,
    /// The connection already has `max_inflight` undelivered jobs.
    OverBudget,
    /// The server-wide submission queue is full; retry after draining.
    Overloaded,
    /// `poll`/`cancel` named a job this connection does not hold (unknown,
    /// already delivered, or already cancelled).
    UnknownJob,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// A distributed worker process was lost mid-plan (connection died,
    /// request timed out, or bounded retries ran out); the coordinator
    /// degrades to this typed error instead of hanging.
    WorkerLost,
    /// An internal invariant broke (a typed answer, never a panic).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::Plan => "plan",
            ErrorCode::OverBudget => "over_budget",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::WorkerLost => "worker_lost",
            ErrorCode::Internal => "internal",
        }
    }

    /// Whether a client may usefully retry the failed request as-is.
    ///
    /// `worker_lost` names a transient fleet condition (a worker died and
    /// may be respawned or failed over), `overloaded` and `over_budget`
    /// clear as jobs drain — all three are worth retrying after a backoff.
    /// Everything else (malformed requests, plan errors, unknown jobs,
    /// shutdown, internal invariants) would fail identically again.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::WorkerLost | ErrorCode::Overloaded | ErrorCode::OverBudget
        )
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"op": "submit", "plan": {...}}` — enqueue a plan, get a job id.
    Submit(QueryPlan),
    /// `{"op": "poll", "job": N}` — probe a job; a finished report is
    /// delivered exactly once and frees the job's in-flight slot.
    Poll(u64),
    /// `{"op": "cancel", "job": N}` — abandon a job (queued jobs are never
    /// executed; a running job's answer is discarded at delivery).
    Cancel(u64),
    /// `{"op": "stats"}` — server and cache counters.
    Stats,
    /// `{"op": "ping"}` — liveness probe.
    Ping,
    /// `{"op": "shutdown"}` — ask the server to stop gracefully.
    Shutdown,
    /// `{"op": "shard_submit", "job": "t", "shard": K, "shards": W,
    /// "worlds": N, "seed": "S", "mode": "skip"}` — start (or extend) a
    /// shard sampling job on a worker; only accepted by servers running
    /// with a shard role.
    ShardSubmit(ShardJobRequest),
    /// `{"op": "boundary", "job": "t", "from": F, "max": M}` — page the
    /// per-world boundary records of a shard job, `M` records starting at
    /// world `F` (idempotent reads; fewer may come back if sampling has not
    /// reached `F + M` yet).
    Boundary {
        /// Job token named by the `shard_submit` that started the job.
        job: String,
        /// First world index requested.
        from: usize,
        /// Maximum records to return.
        max: usize,
    },
    /// `{"op": "shard_result", "job": "t"}` — fetch the job's cross-world
    /// aggregates (degree histogram, per-edge presence counts) once every
    /// targeted world is sampled.
    ShardResult {
        /// Job token named by the `shard_submit` that started the job.
        job: String,
    },
    /// `{"op": "halo", "job": "t", "shard": K, "shards": W, "seed": "S",
    /// "mode": "skip", "kernel": {...}, "world": N, "phase": "...", ...}` —
    /// one superstep interaction of the ghost-halo exchange (PageRank /
    /// clustering / BFS over a sharded world); only accepted by servers
    /// running with a shard role.  See [`HaloRequest`].
    Halo(HaloRequest),
}

/// The parsed body of a `shard_submit` request: which shard job to start or
/// extend, and the exact replay identity it samples under.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJobRequest {
    /// Client-chosen job token, scoped to the connection.
    pub job: String,
    /// Shard index this worker must own.
    pub shard: usize,
    /// Total shard count of the partition.
    pub shards: usize,
    /// Absolute world target (re-submitting with a larger target extends a
    /// running job without resampling).
    pub worlds: usize,
    /// Batch seed of the shared replay stream.  Carried as a **decimal
    /// string** on the wire: JSON numbers are f64 here, which cannot hold
    /// every u64 seed bit-exactly.
    pub seed: u64,
    /// Sampling method; `auto` resolves on the worker through the same
    /// shared rule as everywhere else, so all workers pick the same path.
    pub mode: SampleMethod,
}

/// The superstep kernel a `halo` request drives.  Carried on the wire as a
/// nested object: `{"type": "pagerank", "damping": "<16-hex f64 bits>"}`,
/// `{"type": "clustering"}`, or `{"type": "bfs", "source": N}`.  PageRank's
/// damping factor travels as IEEE-754 bits ([`ugs_queries::halo::f64_to_hex`])
/// so every worker computes with exactly the coordinator's value; the
/// iteration cap and tolerance stay coordinator-side (the coordinator owns
/// the stop decision).
#[derive(Debug, Clone, PartialEq)]
pub enum HaloKernel {
    /// Push-style PageRank; one `step` per iteration.
    PageRank {
        /// Damping factor, decoded from its wire hex form.
        damping: f64,
    },
    /// Local clustering coefficients; a pure `collect` kernel (no steps).
    Clustering,
    /// Level-synchronous BFS from `source` (the k-NN traversal core).
    Bfs {
        /// Global id of the traversal source.
        source: usize,
    },
}

impl HaloKernel {
    /// The wire spelling of the kernel type.
    pub fn type_name(&self) -> &'static str {
        match self {
            HaloKernel::PageRank { .. } => "pagerank",
            HaloKernel::Clustering => "clustering",
            HaloKernel::Bfs { .. } => "bfs",
        }
    }
}

/// The phase of one `halo` interaction.  A world runs as: optional `feed`
/// lines installing exchanged ghost values, `step` lines running supersteps
/// (paged via `page` when a report overflows one window), and `collect`
/// lines paging the owned final values.
///
/// Bulk values travel as one **packed window** per line: a JSON string
/// field `values` holding the standard base64 of fixed-width
/// little-endian records ([`ugs_queries::halo::encode_window`]).  Parsing
/// decodes it once, rejecting bad base64 and payloads that are not whole
/// records, so the phases below carry checked record bytes; the retired
/// array-of-strings form is a typed `bad_request`.
#[derive(Debug, Clone, PartialEq)]
pub enum HaloPhase {
    /// `{"phase": "feed", "values": "<base64>"}` — install exchanged ghost
    /// ranks (global-id addressed) for the upcoming superstep.
    Feed {
        /// Whole [`RANK_RECORD`] records: `u32` id, `f64` bits.
        ranks: Vec<u8>,
    },
    /// `{"phase": "step", "step": T, "acc": "hex", "values": "<base64>"}` —
    /// run superstep `T`.  PageRank threads the convergence accumulator
    /// `acc` through shards; BFS carries routed settlements in `values`.
    Step {
        /// Superstep index (step 0 (re-)initialises the world's kernel).
        step: usize,
        /// PageRank delta accumulator chained from lower shards.
        acc: Option<f64>,
        /// BFS settlements routed to this shard: whole [`LEVEL_RECORD`]
        /// records (`u32` id, `u32` level).
        levels: Vec<u8>,
    },
    /// `{"phase": "page", "from": F, "max": M}` — re-read a window of the
    /// last step's report (idempotent).
    Page {
        /// First record requested.
        from: usize,
        /// Maximum records to return ([`HALO_PAGE`] when absent).
        max: usize,
    },
    /// `{"phase": "collect", "from": F, "max": M}` — page the owned final
    /// values of the current world (triggers the compute for clustering).
    Collect {
        /// First record requested.
        from: usize,
        /// Maximum records to return ([`HALO_PAGE`] when absent).
        max: usize,
    },
}

/// The parsed body of a `halo` request: the session identity (job token,
/// shard role, replay seed/mode, kernel) plus the world cursor and phase.
/// Every line carries the full identity so a promoted standby can rebuild
/// the session from any point of the exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloRequest {
    /// Client-chosen session token, scoped to the connection.
    pub job: String,
    /// Shard index this worker must own.
    pub shard: usize,
    /// Total shard count of the partition.
    pub shards: usize,
    /// Batch seed of the shared replay stream (decimal string on the wire,
    /// as in [`ShardJobRequest::seed`]).
    pub seed: u64,
    /// Sampling method of the replayed stream.
    pub mode: SampleMethod,
    /// The superstep kernel to drive.
    pub kernel: HaloKernel,
    /// World index the phase applies to (monotone per session; a jump
    /// forward replays the stream, step 0 on the current world restarts it).
    pub world: usize,
    /// What to do in this interaction.
    pub phase: HaloPhase,
}

/// A typed protocol error: the code plus the message the client sees.
pub type RequestError = (ErrorCode, String);

/// Plan-document fields the server accepts.  `graph` is deliberately
/// absent: the server owns its graph, a client cannot point it elsewhere.
const PLAN_FIELDS: &[&str] = &[
    "worlds",
    "threads",
    "shards",
    "mode",
    "seed",
    "precision",
    "queries",
];

fn check_fields(value: &Value, allowed: &[&str], what: &str) -> Result<(), RequestError> {
    let Value::Obj(entries) = value else {
        return Err((
            ErrorCode::BadRequest,
            format!("{what} must be a JSON object"),
        ));
    };
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err((
                ErrorCode::BadRequest,
                format!(
                    "unknown field {key:?} in {what} (allowed: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

/// Records returned by a `boundary` read when the request names no `max`.
pub const DEFAULT_BOUNDARY_PAGE: usize = 512;

/// Records in one packed `halo` window, in both directions: the first
/// window of a step report, the window a `page` or `collect` returns when
/// the request names no `max`, the window a coordinator asks for, and the
/// most records a coordinator puts in one `feed` line.  The widest record
/// (a rank, 12 bytes) is 16 base64 characters, so a full window is
/// 512 KiB: a feed line stays inside the worker's [`MAX_LINE_BYTES`]
/// request cap with room for the session identity, a response stays far
/// below the client's response-line cap, and one window carries the whole
/// active boundary of a 60k-vertex graph's shard.
pub const HALO_PAGE: usize = 32_768;

fn job_token(value: &Value) -> Result<String, RequestError> {
    match value.get_str("job") {
        Some(token) if !token.is_empty() => Ok(token.to_string()),
        _ => Err((
            ErrorCode::BadRequest,
            "field \"job\" must be a non-empty string token".to_string(),
        )),
    }
}

fn required_usize(value: &Value, field: &str) -> Result<usize, RequestError> {
    value.get_usize(field).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("field {field:?} must be a non-negative integer"),
        )
    })
}

fn job_id(value: &Value) -> Result<u64, RequestError> {
    value.get_usize("job").map(|job| job as u64).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "field \"job\" must be a non-negative integer".to_string(),
        )
    })
}

fn page_window(value: &Value) -> Result<(usize, usize), RequestError> {
    let from = required_usize(value, "from")?;
    let max = match value.get("max") {
        None => HALO_PAGE,
        Some(_) => required_usize(value, "max")?,
    };
    Ok((from, max))
}

/// Decodes the packed window in `field` (absent: no records) into whole
/// `width`-byte records.
fn packed_records(value: &Value, field: &str, width: usize) -> Result<Vec<u8>, RequestError> {
    let mut records = Vec::new();
    match value.get(field) {
        None => {}
        Some(Value::Str(text)) => {
            decode_window(text.as_bytes(), width, &mut records)
                .map_err(|error| (ErrorCode::BadRequest, format!("field {field:?}: {error}")))?;
        }
        Some(_) => {
            return Err((
                ErrorCode::BadRequest,
                format!("field {field:?} must be a base64 string of packed {width}-byte records"),
            ))
        }
    }
    Ok(records)
}

fn wire_seed(value: &Value) -> Result<u64, RequestError> {
    value
        .get_str("seed")
        .and_then(|text| text.parse::<u64>().ok())
        .ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "field \"seed\" must be a decimal u64 carried as a string".to_string(),
            )
        })
}

fn wire_mode(value: &Value) -> Result<SampleMethod, RequestError> {
    let mode_name = value.get_str("mode").unwrap_or("auto");
    parse_mode(mode_name).ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            format!("unknown mode {mode_name:?}; expected auto|skip|per-edge"),
        )
    })
}

fn halo_kernel(value: &Value) -> Result<HaloKernel, RequestError> {
    let kernel = value.get("kernel").ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "a halo request requires an object field \"kernel\"".to_string(),
        )
    })?;
    let kind = kernel.get_str("type").ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "a halo kernel requires a string field \"type\"".to_string(),
        )
    })?;
    match kind {
        "pagerank" => {
            check_fields(kernel, &["type", "damping"], "a pagerank halo kernel")?;
            let damping = kernel
                .get_str("damping")
                .ok_or(())
                .and_then(|hex| f64_from_hex(hex).map_err(|_| ()))
                .map_err(|()| {
                    (
                        ErrorCode::BadRequest,
                        "field \"damping\" must be 16 hex digits of f64 bits".to_string(),
                    )
                })?;
            Ok(HaloKernel::PageRank { damping })
        }
        "clustering" => {
            check_fields(kernel, &["type"], "a clustering halo kernel")?;
            Ok(HaloKernel::Clustering)
        }
        "bfs" => {
            check_fields(kernel, &["type", "source"], "a bfs halo kernel")?;
            Ok(HaloKernel::Bfs {
                source: required_usize(kernel, "source")?,
            })
        }
        other => Err((
            ErrorCode::BadRequest,
            format!("unknown halo kernel {other:?}; expected pagerank|clustering|bfs"),
        )),
    }
}

/// Fields common to every `halo` phase.
const HALO_FIELDS: &[&str] = &[
    "op", "job", "shard", "shards", "seed", "mode", "kernel", "world", "phase",
];

fn halo_request(value: &Value) -> Result<Request, RequestError> {
    let phase_name = value.get_str("phase").ok_or_else(|| {
        (
            ErrorCode::BadRequest,
            "a halo request requires a string field \"phase\"".to_string(),
        )
    })?;
    // Per-phase strict field lists: the phase decides which extras exist.
    let (extra, what): (&[&str], &str) = match phase_name {
        "feed" => (&["values"], "a halo feed request"),
        "step" => (&["step", "acc", "values"], "a halo step request"),
        "page" => (&["from", "max"], "a halo page request"),
        "collect" => (&["from", "max"], "a halo collect request"),
        other => {
            return Err((
                ErrorCode::BadRequest,
                format!("unknown halo phase {other:?}; expected feed|step|page|collect"),
            ))
        }
    };
    let allowed: Vec<&str> = HALO_FIELDS.iter().chain(extra.iter()).copied().collect();
    check_fields(value, &allowed, what)?;
    let phase = match phase_name {
        "feed" => HaloPhase::Feed {
            ranks: packed_records(value, "values", RANK_RECORD)?,
        },
        "step" => {
            let acc = match value.get_str("acc") {
                None => None,
                Some(hex) => Some(f64_from_hex(hex).map_err(|_| {
                    (
                        ErrorCode::BadRequest,
                        "field \"acc\" must be 16 hex digits of f64 bits".to_string(),
                    )
                })?),
            };
            HaloPhase::Step {
                step: required_usize(value, "step")?,
                acc,
                levels: packed_records(value, "values", LEVEL_RECORD)?,
            }
        }
        "page" => {
            let (from, max) = page_window(value)?;
            HaloPhase::Page { from, max }
        }
        "collect" => {
            let (from, max) = page_window(value)?;
            HaloPhase::Collect { from, max }
        }
        _ => unreachable!("phase name matched above"),
    };
    Ok(Request::Halo(HaloRequest {
        job: job_token(value)?,
        shard: required_usize(value, "shard")?,
        shards: required_usize(value, "shards")?,
        seed: wire_seed(value)?,
        mode: wire_mode(value)?,
        kernel: halo_kernel(value)?,
        world: required_usize(value, "world")?,
        phase,
    }))
}

/// Parses one request line; every failure is a typed [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err((
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let value = Value::parse(line).map_err(|error| (ErrorCode::BadRequest, error.to_string()))?;
    let op = match &value {
        Value::Obj(_) => value.get_str("op").ok_or_else(|| {
            (
                ErrorCode::BadRequest,
                "a request requires a string field \"op\"".to_string(),
            )
        })?,
        _ => {
            return Err((
                ErrorCode::BadRequest,
                "a request must be a JSON object".to_string(),
            ))
        }
    };
    match op {
        "submit" => {
            check_fields(&value, &["op", "plan"], "a submit request")?;
            let plan_value = value.get("plan").ok_or_else(|| {
                (
                    ErrorCode::BadRequest,
                    "a submit request requires an object field \"plan\"".to_string(),
                )
            })?;
            if plan_value.get("graph").is_some() {
                return Err((
                    ErrorCode::Plan,
                    "the plan must not name a \"graph\": the server serves its own graph"
                        .to_string(),
                ));
            }
            check_fields(plan_value, PLAN_FIELDS, "a plan")?;
            let plan = QueryPlan::parse(plan_value)
                .map_err(|error| (ErrorCode::Plan, error.to_string()))?;
            Ok(Request::Submit(plan))
        }
        "poll" => {
            check_fields(&value, &["op", "job"], "a poll request")?;
            Ok(Request::Poll(job_id(&value)?))
        }
        "cancel" => {
            check_fields(&value, &["op", "job"], "a cancel request")?;
            Ok(Request::Cancel(job_id(&value)?))
        }
        "stats" => {
            check_fields(&value, &["op"], "a stats request")?;
            Ok(Request::Stats)
        }
        "ping" => {
            check_fields(&value, &["op"], "a ping request")?;
            Ok(Request::Ping)
        }
        "shutdown" => {
            check_fields(&value, &["op"], "a shutdown request")?;
            Ok(Request::Shutdown)
        }
        "shard_submit" => {
            check_fields(
                &value,
                &["op", "job", "shard", "shards", "worlds", "seed", "mode"],
                "a shard_submit request",
            )?;
            Ok(Request::ShardSubmit(ShardJobRequest {
                job: job_token(&value)?,
                shard: required_usize(&value, "shard")?,
                shards: required_usize(&value, "shards")?,
                worlds: required_usize(&value, "worlds")?,
                seed: wire_seed(&value)?,
                mode: wire_mode(&value)?,
            }))
        }
        "halo" => halo_request(&value),
        "boundary" => {
            check_fields(&value, &["op", "job", "from", "max"], "a boundary request")?;
            let job = job_token(&value)?;
            let from = required_usize(&value, "from")?;
            let max = match value.get("max") {
                None => DEFAULT_BOUNDARY_PAGE,
                Some(_) => required_usize(&value, "max")?,
            };
            Ok(Request::Boundary { job, from, max })
        }
        "shard_result" => {
            check_fields(&value, &["op", "job"], "a shard_result request")?;
            Ok(Request::ShardResult {
                job: job_token(&value)?,
            })
        }
        other => Err((
            ErrorCode::UnknownOp,
            format!(
                "unknown op {other:?}; expected submit|poll|cancel|stats|ping|shutdown|\
                 shard_submit|boundary|shard_result|halo"
            ),
        )),
    }
}

/// Renders the `{"status": "error", ...}` envelope for one line.  The
/// `retryable` field mirrors [`ErrorCode::retryable`] so clients can route
/// transient failures to a retry loop without a code table of their own.
pub fn error_line(code: ErrorCode, message: &str) -> String {
    ObjBuilder::new()
        .field("status", "error")
        .field("code", code.as_str())
        .field("retryable", code.retryable())
        .field("message", message)
        .build()
        .render()
}

/// Starts an `{"status": "ok"}` response; callers add their fields and
/// render with [`finish_ok`].
pub fn ok_builder() -> ObjBuilder {
    ObjBuilder::new().field("status", "ok")
}

/// Renders an ok-response builder to its wire line.
pub fn finish_ok(builder: ObjBuilder) -> String {
    builder.build().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_requests_parse() {
        let submit = parse_request(
            r#"{"op": "submit", "plan": {"worlds": 10, "queries": [{"type": "connectivity"}]}}"#,
        )
        .unwrap();
        match submit {
            Request::Submit(plan) => {
                assert_eq!(plan.worlds, 10);
                assert_eq!(plan.queries.len(), 1);
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op": "poll", "job": 3}"#).unwrap(),
            Request::Poll(3)
        );
        assert_eq!(
            parse_request(r#"{"op": "cancel", "job": 0}"#).unwrap(),
            Request::Cancel(0)
        );
        assert_eq!(parse_request(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op": "stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn shard_ops_parse_with_string_seeds_and_defaults() {
        let submit = parse_request(concat!(
            r#"{"op": "shard_submit", "job": "t1", "shard": 1, "shards": 4,"#,
            r#" "worlds": 200, "seed": "18446744073709551615", "mode": "skip"}"#,
        ))
        .unwrap();
        assert_eq!(
            submit,
            Request::ShardSubmit(ShardJobRequest {
                job: "t1".to_string(),
                shard: 1,
                shards: 4,
                worlds: 200,
                seed: u64::MAX,
                mode: SampleMethod::Skip,
            })
        );
        // `mode` defaults to auto; `max` defaults to the standard page size.
        let submit = parse_request(concat!(
            r#"{"op": "shard_submit", "job": "t2", "shard": 0, "shards": 1,"#,
            r#" "worlds": 8, "seed": "7"}"#,
        ))
        .unwrap();
        match submit {
            Request::ShardSubmit(request) => assert_eq!(request.mode, SampleMethod::Auto),
            other => panic!("unexpected request {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"op": "boundary", "job": "t1", "from": 64, "max": 32}"#).unwrap(),
            Request::Boundary {
                job: "t1".to_string(),
                from: 64,
                max: 32,
            }
        );
        assert_eq!(
            parse_request(r#"{"op": "boundary", "job": "t1", "from": 0}"#).unwrap(),
            Request::Boundary {
                job: "t1".to_string(),
                from: 0,
                max: DEFAULT_BOUNDARY_PAGE,
            }
        );
        assert_eq!(
            parse_request(r#"{"op": "shard_result", "job": "t1"}"#).unwrap(),
            Request::ShardResult {
                job: "t1".to_string(),
            }
        );
    }

    #[test]
    fn malformed_shard_ops_are_typed_errors() {
        let cases: [(&str, ErrorCode); 6] = [
            // A numeric seed is rejected: it must travel as a decimal string.
            (
                concat!(
                    r#"{"op": "shard_submit", "job": "t", "shard": 0, "shards": 1,"#,
                    r#" "worlds": 8, "seed": 7}"#,
                ),
                ErrorCode::BadRequest,
            ),
            (
                concat!(
                    r#"{"op": "shard_submit", "job": "", "shard": 0, "shards": 1,"#,
                    r#" "worlds": 8, "seed": "7"}"#,
                ),
                ErrorCode::BadRequest,
            ),
            (
                concat!(
                    r#"{"op": "shard_submit", "job": "t", "shard": 0, "shards": 1,"#,
                    r#" "worlds": 8, "seed": "7", "mode": "warp"}"#,
                ),
                ErrorCode::BadRequest,
            ),
            (
                concat!(
                    r#"{"op": "shard_submit", "job": "t", "shard": 0, "shards": 1,"#,
                    r#" "worlds": 8, "seed": "7", "budget": 5}"#,
                ),
                ErrorCode::BadRequest,
            ),
            (r#"{"op": "boundary", "job": "t"}"#, ErrorCode::BadRequest),
            (r#"{"op": "shard_result"}"#, ErrorCode::BadRequest),
        ];
        for (line, expected) in cases {
            let (code, message) = parse_request(line).unwrap_err();
            assert_eq!(code, expected, "{line}: {message}");
        }
    }

    fn packed_levels(levels: &[(u32, u32)]) -> Vec<u8> {
        let mut records = Vec::new();
        for &(id, level) in levels {
            ugs_queries::halo::pack_level(&mut records, id, level);
        }
        records
    }

    #[test]
    fn halo_requests_parse_with_typed_kernels_and_phases() {
        let step = parse_request(concat!(
            r#"{"op": "halo", "job": "h0", "shard": 1, "shards": 2, "seed": "9","#,
            r#" "mode": "skip", "kernel": {"type": "pagerank", "damping": "3feb333333333333"},"#,
            r#" "world": 4, "phase": "step", "step": 0, "acc": "0000000000000000"}"#,
        ))
        .unwrap();
        match step {
            Request::Halo(request) => {
                assert_eq!(request.job, "h0");
                assert_eq!((request.shard, request.shards, request.world), (1, 2, 4));
                assert_eq!(request.seed, 9);
                assert_eq!(request.mode, SampleMethod::Skip);
                match request.kernel {
                    HaloKernel::PageRank { damping } => {
                        assert_eq!(damping.to_bits(), 0.85f64.to_bits());
                    }
                    other => panic!("unexpected kernel {other:?}"),
                }
                assert_eq!(
                    request.phase,
                    HaloPhase::Step {
                        step: 0,
                        acc: Some(0.0),
                        levels: Vec::new(),
                    }
                );
            }
            other => panic!("unexpected request {other:?}"),
        }
        let feed = parse_request(concat!(
            r#"{"op": "halo", "job": "h0", "shard": 0, "shards": 2, "seed": "9","#,
            r#" "mode": "auto", "kernel": {"type": "bfs", "source": 3}, "world": 0,"#,
            r#" "phase": "step", "step": 2, "values": "BQAAAAEAAAAHAAAAAgAAAA=="}"#,
        ))
        .unwrap();
        match feed {
            Request::Halo(request) => {
                assert_eq!(request.kernel, HaloKernel::Bfs { source: 3 });
                assert_eq!(
                    request.phase,
                    HaloPhase::Step {
                        step: 2,
                        acc: None,
                        levels: packed_levels(&[(5, 1), (7, 2)]),
                    }
                );
            }
            other => panic!("unexpected request {other:?}"),
        }
        let collect = parse_request(concat!(
            r#"{"op": "halo", "job": "cc", "shard": 0, "shards": 2, "seed": "1","#,
            r#" "mode": "per-edge", "kernel": {"type": "clustering"}, "world": 7,"#,
            r#" "phase": "collect", "from": 0}"#,
        ))
        .unwrap();
        match collect {
            Request::Halo(request) => {
                assert_eq!(request.kernel, HaloKernel::Clustering);
                assert_eq!(
                    request.phase,
                    HaloPhase::Collect {
                        from: 0,
                        max: HALO_PAGE,
                    }
                );
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn malformed_halo_requests_are_typed_errors() {
        let cases: &[&str] = &[
            // Phase-inappropriate extras are rejected per phase.
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "clustering"}, "world": 0, "phase": "collect","#,
                r#" "from": 0, "acc": "0000000000000000"}"#,
            ),
            // Unknown phase.
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "clustering"}, "world": 0, "phase": "warp"}"#,
            ),
            // Unknown kernel, unknown kernel field, malformed damping.
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "warp"}, "world": 0, "phase": "step", "step": 0}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "clustering", "k": 2}, "world": 0, "phase": "step","#,
                r#" "step": 0}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "pagerank", "damping": "0.85"}, "world": 0,"#,
                r#" "phase": "step", "step": 0}"#,
            ),
            // A numeric seed, a missing world, a non-string values field.
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": 1,"#,
                r#" "kernel": {"type": "clustering"}, "world": 0, "phase": "collect", "from": 0}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "clustering"}, "phase": "collect", "from": 0}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "bfs", "source": 0}, "world": 0, "phase": "step","#,
                r#" "step": 0, "values": [5]}"#,
            ),
            // The retired array-of-strings form, bad base64, and a window
            // that is not whole records (a 12-byte rank record on a BFS
            // step, a 9-byte feed).
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "pagerank", "damping": "3feb333333333333"}, "world": 0,"#,
                r#" "phase": "feed", "values": ["3:3fe0000000000000"]}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "bfs", "source": 0}, "world": 0, "phase": "step","#,
                r#" "step": 0, "values": "BQAA-AEAAAA="}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "bfs", "source": 0}, "world": 0, "phase": "step","#,
                r#" "step": 0, "values": "AwAAAAAAAAAAAOA/"}"#,
            ),
            concat!(
                r#"{"op": "halo", "job": "h", "shard": 0, "shards": 1, "seed": "1","#,
                r#" "kernel": {"type": "pagerank", "damping": "3feb333333333333"}, "world": 0,"#,
                r#" "phase": "feed", "values": "AwAAAAAAAAAA"}"#,
            ),
        ];
        for line in cases {
            let (code, message) = parse_request(line).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "{line}: {message}");
        }
    }

    #[test]
    fn malformed_and_unknown_field_requests_are_typed_errors() {
        let cases: [(&str, ErrorCode); 8] = [
            ("{not json", ErrorCode::BadRequest),
            ("[1, 2]", ErrorCode::BadRequest),
            (r#"{"op": "warp"}"#, ErrorCode::UnknownOp),
            (r#"{"op": "ping", "extra": 1}"#, ErrorCode::BadRequest),
            (r#"{"op": "poll"}"#, ErrorCode::BadRequest),
            (
                r#"{"op": "submit", "plan": {"queries": []}}"#,
                ErrorCode::Plan,
            ),
            (
                r#"{"op": "submit", "plan": {"budget": 5, "queries": [{"type": "connectivity"}]}}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op": "submit", "plan": {"graph": "g.txt", "queries": [{"type": "connectivity"}]}}"#,
                ErrorCode::Plan,
            ),
        ];
        for (line, expected) in cases {
            let (code, message) = parse_request(line).unwrap_err();
            assert_eq!(code, expected, "{line}: {message}");
        }
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let line = format!(
            r#"{{"op": "ping", "pad": "{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        let (code, _) = parse_request(&line).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn error_lines_carry_the_envelope() {
        let line = error_line(ErrorCode::Overloaded, "queue full");
        let value = Value::parse(&line).unwrap();
        assert_eq!(value.get_str("status"), Some("error"));
        assert_eq!(value.get_str("code"), Some("overloaded"));
        assert_eq!(value.get_str("message"), Some("queue full"));
        assert_eq!(value.get("retryable").and_then(Value::as_bool), Some(true));
        let fatal = Value::parse(&error_line(ErrorCode::Plan, "bad plan")).unwrap();
        assert_eq!(fatal.get("retryable").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn retryable_codes_name_transient_conditions_only() {
        for code in [
            ErrorCode::WorkerLost,
            ErrorCode::Overloaded,
            ErrorCode::OverBudget,
        ] {
            assert!(code.retryable(), "{} is transient", code.as_str());
        }
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::Plan,
            ErrorCode::UnknownJob,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            assert!(!code.retryable(), "{} is fatal", code.as_str());
        }
    }
}
