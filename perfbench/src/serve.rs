//! Workload `serve`: `serve(graph, ServerConfig::default())` on the
//! canonical graph, driven by 2 closed-loop `LineClient` connections with
//! one request in flight each.  Protocol, JSON encoding and decoding and
//! the result cache carry the time here, and nowhere else.
//!
//! Every request is a 4-world, `threads: 1` plan in one of three
//! answer-size classes (see [`Class`]).  The server's cost depends on two
//! input properties, answer size and the share of requests the cache can
//! answer, so the run has two sides of equal length (see [`Side`]): on the
//! hit side every request replays one of three working-set plans, one per
//! class, which set-up primed and which fit the default 1 MiB cache
//! together; on the cold side every request is a new plan.  On both sides
//! the classes have equal shares, in an order drawn from the seed.
//! Equal class shares and equal side lengths are assumptions, not measured
//! traffic: no record of this server's traffic exists to base them on.
//! A large answer (≈ 700 KB) fits the cache once, so on the cold side large
//! answers keep evicting the rest.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minijson::Value;
use uncertain_graph::UncertainGraph;

use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};

use crate::graphs::{canonical, count_queries, derive, knn_query, plan_json};
use crate::stats::{median, millis, peak_rss_mib, quantile, timed};
use crate::{check, Report, RunConfig};

/// Closed-loop connections.
pub const CLIENTS: usize = 2;

/// Answer-size classes of the plans the clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Connectivity, degree histogram and k-NN: ≈ 1.5 KB reports.
    Small,
    /// Clustering and k-NN: ≈ 120 KB reports.
    Medium,
    /// Plan C (per-edge frequencies): ≈ 700 KB reports.
    Large,
}

impl Class {
    /// Every class, smallest first.
    pub const ALL: [Class; 3] = [Class::Small, Class::Medium, Class::Large];

    /// The class name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Small => "small",
            Class::Medium => "medium",
            Class::Large => "large",
        }
    }

    /// The class's queries.
    pub fn queries(self) -> String {
        let knn = knn_query();
        match self {
            Class::Small => {
                format!(r#"[{{"type": "connectivity"}}, {{"type": "degree_histogram"}}, {knn}]"#)
            }
            Class::Medium => format!(r#"[{{"type": "clustering"}}, {knn}]"#),
            Class::Large => count_queries(),
        }
    }
}

/// Which side of the run a request belongs to.  The share of requests the
/// result cache can answer is one of the two input properties the server's
/// cost depends on, so each side holds it at one extreme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Every request replays a plan of the working set, which set-up primed
    /// and which fits the cache: every request can be answered from it.
    Hit,
    /// Every request is a plan never sent before: the cache cannot answer.
    Cold,
}

impl Side {
    /// The side name used in detail metric names.
    pub fn name(self) -> &'static str {
        match self {
            Side::Hit => "hit",
            Side::Cold => "cold",
        }
    }
}

/// The working-set plan of `class`: one plan per class, about 820 KB of
/// answers in all, which fits the default 1 MiB result cache.
pub fn working_plan(seed: u64, class: Class, worlds: usize) -> String {
    plan_json(
        &class.queries(),
        worlds,
        1,
        derive(seed, 100 + class as u64),
    )
}

/// The six orders of the three classes.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// The class and plan document of request `index` of connection `client`
/// on `side`.  Each block of three requests holds every class once, in an
/// order drawn from the seed: the classes have exactly equal shares, and
/// the two connections' requests meet in every combination of classes
/// rather than in one fixed interleaving.
pub fn scheduled_plan(
    seed: u64,
    side: Side,
    client: usize,
    index: usize,
    worlds: usize,
) -> (Class, String) {
    let stream = ((side as u64) << 48) | ((client as u64 + 1) << 40);
    let block = (index / Class::ALL.len()) as u64;
    let order = ORDERS[(derive(seed, stream | 1 << 56 | block) % 6) as usize];
    let class = Class::ALL[order[index % Class::ALL.len()]];
    let stream = stream | index as u64;
    let plan = match side {
        Side::Hit => working_plan(seed, class, worlds),
        Side::Cold => plan_json(&class.queries(), worlds, 1, derive(seed, stream)),
    };
    (class, plan)
}

/// One finished request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Submit → parsed report, in milliseconds.
    pub round_trip_ms: f64,
    /// The parsed report.
    pub report: Value,
    /// Bytes of the report as it crossed the wire.
    pub report_bytes: usize,
    /// Digest of the report's wire bytes.
    pub digest: u64,
    /// Whether the submit was answered from the cache.
    pub cached: bool,
}

impl Reply {
    /// Result entries whose status is not `ok`.
    pub fn failed_entries(&self) -> usize {
        self.report
            .get("results")
            .and_then(Value::as_array)
            .map_or(1, |results| {
                results
                    .iter()
                    .filter(|r| r.get_str("status") != Some("ok"))
                    .count()
            })
    }
}

/// Submits `plan` and polls until its report arrives.
pub fn round_trip(client: &mut LineClient, plan: &str) -> Result<Reply, String> {
    let started = Instant::now();
    let accepted = client.submit(plan).map_err(|e| format!("submit: {e}"))?;
    if accepted.get_str("status") != Some("ok") {
        return Err(format!("submit refused: {}", accepted.render()));
    }
    let job = accepted
        .get_usize("job")
        .ok_or("submit answer without a job id")?;
    let cached = accepted.get("cached").and_then(Value::as_bool) == Some(true);
    let poll = format!(r#"{{"op": "poll", "job": {job}}}"#);
    loop {
        let line = client
            .request_raw(&poll)
            .map_err(|e| format!("poll: {e}"))?
            .ok_or("server closed the connection")?;
        let response = Value::parse(&line).map_err(|e| format!("poll answer: {e}"))?;
        if response.get_str("status") != Some("ok") {
            return Err(format!("poll refused: {line}"));
        }
        if response.get("done").and_then(Value::as_bool) == Some(true) {
            let round_trip_ms = millis(started);
            let at = line
                .find("\"report\":")
                .ok_or("done poll without a report")?;
            let wire = &line.as_bytes()[at..];
            let report = response
                .get("report")
                .cloned()
                .ok_or("done poll without a report")?;
            return Ok(Reply {
                round_trip_ms,
                report,
                report_bytes: wire.len(),
                digest: check::digest_bytes(wire),
                cached,
            });
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// A running server with its graph.  Dropping it closes the connections,
/// then shuts the server down.
pub struct Served {
    /// One connection per closed-loop client.
    pub clients: Vec<LineClient>,
    /// The server.
    pub server: ServerHandle,
    /// The served graph.
    pub graph: Arc<UncertainGraph>,
    /// The report digest of every working-set plan, from its cold request.
    pub working_set: HashMap<String, u64>,
}

/// Set-up of `serve`: the canonical graph, the server, the connections, and
/// a warm pass that primes the working set: the first connection sends each
/// working-set plan cold, the others then fetch it from the cache.
pub fn setup(seed: u64, vertices: usize, worlds: usize) -> Result<Served, String> {
    let graph = canonical(seed, vertices);
    let server =
        serve(graph.clone(), ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let mut clients = Vec::new();
    let mut working_set = HashMap::new();
    for _ in 0..CLIENTS {
        let mut client = LineClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for class in Class::ALL {
            let plan = working_plan(seed, class, worlds);
            let reply = round_trip(&mut client, &plan)?;
            let first = *working_set.entry(plan).or_insert(reply.digest);
            if first != reply.digest || reply.failed_entries() > 0 {
                return Err(format!("warm pass: bad {} report", class.name()));
            }
        }
        clients.push(client);
    }
    Ok(Served {
        clients,
        server,
        graph,
        working_set,
    })
}

/// What the closed loop observed on one side.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Every finished request: its round trip (ms), report bytes, and
    /// whether the cache answered it.
    pub replies: Vec<(f64, usize, bool)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests refused or answered with an error entry.
    pub failed: u64,
    /// Correctness mismatches and failures.
    pub mismatches: Vec<String>,
    /// Wall-clock of the loop, in seconds.
    pub elapsed: f64,
}

impl LoopOutcome {
    /// Round trips of every finished request, in milliseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.replies.iter().map(|r| r.0).collect()
    }

    /// Share of finished requests the cache answered.
    pub fn cached_share(&self) -> f64 {
        let cached = self.replies.iter().filter(|r| r.2).count();
        cached as f64 / self.replies.len().max(1) as f64
    }
}

/// The first report digest of every plan sent so far, across connections.
type FirstReports = Mutex<HashMap<String, u64>>;

/// One connection's closed loop: request `index` is `schedule(index)`,
/// from request 0 until `deadline` has passed and at least `min_requests`
/// were sent.
fn client_loop(
    client: &mut LineClient,
    schedule: impl Fn(usize) -> (Class, String),
    deadline: Instant,
    min_requests: usize,
    first_reports: &FirstReports,
) -> LoopOutcome {
    let mut out = LoopOutcome::default();
    let mut index = 0;
    while index < min_requests || Instant::now() < deadline {
        let (class, plan) = schedule(index);
        index += 1;
        out.attempted += 1;
        let reply = match round_trip(client, &plan) {
            Ok(reply) => reply,
            Err(why) => {
                out.failed += 1;
                out.mismatches.push(why);
                continue;
            }
        };
        let failed = reply.failed_entries();
        if failed > 0 {
            out.failed += 1;
            out.mismatches
                .push(format!("{} request: {failed} error answers", class.name()));
        }
        let first = *first_reports
            .lock()
            .expect("report map lock")
            .entry(plan)
            .or_insert(reply.digest);
        if first != reply.digest {
            out.mismatches.push(format!(
                "{} report differs from the first report of its plan (cached: {})",
                class.name(),
                reply.cached
            ));
        }
        out.replies
            .push((reply.round_trip_ms, reply.report_bytes, reply.cached));
    }
    out
}

/// Runs one side's closed loop on every connection of `served` for
/// `measure` (at least `min_requests` requests in all).  Every report must
/// equal the first report of the same plan: a cache hit reproduces the cold
/// answer bit for bit.
pub fn closed_loop(
    served: &mut Served,
    side: Side,
    seed: u64,
    worlds: usize,
    measure: Duration,
    min_requests: usize,
) -> LoopOutcome {
    let first_reports = FirstReports::new(served.working_set.clone());
    let started = Instant::now();
    let deadline = started + measure;
    let per_client = min_requests.div_ceil(CLIENTS);
    let outcomes: Vec<LoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let first_reports = &first_reports;
                let schedule = move |index| scheduled_plan(seed, side, c, index, worlds);
                scope.spawn(move || {
                    client_loop(client, schedule, deadline, per_client, first_reports)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = LoopOutcome {
        elapsed: started.elapsed().as_secs_f64(),
        ..LoopOutcome::default()
    };
    for out in outcomes {
        total.replies.extend(out.replies);
        total.attempted += out.attempted;
        total.failed += out.failed;
        total.mismatches.extend(out.mismatches);
    }
    total
}

/// Requests of each side at least, whatever the time: with 100, at least
/// ten lie beyond the p90.
pub const MIN_REQUESTS: usize = 100;

pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let scale = config.scale;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setups {
        let (served, seconds) =
            timed(|| setup(config.seed, scale.canonical_vertices, scale.serve_worlds));
        setups.push(seconds);
        // Dropping the previous set-up's clients and server shuts them down.
        ready = Some(served?);
    }
    let mut served = ready.expect("at least one set-up");

    // The hit side first: the cold side's answers evict the working set.
    let sides = [Side::Hit, Side::Cold].map(|side| {
        let outcome = closed_loop(
            &mut served,
            side,
            config.seed,
            scale.serve_worlds,
            config.measure / 2,
            MIN_REQUESTS,
        );
        (side, outcome)
    });
    drop(served);

    let rss = peak_rss_mib()?;
    report.detail("setup_s", median(&setups), "s");
    report.detail("peak_rss_mib", rss, "MiB");
    let (mut finished, mut elapsed, mut all) = (0, 0.0, Vec::new());
    // Mean round trip of each side.  A side's round trips mix three answer
    // sizes and two contention modes that come in episodes of a second or
    // two (a medium-class hit takes about 5 or about 8 ms), so its median
    // sits where the modes meet and jumps between runs; the mean moves in
    // proportion to each mode's share.
    let mut mean = [0.0; 2];
    for (k, (side, outcome)) in sides.into_iter().enumerate() {
        report.attempted += outcome.attempted;
        report.failed += outcome.failed;
        for why in outcome.mismatches.iter() {
            report.check(Err(why.clone()));
        }
        let latencies = outcome.latencies();
        mean[k] = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let name = side.name();
        report.detail(&format!("{name}.request_mean_ms"), mean[k], "ms");
        report.detail(
            &format!("{name}.request_p50_ms"),
            quantile(&latencies, 0.5),
            "ms",
        );
        report.detail(
            &format!("{name}.request_p90_ms"),
            quantile(&latencies, 0.9),
            "ms",
        );
        report.detail(
            &format!("{name}.requests_per_s"),
            latencies.len() as f64 / outcome.elapsed,
            "1/s",
        );
        report.detail(&format!("{name}.requests"), latencies.len() as f64, "count");
        report.detail(
            &format!("{name}.cached_share"),
            outcome.cached_share(),
            "ratio",
        );
        finished += latencies.len();
        elapsed += outcome.elapsed;
        all.extend(latencies);
    }
    let per_s = finished as f64 / elapsed;
    report.detail("request_p50_ms", quantile(&all, 0.5), "ms");
    report.detail("request_p90_ms", quantile(&all, 0.9), "ms");
    report.detail("requests_per_s", per_s, "1/s");
    report.detail("failed_frac", report.failed_frac(), "ratio");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("heavy_ms", mean[1], "ms");
    report.metric("light_ms", mean[0], "ms");
    report.metric("ops_per_s", per_s, "1/s");
    Ok(report)
}
