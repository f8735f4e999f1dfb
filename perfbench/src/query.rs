//! Workload `query`: `QueryPlan::execute_detailed` in-process at threads 2
//! on the canonical graph, alternating plan M (kernels dominate) and plan C
//! (sampling and materialisation dominate).

use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertain_graph::UncertainGraph;

use ugs_service::{QueryAnswer, QueryPlan, ServiceError};

use crate::graphs::{canonical, count_queries, derive, mixed_queries, plan};
use crate::stats::{cpu_ticks, median, peak_rss_mib, secs, steal_share, timed};
use crate::{check, Report, RunConfig};

/// Threads of every in-process plan.
pub const THREADS: usize = 2;

/// One plan's answers.
pub type Answers = Vec<Result<QueryAnswer, ServiceError>>;

/// Counts a plan's answers into the report: every answer is one attempted
/// operation, every error answer a failed one.
pub fn tally(report: &mut Report, answers: &Answers) {
    report.attempted += answers.len() as u64;
    for answer in answers {
        if let Err(error) = answer {
            report.failed += 1;
            report.check(Err(format!("query failed: {error}")));
        }
    }
}

/// Plans M and C with the run's plan seed.
pub fn plans(
    seed: u64,
    mixed_worlds: usize,
    count_worlds: usize,
    threads: usize,
) -> [QueryPlan; 2] {
    let plan_seed = derive(seed, 4);
    [
        plan(&mixed_queries(), mixed_worlds, threads, plan_seed),
        plan(&count_queries(), count_worlds, threads, plan_seed),
    ]
}

/// One round of [`alternate`]: every plan executed once.
#[derive(Debug, Clone)]
pub struct Round {
    /// Milliseconds per world of each plan.
    pub ms_per_world: [f64; 2],
    /// Worlds of both plans.
    pub worlds: usize,
    /// Wall-clock of the round, in seconds.
    pub seconds: f64,
    /// Share of the machine's CPU time the host took during the round
    /// (hypervisor steal; 0 where it cannot be read).
    pub steal: f64,
}

/// Alternates `execute` over `plans` until `measure` has passed (and at
/// least `min_reps` rounds ran), checking each plan's answers against
/// `expected`.  Returns every round.
pub fn alternate(
    report: &mut Report,
    plans: &[QueryPlan; 2],
    expected: [u64; 2],
    measure: Duration,
    min_reps: usize,
    what: &str,
    mut execute: impl FnMut(&QueryPlan) -> Answers,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < min_reps || started.elapsed() < measure {
        let ticks = cpu_ticks();
        let round_started = Instant::now();
        let mut ms_per_world = [0.0; 2];
        for (k, plan) in plans.iter().enumerate() {
            let (answers, seconds) = timed(|| execute(plan));
            tally(report, &answers);
            report.check(check::same(what, expected[k], &answers));
            ms_per_world[k] = seconds * 1e3 / plan.worlds as f64;
        }
        rounds.push(Round {
            ms_per_world,
            worlds: plans.iter().map(|p| p.worlds).sum(),
            seconds: secs(round_started),
            steal: steal_share(ticks, cpu_ticks()).unwrap_or(0.0),
        });
    }
    rounds
}

/// Steal share up to which a round counts as quiet whatever the other
/// rounds saw: about one 10 ms tick of a 0.6 s round on two CPUs.
pub const QUIET_STEAL: f64 = 0.01;

/// The rounds to time, in run order: every round whose steal (the CPU time
/// the host took from this machine) is at most [`QUIET_STEAL`] or at most
/// that of the quieter half of the rounds, whichever is more.  A round of
/// plan M on the fleet is tens of chained superstep round trips, and slows
/// far more than in proportion to the CPU time the host takes, so `query`
/// and `dist` drop the rounds with the most steal, but never more than
/// half; on a quiet host they time every round, over the whole run.
pub fn quiet_rounds(rounds: &[Round]) -> Vec<&Round> {
    let mut steals: Vec<f64> = rounds.iter().map(|r| r.steal).collect();
    steals.sort_by(f64::total_cmp);
    let half = steals
        .get(rounds.len().div_ceil(2).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    let cutoff = half.max(QUIET_STEAL);
    rounds.iter().filter(|r| r.steal <= cutoff).collect()
}

/// Reports the five end-to-end metrics shared by `query` and `dist`, plus
/// their detail names, from the quiet rounds (see [`quiet_rounds`]).
pub fn report_worlds(report: &mut Report, setups: &[f64], rounds: &[Round]) -> Result<(), String> {
    let rss = peak_rss_mib()?;
    let kept = quiet_rounds(rounds);
    let plan_ms = |k: usize| median(&kept.iter().map(|r| r.ms_per_world[k]).collect::<Vec<_>>());
    let (mixed_ms, count_ms) = (plan_ms(0), plan_ms(1));
    let worlds: usize = kept.iter().map(|r| r.worlds).sum();
    let seconds: f64 = kept.iter().map(|r| r.seconds).sum();
    let steal = kept.iter().map(|r| r.steal).fold(0.0, f64::max);
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("heavy_ms", mixed_ms, "ms");
    report.metric("light_ms", count_ms, "ms");
    report.metric("ops_per_s", worlds as f64 / seconds, "1/s");
    report.detail("setup_s", median(setups), "s");
    report.detail("peak_rss_mib", rss, "MiB");
    report.detail("mixed_worlds_per_s", 1e3 / mixed_ms, "1/s");
    report.detail("count_worlds_per_s", 1e3 / count_ms, "1/s");
    report.detail("failed_frac", report.failed_frac(), "ratio");
    report.detail("rounds", rounds.len() as f64, "count");
    report.detail("rounds_timed", kept.len() as f64, "count");
    report.detail("rounds_timed_max_steal", steal, "ratio");
    Ok(())
}

/// Set-up of `query`: the canonical graph and a one-world warm pass of both
/// plans.
fn setup(config: &RunConfig) -> Arc<UncertainGraph> {
    let graph = canonical(config.seed, config.scale.canonical_vertices);
    for warm in plans(config.seed, 1, 1, THREADS) {
        warm.execute_detailed(graph.clone());
    }
    graph
}

pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let scale = config.scale;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut graph = None;
    for _ in 0..scale.setups {
        let (g, seconds) = timed(|| setup(config));
        setups.push(seconds);
        graph = Some(g);
    }
    let graph = graph.expect("at least one set-up");

    let plans = plans(
        config.seed,
        scale.query_mixed_worlds,
        scale.query_count_worlds,
        THREADS,
    );
    // The first execution of each plan is the reference every repetition
    // (same seed, same thread count) must reproduce bit for bit.
    let expected = [0, 1].map(|k| {
        let answers = plans[k].execute_detailed(graph.clone());
        tally(&mut report, &answers);
        check::digest(&answers)
    });
    let rounds = alternate(
        &mut report,
        &plans,
        expected,
        config.measure,
        scale.min_reps,
        "repeated in-process plan",
        |plan| plan.execute_detailed(graph.clone()),
    );
    report_worlds(&mut report, &setups, &rounds)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rounds_drop_the_rounds_with_the_most_steal_but_at_most_half() {
        let round = |ms: f64, steal: f64| Round {
            ms_per_world: [ms, ms],
            worlds: 2,
            seconds: ms / 1e3,
            steal,
        };
        let kept = |rounds: &[Round]| -> Vec<f64> {
            quiet_rounds(rounds)
                .iter()
                .map(|r| r.ms_per_world[0])
                .collect()
        };
        let rounds = [
            round(9.0, 0.20),
            round(5.0, 0.0),
            round(6.0, 0.01),
            round(5.5, 0.0),
            round(8.0, 0.10),
        ];
        assert_eq!(kept(&rounds), [5.0, 6.0, 5.5]);
        // More than half the rounds saw steal: the quieter half is kept.
        let noisy = [
            round(9.0, 0.20),
            round(5.0, 0.03),
            round(6.0, 0.05),
            round(8.0, 0.10),
        ];
        assert_eq!(kept(&noisy), [5.0, 6.0]);
        // A quiet host: every round, in run order.
        let quiet = [round(7.0, 0.0), round(5.0, 0.005), round(6.0, 0.0)];
        assert_eq!(kept(&quiet), [7.0, 5.0, 6.0]);
        assert_eq!(kept(&rounds[..1]), [9.0]);
    }
}
