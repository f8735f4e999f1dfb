//! Workload `dist`: `DistCoordinator::execute` over 2 in-process loopback
//! shard workers, running the same plans M and C as `query`.  Its metrics
//! have the same names as `query`'s, so the two compare directly: the
//! difference is the cost of distribution (the wire and the halo
//! supersteps).  Four workers would oversubscribe a 2-core machine.

use std::sync::{Arc, Mutex};

use uncertain_graph::UncertainGraph;

use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_server::{serve, ServerConfig, ServerHandle};

use crate::graphs::{canonical, count_queries, derive, knn_query, plan};
use crate::query::{alternate, plans, report_worlds, tally, THREADS};
use crate::relay::{Relay, Tally};
use crate::stats::timed;
use crate::{check, Report, RunConfig};

/// Shard workers of the fleet.
pub const WORKERS: usize = 2;

/// Worlds of one distributed execution of plan M: one world alone takes
/// seconds of superstep round trips.
pub const MIXED_WORLDS: usize = 1;

/// A running fleet: the workers, optional relays in front of them, and the
/// coordinator.
pub struct Fleet {
    /// The coordinator, connected to every worker (through its relay).
    pub coordinator: DistCoordinator,
    /// The byte-counting relays, when the fleet was started with them.
    pub relays: Vec<Relay>,
    workers: Vec<ServerHandle>,
}

impl Fleet {
    /// Starts `WORKERS` shard workers of `graph` and connects a coordinator,
    /// through a [`Relay`] per worker counting into `tally` when given.
    pub fn start(
        graph: &Arc<UncertainGraph>,
        tally: Option<&Arc<Mutex<Tally>>>,
    ) -> Result<Fleet, String> {
        let workers = (0..WORKERS)
            .map(|k| {
                let config = ServerConfig {
                    shard: Some((k, WORKERS)),
                    ..ServerConfig::default()
                };
                serve(graph.clone(), config).map_err(|e| format!("start worker {k}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut relays = Vec::new();
        let mut addrs = Vec::new();
        for worker in &workers {
            if let Some(tally) = tally {
                let relay = Relay::start(worker.addr(), tally.clone())?;
                addrs.push(relay.addr().to_string());
                relays.push(relay);
            } else {
                addrs.push(worker.addr().to_string());
            }
        }
        let config = CoordinatorConfig {
            // The M plan's superstep exchanges are long; a generous timeout
            // keeps a slow machine from turning into a failover.
            timeout: std::time::Duration::from_secs(120),
            ..CoordinatorConfig::default()
        };
        let coordinator = DistCoordinator::connect(graph.clone(), &addrs, config)
            .map_err(|e| format!("connect coordinator: {e}"))?;
        Ok(Fleet {
            coordinator,
            relays,
            workers,
        })
    }

    /// Stops the coordinator, then the relays, then the workers, joining
    /// every thread.
    pub fn shutdown(self) {
        self.coordinator.shutdown();
        for relay in self.relays {
            relay.shutdown();
        }
        for worker in self.workers {
            worker.shutdown();
        }
    }
}

/// The warm pass: one world of plan C and one of k-NN, which builds the
/// coordinator's halo plan without running PageRank's long superstep chain.
pub fn warm(fleet: &mut Fleet, seed: u64) -> Result<(), String> {
    let knn = format!("[{}]", knn_query());
    for queries in [count_queries(), knn] {
        for answer in fleet
            .coordinator
            .execute(&plan(&queries, 1, THREADS, derive(seed, 5)))
        {
            answer.map_err(|e| format!("warm pass: {e}"))?;
        }
    }
    Ok(())
}

/// Set-up of `dist`: the canonical graph, the fleet, and the warm pass.
fn setup(config: &RunConfig) -> Result<(Arc<UncertainGraph>, Fleet), String> {
    let graph = canonical(config.seed, config.scale.canonical_vertices);
    let mut fleet = Fleet::start(&graph, None)?;
    warm(&mut fleet, config.seed)?;
    Ok((graph, fleet))
}

pub(crate) fn run(config: &RunConfig) -> Result<Report, String> {
    let scale = config.scale;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setups {
        let (outcome, seconds) = timed(|| setup(config));
        setups.push(seconds);
        if let Some((_, previous)) = ready.replace(outcome?) {
            Fleet::shutdown(previous);
        }
    }
    let (graph, mut fleet) = ready.expect("at least one set-up");

    let plans = plans(config.seed, MIXED_WORLDS, scale.dist_count_worlds, THREADS);
    // The fleet must return exactly the in-process answers.
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
        "distributed vs in-process",
        |plan| fleet.coordinator.execute(plan),
    );
    fleet.shutdown();
    report_worlds(&mut report, &setups, &rounds)?;
    Ok(report)
}
