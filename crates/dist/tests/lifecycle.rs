//! Worker resource lifecycle over a long-lived fleet: a coordinator that
//! runs plan after plan on the same connections must not pile up finished
//! shard jobs on the workers, and must never run into their per-connection
//! job budget (which would burn retries and drop every halo session).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_dist::{CoordinatorConfig, DistCoordinator};
use ugs_server::{serve, LineClient, ServerConfig, ServerHandle};
use ugs_service::{QueryAnswer, QueryPlan, ServiceError};
use uncertain_graph::UncertainGraph;

fn test_graph() -> UncertainGraph {
    let n = 48;
    let mut rng = SmallRng::seed_from_u64(0x11FE);
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, (i + 1) % n, 0.2 + 0.6 * rng.gen::<f64>()));
    }
    for i in (0..n).step_by(4) {
        edges.push((i, (i + 9) % n, 0.1 + 0.8 * rng.gen::<f64>()));
    }
    UncertainGraph::from_edges(n, edges).unwrap()
}

fn answers(outcomes: Vec<Result<QueryAnswer, ServiceError>>) -> Vec<QueryAnswer> {
    outcomes.into_iter().map(|o| o.unwrap()).collect()
}

/// The live shard jobs a worker reports in its `stats` (`shard.jobs`),
/// read over a connection of its own.
fn live_shard_jobs(worker: &ServerHandle) -> usize {
    let mut client = LineClient::connect(worker.addr()).unwrap();
    let stats = client.request(r#"{"op": "stats"}"#).unwrap();
    stats
        .get("shard")
        .and_then(|shard| shard.get_usize("jobs"))
        .expect("a worker reports its shard jobs")
}

#[test]
fn finished_shard_jobs_are_released_across_consecutive_plans() {
    let graph = test_graph();
    let workers: Vec<ServerHandle> = (0..2)
        .map(|k| {
            let config = ServerConfig {
                shard: Some((k, 2)),
                ..ServerConfig::default()
            };
            serve(graph.clone(), config).unwrap()
        })
        .collect();
    // The default per-connection budget is 8 jobs: 12 count plans on one
    // connection cross it unless finished jobs are released.
    assert!(ServerConfig::default().max_inflight < 12);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let mut coordinator =
        DistCoordinator::connect(graph.clone(), &addrs, CoordinatorConfig::default()).unwrap();

    let count = |seed: u64| {
        format!(
            r#"{{"worlds": 24, "threads": 2, "seed": {seed},
                "queries": [{{"type": "connectivity"}}, {{"type": "edge_frequency"}}]}}"#
        )
    };
    let halo = |seed: u64| {
        format!(
            r#"{{"worlds": 4, "threads": 2, "seed": {seed},
                "queries": [{{"type": "pagerank", "tolerance": 0.01}},
                            {{"type": "clustering"}},
                            {{"type": "knn", "source": 3, "k": 5}}]}}"#
        )
    };
    let plans: Vec<String> = (0..12).map(count).chain((12..16).map(halo)).collect();
    for (i, text) in plans.iter().enumerate() {
        let plan = QueryPlan::parse_str(text).unwrap();
        let distributed = answers(coordinator.execute(&plan));
        let in_process = answers(plan.execute_detailed(graph.clone()));
        assert_eq!(distributed, in_process, "plan {i}");
        assert!(
            coordinator.recovery_report().is_clean(),
            "plan {i}: a healthy fleet burned retries: {:?}",
            coordinator.recovery_report()
        );
        for (k, worker) in workers.iter().enumerate() {
            let jobs = live_shard_jobs(worker);
            assert!(jobs <= 1, "plan {i}: worker {k} holds {jobs} shard jobs");
        }
    }

    coordinator.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}
