//! The graph recipe every workload shares, and the plans the query-side
//! workloads run on it.
//!
//! The canonical graph is `preferential_attachment(60_000, 4, Fixed(0.09))`:
//! a power-law topology in the paper's Flickr probability regime.  The
//! `sparsify` workload uses the same topology at 12 000 vertices with
//! Flickr-like probabilities, because EMD takes over ten seconds per run on
//! the 60k graph.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use uncertain_graph::UncertainGraph;

use ugs_datasets::{preferential_attachment, ProbabilityModel};
use ugs_service::QueryPlan;

/// Edges each arriving vertex attaches with.
pub const EDGES_PER_VERTEX: usize = 4;
/// Edge probability of the canonical graph.
pub const CANONICAL_P: f64 = 0.09;
/// Sparsification ratio of the `sparsify` workload.
pub const ALPHA: f64 = 0.16;
/// PageRank tolerance of plan M: loose enough that PageRank converges in
/// tens of iterations, as in the distributed halo supersteps.
pub const PAGERANK_TOLERANCE: f64 = 1e-4;
/// The k-NN source of every plan (a hub of the attachment seed clique).
pub const KNN_SOURCE: usize = 0;

/// Derives an independent seed for one use of the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The canonical graph at `vertices` vertices.
pub fn canonical(seed: u64, vertices: usize) -> Arc<UncertainGraph> {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 1));
    Arc::new(preferential_attachment(
        vertices,
        EDGES_PER_VERTEX,
        ProbabilityModel::Fixed(CANONICAL_P),
        &mut rng,
    ))
}

/// The `sparsify` workload's graph at `vertices` vertices.
pub fn flickr(seed: u64, vertices: usize) -> UncertainGraph {
    let mut rng = SmallRng::seed_from_u64(derive(seed, 2));
    preferential_attachment(
        vertices,
        EDGES_PER_VERTEX,
        ProbabilityModel::FlickrLike,
        &mut rng,
    )
}

/// The k-NN query every plan with one uses.
pub fn knn_query() -> String {
    format!(r#"{{"type": "knn", "source": {KNN_SOURCE}, "k": 10}}"#)
}

/// The queries of plan M: the paper's four query families, so the kernels
/// dominate.
pub fn mixed_queries() -> String {
    format!(
        r#"[{{"type": "connectivity"}}, {{"type": "degree_histogram"}},
            {{"type": "edge_frequency"}}, {{"type": "clustering"}},
            {{"type": "pagerank", "tolerance": {PAGERANK_TOLERANCE}}}, {}]"#,
        knn_query()
    )
}

/// The queries of plan C: counts only, so sampling and materialisation
/// dominate.
pub fn count_queries() -> String {
    r#"[{"type": "connectivity"}, {"type": "degree_histogram"}, {"type": "edge_frequency"}]"#
        .to_string()
}

/// A plan document over `queries`.
pub fn plan_json(queries: &str, worlds: usize, threads: usize, seed: u64) -> String {
    // Plan seeds travel as JSON numbers (f64): keep them below 2^53.
    let seed = seed >> 11;
    format!(r#"{{"worlds": {worlds}, "threads": {threads}, "seed": {seed}, "queries": {queries}}}"#)
}

/// Parses a plan document the benchmark itself wrote.
pub fn plan(queries: &str, worlds: usize, threads: usize, seed: u64) -> QueryPlan {
    QueryPlan::parse_str(&plan_json(queries, worlds, threads, seed))
        .expect("the benchmark's own plans parse")
}
