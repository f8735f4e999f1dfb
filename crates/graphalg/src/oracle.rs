//! Bit-identity tests of the PageRank and clustering kernels against their
//! textbook forms: a power iteration that visits every vertex (branching
//! on degree 0 twice per vertex) and a clustering kernel that intersects
//! sorted, deduplicated copies of the adjacency lists.  The references
//! live only here; the library carries one body of each kernel.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ugs_datasets::{preferential_attachment, ProbabilityModel};
use uncertain_graph::WorldSampler;

use crate::clustering::{local_clustering_coefficients, local_clustering_into, ClusteringScratch};
use crate::dgraph::DeterministicGraph;
use crate::pagerank::{pagerank, pagerank_into, PageRankConfig, PageRankScratch};

/// Power iteration over every vertex, dangling sum by filtering.
fn reference_pagerank(g: &DeterministicGraph, config: &PageRankConfig) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    for _ in 0..config.max_iterations {
        let dangling_mass: f64 = (0..n).filter(|&u| g.degree(u) == 0).map(|u| rank[u]).sum();
        let base = (1.0 - config.damping) * uniform + config.damping * dangling_mass * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for (u, &rank_u) in rank.iter().enumerate() {
            let deg = g.degree(u);
            if deg == 0 {
                continue;
            }
            let share = config.damping * rank_u / deg as f64;
            for v in g.neighbors(u) {
                next[v] += share;
            }
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < config.tolerance {
            break;
        }
    }
    rank
}

/// Triangle counting by merge-intersecting sorted, deduplicated lists.
fn reference_clustering(g: &DeterministicGraph) -> Vec<f64> {
    let n = g.num_vertices();
    let sorted: Vec<Vec<u32>> = (0..n)
        .map(|u| {
            let mut ns: Vec<u32> = g.neighbor_slice(u).to_vec();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
        .collect();
    let mut cc = vec![0.0; n];
    for u in 0..n {
        let neighbors = &sorted[u];
        let deg = neighbors.len();
        if deg < 2 {
            continue;
        }
        let mut triangles = 0usize;
        for (i, &v) in neighbors.iter().enumerate() {
            let nv = &sorted[v as usize];
            let (a, b) = (&neighbors[i + 1..], nv);
            let (mut x, mut y) = (0usize, 0usize);
            while x < a.len() && y < b.len() {
                match a[x].cmp(&b[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
        }
        cc[u] = 2.0 * triangles as f64 / (deg * (deg - 1)) as f64;
    }
    cc
}

fn assert_same_bits(actual: &[f64], expected: &[f64], what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length");
    for (v, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.to_bits(), e.to_bits(), "{what}: vertex {v}: {a} vs {e}");
    }
}

/// A random multigraph: self-loops, duplicate edges, and a tail of
/// isolated vertices.
fn random_multigraph(rng: &mut SmallRng) -> DeterministicGraph {
    let n = rng.gen_range(1..40usize);
    let isolated = rng.gen_range(0..=n / 3);
    let span = n - isolated;
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for _ in 0..rng.gen_range(0..4 * n) {
        let u = rng.gen_range(0..span);
        let edge = match rng.gen_range(0..6) {
            0 => (u, u),
            1 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
            _ => (u, rng.gen_range(0..span)),
        };
        edges.push(edge);
    }
    DeterministicGraph::from_edges(n, &edges)
}

/// Sampled worlds of a preferential-attachment graph at p = 0.09, where
/// about half the vertices of a world are dangling.
fn sparse_worlds(count: usize) -> Vec<DeterministicGraph> {
    let mut rng = SmallRng::seed_from_u64(21);
    let g = preferential_attachment(3_000, 3, ProbabilityModel::Fixed(0.09), &mut rng);
    let sampler = WorldSampler::new();
    (0..count)
        .map(|_| DeterministicGraph::from_world(&g, &sampler.sample(&g, &mut rng)))
        .collect()
}

fn configs() -> Vec<PageRankConfig> {
    let default = PageRankConfig::default();
    vec![
        default,
        PageRankConfig {
            tolerance: 1e-4,
            ..default
        },
        PageRankConfig {
            max_iterations: 1,
            tolerance: 0.0,
            ..default
        },
        PageRankConfig {
            max_iterations: 25,
            tolerance: 0.0,
            ..default
        },
        PageRankConfig {
            damping: 0.5,
            ..default
        },
        PageRankConfig {
            damping: 1.0,
            max_iterations: 30,
            ..default
        },
    ]
}

/// Checks both kernels on `g`, through the allocating wrappers and through
/// one scratch reused across every graph of a test.
fn check(g: &DeterministicGraph, what: &str, pr: &mut PageRankScratch, cc: &mut ClusteringScratch) {
    for config in configs() {
        let expected = reference_pagerank(g, &config);
        assert_same_bits(&pagerank(g, &config), &expected, what);
        assert_same_bits(pagerank_into(g, &config, pr), &expected, what);
    }
    let expected = reference_clustering(g);
    assert_same_bits(&local_clustering_coefficients(g), &expected, what);
    assert_same_bits(local_clustering_into(g, cc), &expected, what);
}

#[test]
fn random_multigraphs_match_the_references_bitwise() {
    let mut rng = SmallRng::seed_from_u64(5);
    let (mut pr, mut cc) = (PageRankScratch::new(), ClusteringScratch::new());
    for round in 0..300 {
        let g = random_multigraph(&mut rng);
        check(&g, &format!("multigraph {round}"), &mut pr, &mut cc);
    }
}

#[test]
fn edge_cases_match_the_references_bitwise() {
    let (mut pr, mut cc) = (PageRankScratch::new(), ClusteringScratch::new());
    let cases = [
        ("empty", DeterministicGraph::from_edges(0, &[])),
        ("one vertex", DeterministicGraph::from_edges(1, &[])),
        (
            "one self-loop",
            DeterministicGraph::from_edges(1, &[(0, 0)]),
        ),
        ("all dangling", DeterministicGraph::from_edges(7, &[])),
        (
            "doubled triangle",
            DeterministicGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 0), (0, 2)]),
        ),
        (
            "looped star",
            DeterministicGraph::from_edges(4, &[(0, 0), (0, 1), (0, 2), (1, 2), (3, 3)]),
        ),
    ];
    for (what, g) in &cases {
        check(g, what, &mut pr, &mut cc);
    }
}

#[test]
fn sampled_sparse_worlds_match_the_references_bitwise() {
    let (mut pr, mut cc) = (PageRankScratch::new(), ClusteringScratch::new());
    let worlds = sparse_worlds(12);
    let dangling = (0..worlds[0].num_vertices())
        .filter(|&u| worlds[0].degree(u) == 0)
        .count();
    assert!(dangling > worlds[0].num_vertices() / 4, "worlds are sparse");
    for (k, world) in worlds.iter().enumerate() {
        check(world, &format!("world {k}"), &mut pr, &mut cc);
    }
}
