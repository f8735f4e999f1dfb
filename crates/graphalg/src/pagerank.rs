//! PageRank on deterministic graphs.
//!
//! The paper evaluates PageRank (`PR`) as one of the four query workloads:
//! the PageRank of every vertex is estimated by averaging deterministic
//! PageRank over sampled possible worlds.  This module implements the
//! deterministic power-iteration kernel; the Monte-Carlo averaging lives in
//! `ugs-queries`.

use crate::dgraph::DeterministicGraph;

/// Configuration of the PageRank power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (the classical 0.85).
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-10,
        }
    }
}

/// Reusable buffers of [`pagerank_into`]: the rank and next-rank vectors
/// and the source vertex of every adjacency slot.  Buffers only grow, so a
/// warm scratch allocates nothing on graphs no larger than those it has
/// seen.
#[derive(Debug, Default)]
pub struct PageRankScratch {
    rank: Vec<f64>,
    next: Vec<f64>,
    /// `source[i]`: the vertex whose adjacency list holds slot `i` (only
    /// the current graph's slots are meaningful).
    source: Vec<u32>,
}

impl PageRankScratch {
    /// Empty scratch; buffers grow on the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for graphs of at most `num_vertices` vertices and
    /// `num_edges` edges — the possible worlds of one uncertain graph, say:
    /// no run on such a graph allocates, and clones keep the sizes.  The
    /// buffers are zero-filled allocations, so memory a run never touches
    /// stays unmapped on most platforms.
    pub fn with_capacity(num_vertices: usize, num_edges: usize) -> Self {
        PageRankScratch {
            rank: vec![0.0; num_vertices],
            next: vec![0.0; num_vertices],
            source: vec![0; 2 * num_edges],
        }
    }
}

/// A clone is fresh scratch of the same sizes: the contents only matter
/// within one run, so they are not copied.
impl Clone for PageRankScratch {
    fn clone(&self) -> Self {
        PageRankScratch {
            rank: vec![0.0; self.rank.len()],
            next: vec![0.0; self.next.len()],
            source: vec![0; self.source.len()],
        }
    }
}

/// The dangling-mass sum of the power iteration: `count` repeated
/// additions of the common dangling rank `rank_d` onto `0.0`.
///
/// Every dangling (degree-0) vertex holds the same rank bits in every
/// iteration — all ranks start at `1/n`, and a dangling vertex receives no
/// pushes, so its next rank is exactly the iteration's `base`.  The left
/// fold of the dangling ranks over ascending vertex ids is therefore this
/// loop, bit for bit; the sharded drivers replay it from the global
/// dangling count without exchanging any rank.
pub fn dangling_mass(rank_d: f64, count: usize) -> f64 {
    let mut acc = 0.0;
    for _ in 0..count {
        acc += rank_d;
    }
    acc
}

/// Computes PageRank scores for an undirected deterministic graph using
/// power iteration.  Dangling vertices (degree 0) redistribute their mass
/// uniformly, the standard correction.  The returned vector sums to 1 (for a
/// non-empty vertex set).
///
/// An allocating wrapper around [`pagerank_into`], which holds its
/// buffers in a caller-owned [`PageRankScratch`] instead; both return the
/// same bits.
pub fn pagerank(g: &DeterministicGraph, config: &PageRankConfig) -> Vec<f64> {
    let mut scratch = PageRankScratch::new();
    pagerank_into(g, config, &mut scratch);
    scratch.rank
}

/// [`pagerank`] into reusable buffers; the returned slice holds the final
/// ranks.
///
/// Once per call, the kernel tags every adjacency slot with its source
/// vertex: the non-dangling vertices in ascending order, each repeated
/// once per edge end.  Each iteration then pushes along all slots in one
/// flat loop — no per-vertex degree test and no per-vertex loop exit to
/// mispredict — and adds the dangling mass as [`dangling_mass`].  None of
/// this changes a bit of the textbook loop that visits every vertex: each
/// `next[v]` still receives its addends in ascending source order, each
/// addend is `damping * rank_u / deg`, and the convergence delta is a left
/// fold of `|rank[v] − next[v]|` over ascending `v`.  Ranks, the iteration
/// count and the stop decision are therefore the same on every input,
/// which the crate's tests check against that loop.
pub fn pagerank_into<'s>(
    g: &DeterministicGraph,
    config: &PageRankConfig,
    scratch: &'s mut PageRankScratch,
) -> &'s [f64] {
    let n = g.num_vertices();
    let PageRankScratch { rank, next, source } = scratch;
    rank.clear();
    if n == 0 {
        return rank;
    }
    let uniform = 1.0 / n as f64;
    rank.resize(n, uniform);
    next.resize(n, 0.0);
    let adjacency = g.adjacency();
    if source.len() < adjacency.len() {
        source.resize(adjacency.len(), 0);
    }
    let (mut slot, mut dangling) = (0, 0);
    for u in 0..n {
        let deg = g.degree(u);
        dangling += usize::from(deg == 0);
        source[slot..slot + deg].fill(u as u32);
        slot += deg;
    }
    // The common rank of every dangling vertex (see `dangling_mass`).
    let mut rank_d = uniform;
    for _ in 0..config.max_iterations {
        let mass = dangling_mass(rank_d, dangling);
        let base = (1.0 - config.damping) * uniform + config.damping * mass * uniform;
        next.fill(base);
        for (&v, &u) in adjacency.iter().zip(source.iter()) {
            next[v as usize] += config.damping * rank[u as usize] / g.degree(u as usize) as f64;
        }
        let delta: f64 = rank
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(rank, next);
        rank_d = base;
        if delta < config.tolerance {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dangling_mass_matches_the_monolithic_fold() {
        let r = 0.123456789;
        let monolithic: f64 = std::iter::repeat_n(r, 7).sum();
        assert_eq!(dangling_mass(r, 7).to_bits(), monolithic.to_bits());
        assert_eq!(dangling_mass(r, 0), 0.0);
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = DeterministicGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_graph_gives_uniform_ranks() {
        // A cycle is vertex-transitive: all ranks equal.
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for &x in &pr {
            assert!((x - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn star_center_has_highest_rank() {
        let g = DeterministicGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        for leaf in 1..5 {
            assert!(pr[0] > pr[leaf]);
            assert!((pr[leaf] - pr[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_vertices_keep_distribution_normalised() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1)]);
        let pr = pagerank(&g, &PageRankConfig::default());
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // isolated vertices still receive teleport + dangling mass
        assert!(pr[2] > 0.0);
        assert!((pr[2] - pr[3]).abs() < 1e-12);
        assert!(pr[0] > pr[2]);
    }

    #[test]
    fn empty_graph_returns_empty_vector() {
        let g = DeterministicGraph::from_edges(0, &[]);
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn respects_iteration_limit() {
        let g = DeterministicGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let rough = pagerank(
            &g,
            &PageRankConfig {
                damping: 0.85,
                max_iterations: 1,
                tolerance: 0.0,
            },
        );
        let precise = pagerank(&g, &PageRankConfig::default());
        // With only one iteration the result should differ from the converged one.
        let diff: f64 = rough
            .iter()
            .zip(precise.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-6);
    }
}
