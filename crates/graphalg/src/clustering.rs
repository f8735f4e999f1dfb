//! Local clustering coefficients.
//!
//! The clustering coefficient (`CC`) query of the paper measures, for each
//! vertex, the ratio of edges among its neighbours to the maximum possible
//! number of such edges.  The Monte-Carlo query engine averages these values
//! over sampled possible worlds; this module provides the deterministic
//! kernel.

use crate::dgraph::DeterministicGraph;

/// Reusable buffers of [`local_clustering_into`]: the coefficients, a
/// per-vertex stamp array and one vertex's distinct-neighbour list.  Once
/// warm on a vertex count, further runs on graphs no larger allocate
/// nothing, and clones keep the sizes.
#[derive(Debug, Clone, Default)]
pub struct ClusteringScratch {
    coefficients: Vec<f64>,
    /// Per-vertex stamps; a stamp is never reused, so stale marks from
    /// earlier vertices (or earlier runs) never match.
    stamps: Vec<u64>,
    /// The last stamp handed out.
    epoch: u64,
    /// The current vertex's distinct neighbours in `distinct[..deg]`.
    distinct: Vec<u32>,
}

impl ClusteringScratch {
    /// Empty scratch; buffers grow on the first run.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Local clustering coefficient of every vertex.
///
/// `cc(u) = 2·T(u) / (deg(u)·(deg(u)-1))` where `deg(u)` counts the
/// *distinct* neighbours of `u` and `T(u)` the edges among them; vertices
/// with degree < 2 get 0 by convention.  Duplicate edges count once, and a
/// self-loop makes `u` a neighbour of itself.
///
/// An allocating wrapper around [`local_clustering_into`], which holds its
/// buffers in a caller-owned [`ClusteringScratch`] instead; both return
/// the same bits.
pub fn local_clustering_coefficients(g: &DeterministicGraph) -> Vec<f64> {
    let mut scratch = ClusteringScratch::new();
    local_clustering_into(g, &mut scratch);
    scratch.coefficients
}

/// [`local_clustering_coefficients`] into reusable buffers; the returned
/// slice holds the coefficients.
///
/// Per vertex `u`, the kernel stamps `u`'s distinct neighbours, then for
/// each of them, `v`, counts the stamped `w > v` in `N(v)`.  A counted `w`
/// is re-stamped for `v`, so a duplicate edge `v–w` counts once.  This is
/// the same integer triangle count as intersecting sorted, deduplicated
/// adjacency lists, so every coefficient has the same bits; the crate's
/// tests check that against the sorted-intersection kernel.
pub fn local_clustering_into<'s>(
    g: &DeterministicGraph,
    scratch: &'s mut ClusteringScratch,
) -> &'s [f64] {
    let n = g.num_vertices();
    let ClusteringScratch {
        coefficients,
        stamps,
        epoch,
        distinct,
    } = scratch;
    coefficients.clear();
    coefficients.resize(n, 0.0);
    // No vertex has more than n distinct neighbours.
    if stamps.len() < n {
        stamps.resize(n, 0);
        distinct.resize(n, 0);
    }
    for (u, cc) in coefficients.iter_mut().enumerate() {
        let neighbors = g.neighbor_slice(u);
        if neighbors.len() < 2 {
            continue;
        }
        // Stamp `member` marks N(u); `member + i` marks the w already
        // counted for the i-th distinct neighbour.
        let member = *epoch + 1;
        let mut deg = 0;
        for &v in neighbors {
            let stamp = &mut stamps[v as usize];
            if *stamp != member {
                *stamp = member;
                distinct[deg] = v;
                deg += 1;
            }
        }
        *epoch = member + deg as u64;
        if deg < 2 {
            continue;
        }
        let mut triangles = 0usize;
        for (i, &v) in (1u64..).zip(&distinct[..deg]) {
            for &w in g.neighbor_slice(v as usize) {
                let stamp = &mut stamps[w as usize];
                // In N(u) and not yet counted for v: member ≤ stamp < member + i.
                if w > v && stamp.wrapping_sub(member) < i {
                    *stamp = member + i;
                    triangles += 1;
                }
            }
        }
        *cc = 2.0 * triangles as f64 / (deg * (deg - 1)) as f64;
    }
    coefficients
}

/// Average of the local clustering coefficients over all vertices (the
/// scalar usually reported for a network).
pub fn average_clustering_coefficient(g: &DeterministicGraph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    local_clustering_coefficients(g).iter().sum::<f64>() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_coefficient_one() {
        let g = DeterministicGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![1.0, 1.0, 1.0]);
        assert!((average_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_coefficient_zero() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![0.0; 4]);
    }

    #[test]
    fn square_with_one_diagonal() {
        // 0-1, 1-2, 2-3, 3-0 and diagonal 0-2.
        let g = DeterministicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let cc = local_clustering_coefficients(&g);
        // Vertices 1 and 3 have degree 2 and their two neighbours (0, 2) are
        // linked: cc = 1.  Vertices 0 and 2 have degree 3 and two edges among
        // their three neighbours: cc = 2/3.
        assert!((cc[1] - 1.0).abs() < 1e-12);
        assert!((cc[3] - 1.0).abs() < 1e-12);
        assert!((cc[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cc[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_and_degree_one_vertices_get_zero() {
        let g = DeterministicGraph::from_edges(4, &[(0, 1)]);
        let cc = local_clustering_coefficients(&g);
        assert_eq!(cc, vec![0.0; 4]);
        assert_eq!(
            average_clustering_coefficient(&DeterministicGraph::from_edges(0, &[])),
            0.0
        );
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 30;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen::<f64>() < 0.2 {
                    edges.push((u, v));
                }
            }
        }
        let g = DeterministicGraph::from_edges(n, &edges);
        let fast = local_clustering_coefficients(&g);
        // brute force
        let adj: Vec<std::collections::HashSet<usize>> = (0..n)
            .map(|u| g.neighbors(u).collect::<std::collections::HashSet<_>>())
            .collect();
        for u in 0..n {
            let ns: Vec<usize> = adj[u].iter().copied().collect();
            let d = ns.len();
            let expected = if d < 2 {
                0.0
            } else {
                let mut t = 0usize;
                for i in 0..d {
                    for j in (i + 1)..d {
                        if adj[ns[i]].contains(&ns[j]) {
                            t += 1;
                        }
                    }
                }
                2.0 * t as f64 / (d * (d - 1)) as f64
            };
            assert!((fast[u] - expected).abs() < 1e-12, "vertex {u}");
        }
    }
}
