//! Vertex partitions of an uncertain graph: per-shard induced subgraphs plus
//! an explicit cut-edge set with stable id remapping.
//!
//! A [`GraphPartition`] splits the vertex set `V` into `k` **shards**.  Each
//! shard materialises the induced uncertain subgraph on its vertices
//! (relabelled to dense local ids) together with both id maps
//! (`local vertex -> global vertex`, `local edge -> global edge`), and every
//! edge whose endpoints land in *different* shards becomes a [`CutEdge`]
//! record carrying its global id, probability, and the `(shard, local id)`
//! coordinates of both endpoints.
//!
//! The partition is purely structural — it never looks at a sampled world —
//! which makes it the seam for *graph-sharded* evaluation: a worker that
//! owns one shard only needs that shard's subgraph plus the cut records
//! touching it, and any observation it produces can be translated back into
//! the parent graph's stable vertex/edge ids.  The shard-aware Monte-Carlo
//! engine in `ugs-queries` builds directly on this type.
//!
//! # Example
//!
//! ```
//! use uncertain_graph::{GraphPartition, UncertainGraph};
//!
//! // A 6-cycle split into two halves: exactly two edges cross the cut.
//! let g = UncertainGraph::from_edges(
//!     6,
//!     [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7), (3, 4, 0.6), (4, 5, 0.5), (5, 0, 0.4)],
//! )
//! .unwrap();
//! let partition = GraphPartition::contiguous(&g, 2).unwrap();
//! assert_eq!(partition.num_shards(), 2);
//! assert_eq!(partition.shard(0).num_vertices(), 3);
//! assert_eq!(partition.cut_edges().len(), 2);
//! // Shards keep stable maps back into the parent graph.
//! let shard = partition.shard(1);
//! assert_eq!(shard.global_vertex(0), 3);
//! for cut in partition.cut_edges() {
//!     assert_ne!(cut.shard_u, cut.shard_v);
//! }
//! ```

use crate::graph::{EdgeId, UncertainGraph, VertexId};

/// One shard of a [`GraphPartition`]: the induced uncertain subgraph on the
/// shard's vertices (dense local ids) plus the maps back into the parent
/// graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    graph: UncertainGraph,
    /// `local vertex id -> global vertex id` (ascending).
    vertices: Vec<VertexId>,
    /// `local edge id -> global edge id` (ascending).
    edges: Vec<EdgeId>,
}

impl Shard {
    /// The induced uncertain subgraph over the shard's local vertex ids.
    pub fn graph(&self) -> &UncertainGraph {
        &self.graph
    }

    /// Map `local vertex id -> global vertex id` (sorted ascending).
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Map `local edge id -> global edge id` (sorted ascending).
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Global id of the shard-local vertex `v`.
    #[inline]
    pub fn global_vertex(&self, v: VertexId) -> VertexId {
        self.vertices[v]
    }

    /// Global id of the shard-local edge `e`.
    #[inline]
    pub fn global_edge(&self, e: EdgeId) -> EdgeId {
        self.edges[e]
    }

    /// Number of vertices in the shard.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of intra-shard edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// An edge of the parent graph whose endpoints lie in different shards.
///
/// Cut edges are *not* part of any shard's induced subgraph; shard-aware
/// world sources sample them in a dedicated boundary pass and observers
/// apply them as a cut correction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CutEdge {
    /// Global id of the edge in the parent graph.
    pub edge: EdgeId,
    /// First global endpoint (as stored by the parent graph).
    pub u: VertexId,
    /// Second global endpoint.
    pub v: VertexId,
    /// Existence probability.
    pub p: f64,
    /// Shard containing `u`.
    pub shard_u: usize,
    /// Shard containing `v`.
    pub shard_v: usize,
    /// Local id of `u` inside `shard_u`.
    pub local_u: VertexId,
    /// Local id of `v` inside `shard_v`.
    pub local_v: VertexId,
}

/// Why a vertex labelling could not be turned into a [`GraphPartition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// A partition needs at least one shard.
    NoShards,
    /// The labelling does not have one entry per vertex.
    LabelingSize {
        /// Number of labels supplied.
        got: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A label referenced a shard outside `0..num_shards`.
    ShardOutOfRange {
        /// The offending label.
        label: usize,
        /// Number of shards the partition was declared with.
        num_shards: usize,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoShards => write!(f, "a graph partition needs at least one shard"),
            PartitionError::LabelingSize { got, num_vertices } => write!(
                f,
                "vertex labelling has {got} entries for a graph with {num_vertices} vertices"
            ),
            PartitionError::ShardOutOfRange { label, num_shards } => write!(
                f,
                "shard label {label} out of range for a partition with {num_shards} shards"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A split of an uncertain graph's vertex set into shards; see the
/// [module docs](self) for the data model and an example.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPartition {
    num_vertices: usize,
    num_edges: usize,
    /// `global vertex -> shard`.
    labels: Vec<u32>,
    /// `global vertex -> local index inside its shard`.
    local_index: Vec<u32>,
    shards: Vec<Shard>,
    cuts: Vec<CutEdge>,
    /// CSR over global vertices: incident cut-edge ids (indices into
    /// `cuts`) of vertex `v` are `cut_ids[cut_offsets[v]..cut_offsets[v+1]]`.
    cut_offsets: Vec<u32>,
    cut_ids: Vec<u32>,
}

impl GraphPartition {
    /// Builds the partition described by a caller-supplied labelling
    /// (`labels[v]` = shard of vertex `v`, each in `0..num_shards`).  Shards
    /// may be empty.
    pub fn from_labels(
        g: &UncertainGraph,
        labels: &[usize],
        num_shards: usize,
    ) -> Result<Self, PartitionError> {
        if num_shards == 0 {
            return Err(PartitionError::NoShards);
        }
        if labels.len() != g.num_vertices() {
            return Err(PartitionError::LabelingSize {
                got: labels.len(),
                num_vertices: g.num_vertices(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_shards) {
            return Err(PartitionError::ShardOutOfRange {
                label: bad,
                num_shards,
            });
        }

        // Shard vertex lists in ascending global order, plus the local index
        // of every vertex inside its shard.
        let mut shard_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); num_shards];
        let mut local_index = vec![0u32; g.num_vertices()];
        for (v, &label) in labels.iter().enumerate() {
            local_index[v] = shard_vertices[label].len() as u32;
            shard_vertices[label].push(v);
        }

        // Induced subgraph (with the edge map) per shard — the standalone
        // helper guarantees ascending edge ids, which keeps the remapping
        // stable.
        let shards = shard_vertices
            .into_iter()
            .map(|vertices| {
                let (graph, vertices, edges) = g
                    .induced_subgraph_with_edges(&vertices)
                    .expect("validated labels produce valid shard vertex lists");
                Shard {
                    graph,
                    vertices,
                    edges,
                }
            })
            .collect();

        // Cut records in ascending global-edge order.
        let cuts: Vec<CutEdge> = g
            .edges()
            .filter(|e| labels[e.u] != labels[e.v])
            .map(|e| CutEdge {
                edge: e.id,
                u: e.u,
                v: e.v,
                p: e.p,
                shard_u: labels[e.u],
                shard_v: labels[e.v],
                local_u: local_index[e.u] as usize,
                local_v: local_index[e.v] as usize,
            })
            .collect();

        // CSR of incident cut edges per global vertex (counting pass + fill).
        let n = g.num_vertices();
        let mut cut_offsets = vec![0u32; n + 1];
        for cut in &cuts {
            cut_offsets[cut.u + 1] += 1;
            cut_offsets[cut.v + 1] += 1;
        }
        for v in 0..n {
            cut_offsets[v + 1] += cut_offsets[v];
        }
        let mut cursor: Vec<u32> = cut_offsets[..n].to_vec();
        let mut cut_ids = vec![0u32; 2 * cuts.len()];
        for (c, cut) in cuts.iter().enumerate() {
            cut_ids[cursor[cut.u] as usize] = c as u32;
            cursor[cut.u] += 1;
            cut_ids[cursor[cut.v] as usize] = c as u32;
            cursor[cut.v] += 1;
        }

        Ok(GraphPartition {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            labels: labels.iter().map(|&l| l as u32).collect(),
            local_index,
            shards,
            cuts,
            cut_offsets,
            cut_ids,
        })
    }

    /// Splits the dense vertex range into `num_shards` contiguous chunks
    /// (the first `|V| mod k` shards get one extra vertex) — the cheapest
    /// deterministic labelling, and the one the query service defaults to.
    pub fn contiguous(g: &UncertainGraph, num_shards: usize) -> Result<Self, PartitionError> {
        if num_shards == 0 {
            return Err(PartitionError::NoShards);
        }
        let n = g.num_vertices();
        let base = n / num_shards;
        let extra = n % num_shards;
        let mut labels = Vec::with_capacity(n);
        for shard in 0..num_shards {
            let count = base + usize::from(shard < extra);
            labels.extend(std::iter::repeat_n(shard, count));
        }
        Self::from_labels(g, &labels, num_shards)
    }

    /// Number of vertices of the parent graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges of the parent graph (intra-shard plus cut).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, indexed by shard id.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &Shard {
        &self.shards[shard]
    }

    /// The cut-edge records, in ascending global-edge order.
    pub fn cut_edges(&self) -> &[CutEdge] {
        &self.cuts
    }

    /// One cut-edge record.
    ///
    /// # Panics
    /// Panics if `cut` is out of range.
    #[inline]
    pub fn cut_edge(&self, cut: usize) -> &CutEdge {
        &self.cuts[cut]
    }

    /// The shard of global vertex `v`.
    #[inline]
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.labels[v] as usize
    }

    /// `(shard, local id)` coordinates of global vertex `v`.
    #[inline]
    pub fn locate(&self, v: VertexId) -> (usize, usize) {
        (self.labels[v] as usize, self.local_index[v] as usize)
    }

    /// Indices (into [`GraphPartition::cut_edges`]) of the cut edges
    /// incident to global vertex `v`.
    #[inline]
    pub fn incident_cuts(&self, v: VertexId) -> &[u32] {
        &self.cut_ids[self.cut_offsets[v] as usize..self.cut_offsets[v + 1] as usize]
    }

    /// Sum of the cut-edge probabilities — the expected number of boundary
    /// edges per sampled world.
    pub fn cut_probability_mass(&self) -> f64 {
        self.cuts.iter().map(|c| c.p).sum()
    }

    /// Checks that this partition was built from a graph shaped like `g`
    /// (same vertex and edge counts).  Shard-aware engines call this before
    /// trusting the partition's id maps.
    pub fn matches(&self, g: &UncertainGraph) -> bool {
        self.num_vertices == g.num_vertices() && self.num_edges == g.num_edges()
    }
}

/// Re-derive the labelling of a partition (`vertex -> shard`), mostly for
/// diagnostics and tests.
impl GraphPartition {
    /// The labelling `global vertex -> shard`.
    pub fn labels(&self) -> Vec<usize> {
        self.labels.iter().map(|&l| l as usize).collect()
    }
}

/// Sentinel in [`ShardHalo::halo_index`]: the vertex is outside the shard's
/// halo (neither owned nor a ghost).
pub const NOT_IN_HALO: u32 = u32::MAX;

/// One contribution edge of a shard's PageRank push pass: when the support
/// edge `edge` is present in a world, halo vertex `source_halo` pushes mass
/// into the owned vertex `target_local`.
///
/// Push lists are sorted by `(source, edge)` — ascending *global* source
/// id — so that, for any fixed target, contributions fold in exactly the
/// order the monolithic kernel adds them (ascending source vertex, then
/// ascending edge id).  That ordering is what makes the sharded per-target
/// sums bit-identical to the monolithic ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushEdge {
    /// Global id of the pushing vertex (degree lookups are global).
    pub source: u32,
    /// Halo-local id of the pushing vertex (rank lookups are halo-local).
    pub source_halo: u32,
    /// Shard-local id of the owned target vertex.
    pub target_local: u32,
    /// Global edge id (world-presence lookups are global).
    pub edge: u32,
}

/// The ghost halo of one shard: the shard's owned vertices plus every
/// cut-edge endpoint owned elsewhere (its *ghosts*), with a stable
/// halo-local numbering (`owned locals first, then ghosts in ascending
/// global order`) and the support edges running inside that vertex set.
///
/// The halo edge set deliberately includes ghost–ghost edges (edges of
/// *other* shards whose both endpoints happen to be ghosts here): clustering
/// coefficients of owned boundary vertices need the edges *among* their
/// 1-hop neighbours, which is exactly that second hop.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHalo {
    owned: usize,
    ghosts: Vec<VertexId>,
    /// `global vertex -> halo-local id`, [`NOT_IN_HALO`] outside the halo.
    halo_index: Vec<u32>,
    /// PageRank contribution edges, sorted by `(source, edge)`.
    push: Vec<PushEdge>,
    /// `(halo-local a, halo-local b, global edge id)` for every support edge
    /// with both endpoints in the halo, in ascending global-edge order.
    halo_edges: Vec<(u32, u32, u32)>,
    /// Owned vertices incident to at least one cut edge (ascending global
    /// ids) — the static superset of the values other shards need from
    /// this one each superstep (a world needs only those with a present
    /// cut edge).
    boundary: Vec<VertexId>,
    /// CSR over halo-local vertices: `(neighbour halo-local, global edge)`.
    csr_offsets: Vec<u32>,
    csr_adj: Vec<(u32, u32)>,
    expected_halo_mass: f64,
}

impl ShardHalo {
    /// Number of owned vertices (halo-local ids `0..owned()`).
    pub fn owned(&self) -> usize {
        self.owned
    }

    /// Ghost vertices in ascending global order; ghost `j` has halo-local
    /// id `owned() + j`.
    pub fn ghosts(&self) -> &[VertexId] {
        &self.ghosts
    }

    /// Total halo size (owned + ghosts).
    pub fn halo_len(&self) -> usize {
        self.owned + self.ghosts.len()
    }

    /// Halo-local id of global vertex `v`, or [`NOT_IN_HALO`].
    #[inline]
    pub fn halo_index(&self, v: VertexId) -> u32 {
        self.halo_index[v]
    }

    /// The PageRank push list (sorted by ascending global source, then
    /// edge id; see [`PushEdge`]).
    pub fn push_edges(&self) -> &[PushEdge] {
        &self.push
    }

    /// Support edges inside the halo as `(halo-local a, halo-local b,
    /// global edge id)`, ascending by global edge id.
    pub fn halo_edges(&self) -> &[(u32, u32, u32)] {
        &self.halo_edges
    }

    /// Owned cut-edge endpoints (ascending global ids).
    pub fn boundary(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Halo support adjacency of halo-local vertex `v`:
    /// `(neighbour halo-local id, global edge id)` pairs.
    #[inline]
    pub fn halo_neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.csr_adj[self.csr_offsets[v] as usize..self.csr_offsets[v + 1] as usize]
    }

    /// Sum of existence probabilities over the halo edge set — the expected
    /// number of halo edges present per sampled world.
    pub fn expected_halo_mass(&self) -> f64 {
        self.expected_halo_mass
    }
}

/// Per-shard halo statistics for operators judging a labelling; see
/// [`HaloPlan::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHaloStats {
    /// Vertices owned by the shard.
    pub owned_vertices: usize,
    /// Ghost vertices replicated into the shard.
    pub ghost_vertices: usize,
    /// Owned vertices whose value is exported each superstep.
    pub boundary_vertices: usize,
    /// Support edges inside the halo (owned + ghost endpoints).
    pub halo_edges: usize,
    /// Expected number of halo edges present per sampled world.
    pub expected_halo_mass: f64,
}

/// Aggregate halo statistics of a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloStats {
    /// One entry per shard.
    pub shards: Vec<ShardHaloStats>,
    /// `Σ (owned + ghosts) / |V|` — how many copies of a vertex the halo
    /// scheme stores on average (1.0 means no replication).
    pub replication_factor: f64,
}

/// Ghost-halo replication plan for every shard of a [`GraphPartition`]:
/// the static (world-independent) side of the ghost-halo exchange
/// subsystem.  Per-world presence filtering happens in `ugs-queries`.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloPlan {
    num_vertices: usize,
    shards: Vec<ShardHalo>,
}

impl HaloPlan {
    /// Builds the halo plan of `partition` over `g`.
    ///
    /// # Panics
    /// Panics if `partition` was not built from a graph shaped like `g`.
    pub fn new(g: &UncertainGraph, partition: &GraphPartition) -> Self {
        assert!(
            partition.matches(g),
            "partition was built for a {}-vertex/{}-edge graph, got {}/{}",
            partition.num_vertices(),
            partition.num_edges(),
            g.num_vertices(),
            g.num_edges()
        );
        let n = g.num_vertices();
        let shards = (0..partition.num_shards())
            .map(|s| {
                let shard = partition.shard(s);
                let owned = shard.num_vertices();
                let mut ghosts: Vec<VertexId> = Vec::new();
                let mut boundary: Vec<VertexId> = Vec::new();
                for cut in partition.cut_edges() {
                    if cut.shard_u == s {
                        ghosts.push(cut.v);
                        boundary.push(cut.u);
                    } else if cut.shard_v == s {
                        ghosts.push(cut.u);
                        boundary.push(cut.v);
                    }
                }
                ghosts.sort_unstable();
                ghosts.dedup();
                boundary.sort_unstable();
                boundary.dedup();
                let mut halo_index = vec![NOT_IN_HALO; n];
                for (local, &global) in shard.vertices().iter().enumerate() {
                    halo_index[global] = local as u32;
                }
                for (j, &global) in ghosts.iter().enumerate() {
                    halo_index[global] = (owned + j) as u32;
                }
                let mut halo_edges = Vec::new();
                let mut push = Vec::new();
                let mut expected_halo_mass = 0.0f64;
                for e in g.edges() {
                    let a = halo_index[e.u];
                    let b = halo_index[e.v];
                    if a != NOT_IN_HALO && b != NOT_IN_HALO {
                        halo_edges.push((a, b, e.id as u32));
                        expected_halo_mass += e.p;
                    }
                    if partition.shard_of(e.u) == s {
                        push.push(PushEdge {
                            source: e.v as u32,
                            source_halo: b,
                            target_local: a,
                            edge: e.id as u32,
                        });
                    }
                    if partition.shard_of(e.v) == s {
                        push.push(PushEdge {
                            source: e.u as u32,
                            source_halo: a,
                            target_local: b,
                            edge: e.id as u32,
                        });
                    }
                }
                push.sort_unstable_by_key(|p| (p.source, p.edge));
                let halo_len = owned + ghosts.len();
                let mut csr_offsets = vec![0u32; halo_len + 1];
                for &(a, b, _) in &halo_edges {
                    csr_offsets[a as usize + 1] += 1;
                    csr_offsets[b as usize + 1] += 1;
                }
                for v in 0..halo_len {
                    csr_offsets[v + 1] += csr_offsets[v];
                }
                let mut cursor: Vec<u32> = csr_offsets[..halo_len].to_vec();
                let mut csr_adj = vec![(0u32, 0u32); 2 * halo_edges.len()];
                for &(a, b, e) in &halo_edges {
                    csr_adj[cursor[a as usize] as usize] = (b, e);
                    cursor[a as usize] += 1;
                    csr_adj[cursor[b as usize] as usize] = (a, e);
                    cursor[b as usize] += 1;
                }
                ShardHalo {
                    owned,
                    ghosts,
                    halo_index,
                    push,
                    halo_edges,
                    boundary,
                    csr_offsets,
                    csr_adj,
                    expected_halo_mass,
                }
            })
            .collect();
        HaloPlan {
            num_vertices: n,
            shards,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of vertices of the parent graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// The halo of one shard.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &ShardHalo {
        &self.shards[shard]
    }

    /// Per-shard and aggregate halo statistics.
    pub fn stats(&self) -> HaloStats {
        let shards: Vec<ShardHaloStats> = self
            .shards
            .iter()
            .map(|s| ShardHaloStats {
                owned_vertices: s.owned,
                ghost_vertices: s.ghosts.len(),
                boundary_vertices: s.boundary.len(),
                halo_edges: s.halo_edges.len(),
                expected_halo_mass: s.expected_halo_mass,
            })
            .collect();
        let replicated: usize = shards
            .iter()
            .map(|s| s.owned_vertices + s.ghost_vertices)
            .sum();
        let replication_factor = if self.num_vertices == 0 {
            1.0
        } else {
            replicated as f64 / self.num_vertices as f64
        };
        HaloStats {
            shards,
            replication_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_triangles_bridge() -> UncertainGraph {
        // Two triangles {0,1,2} and {3,4,5} joined by the bridge (2,3).
        UncertainGraph::from_edges(
            6,
            [
                (0, 1, 0.9),
                (1, 2, 0.8),
                (0, 2, 0.7),
                (3, 4, 0.6),
                (4, 5, 0.5),
                (3, 5, 0.4),
                (2, 3, 0.25),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_labels_builds_shards_and_cuts() {
        let g = two_triangles_bridge();
        let p = GraphPartition::from_labels(&g, &[0, 0, 0, 1, 1, 1], 2).unwrap();
        assert_eq!(p.num_shards(), 2);
        assert_eq!(p.shard(0).num_vertices(), 3);
        assert_eq!(p.shard(0).num_edges(), 3);
        assert_eq!(p.shard(1).num_edges(), 3);
        assert_eq!(p.cut_edges().len(), 1);
        let cut = p.cut_edge(0);
        assert_eq!((cut.u, cut.v), (2, 3));
        assert_eq!((cut.shard_u, cut.shard_v), (0, 1));
        assert_eq!(cut.local_u, 2);
        assert_eq!(cut.local_v, 0);
        assert!((cut.p - 0.25).abs() < 1e-12);
        assert!((p.cut_probability_mass() - 0.25).abs() < 1e-12);
        assert!(p.matches(&g));
    }

    #[test]
    fn shard_maps_translate_back_to_global_ids() {
        let g = two_triangles_bridge();
        let p = GraphPartition::from_labels(&g, &[0, 1, 0, 1, 0, 1], 2).unwrap();
        // Every intra-shard edge must exist in the parent with the same
        // endpoints and probability; every parent edge must be exactly one
        // of: in one shard, or a cut.
        let mut seen = vec![false; g.num_edges()];
        for shard in p.shards() {
            for le in shard.graph().edges() {
                let ge = shard.global_edge(le.id);
                assert!(!seen[ge]);
                seen[ge] = true;
                let (gu, gv) = (shard.global_vertex(le.u), shard.global_vertex(le.v));
                let (eu, ev) = g.edge_endpoints(ge);
                assert_eq!((gu.min(gv), gu.max(gv)), (eu.min(ev), eu.max(ev)));
                assert_eq!(le.p, g.edge_probability(ge));
            }
        }
        for cut in p.cut_edges() {
            assert!(!seen[cut.edge]);
            seen[cut.edge] = true;
            assert_eq!(p.shard(cut.shard_u).global_vertex(cut.local_u), cut.u);
            assert_eq!(p.shard(cut.shard_v).global_vertex(cut.local_v), cut.v);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn locate_and_incident_cuts_agree_with_the_labelling() {
        let g = two_triangles_bridge();
        let labels = [0usize, 0, 0, 1, 1, 1];
        let p = GraphPartition::from_labels(&g, &labels, 2).unwrap();
        for (v, &label) in labels.iter().enumerate() {
            let (s, l) = p.locate(v);
            assert_eq!(s, label);
            assert_eq!(p.shard_of(v), label);
            assert_eq!(p.shard(s).global_vertex(l), v);
        }
        assert_eq!(p.incident_cuts(2), &[0]);
        assert_eq!(p.incident_cuts(3), &[0]);
        assert!(p.incident_cuts(0).is_empty());
    }

    #[test]
    fn contiguous_balances_shard_sizes() {
        let g = two_triangles_bridge();
        let p = GraphPartition::contiguous(&g, 4).unwrap();
        let sizes: Vec<usize> = p.shards().iter().map(Shard::num_vertices).collect();
        assert_eq!(sizes, vec![2, 2, 1, 1]);
        assert_eq!(p.labels(), vec![0, 0, 1, 1, 2, 3]);
        // A 1-shard partition has no cuts and one full shard.
        let whole = GraphPartition::contiguous(&g, 1).unwrap();
        assert_eq!(whole.num_shards(), 1);
        assert!(whole.cut_edges().is_empty());
        assert_eq!(whole.shard(0).num_edges(), g.num_edges());
    }

    #[test]
    fn empty_shards_and_tiny_graphs_are_allowed() {
        let g = UncertainGraph::from_edges(2, [(0, 1, 0.5)]).unwrap();
        let p = GraphPartition::contiguous(&g, 4).unwrap();
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.shard(2).num_vertices(), 0);
        assert_eq!(p.cut_edges().len(), 1);
        let empty = UncertainGraph::from_edges(0, []).unwrap();
        let p = GraphPartition::contiguous(&empty, 2).unwrap();
        assert_eq!(p.num_shards(), 2);
        assert!(p.cut_edges().is_empty());
    }

    #[test]
    fn halo_plan_replicates_cut_endpoints_with_their_second_hop() {
        let g = two_triangles_bridge();
        let p = GraphPartition::from_labels(&g, &[0, 0, 0, 1, 1, 1], 2).unwrap();
        let plan = HaloPlan::new(&g, &p);
        assert_eq!(plan.num_shards(), 2);
        // Shard 0 owns {0,1,2}; vertex 3 is its only ghost (via the bridge).
        let h0 = plan.shard(0);
        assert_eq!(h0.owned(), 3);
        assert_eq!(h0.ghosts(), &[3]);
        assert_eq!(h0.boundary(), &[2]);
        assert_eq!(h0.halo_index(3), 3);
        assert_eq!(h0.halo_index(4), NOT_IN_HALO);
        // Halo edges of shard 0: the three intra edges plus the bridge.
        assert_eq!(h0.halo_edges().len(), 4);
        // Shard 1's halo sees vertex 2 as a ghost, and no edge among its
        // (single) ghost beyond the bridge itself.
        let h1 = plan.shard(1);
        assert_eq!(h1.ghosts(), &[2]);
        assert_eq!(h1.boundary(), &[3]);
        assert_eq!(h1.halo_edges().len(), 4);
        let stats = plan.stats();
        assert_eq!(stats.shards[0].ghost_vertices, 1);
        assert_eq!(stats.shards[1].ghost_vertices, 1);
        assert!((stats.replication_factor - 8.0 / 6.0).abs() < 1e-12);
        let mass: f64 = [0.9, 0.8, 0.7, 0.25].iter().sum();
        assert!((stats.shards[0].expected_halo_mass - mass).abs() < 1e-12);
    }

    #[test]
    fn halo_ghost_ghost_edges_are_included() {
        // Triangle 0-1-2 with each vertex in its own shard: every shard's
        // halo contains the other two vertices AND the edge between them.
        let g = UncertainGraph::from_edges(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]).unwrap();
        let p = GraphPartition::from_labels(&g, &[0, 1, 2], 3).unwrap();
        let plan = HaloPlan::new(&g, &p);
        for s in 0..3 {
            let h = plan.shard(s);
            assert_eq!(h.owned(), 1);
            assert_eq!(h.ghosts().len(), 2);
            // All three edges lie inside every shard's halo.
            assert_eq!(h.halo_edges().len(), 3);
            // Exactly two pushes target the single owned vertex.
            assert_eq!(h.push_edges().len(), 2);
            assert!(h
                .push_edges()
                .windows(2)
                .all(|w| (w[0].source, w[0].edge) <= (w[1].source, w[1].edge)));
        }
    }

    #[test]
    fn halo_push_lists_cover_every_owned_incidence_in_source_order() {
        let g = two_triangles_bridge();
        let p = GraphPartition::from_labels(&g, &[0, 1, 0, 1, 0, 1], 2).unwrap();
        let plan = HaloPlan::new(&g, &p);
        let mut covered = vec![0usize; g.num_edges()];
        for s in 0..2 {
            let h = plan.shard(s);
            let mut last = (0u32, 0u32);
            for (i, push) in h.push_edges().iter().enumerate() {
                let key = (push.source, push.edge);
                assert!(i == 0 || last <= key, "push list out of order");
                last = key;
                // The target really is owned and the source is its halo id.
                let target_global = p.shard(s).global_vertex(push.target_local as usize);
                let (eu, ev) = g.edge_endpoints(push.edge as usize);
                assert!(
                    (eu == target_global && ev == push.source as usize)
                        || (ev == target_global && eu == push.source as usize)
                );
                assert_eq!(h.halo_index(push.source as usize), push.source_halo);
                covered[push.edge as usize] += 1;
            }
        }
        // Every edge contributes one push per owned endpoint: intra edges
        // twice in their own shard, cut edges once per side.
        assert!(covered.iter().all(|&c| c == 2));
    }

    #[test]
    fn single_shard_halo_has_no_ghosts() {
        let g = two_triangles_bridge();
        let p = GraphPartition::contiguous(&g, 1).unwrap();
        let plan = HaloPlan::new(&g, &p);
        let h = plan.shard(0);
        assert!(h.ghosts().is_empty());
        assert!(h.boundary().is_empty());
        assert_eq!(h.halo_edges().len(), g.num_edges());
        assert!((plan.stats().replication_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_labellings_are_rejected_with_typed_errors() {
        let g = two_triangles_bridge();
        assert_eq!(
            GraphPartition::from_labels(&g, &[0; 6], 0),
            Err(PartitionError::NoShards)
        );
        assert_eq!(
            GraphPartition::from_labels(&g, &[0; 4], 2),
            Err(PartitionError::LabelingSize {
                got: 4,
                num_vertices: 6
            })
        );
        assert_eq!(
            GraphPartition::from_labels(&g, &[0, 0, 0, 1, 1, 7], 2),
            Err(PartitionError::ShardOutOfRange {
                label: 7,
                num_shards: 2
            })
        );
        assert_eq!(
            GraphPartition::contiguous(&g, 0),
            Err(PartitionError::NoShards)
        );
    }
}
