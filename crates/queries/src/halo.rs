//! Ghost-halo exchange: superstep evaluation of neighbourhood queries
//! (PageRank, clustering coefficients, k-NN) over sharded worlds.
//!
//! Count-style queries cross shard boundaries with a *cut correction* (DSU
//! gluing, boundary degree stamps).  Neighbourhood queries cannot: PageRank
//! needs every neighbour's rank each iteration, and a clustering coefficient
//! needs the edges *among* a vertex's neighbours.  This module closes that
//! gap with a ghost halo: every shard replicates the cut endpoints owned by
//! other shards (its *ghosts*, [`uncertain_graph::HaloPlan`]) plus all
//! support edges inside that extended vertex set, filters them by the
//! current world's edge presence ([`WorldPresence`]), runs the kernel
//! locally, and exchanges boundary values between supersteps —
//! Pregel-style iteration for PageRank, one-shot halo materialisation for
//! clustering, frontier exchange for BFS/k-NN.
//!
//! # PageRank iteration equivalence
//!
//! The sharded PageRank is not merely "close" to the monolithic kernel
//! (`graph_algos::pagerank::pagerank`) — it reproduces it **bit for bit**,
//! iteration for iteration.  The argument, term by term:
//!
//! * **Per-target fold order.**  The monolithic kernel
//!   ([`graph_algos::pagerank::pagerank_into`]) tags every adjacency slot
//!   with its source once per world — the non-dangling vertices in
//!   ascending order — and pushes `damping · rank[u] / deg(u)` along the
//!   slots in that order.  A dangling source has no slots, so skipping it
//!   drops no addend: for a fixed target `v`, the additions into `next[v]`
//!   arrive in ascending source order (ties in ascending edge order).  A
//!   shard's push list ([`uncertain_graph::PushEdge`]) is sorted by
//!   `(global source, edge)` and covers exactly the edges with an owned
//!   target, so each owned `next[v]` folds the identical addends in the
//!   identical order — and floating-point addition, while not associative,
//!   is deterministic for a fixed sequence.  Both compute each addend per
//!   edge as the same expression `damping * rank_u / deg`, which yields
//!   the same bits each time.
//! * **Dangling mass.**  Every dangling (world-degree-0) vertex holds the
//!   same rank bits in every iteration: initially all ranks are `1/n`, and
//!   a dangling vertex receives no pushes, so its next rank is exactly the
//!   common `base`.  The left fold of the `k` dangling ranks over ascending
//!   vertex ids is therefore [`dangling_mass`]`(r_d, k)`: `k` repeated
//!   additions of the shared dangling rank `r_d`.  The monolithic kernel
//!   computes its mass with that very function, and every shard replays it
//!   locally from the global dangling count, no exchange needed — one
//!   definition, shared.  Both track `r_d` as `1/n` initially and the
//!   previous iteration's `base` thereafter.
//! * **Convergence delta.**  The monolithic `delta` is a left fold of
//!   `|rank[v] − next[v]|` over `v = 0..n` ascending.  In process, each
//!   shard writes its owned diffs into a global buffer that is folded once
//!   in ascending global order ([`ShardPageRank::write_diffs`]) — exact for
//!   *any* labelling.  Across processes, the coordinator threads an
//!   accumulator through the shards in ascending shard order
//!   ([`ShardPageRank::fold_delta`]); for contiguous partitions (the only
//!   kind the distributed fleet deploys) shard-order traversal of owned
//!   vertices *is* ascending global order, so the chained fold reproduces
//!   the monolithic fold exactly.
//! * **World-sparse exchange.**  A ghost's rank is read only through a push
//!   edge that is *present* in the world, so a shard needs, per iteration,
//!   only the ranks of ghosts with a present edge into it.  Those are the
//!   owners' [`active_boundary_into`] vertices: owned boundary vertices
//!   with at least one present edge to a ghost.  Exchanging just those
//!   ([`fed_ghosts`] picks a shard's share) is exact: a ghost that is not
//!   fed keeps a stale value that no superstep reads, so ranks, deltas and
//!   the stop step keep the same bits.
//!
//! Identical per-iteration ranks and an identical delta give an identical
//! stop decision (`delta < tolerance`), hence the same iteration count and
//! bitwise-identical final ranks: iteration equivalence in the strongest
//! sense.
//!
//! Clustering coefficients are exact because `cc(v)` is a pure function of
//! integer degree and triangle counts, and the present-filtered halo world
//! of `v`'s shard contains `v`'s full neighbourhood plus every present edge
//! among it (ghost–ghost edges included).  BFS distances are integers and
//! order-free, so the frontier-exchange variant trivially matches.
//!
//! # Example: sharded PageRank, bit-identical to monolithic
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use uncertain_graph::{GraphPartition, UncertainGraph};
//! use ugs_queries::batch::QueryBatch;
//! use ugs_queries::mc::MonteCarlo;
//! use ugs_queries::node_queries::PageRankObserver;
//! use ugs_queries::sharded::ShardedWorldEngine;
//!
//! let g = UncertainGraph::from_edges(
//!     6,
//!     [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.6), (3, 4, 0.7), (4, 5, 0.5), (5, 0, 0.4)],
//! )
//! .unwrap();
//! let partition = GraphPartition::contiguous(&g, 2).unwrap();
//! let engine = ShardedWorldEngine::new(&g, &partition);
//!
//! // Same world budget and thread count as the monolithic batch below —
//! // per-world ranks are bitwise equal, so equal accumulation structure
//! // makes the *expectations* bitwise equal too.
//! let mut sharded = QueryBatch::from_sharded(&engine, 50, 1);
//! let hs = sharded.register(PageRankObserver::new(&g));
//! let sharded_pr = sharded.run(&mut SmallRng::seed_from_u64(9)).take(hs);
//!
//! let mut monolithic = QueryBatch::new(&g, &MonteCarlo::worlds(50));
//! let hm = monolithic.register(PageRankObserver::new(&g));
//! let monolithic_pr = monolithic.run(&mut SmallRng::seed_from_u64(9)).take(hm);
//!
//! // Not approximately equal: the same bits.
//! for (s, m) in sharded_pr.iter().zip(monolithic_pr.iter()) {
//!     assert_eq!(s.to_bits(), m.to_bits());
//! }
//! ```

use graph_algos::clustering::{local_clustering_into, ClusteringScratch};
use graph_algos::pagerank::{dangling_mass, PageRankConfig};
use graph_algos::DeterministicGraph;
use uncertain_graph::{HaloPlan, ShardHalo, UncertainGraph, VertexId, NOT_IN_HALO};

use crate::sharded::ShardedWorld;

/// Global edge-presence and degree structure of one sampled world, stamped
/// from the replayed full-graph present list that every shard-aware
/// consumer holds.  Resets incrementally between worlds (O(previous
/// present)), so steady-state stamping allocates nothing.
#[derive(Debug, Clone)]
pub struct WorldPresence {
    num_vertices: usize,
    present: Vec<bool>,
    degrees: Vec<u32>,
    touched_edges: Vec<u32>,
    touched_vertices: Vec<u32>,
}

impl WorldPresence {
    /// Pre-sized presence buffers for worlds of `g`.
    pub fn new(g: &UncertainGraph) -> Self {
        WorldPresence {
            num_vertices: g.num_vertices(),
            present: vec![false; g.num_edges()],
            degrees: vec![0; g.num_vertices()],
            touched_edges: Vec::with_capacity(g.num_edges()),
            touched_vertices: Vec::with_capacity(g.num_vertices()),
        }
    }

    /// Stamps the world whose present global edge ids are `present_edges`,
    /// rebuilding the per-vertex world degrees and the dangling count.
    pub fn stamp(&mut self, g: &UncertainGraph, present_edges: &[u32]) {
        let WorldPresence {
            present,
            degrees,
            touched_edges,
            touched_vertices,
            ..
        } = self;
        for &e in touched_edges.iter() {
            present[e as usize] = false;
        }
        for &v in touched_vertices.iter() {
            degrees[v as usize] = 0;
        }
        touched_edges.clear();
        touched_vertices.clear();
        for &e in present_edges {
            present[e as usize] = true;
            touched_edges.push(e);
            let (u, v) = g.edge_endpoints(e as usize);
            if degrees[u] == 0 {
                touched_vertices.push(u as u32);
            }
            degrees[u] += 1;
            if degrees[v] == 0 {
                touched_vertices.push(v as u32);
            }
            degrees[v] += 1;
        }
    }

    /// Whether global edge `e` is present in the stamped world.
    #[inline]
    pub fn edge_present(&self, e: u32) -> bool {
        self.present[e as usize]
    }

    /// World degree of global vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        self.degrees[v as usize]
    }

    /// Number of dangling (world-degree-0) vertices.
    pub fn dangling(&self) -> usize {
        self.num_vertices - self.touched_vertices.len()
    }
}

/// Fills `out` with the owned boundary vertices of `halo` (ascending global
/// ids) that have at least one present edge to a ghost in the stamped
/// world: the only owned ranks another shard reads during this world's
/// PageRank supersteps.  Reuses `out`'s capacity, so steady-state calls
/// allocate nothing.
pub fn active_boundary_into(halo: &ShardHalo, presence: &WorldPresence, out: &mut Vec<VertexId>) {
    out.clear();
    let owned = halo.owned() as u32;
    out.extend(halo.boundary().iter().copied().filter(|&v| {
        halo.halo_neighbors(halo.halo_index(v) as usize)
            .iter()
            .any(|&(neighbor, edge)| neighbor >= owned && presence.edge_present(edge))
    }));
}

/// The vertices of `reported` that are ghosts of `halo`: a shard's share
/// of the other shards' [`active_boundary_into`] reports, i.e. the ghost
/// ranks it must be fed before the next superstep.
pub fn fed_ghosts<'a>(
    halo: &'a ShardHalo,
    reported: &'a [VertexId],
) -> impl Iterator<Item = VertexId> + 'a {
    let owned = halo.owned();
    reported.iter().copied().filter(move |&v| {
        let local = halo.halo_index(v);
        local != NOT_IN_HALO && local as usize >= owned
    })
}

/// Per-shard PageRank superstep state: a halo-local rank vector (owned
/// vertices first, then ghosts in plan order) and the owned `next` buffer.
#[derive(Debug, Clone)]
pub struct ShardPageRank {
    owned: usize,
    rank: Vec<f64>,
    next: Vec<f64>,
}

impl ShardPageRank {
    /// State sized for one shard's halo.
    pub fn new(halo: &ShardHalo) -> Self {
        ShardPageRank {
            owned: halo.owned(),
            rank: vec![0.0; halo.halo_len()],
            next: vec![0.0; halo.owned()],
        }
    }

    /// Resets every rank (owned and ghost) to the uniform start value.
    pub fn reset(&mut self, uniform: f64) {
        self.rank.fill(uniform);
    }

    /// Installs an exchanged ghost rank (`ghost` indexes
    /// [`ShardHalo::ghosts`]).
    #[inline]
    pub fn set_ghost_rank(&mut self, ghost: usize, rank: f64) {
        self.rank[self.owned + ghost] = rank;
    }

    /// Installs a rank by halo-local id (used by the wire path, which
    /// addresses ghosts through [`ShardHalo::halo_index`]).
    #[inline]
    pub fn set_halo_rank(&mut self, halo_local: usize, rank: f64) {
        self.rank[halo_local] = rank;
    }

    /// Current rank of a halo-local vertex.
    #[inline]
    pub fn halo_rank(&self, halo_local: usize) -> f64 {
        self.rank[halo_local]
    }

    /// One push superstep: refills the owned `next` buffer with `base` and
    /// folds the present push contributions in `(global source, edge)`
    /// order — the monolithic per-target order (see the [module
    /// docs](self)).  Ranks of ghost sources must have been exchanged for
    /// this iteration first.
    pub fn superstep(
        &mut self,
        halo: &ShardHalo,
        presence: &WorldPresence,
        damping: f64,
        base: f64,
    ) {
        self.next.fill(base);
        for push in halo.push_edges() {
            if presence.edge_present(push.edge) {
                let rank_u = self.rank[push.source_halo as usize];
                let deg = presence.degree(push.source);
                self.next[push.target_local as usize] += damping * rank_u / deg as f64;
            }
        }
    }

    /// Writes the owned `|rank − next|` terms into a *global* diff buffer
    /// (`owned_globals` = the shard's local→global vertex map); folding
    /// that buffer once over ascending global ids reproduces the monolithic
    /// delta for any labelling.
    pub fn write_diffs(&self, owned_globals: &[VertexId], diffs: &mut [f64]) {
        for (local, &global) in owned_globals.iter().enumerate() {
            diffs[global] = (self.rank[local] - self.next[local]).abs();
        }
    }

    /// Chains the owned `|rank − next|` terms onto `acc` in ascending
    /// owned-local order — for contiguous partitions, threading the
    /// accumulator through shards `0, 1, …` reproduces the monolithic
    /// ascending-vertex fold exactly.
    pub fn fold_delta(&self, mut acc: f64) -> f64 {
        for local in 0..self.owned {
            acc += (self.rank[local] - self.next[local]).abs();
        }
        acc
    }

    /// Commits the superstep: owned ranks take the `next` values.
    pub fn commit(&mut self) {
        self.rank[..self.owned].copy_from_slice(&self.next);
    }

    /// The owned ranks (halo-local ids `0..owned`).
    pub fn owned_ranks(&self) -> &[f64] {
        &self.rank[..self.owned]
    }
}

/// In-process sharded PageRank driver: per-shard [`ShardPageRank`] states
/// exchanging boundary ranks through a global rank board each superstep.
/// Produces bitwise the monolithic `pagerank` result on every world (see
/// the [module docs](self) for the argument).
#[derive(Debug, Clone, Default)]
pub struct HaloPageRank {
    states: Vec<ShardPageRank>,
    /// Global rank board: the in-process form of the boundary exchange.
    board: Vec<f64>,
    diffs: Vec<f64>,
    presence: Option<WorldPresence>,
}

impl HaloPageRank {
    /// An empty driver; buffers are sized lazily on the first world.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, view: &ShardedWorld<'_>, plan: &HaloPlan) {
        if self.presence.is_none() {
            self.presence = Some(WorldPresence::new(view.graph()));
            self.states = (0..plan.num_shards())
                .map(|s| ShardPageRank::new(plan.shard(s)))
                .collect();
            self.board = vec![0.0; view.num_vertices()];
            self.diffs = vec![0.0; view.num_vertices()];
        }
    }

    /// Runs the superstep loop on the current world of `view`; the returned
    /// slice holds the final global ranks.
    ///
    /// Callers must short-circuit 1-shard views to the monolithic kernel
    /// (their replay scatter skips the full-graph present list this driver
    /// stamps presence from).
    pub fn run(&mut self, view: &ShardedWorld<'_>, config: &PageRankConfig) -> &[f64] {
        let plan = view.halo_plan();
        let partition = view.partition();
        let n = view.num_vertices();
        self.ensure(view, plan);
        if n == 0 {
            return &self.board;
        }
        let presence = self.presence.as_mut().expect("ensured above");
        presence.stamp(view.graph(), view.all_present());
        let uniform = 1.0 / n as f64;
        self.board.fill(uniform);
        for state in &mut self.states {
            state.reset(uniform);
        }
        let mut rank_d = uniform;
        for _ in 0..config.max_iterations {
            let mass = dangling_mass(rank_d, presence.dangling());
            let base = (1.0 - config.damping) * uniform + config.damping * mass * uniform;
            for (s, state) in self.states.iter_mut().enumerate() {
                let halo = plan.shard(s);
                for (j, &ghost) in halo.ghosts().iter().enumerate() {
                    state.set_ghost_rank(j, self.board[ghost]);
                }
                state.superstep(halo, presence, config.damping, base);
            }
            for (s, state) in self.states.iter().enumerate() {
                state.write_diffs(partition.shard(s).vertices(), &mut self.diffs);
            }
            let delta: f64 = self.diffs.iter().sum();
            for (s, state) in self.states.iter_mut().enumerate() {
                state.commit();
                for (local, &global) in partition.shard(s).vertices().iter().enumerate() {
                    self.board[global] = state.owned_ranks()[local];
                }
            }
            rank_d = base;
            if delta < config.tolerance {
                break;
            }
        }
        &self.board
    }
}

/// One shard's clustering step: filter the halo edge set by world
/// presence, materialise the halo world, and run the clustering kernel on
/// it.  Keeps its buffers across worlds.
#[derive(Debug, Clone)]
pub struct ShardClustering {
    endpoints: Vec<(u32, u32)>,
    world: DeterministicGraph,
    kernel: ClusteringScratch,
}

impl Default for ShardClustering {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardClustering {
    /// An empty state; buffers are sized lazily on the first world.
    pub fn new() -> Self {
        ShardClustering {
            endpoints: Vec::new(),
            world: DeterministicGraph::from_edges(0, &[]),
            kernel: ClusteringScratch::new(),
        }
    }

    /// The coefficients of the shard's owned vertices (halo-local ids
    /// `0..owned`) in the stamped world, exactly as the monolithic kernel
    /// computes them.
    pub fn run(&mut self, halo: &ShardHalo, presence: &WorldPresence) -> &[f64] {
        self.endpoints.clear();
        for &(a, b, e) in halo.halo_edges() {
            if presence.edge_present(e) {
                self.endpoints.push((a, b));
            }
        }
        self.world
            .materialize_from_endpoints(halo.halo_len(), &self.endpoints);
        &local_clustering_into(&self.world, &mut self.kernel)[..halo.owned()]
    }
}

/// One-shot halo materialisation for clustering coefficients: per shard,
/// run a [`ShardClustering`] step and scatter the owned coefficients.
#[derive(Debug, Clone, Default)]
pub struct HaloClustering {
    presence: Option<WorldPresence>,
    shard: ShardClustering,
    coefficients: Vec<f64>,
}

impl HaloClustering {
    /// An empty driver; buffers are sized lazily on the first world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the per-vertex clustering coefficients of the current
    /// world of `view`, exactly as the monolithic kernel would.
    ///
    /// Callers must short-circuit 1-shard views to the monolithic kernel
    /// (see [`HaloPageRank::run`]).
    pub fn run(&mut self, view: &ShardedWorld<'_>) -> &[f64] {
        let plan = view.halo_plan();
        let partition = view.partition();
        let presence = self
            .presence
            .get_or_insert_with(|| WorldPresence::new(view.graph()));
        presence.stamp(view.graph(), view.all_present());
        self.coefficients.resize(view.num_vertices(), 0.0);
        for s in 0..plan.num_shards() {
            let cc = self.shard.run(plan.shard(s), presence);
            for (&c, &global) in cc.iter().zip(partition.shard(s).vertices()) {
                self.coefficients[global] = c;
            }
        }
        &self.coefficients
    }
}

/// Per-shard state of a level-synchronous halo BFS (the distributed k-NN /
/// shortest-path superstep): the shard expands its owned frontier over the
/// present halo adjacency, reports every newly settled halo vertex, and
/// absorbs the settlements the coordinator routes back.
#[derive(Debug, Clone, Default)]
pub struct ShardBfs {
    owned: usize,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    touched: Vec<u32>,
}

impl ShardBfs {
    /// An empty state; size with [`ShardBfs::reset`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the state for a fresh traversal over a halo of
    /// `halo.halo_len()` vertices.
    pub fn reset(&mut self, halo: &ShardHalo) {
        self.owned = halo.owned();
        if self.dist.len() != halo.halo_len() {
            self.dist.clear();
            self.dist.resize(halo.halo_len(), u32::MAX);
            self.touched.clear();
        } else {
            for &v in &self.touched {
                self.dist[v as usize] = u32::MAX;
            }
            self.touched.clear();
        }
        self.frontier.clear();
        self.next_frontier.clear();
    }

    /// Absorbs a routed settlement `(halo-local vertex, level)`: marks it
    /// visited and, when owned and newly settled, schedules it for the next
    /// expansion.
    pub fn absorb(&mut self, halo_local: u32, level: u32) {
        if self.dist[halo_local as usize] == u32::MAX {
            self.dist[halo_local as usize] = level;
            self.touched.push(halo_local);
            if (halo_local as usize) < self.owned {
                self.frontier.push(halo_local);
            }
        }
    }

    /// Expands the owned frontier one level over the present halo
    /// adjacency; every newly settled halo vertex is appended to `out` as
    /// `(halo-local vertex, level + 1)`, and newly settled *owned* vertices
    /// also seed the next expansion.
    pub fn expand(
        &mut self,
        halo: &ShardHalo,
        presence: &WorldPresence,
        level: u32,
        out: &mut Vec<(u32, u32)>,
    ) {
        std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        self.frontier.clear();
        for &v in &self.next_frontier {
            for &(neighbor, edge) in halo.halo_neighbors(v as usize) {
                if presence.edge_present(edge) && self.dist[neighbor as usize] == u32::MAX {
                    self.dist[neighbor as usize] = level + 1;
                    self.touched.push(neighbor);
                    out.push((neighbor, level + 1));
                    if (neighbor as usize) < self.owned {
                        self.frontier.push(neighbor);
                    }
                }
            }
        }
        self.next_frontier.clear();
    }

    /// The settled level of a halo-local vertex (`u32::MAX` when unvisited).
    #[inline]
    pub fn level(&self, halo_local: u32) -> u32 {
        self.dist[halo_local as usize]
    }
}

/// Encodes an `f64` for the wire with full bitwise fidelity (16 hex digits
/// of its IEEE-754 representation).
pub fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decodes [`f64_to_hex`] output.
pub fn f64_from_hex(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("malformed f64 hex value {s:?}"))
}

// ---------------------------------------------------------------------------
// Packed halo windows: the wire codec of the `halo` op's bulk values.
//
// A window is a run of fixed-width little-endian records, sent as one JSON
// string holding their standard (RFC 4648, padded) base64.  Base64 keeps
// the line newline-free and escape-free, so it rides inside the ordinary
// line-delimited JSON control plane; the records carry raw IEEE-754 bits,
// so the exchange adds no rounding.

/// Bytes of one rank record (PageRank `feed` and step reports): the `u32`
/// global id, then the rank's `f64` bits as a `u64` — 16 base64 characters.
pub const RANK_RECORD: usize = 12;

/// Bytes of one BFS settlement record: the `u32` global id, then the `u32`
/// level.
pub const LEVEL_RECORD: usize = 8;

/// Bytes of one collected value record: the `f64` bits as a `u64`, in
/// owned-vertex order (the position is the id).
pub const VALUE_RECORD: usize = 8;

/// Appends one rank record to `records`.
#[inline]
pub fn pack_rank(records: &mut Vec<u8>, id: u32, rank: f64) {
    records.extend_from_slice(&id.to_le_bytes());
    records.extend_from_slice(&rank.to_bits().to_le_bytes());
}

/// Appends one BFS settlement record to `records`.
#[inline]
pub fn pack_level(records: &mut Vec<u8>, id: u32, level: u32) {
    records.extend_from_slice(&id.to_le_bytes());
    records.extend_from_slice(&level.to_le_bytes());
}

/// Appends one collected value record to `records`.
#[inline]
pub fn pack_value(records: &mut Vec<u8>, value: f64) {
    records.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a 4-byte record field"))
}

fn le_f64(bytes: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(
        bytes.try_into().expect("an 8-byte record field"),
    ))
}

/// The `(id, rank)` pairs of whole [`RANK_RECORD`] records, as
/// [`decode_window`] guarantees them (a trailing partial record is
/// ignored).
pub fn unpack_ranks(records: &[u8]) -> impl ExactSizeIterator<Item = (u32, f64)> + '_ {
    records
        .chunks_exact(RANK_RECORD)
        .map(|r| (le_u32(&r[..4]), le_f64(&r[4..])))
}

/// The `(id, level)` pairs of whole [`LEVEL_RECORD`] records.
pub fn unpack_levels(records: &[u8]) -> impl ExactSizeIterator<Item = (u32, u32)> + '_ {
    records
        .chunks_exact(LEVEL_RECORD)
        .map(|r| (le_u32(&r[..4]), le_u32(&r[4..])))
}

/// The values of whole [`VALUE_RECORD`] records.
pub fn unpack_values(records: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    records.chunks_exact(VALUE_RECORD).map(le_f64)
}

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the base64 alphabet in [`BASE64_INDEX`].
const INVALID: u8 = 0xFF;

const BASE64_INDEX: [u8; 256] = {
    let mut index = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        index[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    index
};

/// Appends the standard padded base64 of `records` to `out`: one packed
/// window, ready to be a JSON string field as is.
pub fn encode_window(records: &[u8], out: &mut String) {
    // Encoded through a small ASCII staging buffer so each chunk lands in
    // `out` with one `push_str`.
    const QUADS: usize = 256;
    out.reserve(records.len().div_ceil(3) * 4);
    let mut stage = [0u8; QUADS * 4];
    for block in records.chunks(QUADS * 3) {
        let mut len = 0;
        for triple in block.chunks(3) {
            let b = [
                triple[0],
                triple.get(1).copied().unwrap_or(0),
                triple.get(2).copied().unwrap_or(0),
            ];
            let quad = [
                BASE64[usize::from(b[0] >> 2)],
                BASE64[usize::from((b[0] & 0x03) << 4 | b[1] >> 4)],
                BASE64[usize::from((b[1] & 0x0F) << 2 | b[2] >> 6)],
                BASE64[usize::from(b[2] & 0x3F)],
            ];
            stage[len..len + 4].copy_from_slice(&quad);
            if triple.len() < 3 {
                stage[len + 3] = b'=';
                if triple.len() < 2 {
                    stage[len + 2] = b'=';
                }
            }
            len += 4;
        }
        out.push_str(std::str::from_utf8(&stage[..len]).expect("base64 is ASCII"));
    }
}

/// Decodes one packed window — standard padded base64 of whole
/// `width`-byte records — and appends its bytes to `records`, returning
/// the number of records.  Strict: characters outside the alphabet,
/// misplaced or excess padding, non-zero trailing bits, and payloads that
/// are not whole records are all errors, and on error `records` is left
/// as it was.
pub fn decode_window(text: &[u8], width: usize, records: &mut Vec<u8>) -> Result<usize, String> {
    let start = records.len();
    let decoded = decode_base64(text, records).and_then(|()| {
        let bytes = records.len() - start;
        if width == 0 || !bytes.is_multiple_of(width) {
            Err(format!(
                "a packed window of {bytes} bytes is not whole {width}-byte records"
            ))
        } else {
            Ok(bytes / width)
        }
    });
    if decoded.is_err() {
        records.truncate(start);
    }
    decoded
}

fn decode_base64(text: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    if !text.len().is_multiple_of(4) {
        return Err(format!(
            "a base64 window of {} characters is not whole 4-character groups",
            text.len()
        ));
    }
    out.reserve(text.len() / 4 * 3);
    let groups = text.len() / 4;
    for (g, quad) in text.chunks_exact(4).enumerate() {
        let pad = if g + 1 == groups {
            quad.iter().rev().take_while(|&&c| c == b'=').count()
        } else {
            0
        };
        if pad > 2 {
            return Err("a base64 window ends in more than two padding characters".to_string());
        }
        let mut sextets = [0u8; 4];
        for (i, &c) in quad[..4 - pad].iter().enumerate() {
            let sextet = BASE64_INDEX[usize::from(c)];
            if sextet == INVALID {
                return Err(format!(
                    "byte 0x{c:02x} at offset {} is not base64",
                    4 * g + i
                ));
            }
            sextets[i] = sextet;
        }
        let bytes = [
            sextets[0] << 2 | sextets[1] >> 4,
            sextets[1] << 4 | sextets[2] >> 2,
            sextets[2] << 6 | sextets[3],
        ];
        // Canonical form only: the bits a padded group drops must be zero.
        let stray = match pad {
            1 => sextets[2] & 0x03,
            2 => sextets[1] & 0x0F,
            _ => 0,
        };
        if stray != 0 {
            return Err("a padded base64 group carries non-zero trailing bits".to_string());
        }
        out.extend_from_slice(&bytes[..3 - pad]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SampleMethod, WorldEngine};
    use crate::sharded::ShardedWorldEngine;
    use crate::source::{WorldSource, WorldView};
    use graph_algos::clustering::local_clustering_coefficients;
    use graph_algos::pagerank::pagerank;
    use graph_algos::traversal::bfs_distances;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};
    use uncertain_graph::GraphPartition;

    fn toy() -> UncertainGraph {
        UncertainGraph::from_edges(
            9,
            [
                (0, 1, 0.9),
                (1, 2, 0.8),
                (0, 2, 0.7),
                (3, 4, 0.6),
                (4, 5, 0.5),
                (3, 5, 0.4),
                (2, 3, 0.3),
                (0, 5, 0.2),
                (6, 7, 0.55),
                (5, 6, 0.35),
            ],
        )
        .unwrap()
    }

    #[test]
    fn world_presence_tracks_degrees_and_dangling_across_worlds() {
        let g = toy();
        let mut presence = WorldPresence::new(&g);
        presence.stamp(&g, &[0, 6]); // edges (0,1) and (2,3)
        assert!(presence.edge_present(0));
        assert!(!presence.edge_present(1));
        assert_eq!(presence.degree(0), 1);
        assert_eq!(presence.degree(2), 1);
        assert_eq!(presence.dangling(), 5);
        presence.stamp(&g, &[]); // empty world resets everything
        assert!(!presence.edge_present(0));
        assert_eq!(presence.degree(0), 0);
        assert_eq!(presence.dangling(), 9);
    }

    #[test]
    fn halo_pagerank_is_bitwise_monolithic_over_worlds_and_labellings() {
        let g = toy();
        let labellings: Vec<Vec<usize>> = vec![
            vec![0, 0, 0, 1, 1, 1, 2, 2, 2],
            (0..9).map(|v| v % 3).collect(),
            vec![1, 0, 1, 0, 1, 0, 1, 0, 1],
        ];
        for labels in labellings {
            let partition = GraphPartition::from_labels(&g, &labels, 3).unwrap();
            let sharded =
                ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::PerEdge);
            let monolithic = WorldEngine::new(&g).with_method(SampleMethod::PerEdge);
            let mut sharded_scratch = WorldSource::make_scratch(&sharded);
            let mut mono_scratch = monolithic.make_scratch();
            let mut rng_s = SmallRng::seed_from_u64(99);
            let mut rng_m = SmallRng::seed_from_u64(99);
            let mut driver = HaloPageRank::new();
            let config = PageRankConfig::default();
            for world in 0..60 {
                let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
                let expected = pagerank(mono_world, &config);
                let view = match sharded.sample_world(&mut rng_s, &mut sharded_scratch) {
                    WorldView::Sharded(view) => view,
                    _ => unreachable!(),
                };
                let got = driver.run(&view, &config);
                assert_eq!(got.len(), expected.len());
                for (v, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "world {world} vertex {v} labels {labels:?}"
                    );
                }
            }
        }
    }

    /// A simple graph of `n` vertices: a ring plus `chords` random chords,
    /// with probabilities spread over (0.05, 0.95).
    fn random_graph(n: usize, chords: usize, seed: u64) -> UncertainGraph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        while pairs.len() < n + chords {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u != v && !pairs.contains(&(u, v)) && !pairs.contains(&(v, u)) {
                pairs.push((u, v));
            }
        }
        let edges: Vec<(usize, usize, f64)> = pairs
            .into_iter()
            .map(|(u, v)| (u, v, 0.05 + 0.9 * rng.gen::<f64>()))
            .collect();
        UncertainGraph::from_edges(n, edges).unwrap()
    }

    /// Sharded PageRank over the world stamped in `presence`, exchanging
    /// only the world-sparse halo: each step, shard `s` reports `active[s]`
    /// and is fed `fed[s]`.  The board and every unfed ghost start as NaN,
    /// so a rank read that the exchange did not deliver poisons the result.
    fn sparse_pagerank(
        plan: &HaloPlan,
        partition: &GraphPartition,
        presence: &WorldPresence,
        active: &[Vec<VertexId>],
        fed: &[Vec<VertexId>],
        config: &PageRankConfig,
    ) -> Vec<f64> {
        let n = partition.num_vertices();
        let uniform = 1.0 / n as f64;
        let mut states: Vec<ShardPageRank> = (0..plan.num_shards())
            .map(|s| {
                let halo = plan.shard(s);
                let mut state = ShardPageRank::new(halo);
                state.reset(uniform);
                for (j, ghost) in halo.ghosts().iter().enumerate() {
                    if !fed[s].contains(ghost) {
                        state.set_ghost_rank(j, f64::NAN);
                    }
                }
                state
            })
            .collect();
        let mut board = vec![f64::NAN; n];
        let mut diffs = vec![0.0; n];
        let mut rank_d = uniform;
        for step in 0..config.max_iterations {
            let mass = dangling_mass(rank_d, presence.dangling());
            let base = (1.0 - config.damping) * uniform + config.damping * mass * uniform;
            for (s, state) in states.iter_mut().enumerate() {
                let halo = plan.shard(s);
                if step > 0 {
                    for &v in &fed[s] {
                        state.set_halo_rank(halo.halo_index(v) as usize, board[v]);
                    }
                }
                state.superstep(halo, presence, config.damping, base);
            }
            for (s, state) in states.iter_mut().enumerate() {
                let halo = plan.shard(s);
                state.write_diffs(partition.shard(s).vertices(), &mut diffs);
                state.commit();
                for &v in &active[s] {
                    board[v] = state.halo_rank(halo.halo_index(v) as usize);
                }
            }
            let delta: f64 = diffs.iter().sum();
            rank_d = base;
            if delta < config.tolerance {
                break;
            }
        }
        let mut ranks = vec![f64::NAN; n];
        for (s, state) in states.iter().enumerate() {
            for (&v, &r) in partition
                .shard(s)
                .vertices()
                .iter()
                .zip(state.owned_ranks())
            {
                ranks[v] = r;
            }
        }
        ranks
    }

    #[test]
    fn world_sparse_feed_covers_every_read_and_keeps_pagerank_bitwise() {
        let config = PageRankConfig::default();
        for (shards, seed) in [(2usize, 21u64), (3, 22), (4, 23)] {
            let g = random_graph(48, 64, seed);
            let n = g.num_vertices();
            let labellings: [Vec<usize>; 2] = [
                (0..n).map(|v| v * shards / n).collect(),
                (0..n).map(|v| (v * 7 + 3) % shards).collect(),
            ];
            for labels in labellings {
                let partition = GraphPartition::from_labels(&g, &labels, shards).unwrap();
                let plan = HaloPlan::new(&g, &partition);
                let sharded =
                    ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::Skip);
                let monolithic = WorldEngine::new(&g).with_method(SampleMethod::Skip);
                let mut sharded_scratch = WorldSource::make_scratch(&sharded);
                let mut mono_scratch = monolithic.make_scratch();
                let mut rng_s = SmallRng::seed_from_u64(seed);
                let mut rng_m = SmallRng::seed_from_u64(seed);
                let mut presence = WorldPresence::new(&g);
                let mut active: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
                let mut fed: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
                for world in 0..40 {
                    let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
                    let expected = pagerank(mono_world, &config);
                    let view = match sharded.sample_world(&mut rng_s, &mut sharded_scratch) {
                        WorldView::Sharded(view) => view,
                        _ => unreachable!(),
                    };
                    presence.stamp(&g, view.all_present());
                    for (s, out) in active.iter_mut().enumerate() {
                        active_boundary_into(plan.shard(s), &presence, out);
                    }
                    let reported = active.concat();
                    for (s, out) in fed.iter_mut().enumerate() {
                        *out = fed_ghosts(plan.shard(s), &reported).collect();
                    }
                    // Every ghost a present push edge reads is fed.
                    for (s, fed) in fed.iter().enumerate() {
                        let halo = plan.shard(s);
                        for push in halo.push_edges() {
                            if push.source_halo as usize >= halo.owned()
                                && presence.edge_present(push.edge)
                            {
                                assert!(
                                    fed.contains(&(push.source as usize)),
                                    "world {world}: shard {s}/{shards} reads ghost {} unfed",
                                    push.source
                                );
                            }
                        }
                    }
                    let got = sparse_pagerank(&plan, &partition, &presence, &active, &fed, &config);
                    for (v, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "world {world} vertex {v}, {shards} shards, labels {labels:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn halo_clustering_is_bitwise_monolithic() {
        let g = toy();
        let labels: Vec<usize> = (0..9).map(|v| v % 3).collect();
        let partition = GraphPartition::from_labels(&g, &labels, 3).unwrap();
        let sharded = ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::Skip);
        let monolithic = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut sharded_scratch = WorldSource::make_scratch(&sharded);
        let mut mono_scratch = monolithic.make_scratch();
        let mut rng_s = SmallRng::seed_from_u64(7);
        let mut rng_m = SmallRng::seed_from_u64(7);
        let mut driver = HaloClustering::new();
        for world in 0..80 {
            let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
            let expected = local_clustering_coefficients(mono_world);
            let view = match sharded.sample_world(&mut rng_s, &mut sharded_scratch) {
                WorldView::Sharded(view) => view,
                _ => unreachable!(),
            };
            let got = driver.run(&view);
            for (v, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "world {world} vertex {v}");
            }
        }
    }

    #[test]
    fn shard_bfs_supersteps_reproduce_monolithic_distances() {
        // Drive the per-shard BFS states exactly like the distributed
        // coordinator would: route settlements to owner shards, expand
        // level-synchronously, stop on a quiet superstep.
        let g = toy();
        let partition = GraphPartition::from_labels(&g, &[0, 1, 2, 0, 1, 2, 0, 1, 2], 3).unwrap();
        let plan = HaloPlan::new(&g, &partition);
        let engine = ShardedWorldEngine::new(&g, &partition).with_method(SampleMethod::Skip);
        let monolithic = WorldEngine::new(&g).with_method(SampleMethod::Skip);
        let mut sharded_scratch = WorldSource::make_scratch(&engine);
        let mut mono_scratch = monolithic.make_scratch();
        let mut rng_s = SmallRng::seed_from_u64(3);
        let mut rng_m = SmallRng::seed_from_u64(3);
        let mut presence = WorldPresence::new(&g);
        let mut states: Vec<ShardBfs> = (0..3).map(|_| ShardBfs::new()).collect();
        for world in 0..60 {
            let mono_world = monolithic.sample_world(&mut rng_m, &mut mono_scratch);
            let view = match engine.sample_world(&mut rng_s, &mut sharded_scratch) {
                WorldView::Sharded(view) => view,
                _ => unreachable!(),
            };
            presence.stamp(&g, view.all_present());
            for source in [0usize, 4, 8] {
                let expected = bfs_distances(mono_world, source);
                let mut global: Vec<u32> = vec![u32::MAX; g.num_vertices()];
                for (s, state) in states.iter_mut().enumerate() {
                    state.reset(plan.shard(s));
                }
                global[source] = 0;
                let mut settlements = vec![(source as u32, 0u32)];
                let mut level = 0u32;
                let mut reported: Vec<(u32, u32)> = Vec::new();
                loop {
                    // Route to owners, then expand every shard.
                    for &(v, lvl) in &settlements {
                        let owner = partition.shard_of(v as usize);
                        let halo_local = plan.shard(owner).halo_index(v as usize);
                        states[owner].absorb(halo_local, lvl);
                    }
                    settlements.clear();
                    for (s, state) in states.iter_mut().enumerate() {
                        reported.clear();
                        state.expand(plan.shard(s), &presence, level, &mut reported);
                        let halo = plan.shard(s);
                        for &(halo_local, lvl) in &reported {
                            let gid = if (halo_local as usize) < halo.owned() {
                                partition.shard(s).global_vertex(halo_local as usize) as u32
                            } else {
                                halo.ghosts()[halo_local as usize - halo.owned()] as u32
                            };
                            if global[gid as usize] == u32::MAX {
                                global[gid as usize] = lvl;
                                settlements.push((gid, lvl));
                            }
                        }
                    }
                    if settlements.is_empty() {
                        break;
                    }
                    level += 1;
                }
                for v in 0..g.num_vertices() {
                    let want = expected[v];
                    if want == usize::MAX {
                        assert_eq!(global[v], u32::MAX, "world {world} source {source} v {v}");
                    } else {
                        assert_eq!(
                            global[v] as usize, want,
                            "world {world} source {source} v {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hex_scalars_round_trip() {
        for x in [0.0, -0.0, 1.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let hex = f64_to_hex(x);
            assert_eq!(f64_from_hex(&hex).unwrap().to_bits(), x.to_bits());
        }
        assert!(f64_from_hex("zz").is_err());
    }

    /// Every bit pattern the kernels can produce, the awkward ones first.
    fn awkward_f64s() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN payload
            f64::from_bits(0xFFF8_DEAD_BEEF_0001), // negative quiet NaN payload
            f64::from_bits(1),                     // smallest subnormal
            -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MIN_POSITIVE,
            f64::MAX,
            1.0 / 3.0,
        ]
    }

    /// Packs, encodes, decodes and unpacks; the window must round-trip bit
    /// for bit and carry exactly `count` records.
    fn round_trip(records: &[u8], width: usize, count: usize) -> Vec<u8> {
        let mut text = String::new();
        encode_window(records, &mut text);
        assert!(text
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"+/=".contains(&c)));
        let mut decoded = vec![0xAB]; // decoding appends
        assert_eq!(
            decode_window(text.as_bytes(), width, &mut decoded),
            Ok(count)
        );
        assert_eq!(decoded[0], 0xAB);
        assert_eq!(&decoded[1..], records);
        decoded.split_off(1)
    }

    #[test]
    fn packed_windows_round_trip_bit_for_bit() {
        // Empty windows of every kind.
        for width in [RANK_RECORD, LEVEL_RECORD, VALUE_RECORD] {
            assert!(round_trip(&[], width, 0).is_empty());
        }

        let values = awkward_f64s();
        let ids = [0u32, 1, 59_999, u32::MAX];

        let mut ranks = Vec::new();
        let mut expect_ranks = Vec::new();
        for (i, &x) in values.iter().enumerate() {
            let id = ids[i % ids.len()];
            pack_rank(&mut ranks, id, x);
            expect_ranks.push((id, x.to_bits()));
        }
        assert_eq!(ranks.len(), values.len() * RANK_RECORD);
        let decoded = round_trip(&ranks, RANK_RECORD, values.len());
        let got: Vec<(u32, u64)> = unpack_ranks(&decoded)
            .map(|(id, x)| (id, x.to_bits()))
            .collect();
        assert_eq!(got, expect_ranks);
        // A rank record is exactly 16 characters: windows concatenate.
        let mut one = Vec::new();
        pack_rank(&mut one, 7, 0.5);
        let mut text = String::new();
        encode_window(&one, &mut text);
        assert_eq!(text.len(), 16);

        let mut levels = Vec::new();
        let expect_levels = [
            (0u32, 0u32),
            (u32::MAX, 1),
            (5, u32::MAX),
            (u32::MAX, u32::MAX),
        ];
        for &(id, level) in &expect_levels {
            pack_level(&mut levels, id, level);
        }
        // 4 records of 8 bytes: 32 bytes, one padding character.
        let decoded = round_trip(&levels, LEVEL_RECORD, expect_levels.len());
        assert_eq!(unpack_levels(&decoded).collect::<Vec<_>>(), expect_levels);

        // 1, 2 and 3 value records exercise every padding length.
        for count in 1..=values.len() {
            let mut packed = Vec::new();
            for &x in &values[..count] {
                pack_value(&mut packed, x);
            }
            let decoded = round_trip(&packed, VALUE_RECORD, count);
            let got: Vec<u64> = unpack_values(&decoded).map(f64::to_bits).collect();
            let want: Vec<u64> = values[..count].iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn encoding_matches_the_standard_alphabet() {
        // RFC 4648 test vectors.
        for (plain, encoded) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            let mut text = String::new();
            encode_window(plain.as_bytes(), &mut text);
            assert_eq!(text, encoded);
            let mut bytes = Vec::new();
            assert_eq!(
                decode_window(encoded.as_bytes(), 1, &mut bytes),
                Ok(plain.len())
            );
            assert_eq!(bytes, plain.as_bytes());
        }
        // Long windows cross the encoder's staging-buffer boundary.
        let long: Vec<u8> = (0..=255u8).cycle().take(3 * 1000 + 2).collect();
        assert_eq!(round_trip(&long, 1, long.len()), long);
    }

    #[test]
    fn mutated_windows_are_errors_never_panics() {
        let mut rng = SmallRng::seed_from_u64(0xBA5E64);
        let not_base64: &[u8] = b"-_.,:;!?*\"{}[] \t\n\r\x00\x7f\x80\xff";
        for case in 0..400 {
            let width = [RANK_RECORD, LEVEL_RECORD, VALUE_RECORD][case % 3];
            let count = rng.gen_range(1..40usize);
            let records: Vec<u8> = (0..count * width).map(|_| rng.gen()).collect();
            let mut text = String::new();
            encode_window(&records, &mut text);
            let valid = text.into_bytes();
            let mut mutant = valid.clone();
            let what = match case % 6 {
                0 => {
                    // Flip a byte out of the alphabet.
                    let at = rng.gen_range(0..mutant.len());
                    mutant[at] ^= 0x80;
                    "byte flip"
                }
                1 => {
                    // Truncate to a length that is not whole groups, or to
                    // whole groups that are not whole records.
                    let cut = loop {
                        let cut = rng.gen_range(1..mutant.len());
                        if cut % 4 != 0 || (cut / 4 * 3) % width != 0 {
                            break cut;
                        }
                    };
                    mutant.truncate(cut);
                    "truncation"
                }
                2 => {
                    // Padding where it cannot be: mid-window, excess, or
                    // stripped from a padded window.
                    match rng.gen_range(0..3) {
                        0 if mutant.len() > 4 => {
                            let at = rng.gen_range(0..mutant.len() - 4);
                            mutant[at] = b'=';
                        }
                        1 => mutant.extend_from_slice(b"===="),
                        _ => {
                            if mutant.ends_with(b"=") {
                                mutant.pop();
                            } else {
                                let last = mutant.len() - 4;
                                mutant[last] = b'=';
                            }
                        }
                    }
                    "bad padding"
                }
                3 => {
                    let at = rng.gen_range(0..mutant.len());
                    mutant[at] = not_base64[rng.gen_range(0..not_base64.len())];
                    "non-alphabet byte"
                }
                4 => {
                    // Whole base64 groups, but not whole records.
                    let bytes = count * width + rng.gen_range(1..width);
                    let odd: Vec<u8> = (0..bytes).map(|_| rng.gen()).collect();
                    let mut text = String::new();
                    encode_window(&odd, &mut text);
                    mutant = text.into_bytes();
                    "partial record"
                }
                _ => {
                    // Non-zero bits under the padding of the last group.
                    let mut odd = vec![0u8; 3 * count + 1];
                    rng.fill_bytes(&mut odd);
                    let mut text = String::new();
                    encode_window(&odd, &mut text);
                    mutant = text.into_bytes();
                    let last = mutant.len() - 3; // "X=="; its sextet holds 4 dropped bits
                    let sextet = BASE64_INDEX[usize::from(mutant[last])] | 0x01;
                    mutant[last] = BASE64[usize::from(sextet)];
                    "non-canonical padding"
                }
            };
            let mut out = vec![1, 2, 3];
            let decoded = decode_window(&mutant, width, &mut out);
            assert!(
                decoded.is_err(),
                "case {case}: {what} of a {width}-byte window decoded: {decoded:?}"
            );
            assert_eq!(
                out,
                [1, 2, 3],
                "case {case}: a failed decode appends nothing"
            );
        }
    }
}
