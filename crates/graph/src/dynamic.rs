//! Dynamic-graph working flow (paper §5).
//!
//! HyVE supports evolving graphs through *incremental preprocessing*: rather
//! than re-partitioning on every change, mutations are applied in place:
//!
//! * **Add edge** — appended at the end of its block's memory space; reserved
//!   slack (30%) makes this O(1), overflowing into linked segments.
//! * **Delete edge** — replaced by the last edge of its block, O(1).
//! * **Add vertex** — consumes a reserved vertex slot; when the reserve is
//!   exhausted a full re-preprocessing is flagged (vertex access must stay
//!   sequential, so linking is not an option for vertices).
//! * **Delete vertex** — O(1): the value is marked invalid (tombstoned, §5:
//!   "set to invalid, e.g. −1 for PageRank"); incident edges become inert
//!   and are counted as changed via the maintained degree.

use crate::error::GraphError;
use crate::grid::GridGraph;
use crate::partition::{BlockId, IntervalPartition};
use crate::types::{Edge, VertexId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A single dynamic-graph request (§5's four situations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Insert an edge.
    AddEdge(Edge),
    /// Remove the edge (src, dst).
    RemoveEdge {
        /// Source vertex index.
        src: u32,
        /// Destination vertex index.
        dst: u32,
    },
    /// Append a new vertex (takes a reserved slot).
    AddVertex,
    /// Tombstone a vertex and drop its incident edges.
    RemoveVertex(VertexId),
}

/// What applying a mutation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The mutation fit in reserved space (pure O(1) path).
    InPlace,
    /// An edge append had to link a new overflow segment.
    LinkedOverflow,
    /// A vertex append exhausted the reserve; the grid was re-preprocessed.
    Repartitioned,
    /// Edges changed as a side effect of a vertex removal (count of removed
    /// edges is tracked separately).
    VertexTombstoned,
}

/// Default fraction of extra capacity reserved per block for future
/// insertions (§5: "e.g., 30% of a block size").
pub const DEFAULT_RESERVE_FRACTION: f64 = 0.30;

/// Capacity a block holding `len` edges is laid out with: the edges plus
/// §5's reserved slack, and at least a minimal slot so that additions to an
/// empty block stay O(1).
fn reserved_capacity(len: usize) -> usize {
    (len + (len as f64 * DEFAULT_RESERVE_FRACTION).ceil() as usize).max(4)
}

/// One block's §5 memory space: its edges in append / swap-remove order and
/// the capacity laid out for them (initial edges + slack, grown by each
/// linked overflow segment).
#[derive(Debug, Clone)]
struct DynBlock {
    id: BlockId,
    edges: Vec<Edge>,
    reserved: usize,
}

impl DynBlock {
    fn new(id: BlockId, edges: Vec<Edge>) -> Self {
        let reserved = reserved_capacity(edges.len());
        DynBlock {
            id,
            edges,
            reserved,
        }
    }

    /// Appends an edge. Returns `true` if it fit in reserved space, `false`
    /// if a new overflow segment, sized like the slack region, had to be
    /// linked (§5 "when the reserved memory space is out").
    fn push(&mut self, e: Edge) -> bool {
        self.edges.push(e);
        let len = self.edges.len();
        if len <= self.reserved {
            return true;
        }
        self.reserved = len + ((len as f64 * DEFAULT_RESERVE_FRACTION).ceil() as usize).max(4);
        false
    }

    /// Removes the first edge matching (src, dst) by swapping in the block's
    /// last edge (§5 deletion).
    fn remove(&mut self, src: u32, dst: u32) -> Option<Edge> {
        let pos = self
            .edges
            .iter()
            .position(|e| e.src.raw() == src && e.dst.raw() == dst)?;
        Some(self.edges.swap_remove(pos))
    }
}

/// The mutable grid of §5's dynamic-graph working flow, plus the
/// bookkeeping needed for O(1) updates.
///
/// Edges live per block, with reserved slack, only for blocks that hold or
/// have held edges: memory is O(E + those blocks + P). [`grid`](Self::grid)
/// serves a read-only [`GridGraph`] snapshot, rebuilt on first use after a
/// mutation.
///
/// ```
/// use hyve_graph::{DynamicGrid, Edge, EdgeList, GridGraph, Mutation};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(0, 1), Edge::new(2, 3)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// let mut dynamic = DynamicGrid::new(grid, 0.25);
/// dynamic.apply(Mutation::AddEdge(Edge::new(5, 6)))?;
/// assert_eq!(dynamic.grid().num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    /// Interval map of the materialised vertices.
    partition: IntervalPartition,
    /// The blocks that hold or have held edges: those laid out from a grid
    /// in its column-major order, then each block an insertion first
    /// touched.
    blocks: Vec<DynBlock>,
    /// Row-major block number (src interval · P + dst interval) → position
    /// in `blocks`.
    index: HashMap<u64, usize>,
    num_edges: u64,
    /// The [`GridGraph`] image of `blocks`, built on demand and dropped by
    /// every edge mutation and re-layout.
    snapshot: OnceLock<GridGraph>,
    /// Vertices logically present: the grid's materialised count plus
    /// vertices occupying reserved padding slots.
    logical_vertices: u32,
    /// Reserved vertex slots remaining before a repartition is required.
    vertex_slots_remaining: u32,
    /// Fraction of vertices reserved on (re)build.
    vertex_reserve_fraction: f64,
    /// Tombstoned vertices (deleted; value treated as invalid, e.g. −1 in PR).
    tombstones: Vec<bool>,
    /// Combined in+out degree per vertex, maintained incrementally so that
    /// vertex deletion can count its incident edges in O(1).
    degrees: Vec<u32>,
    /// Number of full repartitions triggered by vertex-space exhaustion.
    repartitions: u64,
    /// Total edges added/removed through mutations.
    edges_changed: u64,
}

impl DynamicGrid {
    /// Wraps a grid, reserving `vertex_reserve_fraction` extra vertex slots.
    /// Every non-empty block gets §5's 30% edge slack; an empty block gets
    /// a minimal slot on its first insertion.
    ///
    /// # Panics
    ///
    /// Panics if `vertex_reserve_fraction` is negative or not finite.
    pub fn new(grid: GridGraph, vertex_reserve_fraction: f64) -> Self {
        assert!(
            vertex_reserve_fraction.is_finite() && vertex_reserve_fraction >= 0.0,
            "reserve fraction must be finite and non-negative"
        );
        let nv = grid.num_vertices();
        let mut d = DynamicGrid {
            partition: grid.partition_info().clone(),
            blocks: Vec::new(),
            index: HashMap::new(),
            num_edges: 0,
            snapshot: OnceLock::new(),
            logical_vertices: nv,
            vertex_slots_remaining: 0,
            vertex_reserve_fraction,
            tombstones: vec![false; nv as usize],
            degrees: Vec::new(),
            repartitions: 0,
            edges_changed: 0,
        };
        d.lay_out(&grid);
        d
    }

    /// Makes `grid` the current grid: every non-empty block gets a fresh §5
    /// memory space (edges + slack), the vertex reserve refills, and degrees
    /// are recounted (tombstones stay at 0).
    fn lay_out(&mut self, grid: &GridGraph) {
        self.partition = grid.partition_info().clone();
        self.blocks = (grid.blocks())
            .map(|(id, range)| DynBlock::new(id, grid.flat()[range].to_vec()))
            .collect();
        self.index = (self.blocks.iter().enumerate())
            .map(|(i, b)| (self.number(b.id), i))
            .collect();
        self.num_edges = grid.num_edges();
        self.snapshot = OnceLock::new();
        self.vertex_slots_remaining =
            (f64::from(self.partition.num_vertices()) * self.vertex_reserve_fraction).ceil() as u32;
        self.degrees = self.endpoint_counts();
        for (d, &dead) in self.degrees.iter_mut().zip(&self.tombstones) {
            if dead {
                *d = 0;
            }
        }
    }

    /// Per logical vertex, how many stored edge endpoints it is.
    fn endpoint_counts(&self) -> Vec<u32> {
        let mut hits = vec![0u32; self.logical_vertices as usize];
        for e in self.blocks.iter().flat_map(|b| &b.edges) {
            hits[e.src.index()] += 1;
            hits[e.dst.index()] += 1;
        }
        hits
    }

    /// The blocks holding edges, in column-major order — the order a fresh
    /// partition stores them in, so snapshots match one.
    fn stored_blocks(&self) -> Vec<&DynBlock> {
        let mut blocks: Vec<&DynBlock> = (self.blocks.iter())
            .filter(|b| !b.edges.is_empty())
            .collect();
        // The laid-out blocks lead, already column-major, so this stable
        // sort only sorts the blocks insertions added and merges them in.
        blocks.sort_by_key(|b| b.id);
        blocks
    }

    /// Every stored edge, block by block in column-major order.
    fn stored_edges(&self) -> impl Iterator<Item = &Edge> {
        self.stored_blocks().into_iter().flat_map(|b| &b.edges)
    }

    /// Combined in+out degree of a vertex (0 after tombstoning).
    pub fn degree(&self, v: VertexId) -> u32 {
        self.degrees.get(v.index()).copied().unwrap_or(0)
    }

    /// Flattens the grid to an edge list, excluding edges incident to
    /// tombstoned vertices.
    pub fn live_edge_list(&self) -> crate::edgelist::EdgeList {
        let mut list = crate::edgelist::EdgeList::new(self.logical_vertices);
        list.extend(
            self.stored_edges()
                .filter(|e| !self.tombstones[e.src.index()] && !self.tombstones[e.dst.index()])
                .copied(),
        );
        list
    }

    /// The current grid: a snapshot rebuilt on the first call after an edge
    /// mutation and cached until the next one. A rebuild is O(E + blocks +
    /// P), plus sorting the blocks insertions added since the last layout.
    ///
    /// The snapshot counts the materialised vertices only. Once an edge
    /// touches a vertex added into a reserved padding slot since the last
    /// layout, the snapshot stores an edge past its vertex count, and a
    /// simulator run on it is rejected with an out-of-range vertex. Analyse
    /// the graph through [`live_edge_list`](Self::live_edge_list), which
    /// covers every logical vertex and drops tombstoned ones, not through
    /// the snapshot or its `to_edge_list()`.
    pub fn grid(&self) -> &GridGraph {
        self.snapshot.get_or_init(|| self.materialize())
    }

    /// Builds a fresh snapshot of the current grid, bypassing the cache
    /// [`grid`](Self::grid) serves.
    pub fn materialize(&self) -> GridGraph {
        // The long-lived edge array first, as in `GridGraph::partition`.
        let mut edges = Vec::with_capacity(self.num_edges as usize);
        let blocks = self.stored_blocks();
        let mut offsets = Vec::with_capacity(blocks.len() + 1);
        for b in &blocks {
            offsets.push(edges.len() as u32);
            edges.extend_from_slice(&b.edges);
        }
        let mut out_degrees = vec![0u32; self.partition.num_vertices() as usize];
        for e in &edges {
            // An edge may name a vertex in a reserved padding slot: the
            // table then runs past the vertex count, so a run can tell.
            let named = e.src.max(e.dst).index();
            if named >= out_degrees.len() {
                out_degrees.resize(named + 1, 0);
            }
            out_degrees[e.src.index()] += 1;
        }
        let ids = blocks.iter().map(|b| b.id).collect();
        GridGraph::new(self.partition.clone(), ids, offsets, edges, out_degrees)
    }

    /// Vertices logically present (materialised + padding slots in use).
    pub fn num_vertices(&self) -> u32 {
        self.logical_vertices
    }

    /// Interval owning a vertex; vertices living in reserved padding are
    /// assigned round-robin across intervals (the paper reserves extra
    /// space inside each interval, §5).
    fn interval_of(&self, v: u32) -> u32 {
        let materialised = self.partition.num_vertices();
        if v < materialised {
            self.partition.interval_of(VertexId::new(v))
        } else {
            (v - materialised) % self.partition.num_intervals()
        }
    }

    /// The block edge (src, dst) belongs in.
    fn block_of(&self, src: u32, dst: u32) -> BlockId {
        BlockId::new(self.interval_of(src), self.interval_of(dst))
    }

    /// Row-major number of a block, the key of `index`.
    fn number(&self, id: BlockId) -> u64 {
        u64::from(id.src) * u64::from(self.partition.num_intervals()) + u64::from(id.dst)
    }

    /// Reserved vertex slots still available.
    pub fn vertex_slots_remaining(&self) -> u32 {
        self.vertex_slots_remaining
    }

    /// How many full repartitions vertex growth has forced.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Total edges changed by mutations so far (adds + removes, including
    /// edges dropped by vertex removals) — the unit of Fig. 20's throughput.
    pub fn edges_changed(&self) -> u64 {
        self.edges_changed
    }

    /// True if the vertex is currently tombstoned.
    pub fn is_tombstoned(&self, v: VertexId) -> bool {
        self.tombstones.get(v.index()).copied().unwrap_or(false)
    }

    /// Applies one mutation.
    ///
    /// # Errors
    ///
    /// [`GraphError::MutationFailed`] when removing a nonexistent edge or
    /// referencing an out-of-range vertex.
    pub fn apply(&mut self, m: Mutation) -> Result<MutationOutcome, GraphError> {
        match m {
            Mutation::AddEdge(e) => self.add_edge(e),
            Mutation::RemoveEdge { src, dst } => self.remove_edge(src, dst),
            Mutation::AddVertex => self.add_vertex(),
            Mutation::RemoveVertex(v) => self.remove_vertex(v),
        }
    }

    fn check_vertex(&self, v: u32) -> Result<(), GraphError> {
        if v >= self.logical_vertices {
            return Err(GraphError::MutationFailed {
                message: format!(
                    "vertex {v} out of range ({} vertices)",
                    self.logical_vertices
                ),
            });
        }
        Ok(())
    }

    fn add_edge(&mut self, e: Edge) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(e.src.raw())?;
        self.check_vertex(e.dst.raw())?;
        // A tombstoned endpoint would silently resurrect: the edge lands in a
        // block and the degree counter ticks up, but the vertex's value stays
        // invalid — breaking the "tombstoned ⇒ degree 0" bookkeeping that
        // vertex deletion relies on. Reject instead.
        for v in [e.src, e.dst] {
            if self.is_tombstoned(v) {
                return Err(GraphError::MutationFailed {
                    message: format!("vertex {} is deleted", v.raw()),
                });
            }
        }
        let id = self.block_of(e.src.raw(), e.dst.raw());
        let key = self.number(id);
        let blocks = &mut self.blocks;
        let at = *self.index.entry(key).or_insert_with(|| {
            blocks.push(DynBlock::new(id, Vec::new()));
            blocks.len() - 1
        });
        let fit = self.blocks[at].push(e);
        self.snapshot.take();
        self.num_edges += 1;
        self.degrees[e.src.index()] += 1;
        self.degrees[e.dst.index()] += 1;
        self.edges_changed += 1;
        Ok(if fit {
            MutationOutcome::InPlace
        } else {
            MutationOutcome::LinkedOverflow
        })
    }

    fn remove_edge(&mut self, src: u32, dst: u32) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        let key = self.number(self.block_of(src, dst));
        let removed = (self.index.get(&key)).and_then(|&at| self.blocks[at].remove(src, dst));
        match removed {
            Some(_) => {
                self.snapshot.take();
                self.num_edges -= 1;
                self.degrees[src as usize] = self.degrees[src as usize].saturating_sub(1);
                self.degrees[dst as usize] = self.degrees[dst as usize].saturating_sub(1);
                self.edges_changed += 1;
                Ok(MutationOutcome::InPlace)
            }
            None => Err(GraphError::MutationFailed {
                message: format!("edge {src}->{dst} not present"),
            }),
        }
    }

    fn add_vertex(&mut self) -> Result<MutationOutcome, GraphError> {
        self.logical_vertices += 1;
        self.tombstones.push(false);
        self.degrees.push(0);
        if self.vertex_slots_remaining > 0 {
            self.vertex_slots_remaining -= 1;
            // The new vertex occupies a reserved padding slot inside an
            // interval; no edges move.
            Ok(MutationOutcome::InPlace)
        } else {
            // §5: out of reserved space ⇒ full re-preprocessing, now with
            // every logical vertex materialised.
            let mut list = crate::edgelist::EdgeList::new(self.logical_vertices);
            list.extend(self.stored_edges().copied());
            let grid = GridGraph::partition(&list, self.partition.num_intervals())?;
            self.lay_out(&grid);
            self.repartitions += 1;
            Ok(MutationOutcome::Repartitioned)
        }
    }

    /// Checks the structure's internal bookkeeping invariants:
    ///
    /// * `tombstones` and `degrees` cover exactly the logical vertex range;
    /// * the grid never materialises more vertices than are logically present;
    /// * the index locates every block, and every stored edge sits in the
    ///   block its endpoints' intervals name, within its reserved capacity;
    /// * per-block edge counts sum to the grid's edge count;
    /// * every tombstoned vertex has degree 0;
    /// * every live vertex's maintained degree equals its endpoint count over
    ///   the grid's stored edges (inert edges to tombstoned neighbours
    ///   included — they stay in their blocks, §5).
    ///
    /// # Errors
    ///
    /// [`GraphError::MutationFailed`] describing the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let fail = |message: String| Err(GraphError::MutationFailed { message });
        let n = self.logical_vertices as usize;
        if self.tombstones.len() != n || self.degrees.len() != n {
            return fail(format!(
                "bookkeeping length mismatch: {} tombstones / {} degrees for {n} vertices",
                self.tombstones.len(),
                self.degrees.len()
            ));
        }
        if self.partition.num_vertices() > self.logical_vertices {
            return fail(format!(
                "grid materialises {} vertices but only {} are logical",
                self.partition.num_vertices(),
                self.logical_vertices
            ));
        }
        if self.index.len() != self.blocks.len() {
            return fail(format!(
                "{} blocks but {} indexed",
                self.blocks.len(),
                self.index.len()
            ));
        }
        for (at, b) in self.blocks.iter().enumerate() {
            let id = b.id;
            if self.index.get(&self.number(id)) != Some(&at) {
                return fail(format!("block {id:?} is not indexed at {at}"));
            }
            if b.edges.len() > b.reserved {
                return fail(format!(
                    "block {id:?} holds {} edges in {} reserved slots",
                    b.edges.len(),
                    b.reserved
                ));
            }
            for e in &b.edges {
                let home = self.block_of(e.src.raw(), e.dst.raw());
                if home != id {
                    return fail(format!(
                        "edge {}->{} stored in block {id:?} but belongs in {home:?}",
                        e.src.raw(),
                        e.dst.raw(),
                    ));
                }
            }
        }
        let stored: u64 = self.blocks.iter().map(|b| b.edges.len() as u64).sum();
        if stored != self.num_edges {
            return fail(format!(
                "blocks hold {stored} edges but the grid counts {}",
                self.num_edges
            ));
        }
        let hits = self.endpoint_counts();
        for (v, &hit) in hits.iter().enumerate() {
            if self.tombstones[v] {
                if self.degrees[v] != 0 {
                    return fail(format!(
                        "tombstoned vertex {v} has nonzero degree {}",
                        self.degrees[v]
                    ));
                }
            } else if self.degrees[v] != hit {
                return fail(format!(
                    "vertex {v} degree {} disagrees with {hit} stored endpoints",
                    self.degrees[v]
                ));
            }
        }
        Ok(())
    }

    fn remove_vertex(&mut self, v: VertexId) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(v.raw())?;
        self.tombstones[v.index()] = true;
        // §5: O(1) — the stored value becomes invalid; incident edges stay
        // in their blocks but are inert, and count as changed edges.
        self.edges_changed += u64::from(self.degrees[v.index()]);
        self.degrees[v.index()] = 0;
        Ok(MutationOutcome::VertexTombstoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(p: u32) -> DynamicGrid {
        let edges = "1 0\n0 7\n2 3\n2 4\n3 4\n4 1\n";
        let g = crate::io::parse(edges.as_bytes()).unwrap();
        DynamicGrid::new(GridGraph::partition(&g, p).unwrap(), 0.25)
    }

    #[test]
    fn add_edge_goes_to_right_block() {
        let mut d = make(4);
        let out = d.apply(Mutation::AddEdge(Edge::new(6, 1))).unwrap();
        assert_eq!(out, MutationOutcome::InPlace);
        assert_eq!(d.grid().num_edges(), 7);
        assert_eq!(d.grid().block_len(3, 0), 1);
        assert_eq!(d.edges_changed(), 1);
    }

    #[test]
    fn remove_edge_present_and_absent() {
        let mut d = make(4);
        assert_eq!(
            d.apply(Mutation::RemoveEdge { src: 2, dst: 3 }).unwrap(),
            MutationOutcome::InPlace
        );
        assert_eq!(d.grid().num_edges(), 5);
        assert!(d.apply(Mutation::RemoveEdge { src: 2, dst: 3 }).is_err());
    }

    #[test]
    fn add_vertex_consumes_reserve_then_repartitions() {
        let mut d = make(4);
        let initial_slots = d.vertex_slots_remaining();
        assert_eq!(initial_slots, 2); // ceil(8 * 0.25)
        for _ in 0..initial_slots {
            assert_eq!(
                d.apply(Mutation::AddVertex).unwrap(),
                MutationOutcome::InPlace
            );
        }
        assert_eq!(d.vertex_slots_remaining(), 0);
        let out = d.apply(Mutation::AddVertex).unwrap();
        assert_eq!(out, MutationOutcome::Repartitioned);
        assert_eq!(d.repartitions(), 1);
        assert!(d.vertex_slots_remaining() > 0);
        // All edges survived the repartition.
        assert_eq!(d.grid().num_edges(), 6);
    }

    #[test]
    fn remove_vertex_tombstones_in_constant_time() {
        let mut d = make(4);
        assert_eq!(d.degree(VertexId::new(4)), 3); // 2->4, 3->4, 4->1
        let out = d.apply(Mutation::RemoveVertex(VertexId::new(4))).unwrap();
        assert_eq!(out, MutationOutcome::VertexTombstoned);
        assert!(d.is_tombstoned(VertexId::new(4)));
        // §5: edges stay in place (inert) but count as changed.
        assert_eq!(d.edges_changed(), 3);
        assert_eq!(d.degree(VertexId::new(4)), 0);
        // The live view excludes them.
        let live = d.live_edge_list();
        assert_eq!(live.len(), 3);
        for e in live.iter() {
            assert_ne!(e.src.raw(), 4);
            assert_ne!(e.dst.raw(), 4);
        }
    }

    #[test]
    fn add_edge_to_tombstoned_vertex_is_rejected() {
        let mut d = make(4);
        d.apply(Mutation::RemoveVertex(VertexId::new(4))).unwrap();
        let before = d.grid().num_edges();
        // Either endpoint being dead must reject the add…
        assert!(d.apply(Mutation::AddEdge(Edge::new(4, 0))).is_err());
        assert!(d.apply(Mutation::AddEdge(Edge::new(0, 4))).is_err());
        // …without touching the grid or the degree bookkeeping.
        assert_eq!(d.grid().num_edges(), before);
        assert_eq!(d.degree(VertexId::new(4)), 0);
        d.validate().unwrap();
    }

    #[test]
    fn validate_accepts_every_mutation_outcome() {
        let mut d = make(4);
        d.validate().unwrap();
        d.apply(Mutation::AddEdge(Edge::new(6, 1))).unwrap();
        d.apply(Mutation::RemoveVertex(VertexId::new(2))).unwrap();
        d.apply(Mutation::RemoveEdge { src: 3, dst: 4 }).unwrap();
        for _ in 0..3 {
            d.apply(Mutation::AddVertex).unwrap();
        }
        assert_eq!(d.repartitions(), 1);
        d.validate().unwrap();
    }

    #[test]
    fn out_of_range_mutations_fail() {
        let mut d = make(4);
        assert!(d.apply(Mutation::AddEdge(Edge::new(0, 99))).is_err());
        assert!(d.apply(Mutation::RemoveVertex(VertexId::new(99))).is_err());
    }

    #[test]
    fn overflow_after_many_adds() {
        let mut d = make(2);
        let mut overflows = 0;
        for i in 0..100 {
            let out = d
                .apply(Mutation::AddEdge(Edge::new(i % 8, (i + 1) % 8)))
                .unwrap();
            if out == MutationOutcome::LinkedOverflow {
                overflows += 1;
            }
        }
        assert!(overflows > 0, "100 adds into small blocks must overflow");
        assert_eq!(d.grid().num_edges(), 106);
    }

    #[test]
    fn mixed_workload_conserves_counts() {
        let mut d = make(4);
        let before = d.grid().num_edges();
        d.apply(Mutation::AddEdge(Edge::new(0, 1))).unwrap();
        d.apply(Mutation::AddEdge(Edge::new(5, 5))).unwrap();
        d.apply(Mutation::RemoveEdge { src: 0, dst: 1 }).unwrap();
        assert_eq!(d.grid().num_edges(), before + 1);
        assert_eq!(d.grid().flat().len() as u64, d.grid().num_edges());
        d.validate().unwrap();
    }

    #[test]
    fn block_push_overflow_chains_segments() {
        let mut b = DynBlock::new(BlockId::new(0, 0), vec![Edge::new(0, 1)]);
        assert_eq!(
            b.reserved, 4,
            "a one-edge block still gets the minimal slot"
        );
        let fits: Vec<bool> = (0..20).map(|i| b.push(Edge::new(0, i))).collect();
        // Edges 2..=4 fit; the 5th links a segment of max(⌈0.3·5⌉, 4) = 4
        // slots (capacity 9), the 10th one of 4 (capacity 14), the 15th one
        // of ⌈4.5⌉ = 5 (capacity 20).
        let overflowed: Vec<usize> = (0..20).filter(|&i| !fits[i]).map(|i| i + 2).collect();
        assert_eq!(overflowed, [5, 10, 15, 21]);
        assert_eq!(b.edges.len(), 21);
    }

    #[test]
    fn grid_snapshot_follows_mutations() {
        let mut d = make(4);
        let before = d.grid().clone();
        d.apply(Mutation::AddEdge(Edge::new(6, 1))).unwrap();
        assert_eq!(d.grid().num_edges(), before.num_edges() + 1);
        assert_eq!(d.grid(), &d.materialize());
        d.apply(Mutation::RemoveEdge { src: 6, dst: 1 }).unwrap();
        // The block B3.0 has held an edge but is empty again: the snapshot
        // lists only non-empty blocks, so it equals the original grid.
        assert_eq!(d.grid(), &before);
    }

    #[test]
    fn failed_mutations_keep_the_snapshot() {
        let mut d = make(4);
        let warm = d.grid() as *const GridGraph;
        assert!(d.apply(Mutation::RemoveEdge { src: 5, dst: 6 }).is_err());
        d.apply(Mutation::RemoveVertex(VertexId::new(2))).unwrap();
        assert!(std::ptr::eq(warm, d.grid()), "no edge moved, so no rebuild");
    }
}
