//! The [`GridGraph`]: edges materialised into the P×P interval-block grid
//! (paper Fig. 1 right, §3.4 data organisation).
//!
//! Each block is a header (source interval index, destination interval
//! index, edge count) followed by an edge array — the paper's §3.4 layout.
//! The grid stores only the blocks that hold edges, as one sparse
//! [`FlatGrid`], column-major: by destination interval, then by source
//! interval, the order Algorithm 2's PUs stream them in. The header charge
//! is still the §3.4 one for all P² blocks (see
//! [`GridGraph::edge_storage_bits`]). Dynamic updates (§5) go through
//! [`DynamicGrid`](crate::DynamicGrid), which keeps the per-block slack.

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::flat::{Columns, FlatGrid};
use crate::partition::{BlockId, IntervalPartition, PartitionScheme};
use crate::types::{Edge, VertexId};

/// Bits of one block header: source interval, destination interval and
/// edge count, 32 bits each (§3.4).
const BLOCK_HEADER_BITS: u64 = 96;

/// A graph partitioned into a P×P grid of edge blocks.
///
/// ```
/// use hyve_graph::{Edge, EdgeList, GridGraph};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(2, 4), Edge::new(0, 7)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// // e2.4 lands in B1.2 exactly as the paper's Fig. 1 shows.
/// assert_eq!(grid.flat().block_len(1, 2), 1);
/// assert_eq!((grid.num_blocks(), grid.non_empty_blocks()), (16, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridGraph {
    partition: IntervalPartition,
    flat: FlatGrid,
}

impl GridGraph {
    /// Partitions an edge list into a P×P grid using contiguous intervals.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalPartition::new`] errors.
    pub fn partition(g: &EdgeList, p: u32) -> Result<Self, GraphError> {
        Self::partition_with_scheme(g, p, PartitionScheme::Contiguous)
    }

    /// Partitions with an explicit interval scheme.
    ///
    /// Two stable counting-sort passes over the edges — by source interval,
    /// then by destination interval — leave them column-major by block (see
    /// [`BlockId`]) and in input order within each block, in O(E + P) time
    /// and memory.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalPartition::new`] errors.
    pub fn partition_with_scheme(
        g: &EdgeList,
        p: u32,
        scheme: PartitionScheme,
    ) -> Result<Self, GraphError> {
        let partition = IntervalPartition::new(g.num_vertices(), p, scheme)?;
        let edges = g.edges();
        let n = edges.len();
        let interval = |v: VertexId| partition.interval_of(v);
        // Pass 1 buckets the edges by source interval, carrying each one's
        // destination interval; pass 2 re-buckets that sequence by
        // destination interval straight into the edge columns. Both passes
        // read sequentially and scatter, so no edge is fetched at random.
        let mut next = bucket_starts(edges.iter().map(|e| interval(e.src)), p);
        let mut by_src = vec![(Edge::new(0, 0), 0u32); n];
        for e in edges {
            let s = interval(e.src) as usize;
            by_src[next[s]] = (*e, interval(e.dst));
            next[s] += 1;
        }
        let mut next = bucket_starts(by_src.iter().map(|&(_, d)| d), p);
        let mut columns = Columns {
            src: vec![0; n],
            dst: vec![0; n],
            weight: vec![0.0; n],
        };
        for &(e, d) in &by_src {
            let at = next[d as usize];
            columns.src[at] = e.src.raw();
            columns.dst[at] = e.dst.raw();
            columns.weight[at] = e.weight;
            next[d as usize] += 1;
        }
        drop(by_src);
        let flat = FlatGrid::from_columns(p, g.num_vertices(), columns, |s, d| {
            BlockId::new(interval(VertexId::new(s)), interval(VertexId::new(d)))
        });
        Ok(GridGraph { partition, flat })
    }

    /// A grid over `partition` whose edges are `flat`.
    pub(crate) fn from_flat(partition: IntervalPartition, flat: FlatGrid) -> Self {
        GridGraph { partition, flat }
    }

    /// The vertex partition underlying the grid.
    pub fn partition_info(&self) -> &IntervalPartition {
        &self.partition
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.partition.num_intervals()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.partition.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.flat.num_edges()
    }

    /// Total number of blocks (P²), empty ones included.
    pub fn num_blocks(&self) -> usize {
        let p = self.num_intervals() as usize;
        p * p
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        self.flat.non_empty_blocks()
    }

    /// Total edge-memory footprint in bits (§3.4 layout): a 96-bit header
    /// for each of the P² blocks plus 64 bits per edge.
    pub fn edge_storage_bits(&self) -> u64 {
        let p = u64::from(self.num_intervals());
        p * p * BLOCK_HEADER_BITS + Edge::BITS * self.num_edges()
    }

    /// Vertex-memory footprint in bits for `value_bits`-wide vertex values:
    /// per interval, a 2 × 32-bit header plus one value per vertex (§3.4).
    pub fn vertex_storage_bits(&self, value_bits: u64) -> u64 {
        u64::from(self.num_intervals()) * 64 + u64::from(self.num_vertices()) * value_bits
    }

    /// The grid's edge storage — the sparse structure-of-arrays layout the
    /// simulator's hot loop walks.
    pub fn flat(&self) -> &FlatGrid {
        &self.flat
    }

    /// Flattens the grid back into an edge list (inverse of partitioning,
    /// up to edge order): the edges come out in the grid's column-major
    /// block order — by destination interval, then by source interval — and
    /// in stored order within each block.
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList::from_vec(self.num_vertices(), self.flat.iter_edges().collect())
    }
}

/// Start of each interval's bucket for a counting sort of `keys` (each
/// below `p`).
fn bucket_starts(keys: impl Iterator<Item = u32>, p: u32) -> Vec<usize> {
    let mut start = vec![0usize; p as usize];
    for k in keys {
        start[k as usize] += 1;
    }
    let mut sum = 0;
    for s in &mut start {
        (*s, sum) = (sum, sum + *s);
    }
    start
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The paper's Fig. 1 graph: 11 edges over 8 vertices.
    pub(crate) fn fig1() -> EdgeList {
        let edges = "1 0\n0 7\n2 3\n2 4\n3 4\n3 7\n4 1\n4 5\n6 2\n6 0\n7 1\n";
        crate::io::parse(edges.as_bytes()).unwrap()
    }

    #[test]
    fn fig1_block_assignment() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        let flat = grid.flat();
        assert_eq!(grid.num_blocks(), 16);
        assert_eq!(grid.num_edges(), 11);
        // Paper Fig. 1: B0.0 = {1->0}, B0.3 = {0->7}, B1.1 = {2->3},
        // B1.2 = {2->4, 3->4}, B1.3 = {3->7}, B2.0 = {4->1}, B2.2 = {4->5},
        // B3.0 = {6->0, 7->1}, B3.1 = {6->2}.
        assert_eq!(flat.block_len(0, 0), 1);
        assert_eq!(flat.block_len(0, 3), 1);
        assert_eq!(flat.block_len(1, 1), 1);
        assert_eq!(flat.block_len(1, 2), 2);
        assert_eq!(flat.block_len(1, 3), 1);
        assert_eq!(flat.block_len(2, 0), 1);
        assert_eq!(flat.block_len(2, 2), 1);
        assert_eq!(flat.block_len(3, 1), 1);
        assert_eq!(flat.block_len(3, 0), 2);
        assert_eq!(grid.non_empty_blocks(), 9);
    }

    #[test]
    fn storage_accounting() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        // 16 block headers of 96 bits + 11 edges of 64 bits.
        assert_eq!(grid.edge_storage_bits(), 16 * 96 + 11 * 64);
        assert_eq!(grid.vertex_storage_bits(32), 4 * 64 + 8 * 32);
    }

    #[test]
    fn single_interval_grid() {
        let grid = GridGraph::partition(&fig1(), 1).unwrap();
        assert_eq!(grid.num_blocks(), 1);
        assert_eq!(grid.flat().block_len(0, 0), 11);
    }

    #[test]
    fn empty_edge_list_still_partitions() {
        let g = EdgeList::new(8);
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(grid.num_edges(), 0);
        assert_eq!(grid.non_empty_blocks(), 0);
        assert_eq!(grid.edge_storage_bits(), 16 * 96);
    }
}
