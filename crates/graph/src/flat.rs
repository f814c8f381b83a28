//! [`FlatGrid`]: the grid's edge storage, one sparse edge array.
//!
//! The paper's §3.4 layout stores each block as a header plus an edge array,
//! one block after another in edge memory. `FlatGrid` holds exactly that
//! stream for the blocks that hold edges: one contiguous array of
//! [`Edge`]s, the list of non-empty block coordinates, and each one's start
//! offset. Empty blocks take no space, so memory and every walk over the
//! grid are O(E + non-empty blocks + P), not O(P²) — at the interval counts
//! the planner picks for PageRank on TW almost all of the P² blocks are
//! empty.
//!
//! Blocks are stored column-major — by destination interval, then by source
//! interval ([`BlockId`]'s order). Algorithm 2 gives each PU whole
//! destination columns and walks each one's sources in turn, so every PU
//! reads its share of the edge stream as a few long sequential runs rather
//! than gathering small blocks from across the columns.
//!
//! Edges within a block keep the order partitioning or §5's dynamic
//! updates left them in: a PU's walk, and so every float it accumulates,
//! follows that order.

use crate::partition::BlockId;
use crate::types::Edge;
use std::ops::Range;

/// The read-only edge storage of a [`GridGraph`](crate::GridGraph), served
/// by [`GridGraph::flat`](crate::GridGraph::flat).
///
/// ```
/// use hyve_graph::{BlockId, Edge, EdgeList, GridGraph};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(2, 4), Edge::new(0, 7)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// let flat = grid.flat();
/// assert_eq!(flat.block_len(1, 2), 1); // e2.4 in B1.2, as in Fig. 1
/// // Column-major: B1.2 (destination interval 2) precedes B0.3.
/// assert_eq!(flat.block_ids(), [BlockId::new(1, 2), BlockId::new(0, 3)]);
/// assert_eq!(flat.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatGrid {
    p: u32,
    /// Coordinates of the non-empty blocks, in column-major order.
    blocks: Vec<BlockId>,
    /// Start of each non-empty block in the edge array, plus a final entry
    /// equal to the edge count; length `blocks.len() + 1`.
    offsets: Vec<usize>,
    edges: Vec<Edge>,
    /// Per-vertex out-degree, tallied once when the grid is built so runs
    /// don't rescan the edge stream for it.
    out_degrees: Vec<u32>,
}

impl FlatGrid {
    /// Builds the storage over an edge array in column-major block order
    /// from its block index: the non-empty blocks and where each starts.
    /// `out_degrees` tallies every edge's source; it runs past the vertex
    /// count when edges name reserved padding slots.
    ///
    /// # Panics
    ///
    /// Panics if the blocks are not in column-major order: a block out of
    /// order would make [`block_range`](Self::block_range) miss it and
    /// split a PU's column.
    pub(crate) fn new(
        p: u32,
        blocks: Vec<BlockId>,
        mut offsets: Vec<usize>,
        edges: Vec<Edge>,
        out_degrees: Vec<u32>,
    ) -> Self {
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "blocks out of column-major order"
        );
        offsets.push(edges.len());
        FlatGrid {
            p,
            blocks,
            offsets,
            edges,
            out_degrees,
        }
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.p
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Coordinates of the non-empty blocks, in column-major order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The `i`-th non-empty block (column-major) and its edge-array range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.non_empty_blocks()`.
    pub fn block(&self, i: usize) -> (BlockId, Range<usize>) {
        (self.blocks[i], self.offsets[i]..self.offsets[i + 1])
    }

    /// Iterates the non-empty blocks in column-major order with their
    /// edge-array ranges.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, Range<usize>)> + '_ {
        (0..self.blocks.len()).map(|i| self.block(i))
    }

    /// The edge-array range of the block at (src interval, dst interval),
    /// found by binary search over the non-empty blocks; empty for a block
    /// without edges.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is ≥ P.
    pub fn block_range(&self, src: u32, dst: u32) -> Range<usize> {
        let p = self.p;
        assert!(
            src < p && dst < p,
            "block ({src},{dst}) out of a {p}x{p} grid"
        );
        match self.blocks.binary_search(&BlockId::new(src, dst)) {
            Ok(i) => self.block(i).1,
            Err(i) => self.offsets[i]..self.offsets[i],
        }
    }

    /// Number of edges in the block at (src interval, dst interval).
    pub fn block_len(&self, src: u32, dst: u32) -> usize {
        self.block_range(src, dst).len()
    }

    /// Iterates the block's edges.
    pub fn block_edges(&self, src: u32, dst: u32) -> impl Iterator<Item = Edge> + '_ {
        self.edges_in(self.block_range(src, dst))
    }

    /// Iterates the edges in an arbitrary edge-array `range` (as produced
    /// by [`block`](Self::block) or [`block_range`](Self::block_range)).
    pub fn edges_in(&self, range: Range<usize>) -> impl Iterator<Item = Edge> + '_ {
        self.edges[range].iter().copied()
    }

    /// Iterates every edge, block by block in column-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Out-degree of every vertex, tallied once when the grid was built.
    ///
    /// One entry per vertex, unless a [`DynamicGrid`](crate::DynamicGrid)
    /// snapshot stores edges at reserved padding slots past its vertex
    /// count: the table then runs up to the highest vertex any edge names.
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::grid::tests::fig1;
    use crate::grid::GridGraph;

    #[test]
    fn blocks_tile_the_edge_array() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        let flat = grid.flat();
        assert_eq!(flat.num_intervals(), 4);
        assert_eq!(flat.non_empty_blocks(), 9);
        // Column-major: destination interval first, then source interval.
        let ids: Vec<(u32, u32)> = flat.block_ids().iter().map(|id| (id.src, id.dst)).collect();
        let column_major = [
            (0, 0),
            (2, 0),
            (3, 0),
            (1, 1),
            (3, 1),
            (1, 2),
            (2, 2),
            (0, 3),
            (1, 3),
        ];
        assert_eq!(ids, column_major);
        let mut covered = 0;
        for (id, range) in flat.blocks() {
            assert!(!range.is_empty(), "only non-empty blocks are listed");
            assert_eq!(range.start, covered);
            assert_eq!(flat.block_range(id.src, id.dst), range);
            covered = range.end;
        }
        assert_eq!(covered, 11);
        let walked: Vec<Edge> = flat.blocks().flat_map(|(_, r)| flat.edges_in(r)).collect();
        assert_eq!(walked, flat.iter_edges().collect::<Vec<_>>());
    }

    #[test]
    fn empty_blocks_have_empty_ranges() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        let flat = grid.flat();
        for s in 0..4 {
            for d in 0..4 {
                let listed = flat.block_ids().contains(&BlockId::new(s, d));
                assert_eq!(flat.block_range(s, d).is_empty(), !listed);
            }
        }
        let empty = GridGraph::partition(&EdgeList::new(8), 4).unwrap();
        assert_eq!(empty.flat().non_empty_blocks(), 0);
        assert!(empty.flat().block_range(3, 3).is_empty());
    }

    #[test]
    fn out_degrees_match_source_list() {
        let g = fig1();
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(grid.flat().out_degrees(), g.out_degrees());
    }

    #[test]
    #[should_panic(expected = "blocks out of column-major order")]
    fn out_of_order_blocks_are_rejected() {
        // e0.7 (B0.3) then e2.4 (B1.2): row-major, but B1.2 must lead.
        let edges = vec![Edge::new(0, 7), Edge::new(2, 4)];
        let blocks = vec![BlockId::new(0, 3), BlockId::new(1, 2)];
        let _ = FlatGrid::new(4, blocks, vec![0, 1], edges, vec![1, 0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn block_range_out_of_bounds_panics() {
        let grid = GridGraph::partition(&fig1(), 2).unwrap();
        let _ = grid.flat().block_range(2, 0);
    }
}
