//! [`FlatGrid`]: the grid's edge storage, a sparse structure-of-arrays.
//!
//! The paper's §3.4 layout stores each block as a header plus an edge array,
//! one block after another in edge memory. `FlatGrid` holds exactly that
//! stream for the blocks that hold edges: one contiguous edge array split
//! into parallel `src`/`dst`/`weight` columns, the list of non-empty block
//! coordinates, and each one's start offset. Empty blocks take no space, so
//! memory and every walk over the grid are O(E + non-empty blocks + P), not
//! O(P²) — at the interval counts the planner picks for PageRank on TW
//! almost all of the P² blocks are empty.
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
    /// Start of each non-empty block in the edge columns, plus a final
    /// entry equal to the edge count; length `blocks.len() + 1`.
    offsets: Vec<usize>,
    src: Vec<u32>,
    dst: Vec<u32>,
    weight: Vec<f32>,
    /// Per-vertex out-degree, tallied once when the grid is built so runs
    /// don't rescan the edge stream for it.
    out_degrees: Vec<u32>,
}

impl FlatGrid {
    /// Builds the storage over edge columns already in column-major block
    /// order, where `block_of(src, dst)` names an edge's block: one
    /// sequential scan finds the block boundaries and tallies out-degrees.
    /// The block index starts with room for `num_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if the columns are not in column-major block order: a block
    /// out of order would make [`block_range`](Self::block_range) miss it
    /// and split a PU's column.
    pub(crate) fn from_columns(
        p: u32,
        num_vertices: u32,
        columns: Columns,
        num_blocks: usize,
        block_of: impl Fn(u32, u32) -> BlockId,
    ) -> Self {
        let Columns { src, dst, weight } = columns;
        let mut blocks: Vec<BlockId> = Vec::with_capacity(num_blocks);
        let mut offsets = Vec::with_capacity(num_blocks + 1);
        let mut out_degrees = vec![0u32; num_vertices as usize];
        for (i, (&s, &d)) in src.iter().zip(&dst).enumerate() {
            let id = block_of(s, d);
            if blocks.last() != Some(&id) {
                assert!(
                    blocks.last() < Some(&id),
                    "blocks out of column-major order"
                );
                blocks.push(id);
                offsets.push(i);
            }
            // Dynamic updates may append edges whose endpoints live in
            // reserved padding slots beyond the materialised vertex count;
            // grow to cover either endpoint rather than panic on those, so
            // a run can tell the grid names vertices it does not hold.
            let named = s.max(d) as usize;
            if named >= out_degrees.len() {
                out_degrees.resize(named + 1, 0);
            }
            out_degrees[s as usize] += 1;
        }
        offsets.push(src.len());
        FlatGrid {
            p,
            blocks,
            offsets,
            src,
            dst,
            weight,
            out_degrees,
        }
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.p
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.src.len() as u64
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Coordinates of the non-empty blocks, in column-major order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The `i`-th non-empty block (column-major) and its edge-column range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.non_empty_blocks()`.
    pub fn block(&self, i: usize) -> (BlockId, Range<usize>) {
        (self.blocks[i], self.offsets[i]..self.offsets[i + 1])
    }

    /// Iterates the non-empty blocks in column-major order with their
    /// edge-column ranges.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, Range<usize>)> + '_ {
        (0..self.blocks.len()).map(|i| self.block(i))
    }

    /// The edge-column range of the block at (src interval, dst interval),
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

    /// Iterates the block's edges, materialised by value from the columns.
    pub fn block_edges(&self, src: u32, dst: u32) -> impl Iterator<Item = Edge> + '_ {
        self.edges_in(self.block_range(src, dst))
    }

    /// Iterates the edges in an arbitrary column `range` (as produced by
    /// [`block`](Self::block) or [`block_range`](Self::block_range)).
    pub fn edges_in(&self, range: Range<usize>) -> impl Iterator<Item = Edge> + '_ {
        self.src[range.clone()]
            .iter()
            .zip(&self.dst[range.clone()])
            .zip(&self.weight[range])
            .map(|((&s, &d), &w)| Edge::with_weight(s, d, w))
    }

    /// Iterates every edge, block by block in column-major order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges_in(0..self.src.len())
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

/// Edge columns in column-major block order, as [`FlatGrid::from_columns`]
/// takes them.
#[derive(Debug)]
pub(crate) struct Columns {
    pub(crate) src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    pub(crate) weight: Vec<f32>,
}

impl Columns {
    /// Empty columns with room for `n` edges.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Columns {
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            weight: Vec::with_capacity(n),
        }
    }

    /// Appends one edge.
    pub(crate) fn push(&mut self, e: Edge) {
        self.src.push(e.src.raw());
        self.dst.push(e.dst.raw());
        self.weight.push(e.weight);
    }

    /// Replaces every edge with a copy of `other`'s edges in `range`.
    pub(crate) fn copy_range(&mut self, other: &Columns, range: Range<usize>) {
        self.src.clear();
        self.src.extend_from_slice(&other.src[range.clone()]);
        self.dst.clear();
        self.dst.extend_from_slice(&other.dst[range.clone()]);
        self.weight.clear();
        self.weight.extend_from_slice(&other.weight[range]);
    }

    /// Overwrites edge `at` with `other`'s edge `from`.
    pub(crate) fn set(&mut self, at: usize, other: &Columns, from: usize) {
        self.src[at] = other.src[from];
        self.dst[at] = other.dst[from];
        self.weight[at] = other.weight[from];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::grid::tests::fig1;
    use crate::grid::GridGraph;

    #[test]
    fn blocks_tile_the_edge_columns() {
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
    fn row_major_columns_are_rejected() {
        // e0.7 (B0.3) then e2.4 (B1.2): row-major, but B1.2 must lead.
        let mut columns = Columns::with_capacity(2);
        columns.push(Edge::new(0, 7));
        columns.push(Edge::new(2, 4));
        let _ = FlatGrid::from_columns(4, 8, columns, 2, |s, d| BlockId::new(s / 2, d / 2));
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn block_range_out_of_bounds_panics() {
        let grid = GridGraph::partition(&fig1(), 2).unwrap();
        let _ = grid.flat().block_range(2, 0);
    }
}
