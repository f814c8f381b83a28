//! The [`GridGraph`]: edges materialised into the P×P interval-block grid
//! (paper Fig. 1 right, §3.4 data organisation) over `P` contiguous vertex
//! intervals ([`IntervalPartition`]).
//!
//! The paper's §3.4 layout stores each block as a header (source interval
//! index, destination interval index, edge count) followed by an edge
//! array, one block after another in edge memory. The grid holds exactly
//! that stream for the blocks that hold edges: one [`Edge`] array and its
//! index, built at its final size: each non-empty block's coordinates and
//! `u32` offset (12 bytes) and each destination column's first block (4
//! bytes). Empty blocks take no space, so memory and every walk over the
//! grid are O(E + non-empty blocks + P), not O(P²) — at the interval counts
//! the planner picks for PageRank on TW almost all of the P² blocks are
//! empty. The header charge is still the §3.4 one for all P² blocks (see
//! [`GridGraph::edge_storage_bits`]).
//!
//! Blocks are stored column-major — by destination interval, then by source
//! interval ([`BlockId`]'s order). Algorithm 2 gives each PU whole
//! destination columns and walks each one's sources in turn, so every PU
//! reads its share of the edge stream as a few long sequential runs rather
//! than gathering small blocks from across the columns. Edges within a
//! block keep the order partitioning or §5's dynamic updates left them in:
//! a PU's walk, and so every float it accumulates, follows that order.
//! Dynamic updates (§5) go through [`DynamicGrid`](crate::DynamicGrid),
//! which keeps the per-block slack.

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::partition::{BlockId, IntervalPartition};
use crate::types::{Edge, VertexId};
use std::ops::Range;

/// Bits of one block header: source interval, destination interval and
/// edge count, 32 bits each (§3.4).
const BLOCK_HEADER_BITS: u64 = 96;

/// A graph partitioned into a P×P grid of edge blocks.
///
/// ```
/// use hyve_graph::{BlockId, Edge, EdgeList, GridGraph};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(2, 4), Edge::new(0, 7)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// // e2.4 lands in B1.2 exactly as the paper's Fig. 1 shows.
/// assert_eq!(grid.block_len(1, 2), 1);
/// assert_eq!((grid.num_blocks(), grid.non_empty_blocks()), (16, 2));
/// // Column-major: B1.2 (destination interval 2) precedes B0.3.
/// assert_eq!(grid.block_ids(), [BlockId::new(1, 2), BlockId::new(0, 3)]);
/// assert_eq!(grid.flat(), [Edge::new(2, 4), Edge::new(0, 7)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridGraph {
    partition: IntervalPartition,
    /// Coordinates of the non-empty blocks, in column-major order.
    blocks: Vec<BlockId>,
    /// Start of each non-empty block in the edge array, plus a final entry
    /// equal to the edge count; length `blocks.len() + 1`.
    offsets: Vec<u32>,
    /// Start of each destination column in `blocks`; length P + 1.
    columns: Vec<u32>,
    edges: Vec<Edge>,
    /// Per-vertex out-degree, tallied once when the grid is built so runs
    /// don't rescan the edge stream for it.
    out_degrees: Vec<u32>,
}

impl GridGraph {
    /// A grid over `partition` whose edge array, in column-major block
    /// order, is `edges`, with its block index: the non-empty blocks and
    /// where each starts (it finds where each column starts). `out_degrees`
    /// tallies every edge's source, past the vertex count when edges name
    /// reserved padding slots.
    ///
    /// # Panics
    ///
    /// Panics on 2³² edges or more, or if the blocks are not in
    /// column-major order: a block out of order would make
    /// [`block_range`](Self::block_range) miss it and split a PU's column.
    pub(crate) fn new(
        partition: IntervalPartition,
        blocks: Vec<BlockId>,
        mut offsets: Vec<u32>,
        edges: Vec<Edge>,
        out_degrees: Vec<u32>,
    ) -> Self {
        assert!(
            blocks.windows(2).all(|w| w[0] < w[1]),
            "blocks out of column-major order"
        );
        offsets.push(u32::try_from(edges.len()).expect("a grid's edge positions must fit 32 bits"));
        let columns = (0..=partition.num_intervals())
            .map(|d| blocks.partition_point(|id| id.dst < d) as u32)
            .collect();
        GridGraph {
            partition,
            blocks,
            offsets,
            columns,
            edges,
            out_degrees,
        }
    }

    /// Partitions an edge list into a P×P grid of contiguous intervals.
    ///
    /// One stable counting pass places every edge in the final edge array,
    /// tallying out-degrees as it counts. A counting pass costs the edges
    /// plus its tally, so it takes one bucket per block, keyed by
    /// (destination interval, source interval), when `P² ≤ E`, and reads
    /// the block index off the tally. When `P² > E` it takes one bucket per
    /// destination column instead, and each column is then sorted stably
    /// by source interval through scratch the size of the largest column.
    /// Either way the blocks come out column-major (see [`BlockId`]) and
    /// each block's edges in input order, in O(E + V + P) time.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalPartition::new`] errors.
    ///
    /// # Panics
    ///
    /// Panics if the edge list holds 2³² edges or more.
    pub fn partition(g: &EdgeList, p: u32) -> Result<Self, GraphError> {
        let partition = IntervalPartition::new(g.num_vertices(), p)?;
        let interval: Vec<u32> = (0..g.num_vertices())
            .map(|v| partition.interval_of(VertexId::new(v)))
            .collect();
        let edges = g.edges();
        assert!(
            u32::try_from(edges.len()).is_ok(),
            "a grid's edge positions must fit 32 bits"
        );
        let width = p as usize;
        let by_block = width.checked_mul(width).is_some_and(|n| n <= edges.len());
        let bucket = |e: &Edge| {
            let column = interval[e.dst.index()] as usize;
            if by_block {
                column * width + interval[e.src.index()] as usize
            } else {
                column
            }
        };
        // The edge array first: it is the one long-lived allocation, so it
        // takes the space the last grid freed before the tally can split it.
        let mut stored = vec![Edge::new(0, 0); edges.len()];
        let mut ends = vec![0u32; if by_block { width * width } else { width }];
        let mut out_degrees = vec![0u32; g.num_vertices() as usize];
        for e in edges {
            ends[bucket(e)] += 1;
            out_degrees[e.src.index()] += 1;
        }
        // Allocated once: exact from a by-block tally, else one per edge and shrunk.
        let bound = if by_block {
            ends.iter().filter(|&&n| n > 0).count()
        } else {
            edges.len()
        };
        place(edges, &mut stored, &mut ends, bucket);
        let (mut blocks, mut offsets) = (Vec::with_capacity(bound), Vec::with_capacity(bound + 1));
        let mut list = |id, at| {
            blocks.push(id);
            offsets.push(at);
        };
        let mut sort = ColumnSort::new(p);
        let mut begin = 0;
        for (b, &end) in ends.iter().enumerate() {
            let (at, range) = (begin, begin as usize..end as usize);
            begin = end;
            if range.is_empty() {
                continue;
            }
            if by_block {
                let id = BlockId::new((b % width) as u32, (b / width) as u32);
                list(id, at);
            } else {
                sort.finish(&mut stored[range], at, b as u32, &interval, &mut list);
            }
        }
        blocks.shrink_to_fit();
        offsets.shrink_to_fit();
        Ok(GridGraph::new(
            partition,
            blocks,
            offsets,
            stored,
            out_degrees,
        ))
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
        self.edges.len() as u64
    }

    /// Total number of blocks (P²), empty ones included.
    pub fn num_blocks(&self) -> usize {
        let p = self.num_intervals() as usize;
        p * p
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        self.blocks.len()
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

    /// The grid's edge array, block by block in column-major order — the
    /// sparse edge stream the simulator's hot loop walks. Index it with a
    /// range from [`block`](Self::block) or [`block_range`](Self::block_range)
    /// for one block's edges.
    pub fn flat(&self) -> &[Edge] {
        &self.edges
    }

    /// Coordinates of the non-empty blocks, in column-major order.
    pub fn block_ids(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Where each destination column starts in [`block_ids`](Self::block_ids):
    /// column `d` is `column_starts()[d]..column_starts()[d + 1]`.
    pub fn column_starts(&self) -> &[u32] {
        &self.columns
    }

    /// The `i`-th non-empty block (column-major) and its edge-array range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.non_empty_blocks()`.
    pub fn block(&self, i: usize) -> (BlockId, Range<usize>) {
        let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (self.blocks[i], start..end)
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
        let p = self.num_intervals();
        assert!(
            src < p && dst < p,
            "block ({src},{dst}) out of a {p}x{p} grid"
        );
        match self.blocks.binary_search(&BlockId::new(src, dst)) {
            Ok(i) => self.block(i).1,
            Err(i) => self.offsets[i] as usize..self.offsets[i] as usize,
        }
    }

    /// Number of edges in the block at (src interval, dst interval).
    pub fn block_len(&self, src: u32, dst: u32) -> usize {
        self.block_range(src, dst).len()
    }

    /// Out-degree of every vertex, tallied once when the grid was built.
    ///
    /// One entry per vertex, unless a [`DynamicGrid`](crate::DynamicGrid)
    /// snapshot stores edges at reserved padding slots past its vertex
    /// count: the table then runs up to the highest vertex any edge names.
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }

    /// Flattens the grid back into an edge list (inverse of partitioning,
    /// up to edge order): the edges come out in the grid's column-major
    /// block order — by destination interval, then by source interval — and
    /// in stored order within each block.
    pub fn to_edge_list(&self) -> EdgeList {
        EdgeList::from_vec(self.num_vertices(), self.edges.clone())
    }
}

/// The placing half of a stable counting sort: turns the per-bucket
/// counts in `next` into each bucket's start, then writes every item of
/// `from` to the next free slot of its `bucket` in `into`. `next` ends up
/// holding where each bucket ends.
fn place<T: Copy>(from: &[T], into: &mut [T], next: &mut [u32], bucket: impl Fn(&T) -> usize) {
    let mut sum = 0;
    for t in next.iter_mut() {
        (*t, sum) = (sum, sum + *t);
    }
    for x in from {
        let at = &mut next[bucket(x)];
        into[*at as usize] = *x;
        *at += 1;
    }
}

/// Widest radix digit [`ColumnSort`] uses on a column shorter than its
/// full tally: 256 counts fit in L1.
const MAX_DIGIT_BITS: u32 = 8;

/// A stable sort of one destination column's edges by source interval.
/// Its scratch grows to the largest column and is reused for every column
/// after it.
#[derive(Default)]
struct ColumnSort {
    /// Bits of the largest interval index.
    bits: u32,
    /// Per digit value, its next output slot.
    tally: Vec<u32>,
    /// One `source interval << 32 | position in the column` per edge.
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// The column's edges as they stood before the sort.
    copy: Vec<Edge>,
}

impl ColumnSort {
    /// A sorter for interval indices below `p`.
    fn new(p: u32) -> Self {
        let bits = u32::BITS - (p - 1).leading_zeros();
        ColumnSort {
            bits,
            ..Self::default()
        }
    }

    /// Reorders `column`, destination column `dst` of the edge array from
    /// edge `base` on, stably by source interval, and `list`s its blocks.
    ///
    /// A column at least as long as the full tally (one count per value of
    /// a `bits`-bit interval index) takes one counting pass on the whole
    /// index. A shorter one takes passes on digits of at most
    /// [`MAX_DIGIT_BITS`], so that each pass's tally stays in cache.
    fn finish(
        &mut self,
        column: &mut [Edge],
        base: u32,
        dst: u32,
        interval: &[u32],
        list: &mut impl FnMut(BlockId, u32),
    ) {
        self.keys.clear();
        self.keys.extend(
            (column.iter().zip(0u64..))
                .map(|(e, at)| u64::from(interval[e.src.index()]) << 32 | at),
        );
        let passes = match self.keys.len() >> self.bits {
            0 => self.bits.div_ceil(MAX_DIGIT_BITS),
            _ => 1,
        };
        let width = self.bits.div_ceil(passes);
        self.spare.resize(self.keys.len(), 0);
        for shift in (0..passes).map(|pass| 32 + pass * width) {
            let digit = |k: &u64| (k >> shift) as usize & ((1 << width) - 1);
            self.tally.clear();
            self.tally.resize(1 << width, 0);
            for k in &self.keys {
                self.tally[digit(k)] += 1;
            }
            place(&self.keys, &mut self.spare, &mut self.tally, digit);
            std::mem::swap(&mut self.keys, &mut self.spare);
        }
        self.copy.clear();
        self.copy.extend_from_slice(column);
        for (slot, &k) in column.iter_mut().zip(&self.keys) {
            *slot = self.copy[k as u32 as usize];
        }
        let mut at = base;
        for block in self.keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            list(BlockId::new((block[0] >> 32) as u32, dst), at);
            at += block.len() as u32;
        }
    }
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
        assert_eq!(grid.num_blocks(), 16);
        assert_eq!(grid.num_edges(), 11);
        // Paper Fig. 1: B0.0 = {1->0}, B0.3 = {0->7}, B1.1 = {2->3},
        // B1.2 = {2->4, 3->4}, B1.3 = {3->7}, B2.0 = {4->1}, B2.2 = {4->5},
        // B3.0 = {6->0, 7->1}, B3.1 = {6->2}.
        assert_eq!(grid.block_len(0, 0), 1);
        assert_eq!(grid.block_len(0, 3), 1);
        assert_eq!(grid.block_len(1, 1), 1);
        assert_eq!(grid.block_len(1, 2), 2);
        assert_eq!(grid.block_len(1, 3), 1);
        assert_eq!(grid.block_len(2, 0), 1);
        assert_eq!(grid.block_len(2, 2), 1);
        assert_eq!(grid.block_len(3, 1), 1);
        assert_eq!(grid.block_len(3, 0), 2);
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
        assert_eq!(grid.block_len(0, 0), 11);
    }

    /// FNV-1a over the grid's block ids and offsets, every edge's (src,
    /// dst, weight bits) in storage order, and the out-degree table.
    fn fingerprint(grid: &GridGraph) -> u64 {
        let mut bytes: Vec<u8> = Vec::new();
        for (id, range) in grid.blocks() {
            bytes.extend(id.src.to_le_bytes());
            bytes.extend(id.dst.to_le_bytes());
            bytes.extend((range.start as u64).to_le_bytes());
        }
        bytes.extend(grid.num_edges().to_le_bytes());
        for e in grid.flat() {
            let words = [e.src.raw(), e.dst.raw(), e.weight.to_bits()];
            bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        }
        bytes.extend(grid.out_degrees().iter().flat_map(|d| d.to_le_bytes()));
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the partitioner's exact output: block order, block boundaries,
    /// the edge order within every block and the out-degrees, across
    /// interval counts that take every path through the partitioner.
    #[test]
    fn partition_is_pinned() {
        use crate::datasets::DatasetProfile;
        use crate::generate::Rmat;
        let yt = DatasetProfile::youtube_scaled().generate(2018);
        // Distinct weights, so a weight that strays from its edge shows.
        let small = Rmat::new(500, 6_000).generate(9);
        let weighted = EdgeList::from_vec(
            500,
            (small.iter().enumerate())
                .map(|(i, e)| Edge::with_weight(e.src.raw(), e.dst.raw(), i as f32 * 0.25))
                .collect(),
        );
        let cases = [
            ("P = 1", &yt, 1),
            ("non-power-of-two P", &yt, 37),
            ("two-digit P", &yt, 1_000),
            ("three-digit P", &yt, 300),
            ("P = V", &weighted, 500),
        ];
        let expected: [u64; 5] = [
            0x065e_a016_ea39_cea4, // P = 1
            0x0ed0_b45e_d5ed_ac22, // non-power-of-two P
            0xcef8_a4dd_fe15_9375, // two-digit P
            0xcf61_7c4c_2bc1_cfb7, // three-digit P
            0xe0fc_7a08_5ac2_a26e, // P = V
        ];
        for ((name, g, p), want) in cases.into_iter().zip(expected) {
            let grid = GridGraph::partition(g, p).unwrap();
            assert_eq!(fingerprint(&grid), want, "{name} changed");
        }
    }

    #[test]
    fn empty_edge_list_still_partitions() {
        let g = EdgeList::new(8);
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(grid.num_edges(), 0);
        assert_eq!(grid.non_empty_blocks(), 0);
        assert_eq!(grid.edge_storage_bits(), 16 * 96);
        assert_eq!(GridGraph::partition(&g, 1).unwrap().non_empty_blocks(), 0);
    }

    #[test]
    fn blocks_tile_the_edge_array() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        assert_eq!(grid.num_intervals(), 4);
        assert_eq!(grid.non_empty_blocks(), 9);
        // Column-major: destination interval first, then source interval.
        let ids: Vec<(u32, u32)> = grid.block_ids().iter().map(|id| (id.src, id.dst)).collect();
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
        for (id, range) in grid.blocks() {
            assert!(!range.is_empty(), "only non-empty blocks are listed");
            assert_eq!(range.start, covered);
            assert_eq!(grid.block_range(id.src, id.dst), range);
            covered = range.end;
        }
        assert_eq!(covered, 11);
        let walked: Vec<Edge> = grid
            .blocks()
            .flat_map(|(_, r)| &grid.flat()[r])
            .copied()
            .collect();
        assert_eq!(walked, grid.flat());
    }

    #[test]
    fn empty_blocks_have_empty_ranges() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        for s in 0..4 {
            for d in 0..4 {
                let listed = grid.block_ids().contains(&BlockId::new(s, d));
                assert_eq!(grid.block_range(s, d).is_empty(), !listed);
            }
        }
        let empty = GridGraph::partition(&EdgeList::new(8), 4).unwrap();
        assert_eq!(empty.non_empty_blocks(), 0);
        assert!(empty.block_range(3, 3).is_empty());
    }

    #[test]
    fn out_degrees_match_source_list() {
        let g = fig1();
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(grid.out_degrees(), g.out_degrees());
    }

    #[test]
    #[should_panic(expected = "blocks out of column-major order")]
    fn out_of_order_blocks_are_rejected() {
        // e0.7 (B0.3) then e2.4 (B1.2): row-major, but B1.2 must lead.
        let edges = vec![Edge::new(0, 7), Edge::new(2, 4)];
        let blocks = vec![BlockId::new(0, 3), BlockId::new(1, 2)];
        let partition = IntervalPartition::new(8, 4).unwrap();
        let out_degrees = vec![1, 0, 1, 0, 0, 0, 0, 0];
        let _ = GridGraph::new(partition, blocks, vec![0, 1], edges, out_degrees);
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn block_range_out_of_bounds_panics() {
        let grid = GridGraph::partition(&fig1(), 2).unwrap();
        let _ = grid.block_range(2, 0);
    }
}
