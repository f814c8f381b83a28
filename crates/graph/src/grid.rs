//! The [`GridGraph`]: edges materialised into the P×P interval-block grid
//! (paper Fig. 1 right, §3.4 data organisation) over `P` contiguous vertex
//! intervals ([`IntervalPartition`]).
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
use crate::partition::{BlockId, IntervalPartition};
use crate::types::{Edge, VertexId};
use std::ops::Range;

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
    /// Partitions an edge list into a P×P grid of contiguous intervals.
    ///
    /// One stable scatter by destination interval writes every edge into
    /// its destination interval's column of the final edge columns. Each
    /// column is then reordered stably by source interval, through scratch
    /// the size of the largest column. That leaves the blocks column-major
    /// (see [`BlockId`]) and every block's edges in input order, in
    /// O(E + V + P) time, and holds nothing beyond the grid but that
    /// scratch and a per-vertex interval table.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalPartition::new`] errors.
    pub fn partition(g: &EdgeList, p: u32) -> Result<Self, GraphError> {
        let partition = IntervalPartition::new(g.num_vertices(), p)?;
        let interval: Vec<u32> = (0..g.num_vertices())
            .map(|v| partition.interval_of(VertexId::new(v)))
            .collect();
        let edges = g.edges();
        let n = edges.len();
        // Column c spans bounds[c]..bounds[c + 1] of the edge columns.
        let mut bounds = vec![0usize; p as usize + 1];
        for e in edges {
            bounds[interval[e.dst.index()] as usize + 1] += 1;
        }
        for c in 1..bounds.len() {
            bounds[c] += bounds[c - 1];
        }
        let mut next = bounds.clone();
        let mut columns = Columns {
            src: vec![0; n],
            dst: vec![0; n],
            weight: vec![0.0; n],
        };
        for e in edges {
            let at = &mut next[interval[e.dst.index()] as usize];
            columns.src[*at] = e.src.raw();
            columns.dst[*at] = e.dst.raw();
            columns.weight[*at] = e.weight;
            *at += 1;
        }
        let mut sort = ColumnSort::new(p);
        let num_blocks: usize = (bounds.windows(2))
            .map(|w| sort.finish(&mut columns, w[0]..w[1], &interval))
            .sum();
        let flat = FlatGrid::from_columns(p, g.num_vertices(), columns, num_blocks, |s, d| {
            BlockId::new(interval[s as usize], interval[d as usize])
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

/// Widest radix digit [`ColumnSort`] uses on a column shorter than its
/// full tally: 256 counts fit in L1.
const MAX_DIGIT_BITS: u32 = 8;

/// A stable sort of one destination column's edges by source interval.
/// Its scratch grows to the largest column and is reused for every column
/// after it.
struct ColumnSort {
    /// Bits of the largest interval index.
    bits: u32,
    /// Per digit value, its count, then its next output slot.
    tally: Vec<usize>,
    /// One `source interval << 32 | position in the column` per edge.
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// The column's edges as they stood before the sort.
    copy: Columns,
}

impl ColumnSort {
    /// A sorter for interval indices below `p`.
    fn new(p: u32) -> Self {
        ColumnSort {
            bits: u32::BITS - (p - 1).leading_zeros(),
            tally: Vec::new(),
            keys: Vec::new(),
            spare: Vec::new(),
            copy: Columns::with_capacity(0),
        }
    }

    /// Reorders `columns[range]`, one destination column, stably by source
    /// interval, and returns the number of blocks it holds.
    ///
    /// A counting pass costs the column's length plus its tally. A column
    /// at least as long as the full tally (one count per value of a
    /// `bits`-bit interval index) takes a single pass that streams its
    /// edges into place. A shorter one is LSD radix sorted in cache on
    /// digits of at most [`MAX_DIGIT_BITS`], then gathered into place.
    fn finish(&mut self, columns: &mut Columns, range: Range<usize>, interval: &[u32]) -> usize {
        let bits = self.bits;
        if bits == 0 || range.is_empty() {
            // One interval, or no edges: at most one block.
            return usize::from(!range.is_empty());
        }
        assert!(
            range.len() as u64 <= 1 << 32,
            "a column's positions must fit the keys' low 32 bits"
        );
        self.keys.clear();
        self.keys.extend(
            (columns.src[range.clone()].iter().zip(0u64..))
                .map(|(&s, at)| u64::from(interval[s as usize]) << 32 | at),
        );
        if !self.keys.is_sorted() {
            self.copy.copy_range(columns, range.clone());
            if self.keys.len() >> bits > 0 {
                // The keys are in column order, so this one pass reads the
                // copy sequentially and streams each edge to its slot.
                let blocks = self.count(32, bits);
                for (from, &k) in self.keys.iter().enumerate() {
                    let to = &mut self.tally[(k >> 32) as usize];
                    columns.set(range.start + *to, &self.copy, from);
                    *to += 1;
                }
                return blocks;
            }
            let passes = bits.div_ceil(MAX_DIGIT_BITS);
            let width = bits.div_ceil(passes);
            self.spare.resize(self.keys.len(), 0);
            for shift in (0..passes).map(|pass| 32 + pass * width) {
                self.count(shift, width);
                for &k in &self.keys {
                    let to = &mut self.tally[(k >> shift) as usize & ((1 << width) - 1)];
                    self.spare[*to] = k;
                    *to += 1;
                }
                std::mem::swap(&mut self.keys, &mut self.spare);
            }
            for (to, &k) in range.zip(&self.keys) {
                columns.set(to, &self.copy, k as u32 as usize);
            }
        }
        1 + (self.keys.windows(2))
            .filter(|w| w[0] >> 32 != w[1] >> 32)
            .count()
    }

    /// Sets the tally to the start of each `width`-bit digit value's
    /// bucket, the digit being the key's bits from `shift` up, and returns
    /// the number of non-empty buckets.
    fn count(&mut self, shift: u32, width: u32) -> usize {
        let tally = &mut self.tally;
        tally.clear();
        tally.resize(1 << width, 0);
        for &k in &self.keys {
            tally[(k >> shift) as usize & ((1 << width) - 1)] += 1;
        }
        let mut sum = 0;
        let mut buckets = 0;
        for t in tally.iter_mut() {
            buckets += usize::from(*t > 0);
            (*t, sum) = (sum, sum + *t);
        }
        buckets
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

    /// FNV-1a over the grid's block ids and offsets, every edge's (src,
    /// dst, weight bits) in storage order, and the out-degree table.
    fn fingerprint(grid: &GridGraph) -> u64 {
        let flat = grid.flat();
        let mut bytes: Vec<u8> = Vec::new();
        for (id, range) in flat.blocks() {
            bytes.extend(id.src.to_le_bytes());
            bytes.extend(id.dst.to_le_bytes());
            bytes.extend((range.start as u64).to_le_bytes());
        }
        bytes.extend(flat.num_edges().to_le_bytes());
        for e in flat.iter_edges() {
            let words = [e.src.raw(), e.dst.raw(), e.weight.to_bits()];
            bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        }
        bytes.extend(flat.out_degrees().iter().flat_map(|d| d.to_le_bytes()));
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
    }
}
