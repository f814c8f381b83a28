//! Interval-block partitioning (paper §2.1, Fig. 1).
//!
//! Vertices are divided into `P` *intervals* of contiguous ids; edges into
//! `P²` *blocks*: edge `(s, d)` lands in block `(interval(s), interval(d))`.
//! This is the interval-block layout of Fig. 1 and §3.4, and the only one
//! the simulator builds. The paper balances per-PU work by hashing vertices
//! to intervals (§4.3); no experiment here reads that variant, so it is not
//! modelled.

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::{Edge, VertexId};
use std::ops::Range;

/// Coordinates of one block in the P×P grid.
///
/// The fields are declared destination first, so the derived `Ord` is the
/// grid's column-major block order — by destination interval, then by
/// source interval. That is the order Algorithm 2 walks the blocks in (a PU
/// owns whole destination columns), and the one order a
/// [`GridGraph`](crate::GridGraph) stores and searches its blocks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Destination interval index.
    pub dst: u32,
    /// Source interval index.
    pub src: u32,
}

impl BlockId {
    /// Creates a block id.
    pub fn new(src: u32, dst: u32) -> Self {
        BlockId { src, dst }
    }
}

/// A partition of `num_vertices` vertices into `num_intervals` intervals of
/// contiguous ids: interval `i` holds `i·⌈V/P⌉ .. (i+1)·⌈V/P⌉`, clipped to
/// `V`, so the last interval may be shorter and any past `V` are empty.
///
/// ```
/// use hyve_graph::{IntervalPartition, VertexId};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let p = IntervalPartition::new(8, 4)?;
/// assert_eq!(p.interval_of(VertexId::new(5)), 2);
/// assert_eq!(p.interval_vertices(3), 6..8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalPartition {
    num_vertices: u32,
    num_intervals: u32,
    /// Ceiling of vertices per interval.
    stride: u32,
}

impl IntervalPartition {
    /// Creates a partition.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyGraph`] for zero vertices;
    /// [`GraphError::InvalidPartition`] when `num_intervals` is zero or
    /// exceeds the vertex count.
    pub fn new(num_vertices: u32, num_intervals: u32) -> Result<Self, GraphError> {
        if num_vertices == 0 {
            return Err(GraphError::EmptyGraph);
        }
        if num_intervals == 0 {
            return Err(GraphError::InvalidPartition {
                intervals: num_intervals,
                reason: "must be at least 1",
            });
        }
        if num_intervals > num_vertices {
            return Err(GraphError::InvalidPartition {
                intervals: num_intervals,
                reason: "more intervals than vertices",
            });
        }
        Ok(IntervalPartition {
            num_vertices,
            num_intervals,
            stride: num_vertices.div_ceil(num_intervals),
        })
    }

    /// Number of vertices covered.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.num_intervals
    }

    /// Interval that owns vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn interval_of(&self, v: VertexId) -> u32 {
        assert!(
            v.raw() < self.num_vertices,
            "vertex {v} out of range ({} vertices)",
            self.num_vertices
        );
        v.raw() / self.stride
    }

    /// Block of an edge.
    pub fn block_of(&self, e: &Edge) -> BlockId {
        BlockId::new(self.interval_of(e.src), self.interval_of(e.dst))
    }

    /// The raw ids of the vertices in interval `i`, in ascending order.
    pub fn interval_vertices(&self, i: u32) -> Range<u32> {
        debug_assert!(i < self.num_intervals);
        let start = i.saturating_mul(self.stride).min(self.num_vertices);
        start..start.saturating_add(self.stride).min(self.num_vertices)
    }
}

/// Block-occupancy statistics for a fixed block edge-capacity grid
/// (paper Table 1: 8×8-vertex blocks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Number of blocks containing at least one edge.
    pub non_empty_blocks: u64,
    /// Total edges counted.
    pub edges: u64,
    /// Average edges per non-empty block (the paper's `Navg`).
    pub avg_edges_per_block: f64,
    /// Largest edge count in any block.
    pub max_edges_per_block: u64,
}

/// Computes GraphR-style block sparsity: vertices are grouped in runs of
/// `block_dim` (GraphR: 8), and the grid of `(⌈V/8⌉)²` logical blocks is
/// scanned for occupancy. The edges are bucketed by source block row, and
/// each row's destination blocks are tallied in a row-wide scratch, so this
/// takes O(E + V/`block_dim`) time and memory and scales to the paper's
/// Twitter-sized grids.
///
/// ```
/// use hyve_graph::{block_sparsity, Edge, EdgeList};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(16, [Edge::new(0, 1), Edge::new(1, 0), Edge::new(9, 9)])?;
/// let s = block_sparsity(&g, 8);
/// assert_eq!(s.non_empty_blocks, 2);
/// assert_eq!(s.avg_edges_per_block, 1.5);
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `block_dim` is zero.
pub fn block_sparsity(g: &EdgeList, block_dim: u32) -> SparsityStats {
    assert!(block_dim > 0, "block dimension must be positive");
    let rows = g.num_vertices().div_ceil(block_dim) as usize;
    // dst_blocks[r]: the destination block of each edge in block row r.
    let mut dst_blocks = vec![Vec::new(); rows];
    for e in g.iter() {
        dst_blocks[(e.src.raw() / block_dim) as usize].push(e.dst.raw() / block_dim);
    }
    let (mut non_empty, mut max) = (0u64, 0u64);
    let mut count = vec![0u64; rows];
    let mut touched = Vec::new();
    for row in &dst_blocks {
        for &b in row {
            if count[b as usize] == 0 {
                touched.push(b);
            }
            count[b as usize] += 1;
        }
        non_empty += touched.len() as u64;
        for b in touched.drain(..) {
            max = max.max(std::mem::take(&mut count[b as usize]));
        }
    }
    let edges = g.len() as u64;
    SparsityStats {
        non_empty_blocks: non_empty,
        edges,
        avg_edges_per_block: if non_empty == 0 {
            0.0
        } else {
            edges as f64 / non_empty as f64
        },
        max_edges_per_block: max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contiguous(nv: u32, p: u32) -> IntervalPartition {
        IntervalPartition::new(nv, p).unwrap()
    }

    #[test]
    fn fig1_partitioning() {
        // 8 vertices into 4 intervals: I0={0,1} ... I3={6,7}.
        let p = contiguous(8, 4);
        assert_eq!(p.interval_of(VertexId::new(0)), 0);
        assert_eq!(p.interval_of(VertexId::new(1)), 0);
        assert_eq!(p.interval_of(VertexId::new(2)), 1);
        assert_eq!(p.interval_of(VertexId::new(7)), 3);
        // Edge e2.4 goes to B1.2, exactly as in the paper's example.
        let e = Edge::new(2, 4);
        assert_eq!(p.block_of(&e), BlockId::new(1, 2));
    }

    #[test]
    fn intervals_are_contiguous_ranges() {
        let p = contiguous(10, 3); // stride 4: [0..4), [4..8), [8..10)
        assert_eq!(p.interval_vertices(0), 0..4);
        assert_eq!(p.interval_vertices(1), 4..8);
        assert_eq!(p.interval_vertices(2), 8..10);
        // Stride 2 covers 10 vertices in five intervals; the sixth is empty.
        let p = contiguous(10, 6);
        assert_eq!(p.interval_vertices(5), 10..10);
    }

    #[test]
    fn interval_vertices_cover_everything_once() {
        let p = contiguous(23, 5);
        let mut seen = [false; 23];
        for i in 0..5 {
            for v in p.interval_vertices(i) {
                assert!(!seen[v as usize], "vertex {v} seen twice");
                seen[v as usize] = true;
                assert_eq!(p.interval_of(VertexId::new(v)), i);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn invalid_partitions_rejected() {
        assert!(matches!(
            IntervalPartition::new(0, 1),
            Err(GraphError::EmptyGraph)
        ));
        assert!(IntervalPartition::new(4, 0).is_err());
        assert!(IntervalPartition::new(4, 5).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn interval_of_out_of_range_panics() {
        let p = contiguous(4, 2);
        let _ = p.interval_of(VertexId::new(4));
    }

    #[test]
    fn sparsity_empty_graph() {
        let g = EdgeList::new(8);
        let s = block_sparsity(&g, 8);
        assert_eq!(s.non_empty_blocks, 0);
        assert_eq!(s.avg_edges_per_block, 0.0);
        assert_eq!(s.max_edges_per_block, 0);
    }

    #[test]
    fn sparsity_counts_blocks() {
        let g = EdgeList::from_edges(
            32,
            [
                Edge::new(0, 0),
                Edge::new(1, 2),
                Edge::new(7, 7),   // all three in block (0,0)
                Edge::new(8, 0),   // block (1,0)
                Edge::new(31, 31), // block (3,3)
            ],
        )
        .unwrap();
        let s = block_sparsity(&g, 8);
        assert_eq!(s.non_empty_blocks, 3);
        assert_eq!(s.edges, 5);
        assert!((s.avg_edges_per_block - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_edges_per_block, 3);
    }
}
