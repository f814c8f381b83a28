//! GraphR's fine-grained preprocessing: cutting a graph into 8×8 blocks.
//!
//! HyVE partitions into at most a few thousand intervals (two counting-sort
//! passes over interval indices); GraphR needs `⌈V/8⌉²` logical blocks — billions
//! for the paper's graphs — so only non-empty blocks can be materialised,
//! through a sorted associative index with per-edge lookup cost and sorted
//! intra-block inserts (crossbar row order). That addressing overhead is
//! exactly what Fig. 12 shows exploding past 32×32 blocks and what makes
//! GraphR's preprocessing 6.73× slower (Fig. 19).

use crate::engine::BLOCK_DIM;
use hyve_graph::{Edge, EdgeList};
use std::collections::BTreeMap;

/// GraphR's sparse block layout: only non-empty 8×8 blocks exist, kept in
/// a sorted associative index (the crossbar scheduler consumes blocks in
/// order, and every access pays the addressing cost §6.5 describes).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphrLayout {
    blocks: BTreeMap<(u32, u32), Vec<Edge>>,
    num_vertices: u32,
    num_edges: u64,
}

impl GraphrLayout {
    /// Number of non-empty blocks.
    pub fn non_empty_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges across all blocks.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Average edges per non-empty block (Table 1's `Navg`).
    pub fn navg(&self) -> f64 {
        if self.blocks.is_empty() {
            0.0
        } else {
            self.num_edges as f64 / self.blocks.len() as f64
        }
    }

    /// The edges of one block, if it is non-empty.
    pub fn block(&self, bx: u32, by: u32) -> Option<&[Edge]> {
        self.blocks.get(&(bx, by)).map(Vec::as_slice)
    }

    /// Iterates over `(coords, edges)` of non-empty blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &Vec<Edge>)> {
        self.blocks.iter()
    }

    pub(crate) fn blocks_mut(&mut self) -> &mut BTreeMap<(u32, u32), Vec<Edge>> {
        &mut self.blocks
    }

    pub(crate) fn adjust_edge_count(&mut self, delta: i64) {
        self.num_edges = self.num_edges.wrapping_add_signed(delta);
    }

    pub(crate) fn set_num_vertices(&mut self, nv: u32) {
        self.num_vertices = nv;
    }
}

/// Builds the GraphR 8×8 block layout from an edge list.
///
/// ```
/// use hyve_graph::{Edge, EdgeList};
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(16, [Edge::new(0, 9), Edge::new(1, 9)])?;
/// let layout = hyve_graphr::preprocess(&g);
/// assert_eq!(layout.non_empty_blocks(), 1); // both edges in block (0,1)
/// assert_eq!(layout.navg(), 2.0);
/// # Ok(())
/// # }
/// ```
pub fn preprocess(g: &EdgeList) -> GraphrLayout {
    let mut blocks: BTreeMap<(u32, u32), Vec<Edge>> = BTreeMap::new();
    for e in g.iter() {
        let block = blocks
            .entry((e.src.raw() / BLOCK_DIM, e.dst.raw() / BLOCK_DIM))
            .or_default();
        insert_sorted(block, *e);
    }
    GraphrLayout {
        blocks,
        num_vertices: g.num_vertices(),
        num_edges: g.len() as u64,
    }
}

/// Keeps a block's edges sorted by (src, dst) — the order the 8×8 crossbar
/// rows are programmed in.
pub(crate) fn insert_sorted(block: &mut Vec<Edge>, e: Edge) {
    let key = (e.src.raw(), e.dst.raw());
    let pos = block.partition_point(|x| (x.src.raw(), x.dst.raw()) <= key);
    block.insert(pos, e);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_graph::DatasetProfile;

    #[test]
    fn layout_preserves_edges() {
        let g = DatasetProfile::youtube_scaled().generate(5);
        let layout = preprocess(&g);
        assert_eq!(layout.num_edges(), g.len() as u64);
        let total: usize = layout.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total as u64, layout.num_edges());
        assert_eq!(layout.num_vertices(), g.num_vertices());
    }

    #[test]
    fn navg_matches_block_sparsity() {
        let g = DatasetProfile::as_skitter_scaled().generate(5);
        let layout = preprocess(&g);
        let stats = hyve_graph::block_sparsity(&g, BLOCK_DIM);
        assert!((layout.navg() - stats.avg_edges_per_block).abs() < 1e-12);
        assert_eq!(layout.non_empty_blocks() as u64, stats.non_empty_blocks);
    }

    #[test]
    fn navg_in_table1_range_for_skewed_graphs() {
        // Table 1: 1.23–2.38 average edges per non-empty block.
        for p in DatasetProfile::all_small() {
            let layout = preprocess(&p.generate(1));
            let navg = layout.navg();
            assert!(
                navg > 1.0 && navg < 4.0,
                "{}: navg {navg} outside the sparse regime",
                p.tag
            );
        }
    }

    #[test]
    fn block_lookup() {
        let g = EdgeList::from_edges(16, [Edge::new(0, 9)]).unwrap();
        let layout = preprocess(&g);
        assert!(layout.block(0, 1).is_some());
        assert!(layout.block(1, 1).is_none());
    }

    #[test]
    fn empty_graph_layout() {
        let layout = preprocess(&EdgeList::new(8));
        assert_eq!(layout.non_empty_blocks(), 0);
        assert_eq!(layout.navg(), 0.0);
    }
}
