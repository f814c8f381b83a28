//! Dynamic-graph support over GraphR's fine-grained layout (§7.4.2).
//!
//! The same four mutations HyVE supports (§5), applied to the sparse 8×8
//! block map. Each edge mutation must locate its block in the associative
//! structure (hash + possible allocation) and vertex removals touch a whole
//! row/column stripe of tiny blocks — the addressing overhead behind
//! GraphR's ~8× lower update throughput in Fig. 20.

use crate::engine::BLOCK_DIM;
use crate::preprocess::{preprocess, GraphrLayout};
use hyve_graph::{EdgeList, GraphError, Mutation, MutationOutcome, VertexId};

/// A GraphR layout with dynamic-update support.
#[derive(Debug, Clone)]
pub struct GraphrDynamic {
    layout: GraphrLayout,
    tombstones: Vec<bool>,
    degrees: Vec<u32>,
    edges_changed: u64,
}

impl GraphrDynamic {
    /// Builds the dynamic structure from an edge list (runs GraphR
    /// preprocessing).
    pub fn new(graph: &EdgeList) -> Self {
        let layout = preprocess(graph);
        let tombstones = vec![false; layout.num_vertices() as usize];
        let mut degrees = vec![0u32; layout.num_vertices() as usize];
        for e in graph.iter() {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        }
        GraphrDynamic {
            layout,
            tombstones,
            degrees,
            edges_changed: 0,
        }
    }

    /// The current layout.
    pub fn layout(&self) -> &GraphrLayout {
        &self.layout
    }

    /// Total edges changed by mutations (Fig. 20's throughput unit).
    pub fn edges_changed(&self) -> u64 {
        self.edges_changed
    }

    /// True if a vertex has been deleted.
    pub fn is_tombstoned(&self, v: VertexId) -> bool {
        self.tombstones.get(v.index()).copied().unwrap_or(false)
    }

    /// Applies one mutation.
    ///
    /// # Errors
    ///
    /// [`GraphError::MutationFailed`] for out-of-range vertices, adding an
    /// edge to a deleted vertex or removing a nonexistent edge — the same
    /// requests [`DynamicGrid`](hyve_graph::DynamicGrid) rejects.
    pub fn apply(&mut self, m: Mutation) -> Result<MutationOutcome, GraphError> {
        match m {
            Mutation::AddEdge(e) => {
                self.check(e.src.raw())?;
                self.check(e.dst.raw())?;
                // As in HyVE (§5): a deleted vertex keeps degree 0.
                for v in [e.src, e.dst] {
                    if self.is_tombstoned(v) {
                        return Err(GraphError::MutationFailed {
                            message: format!("vertex {} is deleted", v.raw()),
                        });
                    }
                }
                let block = self
                    .layout
                    .blocks_mut()
                    .entry((e.src.raw() / BLOCK_DIM, e.dst.raw() / BLOCK_DIM))
                    .or_default();
                crate::preprocess::insert_sorted(block, e);
                self.layout.adjust_edge_count(1);
                self.degrees[e.src.index()] += 1;
                self.degrees[e.dst.index()] += 1;
                self.edges_changed += 1;
                Ok(MutationOutcome::InPlace)
            }
            Mutation::RemoveEdge { src, dst } => {
                self.check(src)?;
                self.check(dst)?;
                let key = (src / BLOCK_DIM, dst / BLOCK_DIM);
                let removed = match self.layout.blocks_mut().get_mut(&key) {
                    Some(block) => {
                        match block
                            .iter()
                            .position(|e| e.src.raw() == src && e.dst.raw() == dst)
                        {
                            Some(pos) => {
                                // Sorted blocks shift on removal.
                                block.remove(pos);
                                if block.is_empty() {
                                    self.layout.blocks_mut().remove(&key);
                                }
                                true
                            }
                            None => false,
                        }
                    }
                    None => false,
                };
                if removed {
                    self.layout.adjust_edge_count(-1);
                    self.degrees[src as usize] = self.degrees[src as usize].saturating_sub(1);
                    self.degrees[dst as usize] = self.degrees[dst as usize].saturating_sub(1);
                    self.edges_changed += 1;
                    Ok(MutationOutcome::InPlace)
                } else {
                    Err(GraphError::MutationFailed {
                        message: format!("edge {src}->{dst} not present"),
                    })
                }
            }
            Mutation::AddVertex => {
                // The fine-grained grid gains a row/column stripe of logical
                // blocks — nothing materialises until edges arrive.
                let nv = self.layout.num_vertices() + 1;
                self.layout.set_num_vertices(nv);
                self.tombstones.push(false);
                self.degrees.push(0);
                Ok(MutationOutcome::InPlace)
            }
            Mutation::RemoveVertex(v) => {
                self.check(v.raw())?;
                self.tombstones[v.index()] = true;
                // Same §5 strategy applied to GraphR: tombstone the value,
                // count the incident edges as changed.
                self.edges_changed += u64::from(self.degrees[v.index()]);
                self.degrees[v.index()] = 0;
                Ok(MutationOutcome::VertexTombstoned)
            }
        }
    }

    fn check(&self, v: u32) -> Result<(), GraphError> {
        if v >= self.layout.num_vertices() {
            return Err(GraphError::MutationFailed {
                message: format!(
                    "vertex {v} out of range ({} vertices)",
                    self.layout.num_vertices()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_graph::Edge;

    fn make() -> GraphrDynamic {
        let g = EdgeList::from_edges(32, [Edge::new(0, 9), Edge::new(1, 9), Edge::new(20, 30)])
            .unwrap();
        GraphrDynamic::new(&g)
    }

    #[test]
    fn add_and_remove_edges() {
        let mut d = make();
        d.apply(Mutation::AddEdge(Edge::new(5, 6))).unwrap();
        assert_eq!(d.layout().num_edges(), 4);
        d.apply(Mutation::RemoveEdge { src: 5, dst: 6 }).unwrap();
        assert_eq!(d.layout().num_edges(), 3);
        assert!(d.apply(Mutation::RemoveEdge { src: 5, dst: 6 }).is_err());
        assert_eq!(d.edges_changed(), 2);
    }

    #[test]
    fn empty_blocks_are_pruned() {
        let mut d = make();
        d.apply(Mutation::RemoveEdge { src: 20, dst: 30 }).unwrap();
        assert!(d.layout().block(2, 3).is_none());
    }

    #[test]
    fn vertex_lifecycle() {
        let mut d = make();
        d.apply(Mutation::AddVertex).unwrap();
        assert_eq!(d.layout().num_vertices(), 33);
        d.apply(Mutation::RemoveVertex(VertexId::new(9))).unwrap();
        assert!(d.is_tombstoned(VertexId::new(9)));
        // Tombstoning counts 0->9 and 1->9 as changed edges.
        assert_eq!(d.edges_changed(), 2);
    }

    #[test]
    fn add_edge_to_deleted_vertex_is_rejected() {
        let mut d = make();
        d.apply(Mutation::RemoveVertex(VertexId::new(9))).unwrap();
        assert!(d.apply(Mutation::AddEdge(Edge::new(9, 2))).is_err());
        assert!(d.apply(Mutation::AddEdge(Edge::new(2, 9))).is_err());
        assert_eq!(d.layout().num_edges(), 3);
        assert_eq!(d.edges_changed(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = make();
        assert!(d.apply(Mutation::AddEdge(Edge::new(0, 99))).is_err());
        assert!(d.apply(Mutation::RemoveVertex(VertexId::new(99))).is_err());
    }
}
