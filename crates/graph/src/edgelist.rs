//! The [`EdgeList`] container — the on-disk / pre-partitioning form of a
//! graph, matching the edge-centric model's view of "a big array of edges".

use crate::error::GraphError;
use crate::types::Edge;

/// An edge list with a declared vertex count.
///
/// ```
/// use hyve_graph::{Edge, EdgeList};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let mut g = EdgeList::new(4);
/// g.try_push(Edge::new(0, 1))?;
/// g.try_push(Edge::new(1, 2))?;
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.out_degrees()[0], 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EdgeList {
    num_vertices: u32,
    edges: Vec<Edge>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: u32) -> Self {
        EdgeList {
            num_vertices,
            edges: Vec::new(),
        }
    }

    /// Takes ownership of `edges` without copying or validating them; the
    /// caller guarantees every endpoint is below `num_vertices`.
    pub(crate) fn from_vec(num_vertices: u32, edges: Vec<Edge>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|e| e.src.raw() < num_vertices && e.dst.raw() < num_vertices));
        EdgeList {
            num_vertices,
            edges,
        }
    }

    /// Builds an edge list from an iterator, validating vertex ranges.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if any endpoint is ≥ `num_vertices`.
    pub fn from_edges<I>(num_vertices: u32, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut list = EdgeList::new(num_vertices);
        for e in edges {
            list.try_push(e)?;
        }
        Ok(list)
    }

    /// Appends an edge, validating its endpoints.
    ///
    /// # Errors
    ///
    /// [`GraphError::VertexOutOfRange`] if an endpoint is ≥ the vertex count.
    pub fn try_push(&mut self, e: Edge) -> Result<(), GraphError> {
        for v in [e.src, e.dst] {
            if v.raw() >= self.num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v.raw(),
                    num_vertices: self.num_vertices,
                });
            }
        }
        self.edges.push(e);
        Ok(())
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges as a slice.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> std::slice::Iter<'_, Edge> {
        self.edges.iter()
    }

    /// Average edges per vertex.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.edges.len() as f64 / f64::from(self.num_vertices)
        }
    }

    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src.index()] += 1;
        }
        deg
    }
}

impl<'a> IntoIterator for &'a EdgeList {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

impl Extend<Edge> for EdgeList {
    /// Extends without validation — callers who need range checking should
    /// use [`EdgeList::try_push`].
    fn extend<I: IntoIterator<Item = Edge>>(&mut self, iter: I) {
        self.edges.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeList {
        // The paper's Fig. 1 example graph: 8 vertices, 11 edges.
        EdgeList::from_edges(
            8,
            [
                (1, 0),
                (0, 7),
                (2, 3),
                (2, 4),
                (3, 4),
                (3, 7),
                (4, 1),
                (4, 5),
                (6, 2),
                (6, 0),
                (7, 1),
            ]
            .into_iter()
            .map(|(s, d)| Edge::new(s, d)),
        )
        .unwrap()
    }

    #[test]
    fn fig1_graph_counts() {
        let g = sample();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.len(), 11);
        assert!(!g.is_empty());
        assert!((g.avg_degree() - 11.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn degrees_match_fig1() {
        let g = sample();
        let out = g.out_degrees();
        assert_eq!(out, vec![1, 1, 2, 2, 2, 0, 2, 1]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = EdgeList::new(3);
        assert_eq!(
            g.try_push(Edge::new(0, 3)),
            Err(GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            })
        );
        assert!(g.try_push(Edge::new(2, 0)).is_ok());
    }

    #[test]
    fn iteration() {
        let g = sample();
        assert_eq!((&g).into_iter().count(), 11);
    }

    #[test]
    fn degenerate_empty() {
        let g = EdgeList::new(0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.is_empty());
    }
}
