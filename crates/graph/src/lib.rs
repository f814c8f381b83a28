//! # hyve-graph — graph substrate for the HyVE reproduction
//!
//! Everything the HyVE simulator needs to hold and shape graphs:
//!
//! * [`EdgeList`] / [`Csr`] — basic containers,
//! * [`GridGraph`] — the interval-block (P×P) partitioning of §2.1/Fig. 1
//!   over contiguous vertex intervals, built in O(E + V + P) by one stable
//!   counting sort and stored as §3.4's contiguous edge stream: one array
//!   of [`Edge`]s over the non-empty blocks only, so memory and walks are
//!   O(E + non-empty blocks + P) rather than O(P²),
//! * [`DynamicGrid`] — the O(1) add/delete working flow for evolving graphs
//!   (§5), with per-block reserved slack for the blocks that hold or have
//!   held edges and a lazily rebuilt [`GridGraph`] snapshot,
//! * [`generate`] — the R-MAT generator,
//! * [`DatasetProfile`] — scaled-down stand-ins for the paper's five SNAP
//!   datasets (YT, WK, AS, LJ, TW) preserving |E|/|V| ratio and skew,
//! * [`io`] — SNAP-style text edge-list parsing.
//!
//! ## Example
//!
//! ```
//! use hyve_graph::{DatasetProfile, GridGraph};
//!
//! # fn main() -> Result<(), hyve_graph::GraphError> {
//! let edges = DatasetProfile::youtube_scaled().generate(7);
//! let grid = GridGraph::partition(&edges, 8)?;
//! assert_eq!(grid.num_blocks(), 64);
//! assert_eq!(grid.num_edges(), edges.len() as u64);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod datasets;
pub mod dynamic;
pub mod edgelist;
pub mod error;
pub mod generate;
pub mod grid;
pub mod io;
pub mod partition;
pub mod stats;
pub mod types;

pub use csr::Csr;
pub use datasets::DatasetProfile;
pub use dynamic::{DynamicGrid, Mutation, MutationOutcome};
pub use edgelist::EdgeList;
pub use error::GraphError;
pub use generate::Rmat;
pub use grid::GridGraph;
pub use partition::{block_sparsity, BlockId, IntervalPartition, SparsityStats};
pub use stats::DegreeStats;
pub use types::{Edge, VertexId};
