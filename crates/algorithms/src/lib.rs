//! # hyve-algorithms — edge-centric graph programs
//!
//! The five algorithms the paper evaluates (PR, BFS, CC, SSSP, SpMV — §7.1,
//! §7.4.3) expressed against the [`EdgeProgram`] trait, which captures the
//! edge-centric GAS specialisation of §2.1: iterate over edges, update each
//! destination from its source, with either *accumulating* (PR/SpMV) or
//! *monotone* (BFS/CC/SSSP) merge semantics.
//!
//! [`mod@reference`] holds straightforward sequential implementations used to
//! validate whatever an engine (HyVE, GraphR, CPU) computes.
//!
//! ```
//! use hyve_algorithms::{EdgeProgram, GraphMeta, PageRank};
//! use hyve_graph::DatasetProfile;
//!
//! let graph = DatasetProfile::youtube_scaled().generate(1);
//! let meta = GraphMeta::from_edge_list(&graph);
//! let pr = PageRank::new(10);
//! let ranks = hyve_algorithms::run_in_memory(&pr, graph.edges(), &meta).values;
//! assert_eq!(ranks.len(), graph.num_vertices() as usize);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod degree;
pub mod pagerank;
pub mod program;
pub mod reference;
pub mod spmv;
pub mod sssp;

pub use bfs::Bfs;
pub use cc::ConnectedComponents;
pub use degree::{DegreeCentrality, DegreeKind};
pub use pagerank::PageRank;
pub use program::{
    registers_change, run_in_memory, EdgeProgram, ExecutionMode, GraphMeta, InMemoryRun,
    IterationBound,
};
pub use spmv::SpMv;
pub use sssp::Sssp;
