//! One-stop imports for HyVE applications.
//!
//! ```
//! use hyve::prelude::*;
//!
//! # fn main() -> Result<(), CoreError> {
//! let graph = DatasetProfile::youtube_scaled().generate(42);
//! let session = SimulationSession::builder(SystemConfig::hyve_opt())
//!     .parallel(4)
//!     .build()?;
//! let report = session.run_on_edge_list(&PageRank::new(5), &graph)?;
//! assert!(report.mteps_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use hyve_algorithms::{
    Bfs, ConnectedComponents, EdgeProgram, ExecutionMode, IterationBound, PageRank, SpMv, Sssp,
};
pub use hyve_core::{
    BankRemap, CoreError, EccProfile, EnergyBreakdown, ExecutionStrategy, FaultPlan,
    HierarchyInstance, OffChipTech, PhaseTimes, ReliabilityReport, RunReport, SessionBuilder,
    SharedRecorder, SimulationSession, SystemConfig, TraceArtifact, TraceChannel, TraceDiff,
    TraceEvent, TraceSink,
};
pub use hyve_graph::{
    BlockId, DatasetProfile, DynamicGrid, Edge, EdgeList, GraphError, GridGraph, Mutation,
    MutationOutcome, Rmat, VertexId,
};
pub use hyve_memsim::DeviceError;
