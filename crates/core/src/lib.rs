//! # hyve-core — the HyVE architecture simulator
//!
//! This crate implements the paper's contribution: the **Hybrid Vertex-Edge
//! memory hierarchy** (§3) and its execution engine:
//!
//! * [`SystemConfig`] — the memory-hierarchy configuration space the
//!   evaluation sweeps (acc+DRAM, acc+ReRAM, acc+SRAM+DRAM, HyVE,
//!   HyVE-opt; Fig. 16),
//! * [`HierarchyInstance`] — the memory hierarchy a configuration
//!   denotes, built straight from it: one [`Channel`] per level, each the
//!   one source of its costs (device models built **once** per session;
//!   the accounting passes write each run's [`EnergyBreakdown`]),
//! * [`SimulationSession`] — the simulator: a builder that checks the
//!   configuration once, constructs the hierarchy, and selects an
//!   [`ExecutionStrategy`] (sequential, or a deterministic thread fan-out
//!   over PUs); the session then simulates Algorithm 2's
//!   super-block scheduling (loading / assigning / rerouting / processing /
//!   synchronizing / updating, see [`engine`]), with per-edge pipelining
//!   per Eq. (1),
//! * [`Router`] — the N×N pipelined router that implements inter-PU data
//!   sharing (§4.2, Fig. 7),
//! * bank-level power gating of the nonvolatile edge memory (§4.1),
//! * [`RunReport`] — energy/time accounting with the Fig. 17 breakdown,
//! * [`trace`] — structured observability: typed [`TraceEvent`]s fed to a
//!   [`TraceSink`] attached via
//!   [`SessionBuilder::with_trace`](session::SessionBuilder::with_trace);
//!   the bundled sink is the [`TraceArtifact`] itself: the run's event
//!   list, in order, written and parsed as versioned JSONL and read back
//!   through a [`SharedRecorder`]. Zero-cost when disabled, and observation
//!   never perturbs accounting (golden reports are bit-identical either way),
//! * reliability — a deterministic seed-driven fault model
//!   ([`FaultPlan`], [`EccProfile`]) with ECC correction, bounded retry,
//!   and edge-bank sparing ([`BankSpareMap`]), surfaced as a
//!   [`ReliabilityReport`] on the run report; with the default
//!   [`FaultPlan::none`] the fault path is never entered and every report
//!   stays bit-identical to a fault-free build.
//!
//! ```
//! use hyve_core::{SimulationSession, SystemConfig};
//! use hyve_algorithms::PageRank;
//! use hyve_graph::DatasetProfile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = DatasetProfile::youtube_scaled().generate(1);
//! let session = SimulationSession::builder(SystemConfig::hyve_opt()).build()?;
//! let report = session.run_on_edge_list(&PageRank::new(5), &graph)?;
//! assert!(report.mteps_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
pub mod config;
pub mod controller;
pub mod engine;
pub mod error;
pub mod exec;
pub mod hierarchy;
pub mod pu;
pub mod router;
pub mod schedule;
pub mod session;
pub mod stats;
pub mod trace;

pub use config::{OffChipTech, SystemConfig};
pub use controller::{BankRemap, BankSpareMap};
pub use engine::PreprocessingReport;
pub use error::CoreError;
pub use exec::ExecutionStrategy;
pub use hierarchy::{Channel, HierarchyInstance};
pub use hyve_memsim::{EccProfile, FaultPlan};
pub use pu::ProcessingUnit;
pub use router::Router;
pub use schedule::{Assignment, SuperBlockSchedule};
pub use session::{SessionBuilder, SimulationSession};
pub use stats::{EnergyBreakdown, PhaseTimes, ReliabilityReport, RunReport};
pub use trace::{SharedRecorder, TraceArtifact, TraceChannel, TraceDiff, TraceEvent, TraceSink};
