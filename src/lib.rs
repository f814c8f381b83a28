//! # HyVE — Hybrid Vertex-Edge Memory Hierarchy (reproduction)
//!
//! Facade crate re-exporting the whole HyVE reproduction workspace:
//!
//! * [`memsim`] — device models (ReRAM / DRAM / SRAM / register file,
//!   bank-level power gating),
//! * [`graph`] — graph substrate (edge lists, interval-block grids, R-MAT
//!   generators, dynamic updates),
//! * [`core`] — the HyVE architecture simulator (controller, processing
//!   units, super-block scheduler, energy accounting),
//! * [`algorithms`] — edge-centric graph programs (PageRank, BFS, CC, SSSP,
//!   SpMV) with sequential references,
//! * [`graphr`] — the GraphR crossbar-PIM baseline,
//! * [`baselines`] — CPU+DRAM analytic baselines,
//! * [`model`] — the paper's §6 analytic energy/delay model.
//!
//! ## Quickstart
//!
//! ```
//! use hyve::prelude::*;
//!
//! # fn main() -> Result<(), CoreError> {
//! let edges = DatasetProfile::youtube_scaled().generate(42);
//! let session = SimulationSession::builder(SystemConfig::hyve_opt()).build()?;
//! let report = session.run_on_edge_list(&PageRank::new(5), &edges)?;
//! println!("PR on scaled YT: {:.1} MTEPS/W", report.mteps_per_watt());
//! # Ok(())
//! # }
//! ```

pub mod prelude;

pub use hyve_algorithms as algorithms;
pub use hyve_baselines as baselines;
pub use hyve_core as core;
pub use hyve_graph as graph;
pub use hyve_graphr as graphr;
pub use hyve_memsim as memsim;
pub use hyve_model as model;
