//! # hyve-memsim — device-level memory models for the HyVE reproduction
//!
//! This crate is the device substrate of the HyVE simulator. It provides
//! parametric energy/latency/leakage models for every memory technology the
//! paper's hybrid hierarchy touches:
//!
//! * [`ReramChip`] — resistive RAM main memory organised as banks of crossbar
//!   *mats* (paper Fig. 3), with single- and multi-level cells, energy- or
//!   latency-optimized bank configurations (paper Table 3) and sub-bank
//!   interleaving,
//! * [`DramChip`] — a DDR4-style model with IDD-derived activate / read /
//!   write / refresh / background energy (the paper used the Micron power
//!   calculator),
//! * [`SramArray`] — on-chip SRAM scaled from the paper's CACTI/NVSim anchor
//!   points (2 MB: 960.03 ps & 23.84 pJ per 32-bit read),
//! * [`RegisterFile`] — the small fast storage GraphR uses for local vertices,
//! * [`BankPowerGating`] — the bank-level power-gating controller of §4.1,
//!   in closed form, with [`GatingTracker`] as its event-driven reference,
//! * [`FaultPlan`] / [`EccProfile`] — deterministic, seed-driven fault
//!   injection and error-correction models for the reliability layer.
//!
//! The crate prices single operations only. Whole runs are costed by
//! `hyve-core`'s channels, which add the chip count and the ECC overhead
//! on top of these per-operation costs.
//!
//! All quantities use the explicit unit newtypes in [`units`]
//! ([`Energy`], [`Time`], [`Power`]) so that picojoules are never added to
//! nanoseconds by accident.
//!
//! ## Example
//!
//! ```
//! use hyve_memsim::{ReramChip, ReramChipConfig, MemoryDevice};
//!
//! let chip = ReramChip::new(ReramChipConfig::default());
//! // A 512-bit sequential read burst out of the energy-optimized bank:
//! let e = chip.read_energy(512);
//! let t = chip.read_latency();
//! assert!(e.as_pj() > 0.0 && t.as_ns() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod counters;
pub mod device;
pub mod dram;
pub mod error;
pub mod faults;
pub mod power_gating;
pub mod regfile;
pub mod reram;
pub mod sram;
pub mod units;

pub use cell::{CellBits, ReramCellParams};
pub use counters::AccessStats;
pub use device::{DeviceKind, MemoryDevice};
pub use dram::{DramChip, DramChipConfig, DramTimings};
pub use error::DeviceError;
pub use faults::{expected_count, mlc_ber_factor, EccProfile, FaultPlan, FaultRng};
pub use power_gating::{BankPowerGating, GatingTracker, PowerGatingConfig, PowerGatingReport};
pub use regfile::RegisterFile;
pub use reram::{OptimizationTarget, ReramBankProfile, ReramChip, ReramChipConfig};
pub use sram::{SramArray, SramConfig};
pub use units::{Energy, EnergyDelay, Power, Time};
