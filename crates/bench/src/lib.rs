//! # hyve-bench — experiment harness for the HyVE reproduction
//!
//! One module per table and figure of the paper's evaluation. Each
//! experiment returns structured rows so the `all_experiments` driver and
//! the tests share one implementation; the driver runs every artifact, or
//! only those named on its command line
//! (`cargo run -p hyve-bench --release --bin all_experiments -- fig21 table4`).
//!
//! | paper artifact | module | driver name |
//! |---|---|---|
//! | Table 1 (Navg) | [`experiments::table1`] | `table1` |
//! | Table 3 (bank configs) | [`experiments::table3`] | `table3` |
//! | Table 4 (SRAM sweep) | [`experiments::table4`] | `table4` |
//! | Fig. 9 (edge storage) | [`experiments::fig09`] | `fig09` |
//! | Fig. 10 (global vertex EDP) | [`experiments::fig10`] | `fig10` |
//! | Fig. 11 (vertex storage) | [`experiments::fig11`] | `fig11` |
//! | Fig. 12 (preprocessing vs P) | [`experiments::fig12`] | `fig12` |
//! | Fig. 13 (cell bits) | [`experiments::fig13`] | `fig13` |
//! | Fig. 14 (data sharing) | [`experiments::fig14`] | `fig14` |
//! | Fig. 15 (power gating) | [`experiments::fig15`] | `fig15` |
//! | Fig. 16 (config comparison) | [`experiments::fig16`] | `fig16` |
//! | Fig. 17 (energy breakdown) | [`experiments::fig17`] | `fig17` |
//! | Fig. 18 (absolute performance) | [`experiments::fig18`] | `fig18` |
//! | Fig. 19 (preprocessing time) | [`experiments::fig19`] | `fig19` |
//! | Fig. 20 (dynamic throughput) | [`experiments::fig20`] | `fig20` |
//! | Fig. 21 (GraphR comparison) | [`experiments::fig21`] | `fig21` |
//! | Ablation (extension) | [`experiments::ablation`] | `ablation` |
//!
//! With no names, `cargo run -p hyve-bench --release --bin all_experiments`
//! regenerates everything in sequence.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{fmt_f, print_table};
