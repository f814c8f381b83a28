//! Ablation study: each of HyVE's design choices toggled one at a time
//! against the full `acc+HyVE-opt` baseline, quantifying what every
//! decision contributes (the DESIGN.md extension beyond the paper's own
//! figures, which only ablate sharing and gating).

use crate::report;
use crate::workloads::{datasets, Algorithm};
use hyve_core::SystemConfig;
use hyve_memsim::CellBits;

/// One ablation: a named change from the baseline and its relative effect.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What was changed.
    pub variant: &'static str,
    /// Dataset tag.
    pub dataset: &'static str,
    /// MTEPS/W of the variant divided by the baseline's — < 1 means the
    /// ablated feature was contributing.
    pub relative_efficiency: f64,
    /// Elapsed time of the variant over the baseline's.
    pub relative_time: f64,
}

/// A named configuration transformer.
type Variant = (&'static str, fn(SystemConfig) -> SystemConfig);

/// The ablation variants: (name, configuration transformer).
fn variants() -> Vec<Variant> {
    vec![
        ("- data sharing", |c| c.with_data_sharing(false)),
        ("- power gating", |c| c.with_power_gating(false)),
        ("- ReRAM edges (DRAM)", |c| SystemConfig {
            edge_memory: hyve_core::OffChipTech::Dram,
            power_gating: false, // gating needs nonvolatile edges
            ..c
        }),
        ("- DRAM vertices (ReRAM)", |c| SystemConfig {
            offchip_vertex: hyve_core::OffChipTech::Reram,
            ..c
        }),
        ("- SLC cells (3-bit MLC)", |c| {
            c.with_cell_bits(CellBits::Mlc3)
        }),
        ("- SRAM headroom (16 MB)", |c| c.with_sram_mb(16)),
        ("- PU parallelism (2 PUs)", |c| c.with_num_pus(2)),
    ]
}

/// Runs the ablation grid with PageRank.
pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for (profile, graph) in datasets() {
        let baseline = report::measure(SystemConfig::hyve_opt(), Algorithm::Pr, profile, graph);
        for (name, transform) in variants() {
            let cfg = transform(SystemConfig::hyve_opt());
            let report = report::measure(cfg, Algorithm::Pr, profile, graph);
            rows.push(Row {
                variant: name,
                dataset: profile.tag,
                relative_efficiency: report.mteps_per_watt() / baseline.mteps_per_watt(),
                relative_time: report.elapsed() / baseline.elapsed(),
            });
        }
    }
    rows
}

/// Geometric-mean relative efficiency per variant.
pub fn mean_by_variant(rows: &[Row]) -> Vec<(&'static str, f64)> {
    variants()
        .iter()
        .map(|(name, _)| {
            let gm = report::geomean(
                rows.iter()
                    .filter(|r| r.variant == *name)
                    .map(|r| r.relative_efficiency),
            );
            (*name, gm)
        })
        .collect()
}

/// Prints the ablation table.
pub fn print() {
    let rows = run();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                r.dataset.to_string(),
                report::fmt_f(r.relative_efficiency),
                report::fmt_f(r.relative_time),
            ]
        })
        .collect();
    report::print_table(
        "Ablation: each design choice removed from acc+HyVE-opt (PR)",
        &["variant", "dataset", "rel MTEPS/W", "rel time"],
        &cells,
    );
    println!("\nper-variant mean efficiency (1.0 = no contribution):");
    for (name, mean) in mean_by_variant(&rows) {
        println!("{name:<26} {mean:.3}");
    }
    println!(
        "\nnote: 'DRAM vertices -> ReRAM' can exceed 1.0 at large partition\n         counts — exactly the §6.3/Fig. 10 crossover (read-dominated global\n         vertex traffic favours ReRAM); HyVE's DRAM choice targets the\n         few-partition regime and write bandwidth."
    );
}
