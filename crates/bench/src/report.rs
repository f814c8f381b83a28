//! Shared reporting scaffolding for the experiment regenerators.
//!
//! Every `figNN`/`tableN` module repeated the same four pieces before this
//! module existed: the fixed-width table printer, compact float formatting,
//! geometric means, and the (algorithm × dataset) measurement grid built on
//! the benchmark session plumbing (dataset scaling + `HYVE_BENCH_THREADS`).
//! They live here once; each experiment module keeps only its workload and
//! the paper's expected values.

use crate::workloads::{configure, session, Algorithm};
use hyve_core::{RunReport, SystemConfig};
use hyve_graph::{DatasetProfile, EdgeList};
use std::fmt::Display;

/// Prints a fixed-width table: a header row then data rows.
pub fn print_table<H: Display, R: Display>(title: &str, headers: &[H], rows: &[Vec<R>]) {
    println!("\n== {title} ==");
    let header_line: Vec<String> = headers.iter().map(|h| format!("{h:>12}")).collect();
    println!("{}", header_line.join(" "));
    for row in rows {
        let line: Vec<String> = row.iter().map(|c| format!("{c:>12}")).collect();
        println!("{}", line.join(" "));
    }
}

/// Formats a float compactly for table cells.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Geometric mean of the values (`NaN` on an empty iterator, like the
/// per-figure implementations it replaces).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0f64, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    (sum / f64::from(n)).exp()
}

/// Prints a measured-vs-paper ratio headline: `label: 1.62x (paper: 1.53x)`.
pub fn vs_paper_ratio(label: &str, measured: f64, paper: f64) {
    println!("{label}: {measured:.2}x (paper: {paper}x)");
}

/// Prints a measured-vs-paper percentage headline:
/// `label: 54.0% (paper: 52.91%)`.
pub fn vs_paper_pct(label: &str, measured: f64, paper: f64) {
    println!("{label}: {measured:.1}% (paper: {paper}%)");
}

/// One (algorithm, dataset) measurement of the main evaluation grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRow {
    /// Algorithm tag.
    pub algorithm: &'static str,
    /// Dataset tag.
    pub dataset: &'static str,
    /// The figure's measured quantity (a ratio or MTEPS/W value).
    pub value: f64,
}

/// Sweeps `measure` over every (dataset, algorithm) pair of the main
/// evaluation grid — Table 2's datasets × {BFS, CC, PR} — in the row order
/// all per-dataset figures share.
pub fn core_grid(
    mut measure: impl FnMut(Algorithm, &DatasetProfile, &EdgeList) -> f64,
) -> Vec<GridRow> {
    let mut rows = Vec::new();
    for (profile, graph) in crate::workloads::datasets() {
        for alg in Algorithm::core_three() {
            rows.push(GridRow {
                algorithm: alg.tag(),
                dataset: profile.tag,
                value: measure(alg, profile, graph),
            });
        }
    }
    rows
}

/// Runs one algorithm under one configuration: applies the profile's
/// dataset scale and builds the session under the benchmark execution
/// strategy (`HYVE_BENCH_THREADS`). The single funnel every
/// configuration-grid experiment measures through.
pub fn measure(
    cfg: SystemConfig,
    alg: Algorithm,
    profile: &DatasetProfile,
    graph: &EdgeList,
) -> RunReport {
    alg.run_hyve(&session(configure(cfg, profile)), profile, graph)
}

/// Prints a [`GridRow`] table with the shared alg/dataset columns.
pub fn print_grid(title: &str, value_header: &str, rows: &[GridRow]) {
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.algorithm.to_string(),
                r.dataset.to_string(),
                fmt_f(r.value),
            ]
        })
        .collect();
    print_table(title, &["alg", "dataset", value_header], &cells);
}

/// Geometric mean of the rows carrying the given algorithm tag.
pub fn geomean_by_algorithm(rows: &[GridRow], tag: &str) -> f64 {
    geomean(rows.iter().filter(|r| r.algorithm == tag).map(|r| r.value))
}

/// Geometric mean across all rows.
pub fn overall_geomean(rows: &[GridRow]) -> f64 {
    geomean(rows.iter().map(|r| r.value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12, "got {g}");
        assert!(geomean([]).is_nan());
    }

    #[test]
    fn grid_helpers_filter_by_algorithm() {
        let rows = vec![
            GridRow {
                algorithm: "PR",
                dataset: "YT",
                value: 2.0,
            },
            GridRow {
                algorithm: "PR",
                dataset: "WK",
                value: 8.0,
            },
            GridRow {
                algorithm: "BFS",
                dataset: "YT",
                value: 100.0,
            },
        ];
        assert!((geomean_by_algorithm(&rows, "PR") - 4.0).abs() < 1e-12);
        assert!((overall_geomean(&rows) - (2.0f64 * 8.0 * 100.0).cbrt()).abs() < 1e-9);
    }

    #[test]
    fn fmt_f_ranges() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(123.4), "123");
        assert_eq!(fmt_f(1.234), "1.23");
        assert_eq!(fmt_f(0.1234), "0.123");
    }
}
