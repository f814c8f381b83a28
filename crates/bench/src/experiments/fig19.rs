//! Fig. 19: preprocessing-time ratio GraphR/HyVE (paper: 6.73× on average).
//!
//! Both preprocessors are real code paths measured by wall clock: HyVE's
//! counting sort into its planned P×P grid versus GraphR's
//! associative build of `⌈V/8⌉²` logical 8×8 blocks.

use crate::report;
use crate::workloads::{configure, datasets, session};
use hyve_algorithms::PageRank;
use hyve_core::SystemConfig;
use hyve_graph::GridGraph;
use std::time::Instant;

/// One dataset's preprocessing-time ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dataset tag.
    pub dataset: &'static str,
    /// HyVE preprocessing time (seconds).
    pub hyve_s: f64,
    /// GraphR preprocessing time (seconds).
    pub graphr_s: f64,
    /// GraphR / HyVE ratio.
    pub ratio: f64,
}

fn best_of<F: FnMut()>(mut f: F) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures both preprocessors for every dataset.
pub fn run() -> Vec<Row> {
    datasets()
        .iter()
        .map(|(profile, graph)| {
            let engine = session(configure(SystemConfig::hyve(), profile));
            let p = engine.plan_intervals(&PageRank::new(10), graph.num_vertices());
            let hyve_s = best_of(|| {
                let grid = GridGraph::partition(graph, p).expect("partition");
                assert_eq!(grid.num_edges(), graph.len() as u64);
            });
            let graphr_s = best_of(|| {
                let layout = hyve_graphr::preprocess(graph);
                assert_eq!(layout.num_edges(), graph.len() as u64);
            });
            Row {
                dataset: profile.tag,
                hyve_s,
                graphr_s,
                ratio: graphr_s / hyve_s,
            }
        })
        .collect()
}

/// Prints the figure's series.
pub fn print() {
    let rows = run();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{:.4}s", r.hyve_s),
                format!("{:.4}s", r.graphr_s),
                report::fmt_f(r.ratio),
            ]
        })
        .collect();
    report::print_table(
        "Fig. 19: preprocessing time GraphR/HyVE",
        &["dataset", "HyVE", "GraphR", "ratio"],
        &cells,
    );
    report::vs_paper_ratio(
        "mean ratio",
        report::geomean(rows.iter().map(|r| r.ratio)),
        6.73,
    );
}
