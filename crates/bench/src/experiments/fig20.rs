//! Fig. 20: dynamic-graph update throughput (million edges changed per
//! second, single thread) — HyVE's reserved-slack O(1) updates versus
//! GraphR's associative fine-grained layout (paper: 8.04× in HyVE's
//! favour, up to ~47 M edges/s).
//!
//! The request mix follows §7.4.2: 45% add-edge, 45% delete-edge,
//! 5% add-vertex, 5% delete-vertex.

use crate::workloads::{datasets, SEED};
use hyve_graph::{DynamicGrid, Edge, EdgeList, GridGraph, Mutation, VertexId};
use hyve_graphr::GraphrDynamic;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Number of requests issued per dataset ("tens of thousands", §7.4.2).
pub const REQUESTS: usize = 50_000;

/// One dataset's throughput pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Dataset tag.
    pub dataset: &'static str,
    /// HyVE throughput (million edges changed per second).
    pub hyve_meps: f64,
    /// GraphR throughput (million edges changed per second).
    pub graphr_meps: f64,
    /// HyVE / GraphR ratio.
    pub ratio: f64,
}

/// Generates the §7.4.2 request mix. Endpoints are drawn from the original
/// vertices, so after a vertex deletion some adds hit a deleted vertex, and
/// edge deletions target previously requested adds, some of which were
/// rejected or already removed. Both systems reject exactly those requests,
/// so they process identical successful operations.
pub fn request_mix(graph: &EdgeList, requests: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nv = graph.num_vertices();
    let mut added: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(requests);
    for _ in 0..requests {
        let roll: f64 = rng.gen();
        if roll < 0.45 || (roll < 0.90 && added.is_empty()) {
            let src = rng.gen_range(0..nv);
            let dst = rng.gen_range(0..nv);
            added.push((src, dst));
            out.push(Mutation::AddEdge(Edge::new(src, dst)));
        } else if roll < 0.90 {
            let idx = rng.gen_range(0..added.len());
            let (src, dst) = added.swap_remove(idx);
            out.push(Mutation::RemoveEdge { src, dst });
        } else if roll < 0.95 {
            out.push(Mutation::AddVertex);
        } else {
            out.push(Mutation::RemoveVertex(VertexId::new(rng.gen_range(0..nv))));
        }
    }
    out
}

/// HyVE's dynamic structure over `graph`. A fine grid keeps vertex-removal
/// stripes narrow — the same address-management structure the engine
/// would plan for large graphs.
pub fn hyve_structure(graph: &EdgeList) -> DynamicGrid {
    let p = 256.min(graph.num_vertices().max(1));
    DynamicGrid::new(GridGraph::partition(graph, p).expect("partition"), 0.30)
}

/// Measures both systems on every dataset.
pub fn run() -> Vec<Row> {
    datasets()
        .iter()
        .map(|(profile, graph)| {
            let requests = request_mix(graph, REQUESTS, SEED ^ 0x20);

            let mut hyve = hyve_structure(graph);
            let t = Instant::now();
            for m in &requests {
                // Rejected requests (see `request_mix`) are allowed to fail.
                let _ = hyve.apply(*m);
            }
            let hyve_s = t.elapsed().as_secs_f64();
            let hyve_changed = hyve.edges_changed();

            let mut graphr = GraphrDynamic::new(graph);
            let t = Instant::now();
            for m in &requests {
                let _ = graphr.apply(*m);
            }
            let graphr_s = t.elapsed().as_secs_f64();
            let graphr_changed = graphr.edges_changed();

            let hyve_meps = hyve_changed as f64 / hyve_s / 1e6;
            let graphr_meps = graphr_changed as f64 / graphr_s / 1e6;
            Row {
                dataset: profile.tag,
                hyve_meps,
                graphr_meps,
                ratio: hyve_meps / graphr_meps,
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
                crate::report::fmt_f(r.hyve_meps),
                crate::report::fmt_f(r.graphr_meps),
                crate::report::fmt_f(r.ratio),
            ]
        })
        .collect();
    crate::report::print_table(
        "Fig. 20: dynamic update throughput (M edges changed/s, 1 thread)",
        &["dataset", "HyVE", "GraphR", "ratio"],
        &cells,
    );
}
