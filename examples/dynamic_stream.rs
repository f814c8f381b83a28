//! Evolving-web-graph scenario (§5): a stream of link additions/removals
//! and page creations/deletions applied to the interval-block grid with
//! reserved slack, followed by an incremental re-analysis.
//!
//! Compares HyVE's O(1) incremental preprocessing against GraphR's
//! fine-grained layout, then re-runs PageRank on the mutated graph to show
//! the working flow end to end.
//!
//! ```sh
//! cargo run --release --example dynamic_stream
//! ```

use hyve::algorithms::PageRank;
use hyve::core::{SimulationSession, SystemConfig};
use hyve::graph::{DatasetProfile, DynamicGrid, Edge, GridGraph, Mutation, VertexId};
use hyve::graphr::GraphrDynamic;
use std::time::Instant;

/// Builds a sequential session; all configurations here are statically valid.
fn session(cfg: SystemConfig) -> SimulationSession {
    SimulationSession::builder(cfg)
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = DatasetProfile::wiki_talk_scaled();
    let graph = profile.generate(9);
    println!("evolving {profile}");

    // Build the §7.4.2 request mix: 45% add-edge, 45% delete-edge,
    // 5% add-vertex, 5% delete-vertex.
    let requests = hyve_request_stream(&graph, 20_000);

    // HyVE: reserved slack per block, O(1) incremental updates.
    let grid = GridGraph::partition(&graph, 256.min(graph.num_vertices()))?;
    let mut hyve = DynamicGrid::new(grid, 0.30);
    let t = Instant::now();
    for m in &requests {
        let _ = hyve.apply(*m);
    }
    let hyve_s = t.elapsed().as_secs_f64();
    println!(
        "HyVE   : {} edges changed in {:.3}s ({:.2} M edges/s), {} repartitions",
        hyve.edges_changed(),
        hyve_s,
        hyve.edges_changed() as f64 / hyve_s / 1e6,
        hyve.repartitions(),
    );

    // GraphR: the associative fine-grained layout pays per-lookup overhead.
    let mut graphr = GraphrDynamic::new(&graph);
    let t = Instant::now();
    for m in &requests {
        let _ = graphr.apply(*m);
    }
    let graphr_s = t.elapsed().as_secs_f64();
    println!(
        "GraphR : {} edges changed in {:.3}s ({:.2} M edges/s)",
        graphr.edges_changed(),
        graphr_s,
        graphr.edges_changed() as f64 / graphr_s / 1e6,
    );

    // Re-analyse the evolved graph without a full preprocessing pass: its
    // live edges (deleted pages' inert links dropped, new pages included)
    // go straight back into the engine.
    let evolved = hyve.live_edge_list();
    let engine = session(SystemConfig::hyve_opt());
    let report = engine.run_on_edge_list(&PageRank::new(10), &evolved)?;
    println!(
        "\nre-ranked evolved graph ({} edges): {:.1} MTEPS/W, {}",
        evolved.len(),
        report.mteps_per_watt(),
        report.elapsed(),
    );
    Ok(())
}

/// Deterministic §7.4.2-style request stream.
fn hyve_request_stream(graph: &hyve::graph::EdgeList, n: usize) -> Vec<Mutation> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let nv = graph.num_vertices();
    let mut added: Vec<(u32, u32)> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll: f64 = rng.gen();
        if roll < 0.45 || (roll < 0.90 && added.is_empty()) {
            let (src, dst) = (rng.gen_range(0..nv), rng.gen_range(0..nv));
            added.push((src, dst));
            out.push(Mutation::AddEdge(Edge::new(src, dst)));
        } else if roll < 0.90 {
            let i = rng.gen_range(0..added.len());
            let (src, dst) = added.swap_remove(i);
            out.push(Mutation::RemoveEdge { src, dst });
        } else if roll < 0.95 {
            out.push(Mutation::AddVertex);
        } else {
            out.push(Mutation::RemoveVertex(VertexId::new(rng.gen_range(0..nv))));
        }
    }
    out
}
