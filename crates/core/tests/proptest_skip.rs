//! Equivalence suite for dirty-interval skipping: for every algorithm,
//! direction and strategy, a session with skipping
//! enabled produces **bit-identical** output to a full-rescan session —
//! same values, same iteration count, same per-iteration `changed` flags
//! (read from each session's trace recorder), and a `RunReport` whose every
//! float matches down to the IEEE-754 bit pattern.
//!
//! This is the executable form of the idempotence argument in DESIGN.md: a
//! clean, untouched interval re-sends exactly the messages it sent last
//! iteration, and an idempotent semilattice join absorbs a re-delivered
//! message as a no-op.

use hyve_algorithms::{Bfs, ConnectedComponents, EdgeProgram, PageRank, SpMv, Sssp};
use hyve_core::{RunReport, SharedRecorder, SimulationSession, SystemConfig, TraceEvent};
use hyve_graph::{Edge, EdgeList, GridGraph, VertexId};
use proptest::prelude::*;

/// Weighted graphs so SSSP exercises non-trivial distances.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (16u32..72).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv, 0.25f32..2.0), 1..250).prop_map(move |triples| {
            let mut g = EdgeList::new(nv);
            g.extend(
                triples
                    .into_iter()
                    .map(|(s, d, w)| Edge::with_weight(s, d, w)),
            );
            g
        })
    })
}

/// Runs `program` on a traced session and returns the report, the values
/// and the per-iteration `(iteration, changed)` record. `threads == 0`
/// means the sequential strategy.
fn run<P: EdgeProgram>(
    program: &P,
    grid: &GridGraph,
    skipping: bool,
    threads: usize,
) -> (RunReport, Vec<P::Value>, Vec<(u32, bool)>) {
    let recorder = SharedRecorder::new();
    let builder = SimulationSession::builder(SystemConfig::hyve())
        .dirty_interval_skipping(skipping)
        .with_trace(recorder.clone());
    let builder = if threads > 0 {
        builder.parallel(threads)
    } else {
        builder.sequential()
    };
    let (report, values) = builder
        .build()
        .expect("preset configuration is valid")
        .run_with_values(program, grid)
        .expect("run failed");
    // Only the iteration structure is compared: the block counters differ
    // between skipping and full rescans by design.
    let changed = recorder
        .artifact()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IterationEnd {
                iteration, changed, ..
            } => Some((*iteration, *changed)),
            _ => None,
        })
        .collect();
    (report, values, changed)
}

/// Runs `program` with skipping on and off and asserts every observable —
/// report (field equality *and* float bit patterns), values, per-iteration
/// `changed` flags — is identical.
fn assert_skip_equals_full<P: EdgeProgram>(program: &P, grid: &GridGraph, threads: usize) {
    let (full_report, full_values, full_trace) = run(program, grid, false, threads);
    let (skip_report, skip_values, skip_trace) = run(program, grid, true, threads);
    let name = program.name();
    assert_eq!(full_report, skip_report, "{name}: report drifted");
    assert_eq!(
        full_report.energy().as_pj().to_bits(),
        skip_report.energy().as_pj().to_bits(),
        "{name}: energy bits drifted"
    );
    assert_eq!(
        full_report.elapsed().as_ns().to_bits(),
        skip_report.elapsed().as_ns().to_bits(),
        "{name}: elapsed bits drifted"
    );
    assert_eq!(full_trace, skip_trace, "{name}: iteration trace drifted");
    assert_eq!(
        full_trace.len() as u32,
        full_report.iterations,
        "{name}: one trace sample per iteration"
    );
    // Debug formatting round-trips floats exactly, so string equality is
    // value-bit equality for every Value type (u32, f32, f64).
    assert_eq!(
        format!("{full_values:?}"),
        format!("{skip_values:?}"),
        "{name}: values drifted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Skipping ≡ full rescan across all five algorithms (monotone *and*
    /// accumulate — the toggle must be a no-op for accumulate programs
    /// too), directed and undirected propagation,
    /// and Sequential vs Parallel{1..=8}.
    #[test]
    fn skipping_is_bit_identical_to_full_rescan(
        g in arb_graph(),
        wide in proptest::bool::ANY,
        threads in 0usize..9,
    ) {
        let p = if wide { 16 } else { 8 };
        let grid = GridGraph::partition(&g, p).unwrap();
        assert_skip_equals_full(&Bfs::new(VertexId::new(0)), &grid, threads);
        assert_skip_equals_full(&Sssp::new(VertexId::new(0)), &grid, threads);
        // CC is undirected: blocks scatter from both interval coordinates.
        assert_skip_equals_full(&ConnectedComponents::new(), &grid, threads);
        assert_skip_equals_full(&PageRank::new(6), &grid, threads);
        assert_skip_equals_full(&SpMv::new(), &grid, threads);
    }

    /// The monotone fixpoint also survives skipping on graphs where whole
    /// intervals go quiet early: a long path keeps exactly one frontier
    /// interval dirty per iteration, maximising skipped blocks.
    #[test]
    fn skipping_handles_sparse_frontiers(len in 17u32..64, threads in 0usize..5) {
        let g = EdgeList::from_edges(len, (0..len - 1).map(|i| Edge::new(i, i + 1))).unwrap();
        let grid = GridGraph::partition(&g, 16).unwrap();
        assert_skip_equals_full(&Bfs::new(VertexId::new(0)), &grid, threads);
        assert_skip_equals_full(&Sssp::new(VertexId::new(0)), &grid, threads);
        assert_skip_equals_full(&ConnectedComponents::new(), &grid, threads);
    }
}
