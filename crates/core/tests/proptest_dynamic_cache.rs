//! The dynamic-update path (§5) driven through a session.
//!
//! * Stale cache: after an arbitrary AddEdge/RemoveEdge sequence (each
//!   applied against a warm [`DynamicGrid::grid`] snapshot, so a missed
//!   invalidation would be observable), the snapshot equals a from-scratch
//!   materialisation, and running on it is bit-identical to running on a
//!   grid rebuilt from scratch from the mutated edge set.
//! * Live analysis: after any mix of all four mutation kinds, analysing
//!   [`DynamicGrid::live_edge_list`] agrees with the sequential references,
//!   and no live edge touches a tombstoned vertex.
//! * Padding slots: an edge to a vertex added into a reserved slot makes a
//!   run on the snapshot a typed error, not a panic.
//!
//! The stale-cache property excludes vertex mutations on purpose:
//! padding-slot vertices map to intervals round-robin from the *old*
//! materialised count, which a fresh partition of the grown graph
//! legitimately assigns differently — that is a layout difference, not a
//! stale cache. Edge mutations keep the vertex→interval map fixed, and
//! `to_edge_list` (column-major) + the stable counting-sort partition
//! reproduce the per-block edge order exactly.

use hyve_algorithms::{reference, Bfs, ConnectedComponents, PageRank};
use hyve_core::{CoreError, SimulationSession, SystemConfig};
use hyve_graph::{
    Csr, DynamicGrid, Edge, EdgeList, GraphError, GridGraph, Mutation, MutationOutcome, VertexId,
};
use proptest::prelude::*;
use std::ops::Range;

fn arb_graph(vertices: Range<u32>, edges: Range<usize>) -> impl Strategy<Value = EdgeList> {
    vertices.prop_flat_map(move |nv| {
        proptest::collection::vec((0..nv, 0..nv), edges.clone()).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

/// `graph` behind §5's online structure, at one interval per vertex.
fn dynamic(graph: &EdgeList) -> DynamicGrid {
    let grid = GridGraph::partition(graph, graph.num_vertices()).unwrap();
    DynamicGrid::new(grid, 0.30)
}

/// A mutation request: kind selector plus two vertex operands.
type OpSpec = (u8, u32, u32);

/// `spec` as a mutation whose operands fall in the logical vertex range,
/// so edges to vertices added into reserved slots occur too.
fn mutation((kind, a, b): OpSpec, d: &DynamicGrid) -> Mutation {
    let nv = d.num_vertices();
    let (a, b) = (a % nv, b % nv);
    match kind % 4 {
        0 => Mutation::AddEdge(Edge::new(a, b)),
        1 => Mutation::RemoveEdge { src: a, dst: b },
        2 => Mutation::AddVertex,
        _ => Mutation::RemoveVertex(VertexId::new(a)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mutated_grid_runs_bit_identical_to_rebuild(
        g in arb_graph(8..40, 1..100),
        ops in proptest::collection::vec(
            (proptest::bool::ANY, 0u32..64, 0u32..64), 1..40),
    ) {
        let p = 4;
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut d = DynamicGrid::new(grid, 0.3);
        for (add, a, b) in ops {
            let nv = d.num_vertices();
            // Warm the snapshot before every mutation.
            let _ = d.grid();
            if add {
                let _ = d.apply(Mutation::AddEdge(Edge::new(a % nv, b % nv)));
            } else {
                let _ = d.apply(Mutation::RemoveEdge { src: a % nv, dst: b % nv });
            }
            prop_assert_eq!(d.grid(), &d.materialize());
        }
        let rebuilt = GridGraph::partition(&d.grid().to_edge_list(), p).unwrap();
        prop_assert_eq!(d.grid(), &rebuilt);

        let session = SimulationSession::builder(SystemConfig::hyve().with_num_pus(2))
            .build()
            .unwrap();
        let (report_mut, values_mut) =
            session.run_with_values(&PageRank::new(3), d.grid()).unwrap();
        let (report_ref, values_ref) =
            session.run_with_values(&PageRank::new(3), &rebuilt).unwrap();
        prop_assert_eq!(format!("{values_mut:?}"), format!("{values_ref:?}"));
        prop_assert_eq!(format!("{report_mut:?}"), format!("{report_ref:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any mutation sequence, BFS and CC over the live graph equal
    /// the reference algorithms run on `live_edge_list()`.
    #[test]
    fn live_analysis_matches_reference(
        g in arb_graph(8..60, 1..150),
        ops in proptest::collection::vec(any::<OpSpec>(), 0..40),
    ) {
        let mut d = dynamic(&g);
        for op in ops {
            let _ = d.apply(mutation(op, &d));
        }
        let session = SimulationSession::builder(SystemConfig::hyve_opt()).build().unwrap();
        let live = d.live_edge_list();
        let (_, levels) = session
            .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &live)
            .unwrap();
        let csr = Csr::from_edge_list(&live);
        prop_assert_eq!(&levels, &reference::bfs_levels(&csr, VertexId::new(0)));

        let (_, labels) = session
            .run_on_edge_list_with_values(&ConnectedComponents::new(), &live)
            .unwrap();
        prop_assert_eq!(&labels, &reference::connected_components(&live));
    }

    /// The live view never references a tombstoned endpoint, and it
    /// analyses.
    #[test]
    fn live_edges_skip_tombstones(
        g in arb_graph(8..60, 1..150),
        kill in proptest::collection::vec(0u32..60, 0..10),
    ) {
        let mut d = dynamic(&g);
        for v in kill {
            let _ = d.apply(Mutation::RemoveVertex(VertexId::new(v % d.num_vertices())));
        }
        let live = d.live_edge_list();
        for e in live.iter() {
            prop_assert!(!d.is_tombstoned(e.src));
            prop_assert!(!d.is_tombstoned(e.dst));
        }
        let session = SimulationSession::builder(SystemConfig::hyve()).build().unwrap();
        let _ = session.run_on_edge_list(&Bfs::new(VertexId::new(0)), &live).unwrap();
    }
}

/// A vertex added into a reserved padding slot lies past the snapshot's
/// vertex count. An edge to or from it makes a run on the snapshot a typed
/// error, while the live edge list covers it.
#[test]
fn edge_at_a_padding_slot_is_rejected_not_a_panic() {
    let chain = EdgeList::from_edges(64, (0..63).map(|i| Edge::new(i, i + 1))).unwrap();
    let session = SimulationSession::builder(SystemConfig::hyve_opt())
        .build()
        .unwrap();
    for edge in [Edge::new(0, 64), Edge::new(64, 1)] {
        let mut d = DynamicGrid::new(GridGraph::partition(&chain, 8).unwrap(), 0.30);
        // In-place updates first: the rejected snapshot is a reshaped one.
        d.apply(Mutation::AddEdge(Edge::new(9, 2))).unwrap();
        d.apply(Mutation::RemoveEdge { src: 3, dst: 4 }).unwrap();
        assert_eq!(
            d.apply(Mutation::AddVertex).unwrap(),
            MutationOutcome::InPlace
        );
        d.apply(Mutation::AddEdge(edge)).unwrap();
        assert_eq!(d.grid().num_vertices(), 64);
        let err = session
            .run_with_values(&Bfs::new(VertexId::new(0)), d.grid())
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::Graph(GraphError::VertexOutOfRange {
                vertex: 64,
                num_vertices: 64
            })
        );

        let live = d.live_edge_list();
        let (_, levels) = session
            .run_on_edge_list_with_values(&Bfs::new(VertexId::new(0)), &live)
            .unwrap();
        let csr = Csr::from_edge_list(&live);
        assert_eq!(levels, reference::bfs_levels(&csr, VertexId::new(0)));
        assert_eq!(levels.len(), 65);
    }
}
