//! Stale-cache property for the dynamic-update path: after an arbitrary
//! AddEdge/RemoveEdge sequence (each applied against a warm
//! [`DynamicGrid::grid`] snapshot, so a missed invalidation would be
//! observable), the snapshot equals a from-scratch materialisation, and
//! running on it is bit-identical to running on a grid rebuilt from scratch
//! from the mutated edge set.
//!
//! Vertex mutations are excluded on purpose: padding-slot vertices map to
//! intervals round-robin from the *old* materialised count, which a fresh
//! partition of the grown graph legitimately assigns differently — that is a
//! layout difference, not a stale cache. Edge mutations keep the vertex→
//! interval map fixed, and `to_edge_list` (row-major) + the stable
//! counting-sort partition reproduce the per-block edge order exactly.

use hyve_algorithms::PageRank;
use hyve_core::{SimulationSession, SystemConfig};
use hyve_graph::{DynamicGrid, Edge, EdgeList, GridGraph, Mutation};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (8u32..40).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 1..100).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn mutated_grid_runs_bit_identical_to_rebuild(
        g in arb_graph(),
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
        let scheme = d.grid().partition_info().scheme();
        let rebuilt =
            GridGraph::partition_with_scheme(&d.grid().to_edge_list(), p, scheme).unwrap();
        prop_assert_eq!(d.grid().flat(), rebuilt.flat());

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
