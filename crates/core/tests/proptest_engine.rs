//! Property-based tests of the HyVE engine: functional results are exactly
//! the in-memory semantics on arbitrary graphs and configurations, and the
//! cost accounting obeys basic conservation laws.

use hyve_algorithms::{reference, Bfs, ConnectedComponents, PageRank, SpMv};
use hyve_core::{SimulationSession, SystemConfig};
use hyve_graph::{Csr, Edge, EdgeList, VertexId};
use proptest::prelude::*;

/// Builds a sequential session; generated configurations are always valid.
fn session(cfg: SystemConfig) -> SimulationSession {
    SimulationSession::builder(cfg)
        .build()
        .expect("valid config")
}

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (8u32..80).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 1..300).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

fn arb_config() -> impl Strategy<Value = SystemConfig> {
    (0usize..5, 1u32..4, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(preset, scale_exp, sharing, gating)| {
            let base = match preset {
                0 => SystemConfig::acc_dram(),
                1 => SystemConfig::acc_reram(),
                2 => SystemConfig::acc_sram_dram(),
                3 => SystemConfig::hyve(),
                _ => SystemConfig::hyve_opt(),
            };
            let cfg = base.with_dataset_scale(1 << scale_exp);
            // Only toggle optimizations where legal (gating needs ReRAM).
            let cfg = cfg.with_data_sharing(sharing);
            if cfg.edge_memory == hyve_core::OffChipTech::Reram {
                cfg.with_power_gating(gating)
            } else {
                cfg
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BFS through any engine configuration equals queue BFS.
    #[test]
    fn engine_bfs_invariant_under_config(g in arb_graph(), cfg in arb_config()) {
        let engine = session(cfg);
        let src = VertexId::new(0);
        let (report, values) = engine
            .run_on_edge_list_with_values(&Bfs::new(src), &g)
            .unwrap();
        let csr = Csr::from_edge_list(&g);
        prop_assert_eq!(values, reference::bfs_levels(&csr, src));
        prop_assert!(report.energy().is_valid());
        prop_assert!(report.elapsed().is_valid());
    }

    /// CC results never depend on the hierarchy either.
    #[test]
    fn engine_cc_invariant_under_config(g in arb_graph(), cfg in arb_config()) {
        let engine = session(cfg);
        let (_, values) = engine
            .run_on_edge_list_with_values(&ConnectedComponents::new(), &g)
            .unwrap();
        prop_assert_eq!(values, reference::connected_components(&g));
    }

    /// Dynamic energy scales exactly linearly with the (fixed) iteration
    /// count for PR: 2k iterations cost twice k's dynamic energy.
    #[test]
    fn pr_dynamic_energy_linear_in_iterations(g in arb_graph(), k in 1u32..5) {
        let engine = session(SystemConfig::hyve_opt());
        let r1 = engine.run_on_edge_list(&PageRank::new(k), &g).unwrap();
        let r2 = engine.run_on_edge_list(&PageRank::new(2 * k), &g).unwrap();
        let d1 = r1.breakdown.edge_memory.dynamic_energy
            + r1.breakdown.offchip_vertex.dynamic_energy
            + r1.breakdown.onchip_vertex.dynamic_energy
            + r1.breakdown.logic.dynamic_energy;
        let d2 = r2.breakdown.edge_memory.dynamic_energy
            + r2.breakdown.offchip_vertex.dynamic_energy
            + r2.breakdown.onchip_vertex.dynamic_energy
            + r2.breakdown.logic.dynamic_energy;
        let ratio = d2 / d1;
        prop_assert!((ratio - 2.0).abs() < 1e-6, "ratio {ratio}");
        prop_assert_eq!(r2.edges_processed, 2 * r1.edges_processed);
    }

    /// The planner always returns a multiple of the PU count that fits the
    /// capacity constraint (at effective scale).
    #[test]
    fn planner_respects_capacity(nv in 8u32..1_000_000, scale_exp in 0u32..10) {
        let cfg = SystemConfig::hyve_opt().with_dataset_scale(1 << scale_exp);
        let engine = session(cfg.clone());
        let pr = PageRank::new(1);
        let p = engine.plan_intervals(&pr, nv);
        prop_assert!(p >= 1);
        prop_assert!(p <= nv);
        if p >= 8 {
            prop_assert_eq!(p % 8, 0, "P={} must be a PU multiple", p);
        }
        // Capacity: 2N resident intervals × 16 B/vertex fit in scaled SRAM,
        // unless P hit the vertex-count cap.
        if p < nv {
            let sram = 2 * 1024 * 1024 / (1u64 << scale_exp);
            let per_interval = (u64::from(nv).div_ceil(u64::from(p))) * 16;
            prop_assert!(
                2 * 8 * per_interval <= sram + 2 * 8 * 16,
                "P={p} overflows the scaled SRAM"
            );
        }
    }

    /// Reports are internally consistent: breakdown totals match, phases
    /// sum to elapsed, and MTEPS/W is finite and positive for non-empty
    /// graphs.
    #[test]
    fn report_consistency(g in arb_graph(), cfg in arb_config()) {
        let engine = session(cfg);
        let report = engine.run_on_edge_list(&SpMv::new(), &g).unwrap();
        let b = &report.breakdown;
        let total = b.edge_memory.total_energy()
            + b.offchip_vertex.total_energy()
            + b.onchip_vertex.total_energy()
            + b.logic.total_energy();
        prop_assert!((total.as_pj() - report.energy().as_pj()).abs() < 1.0);
        let phases = report.phases;
        let sum = phases.loading + phases.processing + phases.updating + phases.overhead;
        prop_assert!((sum.as_ns() - report.elapsed().as_ns()).abs() < 1e-3);
        prop_assert!(report.mteps_per_watt() > 0.0);
        prop_assert!(report.mteps_per_watt().is_finite());
    }
}
