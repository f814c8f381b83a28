//! Smoke tests for the cheap experiment modules: every regenerator that
//! doesn't sweep the full simulator grid runs in small mode and produces
//! rows with the paper's qualitative shape.

use hyve_bench::experiments as e;

fn small_mode() {
    std::env::set_var("HYVE_BENCH_SMALL", "1");
}

#[test]
fn table1_rows_in_sparse_regime() {
    small_mode();
    let rows = e::table1::run();
    assert_eq!(rows.len(), 3);
    for r in rows {
        assert!(r.navg > 1.0 && r.navg < 4.0, "{}: {}", r.dataset, r.navg);
        assert!(r.non_empty_blocks > 0);
        assert!(!r.paper_navg.is_nan());
    }
}

#[test]
fn table3_has_eight_rows_and_correct_choice() {
    let rows = e::table3::run();
    assert_eq!(rows.len(), 8);
    let chosen = e::table3::chosen();
    assert_eq!(chosen.output_bits, 512);
    assert!(chosen.power_per_bit_mw < 0.11);
}

#[test]
fn fig09_grid_covers_patterns_and_densities() {
    let rows = e::fig09::run();
    assert_eq!(rows.len(), 9);
    for r in &rows {
        assert!(r.delay > 0.0 && r.energy > 0.0 && r.edp > 0.0);
    }
    // Sequential read rows must favour ReRAM on EDP.
    assert!(rows[..3].iter().all(|r| r.edp > 1.0));
    // Sequential write rows must favour DRAM.
    assert!(rows[3..6].iter().all(|r| r.edp < 1.0));
}

#[test]
fn fig10_policy_gap() {
    small_mode();
    for r in e::fig10::run() {
        assert!(
            r.graphr_ratio > r.hyve_ratio,
            "{}@{}Gb: GraphR {} must lean more ReRAM than HyVE {}",
            r.dataset,
            r.density_gbit,
            r.graphr_ratio,
            r.hyve_ratio
        );
    }
}

#[test]
fn fig10_interval_planner_at_original_scale() {
    // 2 MB SRAM, 32-bit records: 1.16 M vertices ⇒ P = ceil(74.2/2)… = 40.
    let p = e::fig10::original_scale_intervals(1_160_000);
    assert_eq!(p % 8, 0);
    assert!((32..=48).contains(&p), "got {p}");
    assert_eq!(e::fig10::original_scale_intervals(1), 8);
}

#[test]
fn fig11_hyve_wins_on_all_small_datasets() {
    small_mode();
    for r in e::fig11::run() {
        assert!(
            r.delay_ratio > 1.0,
            "{}: delay {}",
            r.dataset,
            r.delay_ratio
        );
        assert!(
            r.energy_ratio > 1.0,
            "{}: energy {}",
            r.dataset,
            r.energy_ratio
        );
        assert!(r.edp_ratio > 1.0, "{}: EDP {}", r.dataset, r.edp_ratio);
        assert!((r.write_count_ratio - 1.0).abs() < 1e-9);
    }
}

#[test]
fn fig13_slc_wins_everywhere() {
    small_mode();
    for r in e::fig13::run() {
        assert!(r.slc_wins(), "{}: {:?}", r.dataset, r.mteps_per_watt);
    }
}

#[test]
fn fig20_request_mix_has_paper_proportions() {
    small_mode();
    let graph = &hyve_bench::workloads::datasets()[0].1;
    let mix = e::fig20::request_mix(graph, 20_000, 7);
    assert_eq!(mix.len(), 20_000);
    let adds = mix
        .iter()
        .filter(|m| matches!(m, hyve_graph::Mutation::AddEdge(_)))
        .count() as f64
        / 20_000.0;
    let vertex_ops = mix
        .iter()
        .filter(|m| {
            matches!(
                m,
                hyve_graph::Mutation::AddVertex | hyve_graph::Mutation::RemoveVertex(_)
            )
        })
        .count() as f64
        / 20_000.0;
    assert!((adds - 0.45).abs() < 0.02, "adds {adds}");
    assert!((vertex_ops - 0.10).abs() < 0.02, "vertex ops {vertex_ops}");
}

#[test]
fn fig20_systems_accept_and_reject_the_same_requests() {
    small_mode();
    for (profile, graph) in hyve_bench::workloads::datasets() {
        let requests = e::fig20::request_mix(
            graph,
            e::fig20::REQUESTS,
            hyve_bench::workloads::SEED ^ 0x20,
        );
        let mut hyve = e::fig20::hyve_structure(graph);
        let mut graphr = hyve_graphr::GraphrDynamic::new(graph);
        for (i, m) in requests.iter().enumerate() {
            let (h, g) = (hyve.apply(*m), graphr.apply(*m));
            assert_eq!(
                h.is_ok(),
                g.is_ok(),
                "{}: request {i} {m:?}: HyVE {h:?}, GraphR {g:?}",
                profile.tag
            );
        }
        assert_eq!(
            hyve.edges_changed(),
            graphr.edges_changed(),
            "{}",
            profile.tag
        );
    }
}

#[test]
fn formatting_helpers() {
    assert_eq!(hyve_bench::fmt_f(0.0), "0");
    assert_eq!(hyve_bench::fmt_f(1234.0), "1234");
    assert_eq!(hyve_bench::fmt_f(1.23456), "1.23");
    assert_eq!(hyve_bench::fmt_f(0.0123), "0.012");
}
