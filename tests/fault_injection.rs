//! Reliability-subsystem contract tests.
//!
//! Three guarantees, asserted exactly:
//!
//! 1. **Inert plans perturb nothing.** `FaultPlan::none()` and any
//!    zero-rate plan (even with a seed set) leave every `RunReport`
//!    bit-identical to a session built without faults — the same reports
//!    the golden suite pins, so faults-off runs reproduce the golden
//!    baselines bit-for-bit.
//! 2. **Fault outcomes are seed-deterministic and strategy-invariant.**
//!    A fixed seed produces identical correction/retry/remap counts and an
//!    identical report under `Sequential` and `Parallel { 1..=8 }`.
//! 3. **Persistent faults degrade, they don't abort.** A run with stuck
//!    banks completes via bank sparing, and the remap is visible in the
//!    trace artifact round trip.

use hyve::prelude::*;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (8u32..64).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 1..200).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

fn arb_config() -> impl Strategy<Value = SystemConfig> {
    (0usize..5).prop_map(|preset| match preset {
        0 => SystemConfig::acc_dram(),
        1 => SystemConfig::acc_reram(),
        2 => SystemConfig::acc_sram_dram(),
        3 => SystemConfig::hyve(),
        _ => SystemConfig::hyve_opt(),
    })
}

/// An inert plan: zero rates everywhere, but a seed and retry budget set.
fn zero_rate_plan() -> FaultPlan {
    FaultPlan::none().with_seed(99)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inert_plans_reproduce_the_faultless_baseline(
        g in arb_graph(),
        cfg in arb_config(),
    ) {
        let baseline = SimulationSession::builder(cfg.clone())
            .build()
            .expect("valid config")
            .run_on_edge_list(&PageRank::new(3), &g)
            .expect("baseline run");
        prop_assert!(baseline.reliability.is_none());
        for plan in [FaultPlan::none(), zero_rate_plan()] {
            let report = SimulationSession::builder(cfg.clone())
                .with_faults(plan)
                .build()
                .expect("valid config")
                .run_on_edge_list(&PageRank::new(3), &g)
                .expect("inert fault run");
            // Bit-exact equality, including every float.
            prop_assert_eq!(&report, &baseline);
        }
    }

    #[test]
    fn fault_logs_are_identical_across_thread_counts(
        g in arb_graph(),
        seed in 0u64..1000,
    ) {
        let plan = FaultPlan::parse(
            &format!("seed={seed},reram-ber=1e-5,dram-ber=1e-9,sram-ber=1e-10,ecc=secded"),
        )
        .expect("spec parses");
        let sequential = SimulationSession::builder(SystemConfig::hyve_opt())
            .with_faults(plan.clone())
            .build()
            .expect("valid config")
            .run_on_edge_list(&PageRank::new(3), &g)
            .expect("sequential fault run");
        let rel = sequential.reliability.as_ref().expect("active plan reports");
        for threads in 1..=8 {
            let parallel = SimulationSession::builder(SystemConfig::hyve_opt())
                .with_faults(plan.clone())
                .parallel(threads)
                .build()
                .expect("valid config")
                .run_on_edge_list(&PageRank::new(3), &g)
                .expect("parallel fault run");
            let par_rel = parallel.reliability.as_ref().expect("active plan reports");
            prop_assert_eq!(par_rel, rel, "fault log diverged at {} threads", threads);
            prop_assert_eq!(&parallel, &sequential, "report diverged at {} threads", threads);
        }
    }
}

#[test]
fn same_seed_reproduces_same_counts_fresh_sessions() {
    let g = DatasetProfile::youtube_scaled().generate(5);
    let run = |seed: u64| {
        SimulationSession::builder(SystemConfig::hyve_opt())
            .with_faults(
                FaultPlan::parse(&format!("seed={seed},reram-ber=2e-5,ecc=bch,retries=4")).unwrap(),
            )
            .build()
            .unwrap()
            .run_on_edge_list(&Bfs::new(VertexId::new(0)), &g)
            .unwrap()
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "same seed, same everything");
    let rel = a.reliability.expect("active plan");
    assert!(rel.corrected > 0, "BER high enough to correct something");
}

#[test]
fn stuck_bank_run_completes_with_remap_in_trace_artifact() {
    let g = DatasetProfile::youtube_scaled().generate(5);
    let recorder = SharedRecorder::new();
    let report = SimulationSession::builder(SystemConfig::hyve())
        .with_faults(FaultPlan::parse("seed=11,stuck-bank=0:3,stuck-bank=2:1").unwrap())
        .with_trace(recorder.clone())
        .build()
        .unwrap()
        .run_on_edge_list(&PageRank::new(3), &g)
        .unwrap();

    // The run completed degraded, not aborted.
    let rel = report.reliability.as_ref().expect("active plan");
    assert_eq!(rel.remaps.len(), 2, "both stuck banks spared");
    assert!(rel.degraded_fraction > 0.0);
    assert!(report.mteps_per_watt() > 0.0);

    // The remap survives the JSONL round trip.
    let text = recorder.artifact().to_jsonl();
    assert!(text.contains("\"event\":\"remap\""), "{text}");
    let back = TraceArtifact::from_jsonl(&text).expect("artifact parses");
    let remaps: Vec<BankRemap> = back
        .events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::BankRemap {
                chip,
                bank,
                spare_chip,
                spare_bank,
            } => Some(BankRemap {
                chip,
                bank,
                spare_chip,
                spare_bank,
            }),
            _ => None,
        })
        .collect();
    assert_eq!(remaps, rel.remaps);
    assert_eq!((remaps[0].chip, remaps[0].bank), (0, 3));
}

#[test]
fn non_converging_pagerank_surfaces_typed_error_with_partial_report() {
    let g = DatasetProfile::youtube_scaled().generate(5);
    let session = SimulationSession::builder(SystemConfig::hyve_opt())
        .build()
        .unwrap();
    // A zero tolerance demands an exact fixed point — unreachable in three
    // iterations, so the cap fires.
    let err = session
        .run_on_edge_list(&PageRank::new(3).with_tolerance(0.0), &g)
        .unwrap_err();
    match err {
        CoreError::MaxIterationsExceeded {
            algorithm,
            max_iterations,
            report,
        } => {
            assert_eq!(algorithm, "PR");
            assert_eq!(max_iterations, 3);
            assert_eq!(report.iterations, 3, "partial report covers the cap");
            assert!(report.energy().as_pj() > 0.0, "accounting still attached");
        }
        other => panic!("expected MaxIterationsExceeded, got {other:?}"),
    }
    // A loose tolerance converges and returns Ok well under the cap.
    let ok = session
        .run_on_edge_list(&PageRank::new(50).with_tolerance(1e-3), &g)
        .unwrap();
    assert!(ok.iterations < 50, "converged in {} iters", ok.iterations);
}
