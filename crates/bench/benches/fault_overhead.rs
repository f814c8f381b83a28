//! Measures the reliability layer's cost: the same PR run through a
//! faultless session, one with an inert `FaultPlan::none()` (must be
//! indistinguishable — the fault path is never entered), and one with an
//! active SECDED plan (pays the single-threaded reliability pass in
//! `SimulationSession::account`, amortized over the whole run).

use criterion::{criterion_group, criterion_main, Criterion};
use hyve_algorithms::PageRank;
use hyve_core::{FaultPlan, SimulationSession, SystemConfig};
use hyve_graph::{DatasetProfile, GridGraph};
use std::hint::black_box;

fn bench_fault_overhead(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let build = |plan: FaultPlan| {
        SimulationSession::builder(SystemConfig::hyve_opt())
            .with_faults(plan)
            .build()
            .expect("valid")
    };
    let faultless = build(FaultPlan::none());
    let active =
        build(FaultPlan::parse("seed=7,reram-ber=1e-5,dram-ber=1e-9,ecc=secded").expect("spec"));
    let program = PageRank::new(2);
    let p = faultless.plan_intervals(&program, graph.num_vertices());
    let grid = GridGraph::partition(&graph, p).expect("partition");

    let mut group = c.benchmark_group("fault_overhead_pr2_yt");
    group.sample_size(10);
    group.bench_function("faultless", |b| {
        b.iter(|| {
            let report = faultless.run(&program, black_box(&grid)).expect("run");
            black_box(report.edges_processed)
        });
    });
    group.bench_function("secded_active", |b| {
        b.iter(|| {
            let report = active.run(&program, black_box(&grid)).expect("run");
            black_box(report.edges_processed)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
