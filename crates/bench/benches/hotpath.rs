//! Hot-path microbenchmarks for the scratch-reuse / skip work:
//!
//! * `scratch` — a fresh per-iteration accumulator allocation vs refilling
//!   a reused buffer (the accumulate-mode change),
//! * `monotone_skip` — full BFS/SSSP/CC runs with dirty-interval skipping
//!   on vs off.
//!
//! `perfbench/` measures the end-to-end and per-layer host times; these
//! benches are the finer-grained view.

use criterion::{criterion_group, criterion_main, Criterion};
use hyve_algorithms::{Bfs, ConnectedComponents, EdgeProgram, Sssp};
use hyve_core::{SimulationSession, SystemConfig};
use hyve_graph::{DatasetProfile, GridGraph, VertexId};
use std::hint::black_box;

fn bench_scratch_reuse(c: &mut Criterion) {
    const NV: usize = 75_781; // LJ-sized vertex array
                              // SSSP's identity (∞) is non-zero, so the allocating arm cannot be
                              // served by an untouched calloc page — both arms really write NV lanes,
                              // isolating the allocator + page-fault cost the reused buffer avoids.
    let mut group = c.benchmark_group("hotpath_scratch_75k");
    group.sample_size(40);
    group.bench_function("alloc_per_iteration", |b| {
        b.iter(|| {
            let acc = vec![f32::INFINITY; NV];
            black_box(acc.len())
        });
    });
    let mut reused = vec![f32::INFINITY; NV];
    group.bench_function("fill_reused", |b| {
        b.iter(|| {
            reused.fill(f32::INFINITY);
            black_box(reused.len())
        });
    });
    group.finish();
}

fn run_skip_pair<P2: EdgeProgram>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    program: &P2,
    grid: &GridGraph,
) {
    for (label, skipping) in [("full_rescan", false), ("skip_clean", true)] {
        let session = SimulationSession::builder(SystemConfig::hyve_opt())
            .dirty_interval_skipping(skipping)
            .build()
            .expect("valid config");
        group.bench_function(format!("{name}/{label}"), |b| {
            b.iter(|| {
                let (report, values) = session
                    .run_with_values(program, black_box(grid))
                    .expect("run");
                black_box((report.iterations, values.len()))
            });
        });
    }
}

fn bench_monotone_skip(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let grid = GridGraph::partition(&graph, 64).unwrap();
    let mut group = c.benchmark_group("hotpath_monotone_yt_p64");
    group.sample_size(10);
    run_skip_pair(&mut group, "bfs", &Bfs::new(VertexId::new(0)), &grid);
    run_skip_pair(&mut group, "sssp", &Sssp::new(VertexId::new(0)), &grid);
    run_skip_pair(&mut group, "cc", &ConnectedComponents::new(), &grid);
    group.finish();
}

criterion_group!(benches, bench_scratch_reuse, bench_monotone_skip);
criterion_main!(benches);
