//! Criterion micro-benchmarks for the two preprocessing paths
//! (Fig. 12 / Fig. 19 substrate): HyVE's two-pass interval counting sort
//! at several partition counts and GraphR's associative 8×8 build.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyve_graph::{DatasetProfile, GridGraph};
use std::hint::black_box;

fn bench_hyve_partition(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let mut group = c.benchmark_group("hyve_partition_yt");
    group.sample_size(10);
    for p in [8u32, 32, 128, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let grid = GridGraph::partition(black_box(&graph), p).expect("partition");
                black_box(grid.num_blocks())
            });
        });
    }
    group.finish();
}

fn bench_graphr_preprocess(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let mut group = c.benchmark_group("graphr_preprocess_yt");
    group.sample_size(10);
    group.bench_function("8x8_blocks", |b| {
        b.iter(|| {
            let layout = hyve_graphr::preprocess(black_box(&graph));
            black_box(layout.non_empty_blocks())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hyve_partition, bench_graphr_preprocess);
criterion_main!(benches);
