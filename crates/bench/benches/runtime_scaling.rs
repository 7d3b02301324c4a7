//! Figure 7 workload: runtime scaling of every algorithm with the number
//! of comparative items (this bench *is* the figure's measurement).

use comparesets_core::{solve_with, Algorithm, SelectParams, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let mut g = c.benchmark_group("fig7_runtime_scaling");
    g.sample_size(15);
    for n_comp in [2usize, 4, 8] {
        let ctx = comparesets_bench::instance(&dataset, n_comp);
        for alg in [
            Algorithm::Crs,
            Algorithm::CompareSets,
            Algorithm::CompareSetsPlus,
        ] {
            let params = SelectParams::default();
            g.bench_with_input(BenchmarkId::new(alg.name(), n_comp), &ctx, |b, ctx| {
                b.iter(|| black_box(solve_with(ctx, alg, &params, 1, &opts)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
