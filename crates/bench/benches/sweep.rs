//! Figure 5 workload: CompaReSetS / CompaReSetS+ at the hyper-parameter
//! grid points.

use comparesets_core::{solve_with, Algorithm, SelectParams, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 4);
    let mut g = c.benchmark_group("fig5_sweep");
    g.sample_size(15);
    for &lambda in &[0.01, 1.0, 100.0] {
        let params = SelectParams {
            m: 3,
            lambda,
            mu: 0.0,
        };
        g.bench_with_input(
            BenchmarkId::new("comparesets_lambda", lambda.to_string()),
            &params,
            |b, p| b.iter(|| black_box(solve_with(&ctx, Algorithm::CompareSets, p, 0, &opts))),
        );
    }
    for &mu in &[0.01, 1.0, 100.0] {
        let params = SelectParams {
            m: 3,
            lambda: 1.0,
            mu,
        };
        g.bench_with_input(
            BenchmarkId::new("comparesets_plus_mu", mu.to_string()),
            &params,
            |b, p| b.iter(|| black_box(solve_with(&ctx, Algorithm::CompareSetsPlus, p, 0, &opts))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
