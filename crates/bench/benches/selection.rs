//! Table 3 workload: the five selection algorithms on one instance
//! (m = 3, the paper's default).

use comparesets_core::{solve_with, Algorithm, SelectParams, SolveOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_selection(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 5);
    let params = SelectParams::default();
    let mut g = c.benchmark_group("table3_selection");
    g.sample_size(20);
    for alg in Algorithm::ALL {
        g.bench_with_input(BenchmarkId::new("m3", alg.name()), &alg, |b, &a| {
            b.iter(|| black_box(solve_with(&ctx, a, &params, 7, &opts)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
