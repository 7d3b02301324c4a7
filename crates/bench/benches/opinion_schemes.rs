//! Table 4 workload: CompaReSetS under the three opinion definitions.

use comparesets_core::{
    solve_with, Algorithm, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_schemes(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let raw = dataset
        .instances()
        .into_iter()
        .find(|i| i.comparatives().len() >= 4)
        .unwrap()
        .truncated(4);
    let params = SelectParams::default();
    let mut g = c.benchmark_group("table4_opinion_schemes");
    g.sample_size(20);
    for scheme in OpinionScheme::ALL {
        let ctx = InstanceContext::build(&dataset, &raw, scheme);
        g.bench_with_input(
            BenchmarkId::new("comparesets", scheme.name()),
            &ctx,
            |b, ctx| {
                b.iter(|| black_box(solve_with(ctx, Algorithm::CompareSets, &params, 0, &opts)))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
