//! Figure 11 workload: π/φ vector construction and the information-loss
//! measures across review budgets.

use comparesets_core::{solve_with, Algorithm, SelectParams, Selection, SolveOptions};
use comparesets_linalg::vector::{cosine_similarity, sq_distance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

#[allow(clippy::needless_range_loop)] // index loops read clearest here
fn bench_infoloss(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 4);
    let mut g = c.benchmark_group("fig11_infoloss");
    g.sample_size(20);
    for m in [1usize, 3, 10] {
        let params = SelectParams {
            m,
            lambda: 1.0,
            mu: 0.1,
        };
        let sels = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
        g.bench_with_input(BenchmarkId::new("pi_and_loss", m), &sels, |b, sels| {
            b.iter(|| {
                let mut total = 0.0;
                for i in 0..ctx.num_items() {
                    let sel: &Selection = &sels[i];
                    let pi = ctx.space().pi(ctx.item(i), &sel.indices);
                    total += sq_distance(ctx.tau(i), &pi);
                    total += cosine_similarity(ctx.tau(i), &pi);
                }
                black_box(total)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_infoloss);
criterion_main!(benches);
