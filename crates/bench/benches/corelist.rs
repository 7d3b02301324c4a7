//! Table 6 workload: the per-instance core-list flow — CompaReSetS+
//! selection, similarity-graph construction, and the four narrowing
//! methods.

use comparesets_core::{solve_with, Algorithm, SelectParams, SolveOptions};
use comparesets_graph::{
    solve_exact, solve_greedy, solve_top_k_similarity, ExactOptions, SimilarityGraph,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_corelist(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let dataset = comparesets_bench::corpus();
    let ctx = comparesets_bench::instance(&dataset, 8);
    let params = SelectParams::default();
    let selections = solve_with(&ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);

    let mut g = c.benchmark_group("table6_corelist");
    g.sample_size(20);
    g.bench_function("graph_build_n9", |b| {
        b.iter(|| {
            black_box(SimilarityGraph::from_selections(
                &ctx,
                &selections,
                params.lambda,
                params.mu,
            ))
        })
    });
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    g.bench_function("exact_k3", |b| {
        b.iter(|| black_box(solve_exact(&graph, 0, 3, &ExactOptions::default())))
    });
    g.bench_function("greedy_k3", |b| {
        b.iter(|| black_box(solve_greedy(&graph, 0, 3)))
    });
    g.bench_function("topk_k3", |b| {
        b.iter(|| black_box(solve_top_k_similarity(&graph, 0, 3)))
    });
    g.finish();
}

criterion_group!(benches, bench_corelist);
criterion_main!(benches);
