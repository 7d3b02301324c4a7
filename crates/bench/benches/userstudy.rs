//! Table 7 workload: latent-utility measurement and simulated panel
//! rating.

use comparesets_core::{solve_with, Algorithm, SelectParams, SolveOptions};
use comparesets_eval::userstudy::{latent_utility, rate_example, LatentUtility};
use comparesets_eval::{EvalConfig, PreparedInstance};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn prepared() -> PreparedInstance {
    let cfg = EvalConfig::tiny();
    let dataset =
        comparesets_eval::pipeline::dataset_for(comparesets_data::CategoryPreset::Cellphone, &cfg);
    comparesets_eval::pipeline::prepare_instances(&dataset, &cfg)
        .into_iter()
        .next()
        .unwrap()
}

fn bench_userstudy(c: &mut Criterion) {
    let opts = SolveOptions::default();
    let inst = prepared();
    let params = SelectParams::default();
    let selections = solve_with(&inst.ctx, Algorithm::CompareSetsPlus, &params, 0, &opts);
    let items: Vec<usize> = (0..inst.ctx.num_items().min(3)).collect();

    let mut g = c.benchmark_group("table7_userstudy");
    g.sample_size(30);
    g.bench_function("latent_utility", |b| {
        b.iter(|| black_box(latent_utility(&inst, &selections, &items)))
    });
    let u = LatentUtility {
        q1: 3.7,
        q2: 4.1,
        q3: 3.8,
        coherence: 0.8,
    };
    g.bench_function("rate_example", |b| {
        b.iter(|| black_box(rate_example(u, 3, 42)))
    });
    g.finish();
}

criterion_group!(benches, bench_userstudy);
criterion_main!(benches);
