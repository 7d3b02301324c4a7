//! TargetHkS scaling grid: sequential vs. parallel anytime
//! branch-and-bound under a fixed 1-second deadline.
//!
//! For every (vertices, k) cell the same seeded instance is solved twice
//! — sequentially and with the 4-worker best-first frontier — and the
//! report records who closed the cell (proved optimality inside the
//! deadline), the anytime gap certificate each mode returned when it did
//! not, and the node throughput of both. Besides the criterion console
//! output, the full grid is written to `BENCH_targethks.json` at the
//! workspace root; `crates/bench/tests/schema.rs` re-validates the
//! committed baseline and enforces the anytime acceptance property
//! (parallel closes more open cells or certifies a smaller mean gap, and
//! both modes prove the same optimum wherever both close).
//!
//! Setting `COMPARESETS_BENCH_SMOKE=1` (see `just bench-smoke`) runs one
//! sample of one iteration per workload and skips the JSON report, so CI
//! can exercise every bench body without touching the committed baseline.

use comparesets_bench::{TargetHksBenchReport, TargetHksCell};
use comparesets_graph::{solve_exact, ExactOptions, SimilarityGraph, SolveStatus};
use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Heavy-tailed random complete graph. High weight variance is what makes
/// branch-and-bound hard: the admissible bounds assemble the heaviest
/// edges anywhere in the candidate set, so a fat upper tail keeps them
/// far above what any single completion achieves and pruning stays weak.
fn random_graph(n: usize, seed: u64) -> SimilarityGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let u: f64 = rng.random_range(0.0..1.0);
            let v = 10.0 * u * u * u;
            w[i * n + j] = v;
            w[j * n + i] = v;
        }
    }
    SimilarityGraph::from_weights(n, w)
}

const PAR_THREADS: usize = 4;

/// Solve one grid cell in both modes and package the comparison.
fn run_cell(n: usize, k: usize, deadline: Duration) -> TargetHksCell {
    let graph = random_graph(n, 42 + n as u64);

    let seq_opts = ExactOptions::default().with_time_limit(deadline);
    let start = Instant::now();
    let seq = solve_exact(&graph, 0, k, &seq_opts);
    let seq_elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let par_opts = ExactOptions::default()
        .with_time_limit(deadline)
        .with_threads(PAR_THREADS);
    let start = Instant::now();
    let par = solve_exact(&graph, 0, k, &par_opts);
    let par_elapsed = start.elapsed().as_secs_f64().max(1e-9);

    TargetHksCell {
        name: format!("targethks/n{n}/k{k}"),
        vertices: n,
        k,
        deadline_ms: u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX),
        threads: PAR_THREADS,
        seq_closed: seq.status == SolveStatus::Optimal,
        par_closed: par.status == SolveStatus::Optimal,
        seq_weight: seq.weight,
        par_weight: par.weight,
        seq_gap: seq.gap,
        par_gap: par.gap,
        seq_nodes: seq.nodes.max(1),
        par_nodes: par.nodes.max(1),
        seq_nodes_per_sec: seq.nodes.max(1) as f64 / seq_elapsed,
        par_nodes_per_sec: par.nodes.max(1) as f64 / par_elapsed,
    }
}

/// The committed grid: small cells close in both modes (pinning equal
/// optima), large near-uniform cells overrun the deadline (pinning the
/// anytime gap comparison).
const GRID: &[(usize, usize)] = &[
    (16, 4),
    (16, 6),
    (24, 6),
    (24, 8),
    (32, 8),
    (40, 10),
    (48, 10),
    (56, 12),
    (64, 12),
];
const DEADLINE: Duration = Duration::from_secs(1);

fn bench_scaling(c: &mut Criterion) {
    // One representative cell per mode for the criterion/smoke path; the
    // full grid runs in emit_json() where wall-clock budgets are not
    // multiplied by criterion sampling.
    let graph = random_graph(16, 42 + 16);
    let mut g = c.benchmark_group("targethks_scaling");
    g.sample_size(10);
    for (label, threads) in [("sequential", 1usize), ("parallel4", PAR_THREADS)] {
        let opts = ExactOptions::default()
            .with_time_limit(Duration::from_millis(200))
            .with_threads(threads);
        g.bench_with_input(BenchmarkId::new(label, "n16/k4"), &graph, |b, gr| {
            b.iter(|| black_box(solve_exact(gr, 0, 4, &opts)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_scaling);

fn emit_json() {
    let cells: Vec<TargetHksCell> = GRID
        .iter()
        .map(|&(n, k)| {
            let cell = run_cell(n, k, DEADLINE);
            println!(
                "{}: seq {} gap {:.3} ({:.0} nodes/s) | par {} gap {:.3} ({:.0} nodes/s)",
                cell.name,
                if cell.seq_closed { "closed" } else { "open" },
                cell.seq_gap,
                cell.seq_nodes_per_sec,
                if cell.par_closed { "closed" } else { "open" },
                cell.par_gap,
                cell.par_nodes_per_sec,
            );
            cell
        })
        .collect();

    let report = TargetHksBenchReport {
        bench: "targethks_scaling".to_string(),
        threads_available: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        cells,
    };
    report.validate().expect("emitted report is well-formed");
    report
        .anytime_acceptance()
        .expect("grid demonstrates the anytime win");
    // CARGO_MANIFEST_DIR = crates/bench; the report lives at the workspace
    // root next to PERFORMANCE.md.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_targethks.json");
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("report written");
    println!("wrote {}", out.display());
}

fn main() {
    benches();
    // Smoke mode (CI) exercises every bench body once but must never
    // rewrite the committed baseline with throwaway numbers.
    if std::env::var_os("COMPARESETS_BENCH_SMOKE").is_none() {
        emit_json();
    }
}
