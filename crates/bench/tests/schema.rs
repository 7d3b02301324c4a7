//! Schema tests for the committed machine-readable reports: the bench
//! baseline at the workspace root must deserialize through the shared
//! [`comparesets_bench::BenchReport`] types and pass structural
//! validation, and the solver-metrics report format used by the CLI's
//! `--metrics-json` must round-trip under its schema tag.

use comparesets_bench::{BenchReport, ServeBenchReport, StreamBenchReport, TargetHksBenchReport};
use comparesets_core::{MetricsReport, SolverMetrics, COUNTERS, METRICS_SCHEMA};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // CARGO_MANIFEST_DIR = crates/bench; the reports live two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the workspace root")
}

#[test]
fn committed_bench_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_parallel_solver.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: BenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "parallel_solver");
    // The baseline must cover both headline workload families.
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("regression_engine/")),
        "missing regression_engine workloads: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("alternation/")),
        "missing alternation (warm vs cold) workloads: {names:?}"
    );
    // The alternation family must cover both engines at every sweep depth
    // so the warm-vs-cold speedup in PERFORMANCE.md stays reproducible.
    for sweeps in 1..=4 {
        for engine in ["cold", "warm"] {
            let want = format!("alternation/{engine}/sweeps{sweeps}");
            assert!(
                names.iter().any(|n| *n == want),
                "missing {want}: {names:?}"
            );
        }
    }
    // Re-serializing the parsed report loses no fields.
    let round_tripped: BenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_sparse_baseline_matches_schema_and_acceptance() {
    let path = workspace_root().join("BENCH_sparse.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: BenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "nomp_sparse");
    let seconds = |name: &str| {
        report
            .measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.seconds_min)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    // The PR's acceptance criterion: on the paper-shaped 16 000x80
    // workload (<=10% nnz) the CSC backend is at least 2x faster than the
    // dense kernels. Guarded against the committed baseline so a sparse
    // kernel regression breaks the build instead of silently rotting the
    // PERFORMANCE.md numbers.
    let dense = seconds("regression_engine/sparse/dense/16000x80");
    let csc = seconds("regression_engine/sparse/csc/16000x80");
    assert!(
        csc * 2.0 <= dense,
        "csc {csc}s is not >=2x faster than dense {dense}s on 16000x80"
    );
    // The crossover sweep must cover both backends at every density so
    // the DENSITY_CROSSOVER = 0.65 rule stays reproducible, and the
    // committed grid must show a clear sparse win at paper-like
    // densities (the advantage decays to parity near the crossover).
    for pct in [5u32, 10, 15, 20, 25, 30, 40, 50, 65, 80, 100] {
        for backend in ["dense", "csc"] {
            let want = format!("regression_engine/sparse/crossover/{backend}/d{pct:02}");
            assert!(
                report.measurements.iter().any(|m| m.name == want),
                "missing {want}"
            );
        }
    }
    let d05 = seconds("regression_engine/sparse/crossover/dense/d05");
    let c05 = seconds("regression_engine/sparse/crossover/csc/d05");
    assert!(
        c05 * 2.0 <= d05,
        "csc {c05}s is not >=2x faster than dense {d05}s at 5% density"
    );
    let round_tripped: BenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_serve_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_serve.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: ServeBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "serve");
    // Both server modes at every concurrency level the PR's acceptance
    // criterion quotes.
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    for mode in ["cold", "warm"] {
        for clients in [1, 8, 64] {
            let want = format!("serve/{mode}/clients{clients}");
            assert!(
                names.iter().any(|n| *n == want),
                "missing {want}: {names:?}"
            );
        }
    }
    // The headline claim: the warm path is at least 5x faster than a cold
    // solve at 8 concurrent clients. Guarded here so a regression in the
    // session cache breaks the build instead of silently rotting the
    // committed numbers.
    let p50 = |name: &str| {
        report
            .measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.p50_ms)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let cold = p50("serve/cold/clients8");
    let warm = p50("serve/warm/clients8");
    assert!(
        warm * 5.0 <= cold,
        "warm p50 {warm}ms is not >=5x faster than cold p50 {cold}ms"
    );
    let round_tripped: ServeBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_targethks_baseline_matches_schema_and_acceptance() {
    let path = workspace_root().join("BENCH_targethks.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: TargetHksBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "targethks_scaling");
    // The PR's acceptance criterion, guarded against the committed grid:
    // the deadline bites somewhere, the 4-thread anytime solver closes
    // strictly more of those open cells or certifies a strictly smaller
    // mean bound gap, and both modes prove the same optimum on every cell
    // both close.
    report
        .anytime_acceptance()
        .unwrap_or_else(|e| panic!("{} fails the anytime acceptance: {e}", path.display()));
    // The grid must actually be a vertices x k grid, spanning both easy
    // (closed) and deadline-bound (open) cells.
    let vertex_sizes: std::collections::HashSet<usize> =
        report.cells.iter().map(|c| c.vertices).collect();
    let ks: std::collections::HashSet<usize> = report.cells.iter().map(|c| c.k).collect();
    assert!(vertex_sizes.len() >= 3, "grid too narrow: {vertex_sizes:?}");
    assert!(ks.len() >= 3, "grid too shallow: {ks:?}");
    assert!(report.cells.iter().any(|c| c.seq_closed && c.par_closed));
    let round_tripped: TargetHksBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn committed_stream_baseline_matches_schema() {
    let path = workspace_root().join("BENCH_stream.json");
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let report: StreamBenchReport = serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("{} does not match the schema: {e}", path.display()));
    report
        .validate()
        .unwrap_or_else(|e| panic!("{} is malformed: {e}", path.display()));
    assert_eq!(report.bench, "stream");
    let names: Vec<&str> = report
        .measurements
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    // Sustained ingest with the serve query mix at both client counts the
    // PR quotes, and recovery time at every WAL-tail length.
    for clients in [1, 8] {
        let want = format!("stream/ingest/queryclients{clients}");
        assert!(
            names.iter().any(|n| *n == want),
            "missing {want}: {names:?}"
        );
    }
    for tail in [1000, 4000, 16000] {
        let want = format!("stream/recover/tail{tail}");
        assert!(
            names.iter().any(|n| *n == want),
            "missing {want}: {names:?}"
        );
    }
    let round_tripped: StreamBenchReport =
        serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
    assert_eq!(round_tripped, report);
}

#[test]
fn metrics_report_format_round_trips_under_its_schema_tag() {
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.nomp_pursuits, 3);
    SolverMetrics::add(&collector.integer_regressions, 3);
    let report = MetricsReport::new("select", std::time::Duration::from_millis(12), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    let back: MetricsReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert!(back.schema_matches());
    assert_eq!(back.metrics.nomp_pursuits, 3);
}

/// A `--metrics-json` report tagged `tag` whose metrics object holds the
/// counters `keep` accepts (by name and version added), each set to one
/// plus its index in [`COUNTERS`], or to 0 when `zero` accepts its version.
fn metrics_json(tag: &str, keep: impl Fn(&str, u32) -> bool, zero: impl Fn(u32) -> bool) -> String {
    let fields: Vec<String> = COUNTERS
        .iter()
        .enumerate()
        .filter(|&(_, &(name, version))| keep(name, version))
        .map(|(i, &(name, version))| {
            let value = if zero(version) { 0 } else { i + 1 };
            format!("\"{name}\":{value}")
        })
        .collect();
    format!(
        "{{\"schema\":\"{tag}\",\"command\":\"select\",\"wall_ms\":3.5,\"metrics\":{{{}}}}}",
        fields.join(",")
    )
}

#[test]
fn metrics_schema_history_defaults_exactly_the_newer_counters_to_zero() {
    assert_eq!(METRICS_SCHEMA, "comparesets-metrics/v8");
    let current = COUNTERS.iter().map(|c| c.1).max().unwrap();
    assert_eq!(METRICS_SCHEMA, format!("comparesets-metrics/v{current}"));

    // A current report carries every counter, in list order, byte for byte.
    let full = metrics_json(METRICS_SCHEMA, |_, _| true, |_| false);
    let back: MetricsReport = serde_json::from_str(&full).unwrap();
    assert!(back.schema_matches());
    assert_eq!(serde_json::to_string(&back).unwrap(), full);

    // An older report lacks the counters added at or after the version
    // that followed it: exactly those read 0, every other keeps its value.
    for version in 2..=current {
        let old_tag = format!("comparesets-metrics/v{}", version - 1);
        let old = metrics_json(&old_tag, |_, v| v < version, |_| false);
        let back: MetricsReport = serde_json::from_str(&old)
            .unwrap_or_else(|e| panic!("{old_tag} report does not parse: {e}"));
        assert!(!back.schema_matches());
        let expected = metrics_json(&old_tag, |_, _| true, |v| v >= version);
        assert_eq!(serde_json::to_string(&back).unwrap(), expected, "{old_tag}");
    }

    // v1 counters have no default: a report missing any of them is broken.
    for &(missing, _) in COUNTERS.iter().filter(|c| c.1 == 1) {
        let broken = metrics_json(
            "comparesets-metrics/v1",
            |name, v| v == 1 && name != missing,
            |_| false,
        );
        let err = serde_json::from_str::<MetricsReport>(&broken).unwrap_err();
        assert!(err.to_string().contains(missing), "{missing}: {err}");
    }
}
