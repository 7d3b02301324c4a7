//! Schema tests for the committed machine-readable reports: the bench
//! baseline at the workspace root must deserialize through the shared
//! [`comparesets_bench::BenchReport`] types and pass structural
//! validation, and the solver-metrics report format used by the CLI's
//! `--metrics-json` must round-trip under its schema tag.

use comparesets_bench::{BenchReport, ServeBenchReport, StreamBenchReport, TargetHksBenchReport};
use comparesets_core::{MetricsReport, SolverMetrics};
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

#[test]
fn metrics_schema_v2_carries_the_preemption_counters() {
    // v2 added the preemption/ingestion counters; the serialized report
    // must still carry all three so consumers can rely on the tag family
    // to know the fields exist.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.cancellation_checks, 7);
    SolverMetrics::incr(&collector.deadline_expirations);
    SolverMetrics::add(&collector.io_retries, 2);
    let report = MetricsReport::new("eval", std::time::Duration::from_millis(5), &collector);
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"cancellation_checks\":7",
        ",\"deadline_expirations\":1",
        ",\"io_retries\":2",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    // A v1 report (no preemption counters) still parses: the fields
    // default to zero rather than failing deserialization.
    let v1 = json
        .replace(",\"cancellation_checks\":7", "")
        .replace(",\"deadline_expirations\":1", "")
        .replace(",\"io_retries\":2", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v1");
    let back: MetricsReport = serde_json::from_str(&v1).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.cancellation_checks, 0);
    assert_eq!(back.metrics.io_retries, 0);
}

#[test]
fn metrics_schema_v3_carries_the_warm_start_counters() {
    // The warm-start and incremental-correlation counters landed with the
    // v3 tag; serialized reports carry all four, and older tag
    // generations still parse with the new fields defaulting to zero.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.warm_start_hits, 11);
    SolverMetrics::incr(&collector.warm_start_truncations);
    SolverMetrics::add(&collector.corr_incremental_updates, 40);
    SolverMetrics::add(&collector.corr_exact_recomputes, 5);
    let report = MetricsReport::new("select", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"warm_start_hits\":11",
        ",\"warm_start_truncations\":1",
        ",\"corr_incremental_updates\":40",
        ",\"corr_exact_recomputes\":5",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    // v2 (and v1) reports predate the counters: stripping them and
    // downgrading the tag must still deserialize, defaulting to zero.
    let stripped = json
        .replace(",\"warm_start_hits\":11", "")
        .replace(",\"warm_start_truncations\":1", "")
        .replace(",\"corr_incremental_updates\":40", "")
        .replace(",\"corr_exact_recomputes\":5", "");
    for old_tag in ["comparesets-metrics/v2", "comparesets-metrics/v1"] {
        let old = stripped.replace(comparesets_core::METRICS_SCHEMA, old_tag);
        let back: MetricsReport = serde_json::from_str(&old).unwrap();
        assert!(!back.schema_matches());
        assert_eq!(back.metrics.warm_start_hits, 0);
        assert_eq!(back.metrics.corr_exact_recomputes, 0);
    }
}

#[test]
fn metrics_schema_v4_carries_the_serving_counters() {
    // The serving daemon landed with the v4 tag; serialized reports carry
    // the session-cache and admission counters, and v3-tagged reports
    // (no serving fields) still parse with the fields defaulting to zero.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.serve_requests, 9);
    SolverMetrics::add(&collector.serve_full_hits, 4);
    SolverMetrics::add(&collector.serve_warm_hits, 3);
    SolverMetrics::add(&collector.serve_cache_misses, 2);
    SolverMetrics::incr(&collector.serve_cache_evictions);
    SolverMetrics::incr(&collector.serve_degraded);
    let report = MetricsReport::new("serve", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"serve_requests\":9",
        ",\"serve_full_hits\":4",
        ",\"serve_warm_hits\":3",
        ",\"serve_cache_misses\":2",
        ",\"serve_cache_evictions\":1",
        ",\"serve_degraded\":1",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stripped = json
        .replace(",\"serve_requests\":9", "")
        .replace(",\"serve_full_hits\":4", "")
        .replace(",\"serve_warm_hits\":3", "")
        .replace(",\"serve_cache_misses\":2", "")
        .replace(",\"serve_cache_evictions\":1", "")
        .replace(",\"serve_degraded\":1", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v3");
    let back: MetricsReport = serde_json::from_str(&stripped).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.serve_requests, 0);
    assert_eq!(back.metrics.serve_degraded, 0);
}

#[test]
fn metrics_schema_v5_carries_the_streaming_counters() {
    // The durable streaming store landed with the v5 tag; serialized
    // reports carry the WAL/snapshot/recovery counters, and v4-tagged
    // reports (no streaming fields) still parse defaulting to zero.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.wal_appends, 12);
    SolverMetrics::add(&collector.wal_fsyncs, 7);
    SolverMetrics::incr(&collector.snapshot_writes);
    SolverMetrics::add(&collector.recovery_replayed_records, 5);
    SolverMetrics::add(&collector.cache_invalidations, 3);
    let report = MetricsReport::new("serve", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"wal_appends\":12",
        ",\"wal_fsyncs\":7",
        ",\"snapshot_writes\":1",
        ",\"recovery_replayed_records\":5",
        ",\"cache_invalidations\":3",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stripped = json
        .replace(",\"wal_appends\":12", "")
        .replace(",\"wal_fsyncs\":7", "")
        .replace(",\"snapshot_writes\":1", "")
        .replace(",\"recovery_replayed_records\":5", "")
        .replace(",\"cache_invalidations\":3", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v4");
    let back: MetricsReport = serde_json::from_str(&stripped).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.wal_appends, 0);
    assert_eq!(back.metrics.cache_invalidations, 0);
}

#[test]
fn metrics_schema_v6_carries_the_bnb_counters() {
    // The parallel branch-and-bound landed with the v6 tag; serialized
    // reports carry the B&B search counters, and v5-tagged reports (no
    // B&B fields) still parse defaulting to zero.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.bnb_nodes, 41);
    SolverMetrics::add(&collector.bnb_prunes, 17);
    SolverMetrics::add(&collector.bnb_incumbent_updates, 3);
    SolverMetrics::add(&collector.bnb_steals, 2);
    let report = MetricsReport::new("narrow", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"bnb_nodes\":41",
        ",\"bnb_prunes\":17",
        ",\"bnb_incumbent_updates\":3",
        ",\"bnb_steals\":2",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stripped = json
        .replace(",\"bnb_nodes\":41", "")
        .replace(",\"bnb_prunes\":17", "")
        .replace(",\"bnb_incumbent_updates\":3", "")
        .replace(",\"bnb_steals\":2", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v5");
    let back: MetricsReport = serde_json::from_str(&stripped).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.bnb_nodes, 0);
    assert_eq!(back.metrics.bnb_steals, 0);
}

#[test]
fn metrics_schema_v7_carries_the_chaos_and_drain_counters() {
    // The chaos plane + graceful drain landed with the v7 tag;
    // serialized reports carry the fault/drain/timeout/health counters,
    // and v6-tagged reports (no chaos fields) still parse defaulting to
    // zero.
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.faults_injected, 23);
    SolverMetrics::add(&collector.drain_initiated, 1);
    SolverMetrics::add(&collector.connections_timed_out, 4);
    SolverMetrics::add(&collector.health_checks, 9);
    let report = MetricsReport::new("serve", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"faults_injected\":23",
        ",\"drain_initiated\":1",
        ",\"connections_timed_out\":4",
        ",\"health_checks\":9",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stripped = json
        .replace(",\"faults_injected\":23", "")
        .replace(",\"drain_initiated\":1", "")
        .replace(",\"connections_timed_out\":4", "")
        .replace(",\"health_checks\":9", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v6");
    let back: MetricsReport = serde_json::from_str(&stripped).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.faults_injected, 0);
    assert_eq!(back.metrics.health_checks, 0);
}

#[test]
fn metrics_schema_v8_carries_the_sparse_kernel_counters() {
    // The sparse/SIMD kernel rewrite landed with the v8 tag; serialized
    // reports carry the backend-classification and SIMD-block counters,
    // and v7-tagged reports (no sparse fields) still parse defaulting to
    // zero.
    assert_eq!(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v8");
    let collector = SolverMetrics::new();
    SolverMetrics::add(&collector.sparse_corr_scans, 6);
    SolverMetrics::add(&collector.dense_corr_scans, 2);
    SolverMetrics::add(&collector.sparse_gram_builds, 5);
    SolverMetrics::add(&collector.simd_blocks, 800);
    let report = MetricsReport::new("select", std::time::Duration::from_millis(3), &collector);
    assert!(report.schema_matches());
    let json = serde_json::to_string(&report).unwrap();
    for field in [
        ",\"sparse_corr_scans\":6",
        ",\"dense_corr_scans\":2",
        ",\"sparse_gram_builds\":5",
        ",\"simd_blocks\":800",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
    let stripped = json
        .replace(",\"sparse_corr_scans\":6", "")
        .replace(",\"dense_corr_scans\":2", "")
        .replace(",\"sparse_gram_builds\":5", "")
        .replace(",\"simd_blocks\":800", "")
        .replace(comparesets_core::METRICS_SCHEMA, "comparesets-metrics/v7");
    let back: MetricsReport = serde_json::from_str(&stripped).unwrap();
    assert!(!back.schema_matches());
    assert_eq!(back.metrics.sparse_corr_scans, 0);
    assert_eq!(back.metrics.simd_blocks, 0);
}
