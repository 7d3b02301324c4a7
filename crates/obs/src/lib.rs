//! Observability layer shared by the solver stack.
//!
//! Two independent channels (ARCHITECTURE.md §7):
//!
//! * **Tracing** — human-readable, levelled text on stderr. Enabled with
//!   [`init_stderr_tracing`]; spans and events come from the `tracing`
//!   macros sprinkled through `crates/linalg`, `crates/core`,
//!   `crates/eval`, and `crates/cli`. Off by default; a disabled callsite
//!   costs one relaxed atomic load.
//! * **Metrics** — machine-readable counters in [`SolverMetrics`],
//!   threaded through `SolveOptions` as an `Option<Arc<SolverMetrics>>`.
//!   `None` (the default) skips every counter update and clock read; the
//!   solver hot paths never touch an atomic or an `Instant` unless a
//!   collector was installed. [`SolverMetrics::snapshot`] freezes the
//!   counters into a serialisable [`MetricsSnapshot`]; [`MetricsReport`]
//!   wraps a snapshot with run identity for `--metrics-json`.
//!
//! Counters are relaxed atomics, so one collector can be shared by
//! concurrent solves (the serving daemon's workers, the TargetHkS
//! branch-and-bound's scoped threads); increments interleave freely and
//! the totals are sums over every solve that reported into it.
//!
//! Every counter is declared once, in the `counters!` list below: its doc
//! comment, its name and the schema version that added it. Adding a
//! counter is one list entry plus a [`METRICS_SCHEMA`] bump; [`COUNTERS`]
//! exposes the list at run time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};

mod cancel;

pub use cancel::{CancelToken, SolveCtl};

/// Schema tag embedded in every [`MetricsReport`]. Bump it whenever a
/// counter is added (the new entry in [`COUNTERS`] records the bumped
/// version) or the layout changes, so downstream tooling can detect drift.
pub const METRICS_SCHEMA: &str = "comparesets-metrics/v8";

/// Declares every solver counter once. Each entry is a counter's doc
/// comment, its name, and the `METRICS_SCHEMA` version that added it.
/// From the list it generates [`SolverMetrics`] (one `AtomicU64` each),
/// [`MetricsSnapshot`] (one `u64` each), [`SolverMetrics::snapshot`], the
/// snapshot's JSON form (fields in list order) and [`COUNTERS`]. A
/// counter missing from a parsed snapshot reads 0 when it was added after
/// v1; a missing v1 counter is a parse error.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $version:literal,)*) => {
        /// Shared counter block for one logical run (a CLI command, an eval
        /// experiment, a test solve). Cheap to share via `Arc`; all updates
        /// are relaxed atomic adds.
        #[derive(Debug, Default)]
        pub struct SolverMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Frozen [`SolverMetrics`] counters — plain data, serialisable,
        /// and comparable.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Every counter as `(name, schema version that added it)`, in
        /// serialization order.
        pub const COUNTERS: &[(&str, u32)] = &[$((stringify!($name), $version),)*];

        impl SolverMetrics {
            /// Freeze the counters into a plain-data snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl Serialize for MetricsSnapshot {
            fn serialize(&self) -> Value {
                Value::Object(vec![$((stringify!($name).to_string(), self.$name.serialize()),)*])
            }
        }

        impl Deserialize for MetricsSnapshot {
            fn deserialize(value: &Value) -> Result<Self, serde::Error> {
                if value.as_object().is_none() {
                    return Err(serde::Error::invalid_type("object", value));
                }
                Ok(MetricsSnapshot {
                    $($name: match value.get(stringify!($name)) {
                        Some(v) => u64::deserialize(v)?,
                        None if $version > 1 => 0,
                        None => return Err(serde::Error::missing_field(stringify!($name))),
                    },)*
                })
            }
        }
    };
}

counters! {
    /// NOMP pursuits started (one per `nomp_path`/`nomp` call).
    nomp_pursuits: 1,
    /// Greedy atom-selection iterations across all pursuits.
    nomp_iterations: 1,
    /// Budget snapshots recorded by path-mode pursuits (one per ℓ).
    path_snapshots: 1,
    /// Refits served from the incrementally maintained Gram cache
    /// (every refit after the first within a pursuit).
    gram_cache_hits: 1,
    /// NNLS refits performed (one per accepted atom).
    nnls_refits: 1,
    /// Outer Lawson–Hanson iterations summed over all refits.
    nnls_iterations: 1,
    /// Refits that hit the 3n+10 outer-iteration cap without converging.
    nnls_cap_hits: 1,
    /// Gram solves that fell back from Cholesky to Householder QR.
    fallback_qr: 1,
    /// Gram solves that fell through QR to the ridge-regularised retry.
    fallback_ridge: 1,
    /// Per-item integer regressions solved (Algorithm 1 inner problem).
    integer_regressions: 1,
    /// Per-item Gauss–Seidel steps in the CompaReSetS+ alternation.
    alternation_rounds: 1,
    /// Alternation steps whose candidate improved the coupled cost.
    alternation_accepts: 1,
    /// Wall nanoseconds inside NOMP pursuits (greedy loop + refits).
    pursuit_nanos: 1,
    /// Wall nanoseconds inside NNLS refits (subset of `pursuit_nanos`).
    refit_nanos: 1,
    /// Cancellation-token polls performed (counted only when a token is
    /// installed; token-less solves never touch this).
    cancellation_checks: 2,
    /// Solves that observed a fired token/deadline and stopped early
    /// with their best-so-far iterate.
    deadline_expirations: 2,
    /// Transient ingestion I/O errors absorbed by the retrying reader.
    io_retries: 2,
    /// Warm-start iterations served from a validated previous trajectory
    /// (full-target reuse, or a replayed atom whose refit inputs matched
    /// the cached refit bit-for-bit — no NNLS refit executed).
    warm_start_hits: 3,
    /// Warm-start replays abandoned at the first cached atom that was no
    /// longer the argmax (or whose refit inputs changed); at most one per
    /// pursuit — the pursuit continues cold from the truncation point.
    warm_start_truncations: 3,
    /// Correlation-vector columns updated by the Gram downdate
    /// `c ← c − Δη·G[:,j]` instead of a full `Aᵀr` scan.
    corr_incremental_updates: 3,
    /// Exact `Aᵀr` recomputes bounding incremental-correlation drift
    /// (periodic, plus a residual-floor safety trigger).
    corr_exact_recomputes: 3,
    /// Solve requests admitted by the serving daemon (every request that
    /// reached the session cache, whatever its outcome).
    serve_requests: 4,
    /// Requests answered verbatim from the session cache's result layer —
    /// an exact repeat of a completed query; no solver work at all.
    serve_full_hits: 4,
    /// Requests that found per-item warm states in the session cache and
    /// re-solved through validated reuse instead of from scratch.
    serve_warm_hits: 4,
    /// Requests that found nothing reusable and solved cold.
    serve_cache_misses: 4,
    /// Session-cache entries evicted by the LRU capacity bound (result,
    /// context, and warm-state entries all count here).
    serve_cache_evictions: 4,
    /// Requests answered with a degraded best-so-far selection because
    /// their admission deadline expired mid-solve.
    serve_degraded: 4,
    /// Review events appended to a write-ahead log (one per record, even
    /// when a batch shares a single fsync).
    wal_appends: 5,
    /// `fsync` calls issued for WAL durability (one per acknowledged
    /// batch — the fsync-on-ack contract).
    wal_fsyncs: 5,
    /// Corpus snapshots written atomically (each one also compacts the
    /// WAL it covers).
    snapshot_writes: 5,
    /// WAL records replayed on top of a snapshot during crash recovery.
    recovery_replayed_records: 5,
    /// Session-cache entries dropped because an ingested event mutated
    /// an item they were keyed on.
    cache_invalidations: 5,
    /// TargetHkS branch-and-bound nodes expanded (sequential and parallel
    /// workers both count here; the aggregate equals `ExactResult.nodes`).
    bnb_nodes: 6,
    /// Subtrees discarded because their admissible upper bound could not
    /// beat the shared incumbent.
    bnb_prunes: 6,
    /// Strict improvements published to the shared best-incumbent (the
    /// greedy warm start does not count; it seeds the incumbent).
    bnb_incumbent_updates: 6,
    /// Frontier subproblems a worker pulled that a *different* worker
    /// produced (cross-worker work transfer; always zero sequentially).
    bnb_steals: 6,
    /// Faults a chaos-plane schedule injected into durability I/O
    /// (always zero in production runs — no plane is armed).
    faults_injected: 7,
    /// Graceful drains begun (SIGTERM or in-band shutdown while serving).
    drain_initiated: 7,
    /// Connections closed for blowing a read/write or per-frame deadline
    /// (slowloris peers, stalled sockets).
    connections_timed_out: 7,
    /// `health` ops answered by the serving daemon.
    health_checks: 7,
    /// Full correlation scans (`c = Aᵀr`) executed against a sparse (CSC)
    /// design matrix — stored-entry iteration, no dense column walks.
    sparse_corr_scans: 8,
    /// Full correlation scans executed against a dense design matrix
    /// (the chunked-SIMD fallback path).
    dense_corr_scans: 8,
    /// Gram columns/rows built from sparse column-column intersections
    /// (merge-joins over stored entries) instead of dense column dots.
    sparse_gram_builds: 8,
    /// Full 4-lane SIMD blocks executed by the dense chunked kernels on
    /// metered hot paths (correlation scans and blocked NNLS dual
    /// refreshes); scalar tails are not counted. Zero for pure-sparse
    /// solves — the complement of `sparse_corr_scans` coverage.
    simd_blocks: 8,
}

impl SolverMetrics {
    /// A fresh collector with every counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter (relaxed; aggregate order does not matter).
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to a counter.
    #[inline]
    pub fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add a wall-time duration to a nanosecond counter (saturating).
    #[inline]
    pub fn add_time(counter: &AtomicU64, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        counter.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// True when no counter ever fired (e.g. a non-solving CLI command).
    pub fn is_empty(&self) -> bool {
        *self == MetricsSnapshot::default()
    }
}

/// Machine-readable per-run report written by `--metrics-json` and
/// embedded per experiment in the eval suite report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Always [`METRICS_SCHEMA`]; validated by the schema tests.
    pub schema: String,
    /// What ran: a CLI command name or an eval experiment name.
    pub command: String,
    /// End-to-end wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// The frozen solver counters for the run.
    pub metrics: MetricsSnapshot,
}

impl MetricsReport {
    /// Assemble a report for `command` from a live collector.
    pub fn new(command: &str, wall: Duration, metrics: &SolverMetrics) -> Self {
        Self::from_snapshot(command, wall, metrics.snapshot())
    }

    /// Assemble a report from an already-frozen snapshot.
    pub fn from_snapshot(command: &str, wall: Duration, metrics: MetricsSnapshot) -> Self {
        MetricsReport {
            schema: METRICS_SCHEMA.to_string(),
            command: command.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
            metrics,
        }
    }

    /// Check the embedded schema tag.
    pub fn schema_matches(&self) -> bool {
        self.schema == METRICS_SCHEMA
    }
}

/// Stderr subscriber behind [`init_stderr_tracing`]: one line per event,
/// one line per closed span (with busy time in microseconds).
struct StderrSubscriber;

impl tracing::Subscriber for StderrSubscriber {
    fn event(&self, level: tracing::Level, target: &str, message: &str) {
        eprintln!("{level:>5} {target}: {message}");
    }

    fn span_close(
        &self,
        level: tracing::Level,
        target: &str,
        name: &str,
        fields: &str,
        busy: Duration,
    ) {
        eprintln!(
            "{level:>5} {target}: close {name}{fields} busy={:.1}us",
            busy.as_secs_f64() * 1e6
        );
    }
}

/// Enable human-readable tracing on stderr at `level` and above.
///
/// Idempotent: installing the subscriber twice is harmless (the first
/// install wins), and the max level is always updated — so the CLI and
/// tests may call this freely.
pub fn init_stderr_tracing(level: tracing::Level) {
    let _ = tracing::subscriber::set_global_default(StderrSubscriber);
    tracing::set_max_level(Some(level));
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = SolverMetrics::new();
        SolverMetrics::incr(&m.nomp_pursuits);
        SolverMetrics::add(&m.nomp_iterations, 7);
        SolverMetrics::add_time(&m.pursuit_nanos, Duration::from_micros(3));
        let snap = m.snapshot();
        assert_eq!(snap.nomp_pursuits, 1);
        assert_eq!(snap.nomp_iterations, 7);
        assert_eq!(snap.pursuit_nanos, 3_000);
        assert!(!snap.is_empty());
        assert!(SolverMetrics::new().snapshot().is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let m = SolverMetrics::new();
        SolverMetrics::add(&m.integer_regressions, 12);
        let report = MetricsReport::new("select", Duration::from_millis(8), &m);
        assert!(report.schema_matches());
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.metrics.integer_regressions, 12);
        assert!((back.wall_ms - 8.0).abs() < 1e-9);
    }
}
