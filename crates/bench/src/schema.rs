//! Serde schema for the machine-readable bench report.
//!
//! `benches/parallel_solver.rs` writes `BENCH_parallel_solver.json` at the
//! workspace root through these types, and the schema tests deserialize
//! the *committed* report back through the same types — so a drive-by
//! field rename breaks `cargo test` instead of silently orphaning the
//! baseline PERFORMANCE.md quotes.

use serde::{Deserialize, Serialize};

/// The checks every report shares: a non-empty bench name, at least one
/// available thread, and at least one row (`row` names the kind), each
/// with a non-empty name no other row repeats.
fn check_identity<'a>(
    bench: &str,
    threads_available: usize,
    row: &str,
    names: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    if bench.is_empty() {
        return Err("bench name is empty".to_string());
    }
    if threads_available == 0 {
        return Err("threads_available must be at least 1".to_string());
    }
    let mut seen = std::collections::HashSet::new();
    for name in names {
        if name.is_empty() {
            return Err(format!("a {row} has an empty name"));
        }
        if !seen.insert(name) {
            return Err(format!("duplicate {row} name {name:?}"));
        }
    }
    if seen.is_empty() {
        return Err(format!("report has no {row}s"));
    }
    Ok(())
}

/// One timed workload of a bench run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// Workload path, e.g. `"solver_parallel/crs/sequential"`.
    pub name: String,
    /// Minimum wall-clock over all samples, in seconds.
    pub seconds_min: f64,
    /// Number of samples the minimum was taken over.
    pub samples: usize,
}

/// The machine-readable report a bench target emits next to its criterion
/// console output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Bench target name (e.g. `"parallel_solver"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<Measurement>,
}

impl BenchReport {
    /// Structural validation: non-empty identity, at least one
    /// measurement, unique workload names, and strictly positive finite
    /// timings.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        check_identity(
            &self.bench,
            self.threads_available,
            "measurement",
            self.measurements.iter().map(|m| m.name.as_str()),
        )?;
        for m in &self.measurements {
            if !(m.seconds_min.is_finite() && m.seconds_min > 0.0) {
                return Err(format!(
                    "{}: seconds_min {} is not a positive finite time",
                    m.name, m.seconds_min
                ));
            }
            if m.samples == 0 {
                return Err(format!("{}: zero samples", m.name));
            }
        }
        Ok(())
    }
}

/// One serving workload: a client-concurrency level against a cold or
/// warm server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeMeasurement {
    /// Workload path, e.g. `"serve/warm/clients8"`.
    pub name: String,
    /// Median request latency over all requests, in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, in milliseconds.
    pub p99_ms: f64,
    /// Completed requests per second across all clients.
    pub qps: f64,
    /// Total requests the percentiles were computed over.
    pub requests: usize,
}

/// The machine-readable report `benches/serve.rs` writes to
/// `BENCH_serve.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Bench target name (`"serve"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<ServeMeasurement>,
}

impl ServeBenchReport {
    /// Structural validation: non-empty identity, unique workload names,
    /// positive finite latencies with p50 <= p99, and positive QPS.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        check_identity(
            &self.bench,
            self.threads_available,
            "measurement",
            self.measurements.iter().map(|m| m.name.as_str()),
        )?;
        for m in &self.measurements {
            for (what, v) in [("p50_ms", m.p50_ms), ("p99_ms", m.p99_ms), ("qps", m.qps)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive and finite", m.name));
                }
            }
            if m.p50_ms > m.p99_ms {
                return Err(format!(
                    "{}: p50 {} exceeds p99 {}",
                    m.name, m.p50_ms, m.p99_ms
                ));
            }
            if m.requests == 0 {
                return Err(format!("{}: zero requests", m.name));
            }
        }
        Ok(())
    }
}

/// One streaming workload: either sustained ingest throughput under a
/// concurrent query load, or recovery time over a WAL tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamMeasurement {
    /// Workload path, e.g. `"stream/ingest/queryclients8"` or
    /// `"stream/recover/tail4000"`.
    pub name: String,
    /// Review events the workload processed (ingested or replayed).
    pub events: usize,
    /// Wall-clock the events took, in seconds.
    pub seconds: f64,
    /// `events / seconds` — sustained reviews/sec.
    pub events_per_sec: f64,
}

/// The machine-readable report `benches/stream.rs` writes to
/// `BENCH_stream.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamBenchReport {
    /// Bench target name (`"stream"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All measurements, in emission order.
    pub measurements: Vec<StreamMeasurement>,
}

impl StreamBenchReport {
    /// Structural validation: non-empty identity, unique workload names,
    /// positive event counts, and positive finite timings whose rate is
    /// consistent with `events / seconds`.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        check_identity(
            &self.bench,
            self.threads_available,
            "measurement",
            self.measurements.iter().map(|m| m.name.as_str()),
        )?;
        for m in &self.measurements {
            if m.events == 0 {
                return Err(format!("{}: zero events", m.name));
            }
            for (what, v) in [("seconds", m.seconds), ("events_per_sec", m.events_per_sec)] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive and finite", m.name));
                }
            }
            let implied = m.events as f64 / m.seconds;
            if (m.events_per_sec - implied).abs() > implied * 0.01 {
                return Err(format!(
                    "{}: events_per_sec {} inconsistent with {} events / {}s",
                    m.name, m.events_per_sec, m.events, m.seconds
                ));
            }
        }
        Ok(())
    }
}

/// One cell of the TargetHkS scaling grid: the same (vertices, k)
/// instance solved under the same deadline by the sequential and the
/// parallel branch-and-bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetHksCell {
    /// Cell path, e.g. `"targethks/n32/k6"`.
    pub name: String,
    /// Graph size (number of candidate reviews/items).
    pub vertices: usize,
    /// Subgraph size.
    pub k: usize,
    /// Per-solve wall-clock deadline, in milliseconds.
    pub deadline_ms: u64,
    /// Worker threads of the parallel solve.
    pub threads: usize,
    /// Sequential solve proved optimality within the deadline.
    pub seq_closed: bool,
    /// Parallel solve proved optimality within the deadline.
    pub par_closed: bool,
    /// Sequential incumbent weight at the deadline (the optimum when
    /// `seq_closed`).
    pub seq_weight: f64,
    /// Parallel incumbent weight at the deadline.
    pub par_weight: f64,
    /// Sequential absolute optimality-gap certificate (0 when closed).
    pub seq_gap: f64,
    /// Parallel absolute optimality-gap certificate (0 when closed).
    pub par_gap: f64,
    /// Branch-and-bound nodes the sequential solve expanded.
    pub seq_nodes: u64,
    /// Branch-and-bound nodes the parallel solve expanded (all workers).
    pub par_nodes: u64,
    /// Sequential node throughput (nodes / elapsed seconds).
    pub seq_nodes_per_sec: f64,
    /// Parallel aggregate node throughput.
    pub par_nodes_per_sec: f64,
}

/// The machine-readable report `benches/targethks_scaling.rs` writes to
/// `BENCH_targethks.json` at the workspace root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetHksBenchReport {
    /// Bench target name (`"targethks_scaling"`).
    pub bench: String,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub threads_available: usize,
    /// All grid cells, in emission order.
    pub cells: Vec<TargetHksCell>,
}

impl TargetHksBenchReport {
    /// Structural validation: non-empty identity, unique cell names,
    /// well-formed grid coordinates, finite non-negative weights and
    /// gaps, zero gap whenever a solve closed, and positive throughputs.
    ///
    /// # Errors
    /// A readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        check_identity(
            &self.bench,
            self.threads_available,
            "cell",
            self.cells.iter().map(|c| c.name.as_str()),
        )?;
        for c in &self.cells {
            if c.k < 2 || c.vertices <= c.k {
                return Err(format!(
                    "{}: grid cell needs vertices > k >= 2, got n={} k={}",
                    c.name, c.vertices, c.k
                ));
            }
            if c.deadline_ms == 0 {
                return Err(format!("{}: zero deadline", c.name));
            }
            if c.threads < 2 {
                return Err(format!(
                    "{}: parallel column ran on {} thread(s)",
                    c.name, c.threads
                ));
            }
            for (what, v) in [
                ("seq_weight", c.seq_weight),
                ("par_weight", c.par_weight),
                ("seq_gap", c.seq_gap),
                ("par_gap", c.par_gap),
            ] {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(format!(
                        "{}: {what} {v} is not finite and non-negative",
                        c.name
                    ));
                }
            }
            if c.seq_closed && c.seq_gap != 0.0 {
                return Err(format!("{}: closed sequential cell with gap", c.name));
            }
            if c.par_closed && c.par_gap != 0.0 {
                return Err(format!("{}: closed parallel cell with gap", c.name));
            }
            if c.seq_nodes == 0 || c.par_nodes == 0 {
                return Err(format!("{}: a solve expanded zero nodes", c.name));
            }
            for (what, v) in [
                ("seq_nodes_per_sec", c.seq_nodes_per_sec),
                ("par_nodes_per_sec", c.par_nodes_per_sec),
            ] {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{}: {what} {v} is not positive finite", c.name));
                }
            }
        }
        Ok(())
    }

    /// The anytime acceptance property the committed baseline must hold:
    ///
    /// * at least one cell is left open by the sequential solver (the
    ///   grid actually stresses the deadline);
    /// * on those open cells, the parallel solver closes strictly more of
    ///   them, or certifies a strictly smaller mean bound gap (best-first
    ///   frontier certificates beat the sequential root bound);
    /// * on every cell both modes close, the proven optimal weights agree.
    ///
    /// # Errors
    /// A readable description of the first violated property.
    pub fn anytime_acceptance(&self) -> Result<(), String> {
        let open: Vec<&TargetHksCell> = self.cells.iter().filter(|c| !c.seq_closed).collect();
        if open.is_empty() {
            return Err(
                "no cell left open by the sequential solver; the grid is too easy".to_string(),
            );
        }
        let par_extra = open.iter().filter(|c| c.par_closed).count();
        let mean = |f: fn(&TargetHksCell) -> f64| {
            open.iter().map(|c| f(c)).sum::<f64>() / open.len() as f64
        };
        let mean_seq = mean(|c| c.seq_gap);
        let mean_par = mean(|c| c.par_gap);
        if par_extra == 0 && mean_par >= mean_seq {
            return Err(format!(
                "parallel closed no extra cell and its mean gap {mean_par} \
                 does not beat the sequential mean gap {mean_seq}"
            ));
        }
        for c in &self.cells {
            if c.seq_closed && c.par_closed {
                let tol = 1e-6 * c.seq_weight.abs().max(1.0);
                if (c.seq_weight - c.par_weight).abs() > tol {
                    return Err(format!(
                        "{}: both modes closed but proved different optima \
                         ({} vs {})",
                        c.name, c.seq_weight, c.par_weight
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            bench: "parallel_solver".to_string(),
            threads_available: 4,
            measurements: vec![Measurement {
                name: "solver_parallel/crs/sequential".to_string(),
                seconds_min: 0.001,
                samples: 5,
            }],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    fn sample_serve_report() -> ServeBenchReport {
        ServeBenchReport {
            bench: "serve".to_string(),
            threads_available: 4,
            measurements: vec![ServeMeasurement {
                name: "serve/warm/clients8".to_string(),
                p50_ms: 0.4,
                p99_ms: 2.1,
                qps: 900.0,
                requests: 256,
            }],
        }
    }

    #[test]
    fn serve_report_round_trips_through_json() {
        let report = sample_serve_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn serve_validation_rejects_malformed_reports() {
        let mut r = sample_serve_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].p50_ms = 0.0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].p99_ms = f64::NAN;
        assert!(r.validate().is_err());

        // p50 above p99 is internally inconsistent.
        let mut r = sample_serve_report();
        r.measurements[0].p50_ms = 10.0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        r.measurements[0].requests = 0;
        assert!(r.validate().is_err());

        let mut r = sample_serve_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }

    fn sample_stream_report() -> StreamBenchReport {
        StreamBenchReport {
            bench: "stream".to_string(),
            threads_available: 4,
            measurements: vec![StreamMeasurement {
                name: "stream/ingest/queryclients8".to_string(),
                events: 1000,
                seconds: 2.0,
                events_per_sec: 500.0,
            }],
        }
    }

    #[test]
    fn stream_report_round_trips_through_json() {
        let report = sample_stream_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: StreamBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn stream_validation_rejects_malformed_reports() {
        let mut r = sample_stream_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        r.measurements[0].events = 0;
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        r.measurements[0].seconds = f64::NAN;
        assert!(r.validate().is_err());

        // A rate that disagrees with events/seconds is internally
        // inconsistent.
        let mut r = sample_stream_report();
        r.measurements[0].events_per_sec = 10.0;
        assert!(r.validate().is_err());

        let mut r = sample_stream_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }

    fn sample_targethks_report() -> TargetHksBenchReport {
        TargetHksBenchReport {
            bench: "targethks_scaling".to_string(),
            threads_available: 4,
            cells: vec![
                TargetHksCell {
                    name: "targethks/n16/k4".to_string(),
                    vertices: 16,
                    k: 4,
                    deadline_ms: 1000,
                    threads: 4,
                    seq_closed: true,
                    par_closed: true,
                    seq_weight: 41.5,
                    par_weight: 41.5,
                    seq_gap: 0.0,
                    par_gap: 0.0,
                    seq_nodes: 900,
                    par_nodes: 1100,
                    seq_nodes_per_sec: 5e5,
                    par_nodes_per_sec: 3e5,
                },
                TargetHksCell {
                    name: "targethks/n40/k8".to_string(),
                    vertices: 40,
                    k: 8,
                    deadline_ms: 1000,
                    threads: 4,
                    seq_closed: false,
                    par_closed: false,
                    seq_weight: 150.0,
                    par_weight: 151.0,
                    seq_gap: 40.0,
                    par_gap: 12.0,
                    seq_nodes: 2_000_000,
                    par_nodes: 1_500_000,
                    seq_nodes_per_sec: 2e6,
                    par_nodes_per_sec: 1.5e6,
                },
            ],
        }
    }

    #[test]
    fn targethks_report_round_trips_through_json() {
        let report = sample_targethks_report();
        let json = serde_json::to_string(&report).unwrap();
        let back: TargetHksBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(back.validate().is_ok());
        assert!(back.anytime_acceptance().is_ok());
    }

    #[test]
    fn targethks_validation_rejects_malformed_reports() {
        let mut r = sample_targethks_report();
        r.cells.clear();
        assert!(r.validate().is_err());

        // A closed cell must certify gap zero.
        let mut r = sample_targethks_report();
        r.cells[0].seq_gap = 1.0;
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        r.cells[0].par_weight = f64::NAN;
        assert!(r.validate().is_err());

        // The grid requires vertices > k.
        let mut r = sample_targethks_report();
        r.cells[0].vertices = 4;
        assert!(r.validate().is_err());

        // The parallel column must actually be parallel.
        let mut r = sample_targethks_report();
        r.cells[0].threads = 1;
        assert!(r.validate().is_err());

        let mut r = sample_targethks_report();
        let dup = r.cells[0].clone();
        r.cells.push(dup);
        assert!(r.validate().is_err());
    }

    #[test]
    fn targethks_acceptance_requires_an_anytime_win() {
        // All cells closed: the grid never stressed the deadline.
        let mut r = sample_targethks_report();
        r.cells[1].seq_closed = true;
        r.cells[1].seq_gap = 0.0;
        assert!(r.anytime_acceptance().is_err());

        // Open cell where parallel neither closes nor tightens the gap.
        let mut r = sample_targethks_report();
        r.cells[1].par_gap = 40.0;
        assert!(r.anytime_acceptance().is_err());

        // Parallel closing the open cell is also a win.
        let mut r = sample_targethks_report();
        r.cells[1].par_closed = true;
        r.cells[1].par_gap = 0.0;
        assert!(r.anytime_acceptance().is_ok());

        // Disagreeing optima on a doubly-closed cell are rejected.
        let mut r = sample_targethks_report();
        r.cells[0].par_weight = 40.0;
        assert!(r.anytime_acceptance().is_err());
    }

    #[test]
    fn every_report_runs_the_shared_identity_checks() {
        let mut serve = sample_serve_report();
        serve.threads_available = 0;
        assert!(serve.validate().is_err());
        let mut stream = sample_stream_report();
        stream.bench.clear();
        assert!(stream.validate().is_err());
        let mut targethks = sample_targethks_report();
        targethks.cells[0].name.clear();
        assert!(targethks.validate().is_err());
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let mut r = sample_report();
        r.bench.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements.clear();
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements[0].seconds_min = -1.0;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        r.measurements[0].seconds_min = f64::NAN;
        assert!(r.validate().is_err());

        let mut r = sample_report();
        let dup = r.measurements[0].clone();
        r.measurements.push(dup);
        assert!(r.validate().is_err());
    }
}
