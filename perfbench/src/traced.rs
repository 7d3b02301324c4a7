//! The traced run (`--trace 1`): per-layer metrics of all four paths.
//!
//! Like the untraced run, every traced run drives every path — the batch
//! pipeline, served solves, restart and durable ingest — and the
//! workload named on the command line gives its own path the run's
//! seconds. Each path is one *part* with its own spans, and each metric
//! comes from exactly one part.
//!
//! The server's internal stages are reached by replaying the same seeded
//! request sequence in-process through the public calls `handle_solve`
//! and `handle_ingest` make (`protocol::decode`, `CacheKeys::build`, the
//! `SessionCache` layers, `InstanceContext::build`, the warm alternating
//! solve, `CorpusStore::{append, maybe_snapshot}`, …), each wrapped in a
//! span. The same sequence is also sent, one request at a time, to a
//! live server, so each request's stage self times can be set against
//! its round trip. Solver counters come from the `SolverMetrics`
//! collector of the served-solve replay; the graph counters from the
//! batch pass's.

use crate::batch;
use crate::inputs::{self, derive_items, events, queries, Popularity, MU};
use crate::load::{connect, exchange};
use crate::restart::{self, Cli};
use crate::served::{self, encode};
use crate::trace::Tracer;
use crate::util::{cpu_seconds, median, nproc, us, Metrics, Rng};
use crate::{Args, Sizes, Tally};
use comparesets_core::{
    comparesets_plus_objective, solve_comparesets_plus_sweeps_warm_with,
    solve_comparesets_plus_sweeps_with, InstanceContext, MetricsSnapshot, OpinionScheme,
    RegressionWarm, SelectParams, SolveOptions, SolverMetrics,
};
use comparesets_data::wal::{self, CorpusSnapshot, CorpusStore, ReviewEvent};
use comparesets_data::{ComparisonInstance, Dataset};
use comparesets_graph::ExactOptions;
use comparesets_serve::protocol::{decode, write_message};
use comparesets_serve::{CacheKeys, CachedAnswer, ItemSelection, Request, Response, SessionCache};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, with its unit. `BENCHMARK.json` lists the
/// same names; `perfbench/layers.json` says what each should move.
pub const PER_LAYER: [(&str, &str); 82] = [
    ("failed_ratio", "ratio"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p99_ms", "ms"),
    ("ingest.solve_p50_ms", "ms"),
    ("ingest.solve_p99_ms", "ms"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("server.unexplained_us.solve", "us"),
    ("server.unexplained_us.ingest", "us"),
    ("server.stage_coverage.solve", "ratio"),
    ("server.stage_coverage.ingest", "ratio"),
    ("server.degraded", "count"),
    ("cache.full_hit_ratio", "ratio"),
    ("cache.warm_hit_ratio", "ratio"),
    ("cache.context_hit_ratio", "ratio"),
    ("cache.miss_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("cache.resident_bytes", "bytes"),
    ("instance.build_us", "us"),
    ("instance.builds", "count"),
    ("alternation.solve_us.sweeps1", "us"),
    ("alternation.solve_us.sweeps3", "us"),
    ("alternation.rounds", "count"),
    ("alternation.accepts", "count"),
    ("alternation.warm_start_hits", "count"),
    ("alternation.warm_start_truncations", "count"),
    ("objective.us", "us"),
    ("regression.count", "count"),
    ("regression.self_us", "us"),
    ("nomp.pursuits", "count"),
    ("nomp.iterations", "count"),
    ("nomp.pursuit_ms", "ms"),
    ("nomp.sparse_corr_scans", "count"),
    ("nomp.dense_corr_scans", "count"),
    ("nomp.corr_incremental_updates", "count"),
    ("nomp.corr_exact_recomputes", "count"),
    ("nomp.gram_cache_hits", "count"),
    ("nomp.sparse_gram_builds", "count"),
    ("nomp.simd_blocks", "count"),
    ("nnls.refits", "count"),
    ("nnls.iterations", "count"),
    ("nnls.refit_ms", "ms"),
    ("nnls.fallbacks", "count"),
    ("nnls.cap_hits", "count"),
    ("json.decode_ms", "ms"),
    ("json.decode_mb_per_s", "MB/s"),
    ("json.encode_ms", "ms"),
    ("json.share_of_recover", "ratio"),
    ("json.share_of_select", "ratio"),
    ("dataset.validate_ms", "ms"),
    ("dataset.stage_clone_us", "us"),
    ("dataset.apply_event_us", "us"),
    ("wal.append_us", "us"),
    ("wal.fsyncs_per_ack", "ratio"),
    ("wal.bytes_per_event", "bytes"),
    ("wal.snapshot_ms", "ms"),
    ("wal.snapshots", "count"),
    ("wal.scan_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("restart.recover_coverage", "ratio"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.solve_ms", "ms"),
    ("pipeline.parallel_efficiency", "ratio"),
    ("graph.build_us", "us"),
    ("graph.greedy_us", "us"),
    ("graph.exact_ms", "ms"),
    ("graph.bnb_nodes", "count"),
    ("graph.bnb_prunes", "count"),
    ("proc.cpu_util", "ratio"),
    ("bench.generator_lag_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("replay.requests", "count"),
    ("replay.ingests", "count"),
    ("cache.full_hits", "count"),
    ("cache.warm_hits", "count"),
    ("cache.context_hits", "count"),
];

/// Set a metric that [`PER_LAYER`] declares, with its declared unit.
/// Each metric is set once: a second write would hide which part the
/// reported figure came from.
fn put(m: &mut Metrics, name: &str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
    assert!(!m.0.contains_key(name), "per-layer metric {name} set twice");
    m.set(name, value, unit);
}

/// Seconds the same work took untraced and traced, summed over parts.
#[derive(Default)]
struct Overhead {
    plain: f64,
    traced: f64,
}

impl Overhead {
    fn add(&mut self, (plain, traced): (f64, f64)) {
        self.plain += plain;
        self.traced += traced;
    }
}

/// One part's context: where its seconds go and what it adds to.
struct Part<'a> {
    args: &'a Args,
    sizes: &'a Sizes,
    work: &'a Path,
    m: &'a mut Metrics,
    tally: &'a mut Tally,
    overhead: &'a mut Overhead,
    degraded: &'a mut u64,
}

pub fn run(args: &Args, sizes: &Sizes, work: &Path) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut overhead = Overhead::default();
    let mut degraded = 0u64;
    let cpu0 = cpu_seconds();
    let wall0 = Instant::now();
    let mut tracers = Vec::new();
    {
        let mut part = Part {
            args,
            sizes,
            work,
            m: &mut m,
            tally: &mut tally,
            overhead: &mut overhead,
            degraded: &mut degraded,
        };
        let mut t = Tracer::new(true);
        batch(&mut part, &mut t);
        tracers.push(("batch", t));
        let mut t = Tracer::new(true);
        serve(&mut part, &mut t)?;
        tracers.push(("serve", t));
        let mut t = Tracer::new(true);
        restart_path(&mut part, &mut t)?;
        tracers.push(("restart", t));
        let mut t = Tracer::new(true);
        ingest(&mut part, &mut t)?;
        tracers.push(("ingest", t));
    }
    let wall = wall0.elapsed().as_secs_f64();
    put(
        &mut m,
        "proc.cpu_util",
        (cpu_seconds() - cpu0) / (wall * nproc() as f64),
    );
    put(
        &mut m,
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    put(
        &mut m,
        "trace.overhead_ratio",
        overhead.traced / overhead.plain - 1.0,
    );
    put(&mut m, "server.degraded", degraded as f64);
    for (part, t) in &tracers {
        let path = Path::new(".perfbench")
            .join("trace")
            .join(format!("{}-seed{}-{part}.jsonl", args.workload, args.seed));
        t.write_jsonl(&path).map_err(|e| e.to_string())?;
        println!(
            "trace: {} spans written to {}",
            t.spans.len(),
            path.display()
        );
        for (name, (n, total, own)) in t.by_name() {
            println!(
                "  span {name:<32} n {n:>7}  total {:>12.3} ms  self {:>12.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    Ok((m, tally))
}

/// The solver counters, named by layer. `alternation_us` is the total
/// time spent inside alternating solves (for the regression layer's
/// self time).
fn counters(m: &mut Metrics, s: &MetricsSnapshot, alternation_us: f64) {
    let pairs = [
        ("alternation.rounds", s.alternation_rounds),
        ("alternation.accepts", s.alternation_accepts),
        ("alternation.warm_start_hits", s.warm_start_hits),
        (
            "alternation.warm_start_truncations",
            s.warm_start_truncations,
        ),
        ("regression.count", s.integer_regressions),
        ("nomp.pursuits", s.nomp_pursuits),
        ("nomp.iterations", s.nomp_iterations),
        ("nomp.sparse_corr_scans", s.sparse_corr_scans),
        ("nomp.dense_corr_scans", s.dense_corr_scans),
        ("nomp.corr_incremental_updates", s.corr_incremental_updates),
        ("nomp.corr_exact_recomputes", s.corr_exact_recomputes),
        ("nomp.gram_cache_hits", s.gram_cache_hits),
        ("nomp.sparse_gram_builds", s.sparse_gram_builds),
        ("nomp.simd_blocks", s.simd_blocks),
        ("nnls.refits", s.nnls_refits),
        ("nnls.iterations", s.nnls_iterations),
        ("nnls.fallbacks", s.fallback_qr + s.fallback_ridge),
        ("nnls.cap_hits", s.nnls_cap_hits),
    ];
    for (name, v) in pairs {
        put(m, name, v as f64);
    }
    put(m, "nomp.pursuit_ms", s.pursuit_nanos as f64 / 1e6);
    put(m, "nnls.refit_ms", s.refit_nanos as f64 / 1e6);
    if s.integer_regressions > 0 && alternation_us > 0.0 {
        let own = alternation_us - (s.pursuit_nanos + s.refit_nanos) as f64 / 1e3;
        put(m, "regression.self_us", own / s.integer_regressions as f64);
    }
}

/// One request of the replayed sequence.
enum Op {
    Solve,
    Ingest(ReviewEvent),
}

/// The server's request handling, replayed in-process through the same
/// public calls, one span per call.
struct Replay {
    dataset: Dataset,
    versions: HashMap<u32, u64>,
    cache: SessionCache,
    store: Option<CorpusStore>,
    metrics: Arc<SolverMetrics>,
    solves: u64,
    full_hits: u64,
    warm_hits: u64,
    context_hits: u64,
    evictions: u64,
    invalidations: u64,
    request_bytes: u64,
    response_bytes: u64,
    snapshots_ms: Vec<f64>,
    wal_growth: u64,
}

impl Replay {
    fn new(ds: &Dataset, store_dir: Option<&Path>, snapshot_every: u64) -> Result<Replay, String> {
        let metrics = Arc::new(SolverMetrics::new());
        let store = match store_dir {
            Some(dir) => Some(
                CorpusStore::open(dir, Some(ds), snapshot_every, Some(Arc::clone(&metrics)))
                    .map_err(|e| e.to_string())?
                    .0,
            ),
            None => None,
        };
        Ok(Replay {
            dataset: ds.clone(),
            versions: HashMap::new(),
            cache: SessionCache::new(comparesets_serve::ServerConfig::default().cache_capacity),
            store,
            metrics,
            solves: 0,
            full_hits: 0,
            warm_hits: 0,
            context_hits: 0,
            evictions: 0,
            invalidations: 0,
            request_bytes: 0,
            response_bytes: 0,
            snapshots_ms: Vec::new(),
            wal_growth: 0,
        })
    }

    fn respond(&mut self, t: &mut Tracer, resp: &Response) {
        let mut out = Vec::new();
        t.time("protocol.encode", || write_message(&mut out, resp))
            .expect("responses encode");
        self.response_bytes += out.len() as u64;
    }

    fn solve(&mut self, t: &mut Tracer, frame: &[u8]) {
        let root = t.open("solve");
        self.solves += 1;
        self.request_bytes += frame.len() as u64 + 4;
        let req: Request = t
            .time("protocol.decode", || decode(frame))
            .expect("replayed requests decode");
        let target = req.target.expect("replayed solves name a target");
        let items: Vec<u32> =
            derive_items(&self.dataset, target, req.max_comparatives.unwrap_or(12))
                .iter()
                .map(|p| p.0)
                .collect();
        let params = SelectParams {
            m: req.m.unwrap_or(3),
            lambda: req.lambda.unwrap_or(1.0),
            mu: req.mu.unwrap_or(MU),
        };
        let sweeps = req.sweeps.unwrap_or(1);
        let versions: Vec<u64> = items
            .iter()
            .map(|id| self.versions.get(id).copied().unwrap_or(0))
            .collect();
        let keys = t.time("cache.keys", || {
            CacheKeys::build(
                "cellphone",
                "binary",
                &items,
                &versions,
                params.m,
                params.lambda,
                params.mu,
                sweeps,
            )
        });
        let answer = match t.time("cache.full_hit", || self.cache.full_hit(&keys)) {
            Some(answer) => {
                self.full_hits += 1;
                answer
            }
            None => {
                let ctx = match t.time("cache.context", || self.cache.context(&keys)) {
                    Some(ctx) => {
                        self.context_hits += 1;
                        ctx
                    }
                    None => {
                        let instance = ComparisonInstance {
                            items: items
                                .iter()
                                .map(|&i| comparesets_data::ProductId(i))
                                .collect(),
                        };
                        let built = Arc::new(t.time("instance.build", || {
                            InstanceContext::build(&self.dataset, &instance, OpinionScheme::Binary)
                        }));
                        self.evictions += t.time("cache.store_context", || {
                            self.cache.store_context(&keys, Arc::clone(&built))
                        });
                        built
                    }
                };
                let taken = t.time("cache.take_warm", || self.cache.take_warm(&keys));
                let mut warm = match taken.filter(|w| w.len() == ctx.num_items()) {
                    Some(w) => {
                        self.warm_hits += 1;
                        w
                    }
                    None => (0..ctx.num_items())
                        .map(|_| RegressionWarm::new())
                        .collect(),
                };
                let opts = SolveOptions::sequential().with_metrics(Arc::clone(&self.metrics));
                let name = if sweeps == 1 {
                    "alternation.solve_sweeps1"
                } else {
                    "alternation.solve_sweeps3"
                };
                let selections = t.time(name, || {
                    solve_comparesets_plus_sweeps_warm_with(&ctx, &params, sweeps, &opts, &mut warm)
                });
                let objective = t.time("objective", || {
                    comparesets_plus_objective(&ctx, &selections, params.lambda, params.mu)
                });
                let answer = CachedAnswer {
                    selections: selections
                        .iter()
                        .enumerate()
                        .map(|(i, sel)| {
                            let item = ctx.item(i);
                            ItemSelection {
                                product: item.product.0,
                                indices: sel.indices.clone(),
                                review_ids: sel.review_ids(item).iter().map(|r| r.0).collect(),
                            }
                        })
                        .collect(),
                    objective,
                };
                self.evictions += t.time("cache.store_full", || {
                    self.cache.store_full(&keys, answer.clone())
                });
                self.evictions += t.time("cache.put_warm", || self.cache.put_warm(&keys, warm));
                answer
            }
        };
        let resp = Response {
            selections: answer.selections,
            objective: Some(answer.objective),
            ..Response::ok()
        };
        self.respond(t, &resp);
        t.close(root);
    }

    fn ingest(&mut self, t: &mut Tracer, frame: &[u8], ev: &ReviewEvent) -> Result<(), String> {
        let root = t.open("ingest");
        self.request_bytes += frame.len() as u64 + 4;
        let _req: Request = t
            .time("protocol.decode", || decode(frame))
            .map_err(|e| e.to_string())?;
        let mut staged = t.time("dataset.clone", || self.dataset.clone());
        t.time("dataset.apply_event", || staged.apply_event(ev))?;
        if let Some(store) = self.store.as_mut() {
            let wal_path = store.dir().join(wal::WAL_FILE);
            let before = std::fs::metadata(&wal_path).map_or(0, |md| md.len());
            t.time("wal.append", || store.append(std::slice::from_ref(ev)))
                .map_err(|e| e.to_string())?;
            let after = std::fs::metadata(&wal_path).map_or(0, |md| md.len());
            self.wal_growth += after.saturating_sub(before);
        }
        self.dataset = staged;
        *self.versions.entry(ev.product.0).or_insert(0) += 1;
        if let Some(store) = self.store.as_mut() {
            let t0 = Instant::now();
            let snapped = t
                .time("wal.maybe_snapshot", || store.maybe_snapshot(&self.dataset))
                .map_err(|e| e.to_string())?;
            if snapped {
                self.snapshots_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        self.invalidations += t.time("cache.invalidate_item", || {
            self.cache.invalidate_item("cellphone", ev.product.0)
        });
        let resp = Response {
            ingested: Some(1),
            last_seq: Some(ev.seq),
            ..Response::ok()
        };
        self.respond(t, &resp);
        t.close(root);
        Ok(())
    }

    fn run(&mut self, t: &mut Tracer, ops: &[(Op, Vec<u8>)]) -> Result<f64, String> {
        let t0 = Instant::now();
        for (i, (op, frame)) in ops.iter().enumerate() {
            t.set_request(i as u64);
            match op {
                Op::Solve => self.solve(t, frame),
                Op::Ingest(ev) => self.ingest(t, frame, ev)?,
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// The read path's metrics, from a replay of solves only.
    fn report_solves(&self, m: &mut Metrics, t: &Tracer) {
        let n = self.solves.max(1) as f64;
        put(m, "replay.requests", self.solves as f64);
        put(m, "protocol.decode_us", t.mean_us("protocol.decode"));
        put(m, "protocol.encode_us", t.mean_us("protocol.encode"));
        put(m, "protocol.request_bytes", self.request_bytes as f64 / n);
        put(m, "protocol.response_bytes", self.response_bytes as f64 / n);
        put(m, "cache.full_hits", self.full_hits as f64);
        put(m, "cache.warm_hits", self.warm_hits as f64);
        put(m, "cache.context_hits", self.context_hits as f64);
        put(m, "cache.full_hit_ratio", self.full_hits as f64 / n);
        put(m, "cache.warm_hit_ratio", self.warm_hits as f64 / n);
        put(m, "cache.context_hit_ratio", self.context_hits as f64 / n);
        put(
            m,
            "cache.miss_ratio",
            (self.solves - self.full_hits - self.warm_hits) as f64 / n,
        );
        let lookups: Vec<f64> = t
            .spans
            .iter()
            .filter(|s| {
                matches!(
                    s.name,
                    "cache.full_hit" | "cache.context" | "cache.take_warm"
                )
            })
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        put(
            m,
            "cache.lookup_us",
            lookups.iter().sum::<f64>() / lookups.len().max(1) as f64,
        );
        put(m, "cache.evictions", self.evictions as f64);
        put(m, "instance.build_us", t.mean_us("instance.build"));
        put(m, "instance.builds", t.count("instance.build") as f64);
        put(
            m,
            "alternation.solve_us.sweeps1",
            t.mean_us("alternation.solve_sweeps1"),
        );
        put(
            m,
            "alternation.solve_us.sweeps3",
            t.mean_us("alternation.solve_sweeps3"),
        );
        put(m, "objective.us", t.mean_us("objective"));
        let alternation_us = (t.total_ms("alternation.solve_sweeps1")
            + t.total_ms("alternation.solve_sweeps3"))
            * 1e3;
        counters(m, &self.metrics.snapshot(), alternation_us);
    }

    /// The write path's metrics, from a replay of ingests (with solves
    /// between them, whose own figures the read path reports).
    fn report_ingests(&self, m: &mut Metrics, t: &Tracer) {
        let ingests = t.count("ingest").max(1) as f64;
        put(m, "replay.ingests", t.count("ingest") as f64);
        put(m, "cache.invalidations", self.invalidations as f64);
        put(m, "dataset.stage_clone_us", t.mean_us("dataset.clone"));
        put(
            m,
            "dataset.apply_event_us",
            t.mean_us("dataset.apply_event"),
        );
        put(m, "wal.append_us", t.mean_us("wal.append"));
        let s = self.metrics.snapshot();
        put(m, "wal.fsyncs_per_ack", s.wal_fsyncs as f64 / ingests);
        put(m, "wal.bytes_per_event", self.wal_growth as f64 / ingests);
        put(m, "wal.snapshots", self.snapshots_ms.len() as f64);
        put(m, "wal.snapshot_ms", median(&self.snapshots_ms));
    }
}

/// Send `ops` one at a time to a live server; round trip per request, µs.
fn round_trips(run: &served::Running, ops: &[(Op, Vec<u8>)]) -> Result<Vec<f64>, String> {
    let mut conn = connect(run.addr).map_err(|e| e.to_string())?;
    ops.iter()
        .map(|(_, frame)| {
            let t0 = Instant::now();
            exchange(&mut conn, frame).ok_or("live round trip failed")?;
            Ok(us(t0.elapsed()))
        })
        .collect()
}

/// Stage coverage and unexplained time of one op kind: per request, the
/// round trip against the summed self time of the stages the replay
/// recorded under that request's root span.
fn coverage(
    m: &mut Metrics,
    t: &Tracer,
    ops: &[(Op, Vec<u8>)],
    rt: &[f64],
    kind: &str,
) -> Result<(), String> {
    let covered: Vec<f64> = t.root_coverage(kind).into_iter().map(|(_, c)| c).collect();
    let live: Vec<f64> = ops
        .iter()
        .zip(rt)
        .filter(|(op, _)| op.0.kind() == kind)
        .map(|(_, &r)| r)
        .collect();
    if covered.is_empty() || covered.len() != live.len() {
        return Err(format!(
            "{kind} coverage: {} replayed {kind} span(s) against {} live round trip(s)",
            covered.len(),
            live.len()
        ));
    }
    let unexplained: Vec<f64> = live.iter().zip(&covered).map(|(r, c)| r - c).collect();
    put(
        m,
        &format!("server.unexplained_us.{kind}"),
        median(&unexplained),
    );
    put(
        m,
        &format!("server.stage_coverage.{kind}"),
        median(&covered) / median(&live),
    );
    Ok(())
}

impl Op {
    /// The name of the request's root span.
    fn kind(&self) -> &'static str {
        match self {
            Op::Solve => "solve",
            Op::Ingest(_) => "ingest",
        }
    }
}

/// Replay `ops` untraced and then traced, each on fresh state; return
/// the traced replay and the (untraced, traced) seconds.
fn replay_both(
    t: &mut Tracer,
    ds: &Dataset,
    ops: &[(Op, Vec<u8>)],
    dirs: Option<(&Path, &Path)>,
    snapshot_every: u64,
) -> Result<(Replay, (f64, f64)), String> {
    let plain =
        Replay::new(ds, dirs.map(|d| d.0), snapshot_every)?.run(&mut Tracer::new(false), ops)?;
    let mut replay = Replay::new(ds, dirs.map(|d| d.1), snapshot_every)?;
    let traced = replay.run(t, ops)?;
    Ok((replay, (plain, traced)))
}

fn solve_ops(ds: &Dataset, rng: &mut Rng, n: usize) -> Vec<(Op, Vec<u8>)> {
    let pop = Popularity::new(ds);
    queries(&pop, rng, n)
        .into_iter()
        .map(|q| {
            let frame = encode(&q.request());
            (Op::Solve, frame)
        })
        .collect()
}

/// Send `ops` to a fresh server one at a time (round trips, µs), then
/// read its cache footprint and degraded count.
fn live_round_trips(
    ds: &Dataset,
    dir: Option<PathBuf>,
    ops: &[(Op, Vec<u8>)],
) -> Result<(Vec<f64>, u64, u64), String> {
    let (server, metrics) = served::bind(ds.clone(), dir).map_err(|e| e.to_string())?;
    let running = served::start(server);
    let rt = round_trips(&running, ops)?;
    let resident = running
        .call(&Request::bare("health"))
        .and_then(|h| h.resident_bytes)
        .ok_or("health reported no resident bytes")?;
    running.stop().map_err(|e| e.to_string())?;
    Ok((rt, resident, metrics.snapshot().serve_degraded))
}

/// The read path: the live ladder (untraced: latency, generator lag),
/// then a fixed solve sequence sent live and replayed.
fn serve(p: &mut Part, t: &mut Tracer) -> Result<(), String> {
    let ds = inputs::corpus(p.sizes.products);
    let (server, _) = served::bind(ds.clone(), None).map_err(|e| e.to_string())?;
    let running = served::start(server);
    let secs = if p.args.workload == "serve_mix" {
        p.args.seconds
    } else {
        crate::LADDER_SECS
    };
    let plan = crate::serve_ladder_plan(p.sizes, secs);
    let mut load = served::SolveLoad::new(
        running.addr,
        &ds,
        &mut Rng::new(p.args.seed),
        plan.requests(),
    );
    let ladder = served::ladder(&mut load, &plan).map_err(|e| e.to_string())?;
    running.stop().map_err(|e| e.to_string())?;
    p.tally.add(load.attempted, load.failed);
    put(p.m, "bench.generator_lag_ms", ladder.lag_ms());
    put(p.m, "solve_p50_ms", ladder.low().latency.p50);
    put(p.m, "solve_p99_ms", ladder.low().latency.tail);

    let ops = solve_ops(&ds, &mut Rng::new(p.args.seed ^ 0x33), p.sizes.warmup * 4);
    let (rt, resident, degraded) = live_round_trips(&ds, None, &ops)?;
    put(p.m, "cache.resident_bytes", resident as f64);
    *p.degraded += degraded;
    let (replay, secs) = replay_both(t, &ds, &ops, None, 0)?;
    p.overhead.add(secs);
    replay.report_solves(p.m, t);
    coverage(p.m, t, &ops, &rt, "solve")
}

/// The write path: a live ingest run beside the solve stream (ack and
/// solve latency), then one snapshot round of events, a solve after
/// every second one, sent live and replayed.
fn ingest(p: &mut Part, t: &mut Tracer) -> Result<(), String> {
    let ds = inputs::corpus(p.sizes.products);
    let (server, _) =
        served::bind(ds.clone(), Some(p.work.join("live"))).map_err(|e| e.to_string())?;
    let running = served::start(server);
    let plan = served::IngestPlan {
        snapshot_every: p.sizes.snapshot_every,
        min_rounds: 1,
        seconds: if p.args.workload == "ingest_mix" {
            p.args.seconds
        } else {
            0.0
        },
        solve_rate: served::INGEST_SOLVE_RATE,
    };
    let ing = served::ingest(&running, &ds, &plan, &mut Rng::new(p.args.seed ^ 0x11))
        .map_err(|e| e.to_string())?;
    running.stop().map_err(|e| e.to_string())?;
    p.tally.add(ing.attempted, ing.failed);
    put(p.m, "ingest_ack_p50_ms", ing.ack.p50);
    put(p.m, "ingest_ack_p99_ms", ing.ack.tail);
    put(p.m, "ingest.solve_p50_ms", ing.solves.p50);
    put(p.m, "ingest.solve_p99_ms", ing.solves.tail);

    let mut rng = Rng::new(p.args.seed ^ 0x44);
    let pop = Popularity::new(&ds);
    let mut mirror = ds.clone();
    let evs = events(&mut mirror, &pop, &mut rng, p.sizes.snapshot_every);
    let mut solves = solve_ops(&ds, &mut rng, evs.len() / 2).into_iter();
    let mut ops = Vec::new();
    for (k, (wire, ev)) in evs.into_iter().enumerate() {
        ops.push((Op::Ingest(ev), encode(&Request::ingest(vec![wire]))));
        if k % 2 == 1 {
            ops.extend(solves.next());
        }
    }
    let (rt, _, degraded) = live_round_trips(&ds, Some(p.work.join("rt")), &ops)?;
    *p.degraded += degraded;
    let (replay, secs) = replay_both(
        t,
        &ds,
        &ops,
        Some((&p.work.join("plain"), &p.work.join("traced"))),
        p.sizes.snapshot_every as u64,
    )?;
    p.overhead.add(secs);
    replay.report_ingests(p.m, t);
    coverage(p.m, t, &ops, &rt, "ingest")
}

/// Restart: one timed `wal::recover` and CLI select, then recovery's and
/// the CLI's stages replayed from outside under spans.
fn restart_path(p: &mut Part, t: &mut Tracer) -> Result<(), String> {
    let ds = inputs::corpus(p.sizes.products);
    let r = restart::setup(
        &ds,
        &p.work.join("restart"),
        p.sizes.restart_tail,
        &mut Rng::new(p.args.seed ^ 0x22),
    )?;
    let mut cli = Cli::new(&p.args.cli);
    let (recover_s, ok) = restart::recover(&r);
    p.tally.add(1, u64::from(!ok));
    let (select_s, ok) = cli.select(&r, &ds, r.targets[0]);
    p.tally.add(1, u64::from(!ok));

    // Recovery's stages: read + decode + validate the snapshot, scan the
    // WAL, replay the tail.
    let plain = Instant::now();
    recover_stages(&r, &mut Tracer::new(false))?;
    let plain = plain.elapsed().as_secs_f64();
    let traced = Instant::now();
    let (bytes, snapshot) = recover_stages(&r, t)?;
    p.overhead.add((plain, traced.elapsed().as_secs_f64()));
    let m = &mut *p.m;
    let decode_s = t.total_ms("json.decode") / 1e3;
    put(m, "json.decode_ms", decode_s * 1e3);
    put(m, "json.decode_mb_per_s", bytes as f64 / 1e6 / decode_s);
    put(m, "json.share_of_recover", decode_s / recover_s);
    put(m, "dataset.validate_ms", t.total_ms("dataset.validate"));
    put(
        m,
        "wal.replayed_records",
        t.count("dataset.apply_event") as f64,
    );
    put(m, "wal.scan_ms", t.total_ms("wal.scan"));
    let covered: f64 = t.root_coverage("recover").iter().map(|(_, c)| c).sum();
    put(m, "restart.recover_coverage", covered / 1e6 / recover_s);
    // What writing that snapshot back costs (the encode half of JSON).
    t.time("json.encode", || serde_json::to_string(&snapshot))
        .map_err(|e| e.to_string())?;
    put(m, "json.encode_ms", t.total_ms("json.encode"));

    // The CLI's stages, likewise: load (read + decode) and validate the
    // corpus file, build the instance, solve.
    let root = t.open("select");
    let t0 = Instant::now();
    let loaded: Dataset = t.time("json.load", || {
        std::fs::File::open(&r.corpus_file)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                serde_json::from_reader(std::io::BufReader::new(f)).map_err(|e| e.to_string())
            })
    })?;
    put(
        m,
        "json.share_of_select",
        t0.elapsed().as_secs_f64() / select_s,
    );
    t.time("dataset.validate", || loaded.validate());
    let target = r.targets[0];
    let instance = ComparisonInstance {
        items: derive_items(&loaded, target, 12),
    };
    let ctx = t.time("instance.build", || {
        InstanceContext::build(&loaded, &instance, OpinionScheme::Binary)
    });
    t.time("alternation.solve_sweeps1", || {
        solve_comparesets_plus_sweeps_with(
            &ctx,
            &SelectParams::default(),
            1,
            &SolveOptions::default(),
        )
    });
    t.close(root);
    Ok(())
}

/// `wal::recover`'s steps as separate spans under a `recover` root.
/// Returns the snapshot's size in bytes and the snapshot itself.
fn recover_stages(r: &restart::Restart, t: &mut Tracer) -> Result<(usize, CorpusSnapshot), String> {
    let root = t.open("recover");
    let text = t
        .time("fs.read", || {
            std::fs::read_to_string(r.data_dir.join(wal::SNAPSHOT_FILE))
        })
        .map_err(|e| e.to_string())?;
    let snap: CorpusSnapshot = t
        .time("json.decode", || serde_json::from_str(&text))
        .map_err(|e| e.to_string())?;
    t.time("dataset.validate", || snap.dataset.validate());
    let scan = t
        .time("wal.scan", || {
            wal::scan_wal(&r.data_dir.join(wal::WAL_FILE))
        })
        .map_err(|e| e.to_string())?;
    let mut dataset = snap.dataset.clone();
    let replay = t.open("wal.replay");
    for ev in scan.events.iter().filter(|ev| ev.seq > snap.seq) {
        t.time("dataset.apply_event", || dataset.apply_event(ev))?;
    }
    t.close(replay);
    t.close(root);
    Ok((text.len(), snap))
}

/// The batch pipeline: passes untraced, then traced (with the per-instance
/// replay `batch::pass` adds under tracing), all checked against the
/// warm-start-off sequential reference.
fn batch(p: &mut Part, t: &mut Tracer) {
    const PASSES: usize = 2;
    let ds = inputs::batch_corpus(p.sizes.products);
    let reference = batch::pass(
        &ds,
        &SolveOptions::sequential().with_warm_start(false),
        &ExactOptions::default(),
        &mut Tracer::new(false),
    );
    let opts = SolveOptions::default();
    let mut check = |pass: &batch::Pass| {
        let bad = pass.digest != reference.digest;
        p.tally.add(
            pass.instances as u64,
            if bad { pass.instances as u64 } else { 0 },
        );
    };
    let mut plain = 0.0;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let pass = batch::pass(
            &ds,
            &opts,
            &ExactOptions::default(),
            &mut Tracer::new(false),
        );
        plain += t0.elapsed().as_secs_f64();
        check(&pass);
    }
    let metrics = Arc::new(SolverMetrics::new());
    let exact = ExactOptions::default().with_metrics(Arc::clone(&metrics));
    for _ in 0..PASSES {
        check(&batch::pass(&ds, &opts, &exact, t));
    }
    // The traced passes' own time, without the replay that follows each
    // count outside its span.
    let traced: f64 = t
        .spans
        .iter()
        .filter(|s| s.name == "batch.count")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    p.overhead.add((plain, traced));
    let m = &mut *p.m;
    let passes = PASSES as f64;
    put(
        m,
        "pipeline.prepare_ms",
        t.total_ms("pipeline.prepare") / passes,
    );
    put(
        m,
        "pipeline.solve_ms",
        t.total_ms("pipeline.solve") / passes,
    );
    put(
        m,
        "pipeline.parallel_efficiency",
        t.total_ms("pipeline.instance") / (t.total_ms("pipeline.solve") * nproc() as f64),
    );
    put(m, "graph.build_us", t.mean_us("graph.build"));
    put(m, "graph.greedy_us", t.mean_us("graph.greedy"));
    put(m, "graph.exact_ms", t.mean_us("graph.exact") / 1e3);
    let s = metrics.snapshot();
    put(m, "graph.bnb_nodes", s.bnb_nodes as f64 / passes);
    put(m, "graph.bnb_prunes", s.bnb_prunes as f64 / passes);
}
