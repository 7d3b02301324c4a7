//! `perfbench` — the repository's end-to-end benchmark.
//!
//! One process drives the four paths a user waits on, from outside the
//! program: a served `solve` (socket protocol, open-loop rate ladder), a
//! durable `ingest` ack (closed-loop writer beside solves), a restart
//! (`wal::recover` plus one `comparesets select` process) and the
//! offline batch pipeline (`eval::pipeline` + `graph`).
//!
//! Every run drives every path, so every run reports every end-to-end
//! metric; the workload named on the command line gets the `--seconds`
//! of measuring time and sets `setup_s`. Every answer is checked, and a
//! wrong one fails the run. With `--trace 1` the run instead prints the
//! per-layer metrics of all four paths, from spans the benchmark records
//! around its calls into the program and from the program's counters.
//!
//! Usage: `perfbench --workload W --seed N --seconds S --trace 0|1
//! --cli PATH [--smoke]`. The last stdout line is the result object.

mod batch;
mod inputs;
mod load;
mod restart;
mod served;
mod trace;
mod traced;
mod util;

use comparesets_core::SolveOptions;
use comparesets_data::Dataset;
use comparesets_graph::ExactOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{median, pooled_rate, Metrics, Rng};

pub const WORKLOADS: [&str; 2] = ["serve_mix", "ingest_mix"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cli: PathBuf,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (have {WORKLOADS:?})"
        ));
    }
    let num = |v: Option<String>, name: &str| -> Result<f64, String> {
        v.ok_or(format!("missing {name}"))?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seed = num(get("--seed"), "--seed")? as u64;
    let seconds = num(get("--seconds"), "--seconds")?;
    let trace = num(get("--trace"), "--trace")? != 0.0;
    let cli = PathBuf::from(get("--cli").ok_or("missing --cli")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cli,
        smoke: argv.iter().any(|a| a == "--smoke"),
    })
}

/// Input sizes. `--smoke` shrinks everything so the self-check can run
/// every workload in seconds; measured runs never pass it.
pub struct Sizes {
    /// Products in each generated corpus (serving, restart and batch).
    pub products: usize,
    /// Offered rates of the solve ladder.
    pub rates: Vec<f64>,
    pub low_secs: f64,
    pub rung_secs: f64,
    pub warmup: usize,
    /// Saturation probes of the served solve at each checkpoint, and
    /// requests in each.
    pub probes: usize,
    pub probe_len: usize,
    pub snapshot_every: usize,
    pub restart_tail: usize,
    /// Timed set-ups of the workload's own kind made at each sampling
    /// point of the run (see [`SetupClock`]).
    pub setup_reps: usize,
}

impl Sizes {
    fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                products: 24,
                rates: vec![100.0, 200.0],
                low_secs: 0.3,
                rung_secs: 0.2,
                warmup: 20,
                probes: 1,
                probe_len: 40,
                snapshot_every: 256,
                restart_tail: 50,
                setup_reps: 1,
            }
        } else {
            Sizes {
                products: 120,
                rates: vec![250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0],
                low_secs: 2.0,
                rung_secs: 1.0,
                warmup: 200,
                probes: 1,
                probe_len: 900,
                snapshot_every: 256,
                restart_tail: 3000,
                setup_reps: 6,
            }
        }
    }
}

/// Totals for the result line.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Whole units of each path every run makes, whichever the workload
/// (besides two restart operations and five batch passes, one at each
/// checkpoint).
pub const LADDER_SECS: f64 = 3.0;
const INGEST_ROUNDS: usize = 2;

pub fn serve_ladder_plan(sizes: &Sizes, secs: f64) -> served::LadderPlan {
    // Stretch the nominal rung lengths to the path's seconds.
    let full = sizes.low_secs + sizes.rung_secs * (sizes.rates.len() as f64 - 1.0);
    let scale = secs / full.max(1e-9);
    served::LadderPlan {
        rates: sizes.rates.clone(),
        low_secs: sizes.low_secs * scale,
        rung_secs: sizes.rung_secs * scale,
        warmup: sizes.warmup,
    }
}

/// Set-up of a server from scratch: corpus generation + bind, durable
/// (initial snapshot + fsync) for `ingest_mix`. Every set-up of the
/// workload's own kind is timed for `setup_s`: the one whose server the
/// run uses, and `setup_reps` more at each checkpoint.
struct SetupClock<'a> {
    durable: bool,
    sizes: &'a Sizes,
    work: &'a Path,
    made: usize,
    secs: Vec<f64>,
}

impl SetupClock<'_> {
    fn setup(&mut self, durable: bool) -> Result<(comparesets_serve::Server, Dataset), String> {
        let t = Instant::now();
        let ds = inputs::corpus(self.sizes.products);
        let dir = durable.then(|| self.work.join(format!("ingest-{}", self.made)));
        let (server, _) = served::bind(ds.clone(), dir).map_err(io_err)?;
        if durable == self.durable {
            self.secs.push(t.elapsed().as_secs_f64());
        }
        self.made += 1;
        Ok((server, ds))
    }

    /// `setup_reps` timed set-ups of the workload's own kind, discarded.
    fn sample(&mut self) -> Result<(), String> {
        for _ in 0..self.sizes.setup_reps {
            self.setup(self.durable)?;
        }
        Ok(())
    }
}

/// The two paths that run in this process without a server — restart
/// and batch — sampled one unit at a time between the socket paths, so
/// each metric's samples spread over the whole run.
struct Offline<'a> {
    restart: restart::Restart,
    corpus: Dataset,
    cli: restart::Cli<'a>,
    batch_corpus: Dataset,
    reference: batch::Pass,
    recover_s: Vec<f64>,
    select_s: Vec<f64>,
    batch_rates: Vec<f64>,
    tally: Tally,
}

impl<'a> Offline<'a> {
    fn new(args: &'a Args, sizes: &Sizes, work: &Path) -> Result<Offline<'a>, String> {
        let corpus = inputs::corpus(sizes.products);
        let mut rng = Rng::new(args.seed ^ 0x22);
        let restart = restart::setup(&corpus, &work.join("restart"), sizes.restart_tail, &mut rng)?;
        let batch_corpus = inputs::batch_corpus(sizes.products);
        let reference = batch::pass(
            &batch_corpus,
            &SolveOptions::sequential().with_warm_start(false),
            &ExactOptions::default(),
            &mut Tracer::new(false),
        );
        Ok(Offline {
            restart,
            corpus,
            cli: restart::Cli::new(&args.cli),
            batch_corpus,
            reference,
            recover_s: Vec::new(),
            select_s: Vec::new(),
            batch_rates: Vec::new(),
            tally: Tally::default(),
        })
    }

    /// One `wal::recover` and one CLI select.
    fn restart_op(&mut self) {
        let (secs, ok) = restart::recover(&self.restart);
        self.recover_s.push(secs);
        self.tally.add(1, u64::from(!ok));
        let target = self.restart.targets[self.select_s.len() % self.restart.targets.len()];
        let (secs, ok) = self.cli.select(&self.restart, &self.corpus, target);
        self.select_s.push(secs);
        self.tally.add(1, u64::from(!ok));
    }

    /// One batch pass, checked against the reference digest.
    fn batch_pass(&mut self) {
        let t0 = Instant::now();
        let pass = batch::pass(
            &self.batch_corpus,
            &SolveOptions::default(),
            &ExactOptions::default(),
            &mut Tracer::new(false),
        );
        self.batch_rates
            .push(pass.instances as f64 / t0.elapsed().as_secs_f64());
        let bad = pass.digest != self.reference.digest;
        self.tally.add(
            pass.instances as u64,
            if bad { pass.instances as u64 } else { 0 },
        );
    }
}

/// Checkpoints per run: one after the solve ladder, then one after
/// each later long phase.
const CHECKPOINTS: usize = 5;

/// What a run samples at each checkpoint, between its long phases: one
/// batch pass, a group of timed set-ups and a few saturation probes of
/// the served solve, so each metric samples the host across the whole
/// run. On the 2-vCPU VM this was built on, host speed shifted by up to
/// 1.5x (2x for the two-connection probes) for seconds to minutes at a
/// time, and samples taken back to back often all fell in one shift.
struct Checkpoints<'a, 'b> {
    clock: SetupClock<'a>,
    offline: Offline<'a>,
    load: served::SolveLoad<'b>,
    probe_qps: Vec<f64>,
}

impl Checkpoints<'_, '_> {
    fn sample(&mut self) -> Result<(), String> {
        self.offline.batch_pass();
        self.clock.sample()?;
        let sizes = self.clock.sizes;
        for _ in 0..sizes.probes {
            let qps = self.load.probe(sizes.probe_len).map_err(io_err)?;
            self.probe_qps.push(qps);
        }
        Ok(())
    }
}

fn run_e2e(args: &Args, sizes: &Sizes, work: &Path) -> Result<(Metrics, Tally), String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let serve_own = args.workload == "serve_mix";
    let mut clock = SetupClock {
        durable: !serve_own,
        sizes,
        work,
        made: 0,
        secs: Vec::new(),
    };
    let offline = Offline::new(args, sizes, work)?;

    // Served solve: in-memory server, open-loop ladder. The server stays
    // up for the checkpoints' saturation probes.
    let (server, ds) = clock.setup(false)?;
    let serving = served::start(server);
    let ladder_secs = if serve_own {
        args.seconds.max(LADDER_SECS)
    } else {
        LADDER_SECS
    };
    let plan = serve_ladder_plan(sizes, ladder_secs);
    let probes = CHECKPOINTS * sizes.probes * sizes.probe_len;
    let mut load = served::SolveLoad::new(
        serving.addr,
        &ds,
        &mut Rng::new(args.seed),
        plan.requests() + probes,
    );
    let ladder = served::ladder(&mut load, &plan).map_err(io_err)?;
    for r in &ladder.rungs {
        println!(
            "serve rung {:>6.0} req/s: latency ms {} | achieved {:.1}/s | lag {:.4} ms | backlog {} | failed {} | {}",
            r.rate,
            r.latency,
            r.achieved_qps,
            r.lag_ms,
            r.backlog,
            r.failed,
            if r.meets { "meets" } else { "misses" }
        );
    }
    let mut at = Checkpoints {
        clock,
        offline,
        load,
        probe_qps: Vec::new(),
    };
    at.sample()?;
    at.offline.restart_op();
    at.sample()?;

    // Durable ingest beside a solve stream.
    let (server, ingest_ds) = at.clock.setup(true)?;
    let running = served::start(server);
    let plan = served::IngestPlan {
        snapshot_every: sizes.snapshot_every,
        min_rounds: INGEST_ROUNDS,
        seconds: if serve_own { 0.0 } else { args.seconds },
        solve_rate: served::INGEST_SOLVE_RATE,
    };
    let ing = served::ingest(&running, &ingest_ds, &plan, &mut Rng::new(args.seed ^ 0x11))
        .map_err(io_err)?;
    running.stop().map_err(io_err)?;
    drop(ingest_ds);
    tally.add(ing.attempted, ing.failed);
    println!(
        "ingest: {} events in {} round(s), {:.1} events/s | ack ms {} | solves ms {}",
        ing.events, ing.rounds, ing.eps, ing.ack, ing.solves
    );
    m.set("ingest_eps", ing.eps, "events/s");
    at.sample()?;
    at.offline.restart_op();
    at.sample()?;
    at.sample()?;

    let Checkpoints {
        clock,
        offline,
        load,
        probe_qps,
    } = at;
    serving.stop().map_err(io_err)?;
    tally.add(load.attempted, load.failed);
    println!("serve saturation probes req/s: {probe_qps:.1?}");
    m.set("solve_max_qps", pooled_rate(&probe_qps), "req/s");
    println!(
        "restart: recover s {:?} | select s {:?}",
        offline.recover_s, offline.select_s
    );
    println!(
        "batch: {} pass(es) of {} instances, inst/s {:?}, reference digest {:08x}",
        offline.batch_rates.len(),
        offline.reference.instances,
        offline.batch_rates,
        offline.reference.digest
    );
    m.set("recover_s", median(&offline.recover_s), "s");
    m.set("select_cli_s", median(&offline.select_s), "s");
    m.set(
        "batch_instances_per_s",
        pooled_rate(&offline.batch_rates),
        "inst/s",
    );
    m.set("peak_rss_mb", offline.cli.peak_rss_mb, "MiB");
    m.set("setup_s", median(&clock.secs), "s");
    tally.add(offline.tally.attempted, offline.tally.failed);
    Ok((m, tally))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::new(args.smoke);
    let n = util::nproc();
    // One process, at most nproc load threads and connections.
    if served::SOLVE_CONNS > n {
        eprintln!(
            "perfbench: the load generator uses {} connections but this machine has {n} CPU(s)",
            served::SOLVE_CONNS
        );
        return ExitCode::from(1);
    }
    if !args.cli.is_file() {
        eprintln!("perfbench: no comparesets binary at {}", args.cli.display());
        return ExitCode::from(1);
    }
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (nproc {n}, load connections {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        served::SOLVE_CONNS
    );
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let result = if args.trace {
        traced::run(&args, &sizes, &work)
    } else {
        run_e2e(&args, &sizes, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok((metrics, tally)) => {
            let correct = tally.failed == 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.attempted.max(1),
                tally.failed,
                metrics.to_json()
            );
            // A wrong answer fails the run, whatever reads the result.
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(3)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
