//! Subcommand implementations. Every command returns its output as a
//! `String` so the logic is unit-testable without capturing stdout, and
//! fails with a classified [`CliError`] so `main` can map the failure to
//! its exit code.

use crate::args::{parse, Args};
use crate::error::CliError;
use comparesets_core::{
    solve_checked, solve_with, Algorithm, CancelToken, CoreError, InstanceContext, MatrixBackend,
    MetricsReport, OpinionScheme, SelectParams, Selection, SolveOptions, SolverMetrics,
};
use comparesets_data::{
    io as corpus_io, AmazonError, AmazonLoader, CategoryPreset, ComparisonInstance, Dataset,
    DatasetStats, ProductId,
};
use comparesets_graph::{
    improve_by_swaps, solve_exact, solve_greedy as graph_greedy, solve_peeling, solve_random_k,
    solve_top_k_similarity, ExactOptions, SimilarityGraph,
};
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;

/// Usage text printed on errors and by `help` / `--help`.
pub const USAGE: &str = "\
usage: comparesets <command> [flags]

commands:
  generate        --category <cellphone|toy|clothing> [--products N] [--seed S] --out FILE
  stats           <corpus.json>
  convert-amazon  --reviews FILE --meta FILE --out FILE [--name NAME] [--max-aspects N] [--min-aspect-count N]
                  [--error-budget N]   tolerate up to N malformed JSON-lines (default 0)
  select          --corpus FILE --target ID [--m N] [--lambda X] [--mu X]
                  [--algorithm random|crs|greedy|comparesets|comparesets+]
                  [--max-comparatives N] [--scheme binary|3-polarity|unary-scale] [--seed S]
                  [--warm-start false]
                  [--backend auto|dense|sparse]  design-matrix storage (selection-invariant)
                  [--strict true]      fail (exit 5) instead of degrading on numerical faults
  narrow          --corpus FILE --target ID [--k N] [--method exact|greedy|topk|random|peel]
                  [--m N] [--lambda X] [--mu X] [--time-limit-ms N] [--seed S]
                  [--max-comparatives N] [--warm-start false] [--backend auto|dense|sparse]
                  [--threads N]        branch-and-bound worker threads (--method exact)
  eval            [--out FILE] [--scale N] [--config tiny|default] [--experiments a,b,...]
                  [--checkpoint-dir DIR] [--resume true]
                  [--warm-start false] [--backend auto|dense|sparse]
                  run the reproduction suite; the deterministic report (no
                  wall-clock lines) is written atomically to --out
  serve           --corpus FILE[,FILE...] [--addr HOST:PORT] [--workers N]
                  [--cache-capacity N] [--request-timeout SECS]
                  [--overload-timeout-ms N] [--max-requests N]
                  [--data-dir DIR] [--snapshot-every N]
                  persistent solve server (shard name = corpus file stem);
                  prints \"serving on HOST:PORT\" once bound, runs until a
                  shutdown request (or --max-requests), then exits 0.
                  with --data-dir, ingest requests are WAL-backed under
                  DIR/<shard> and acked only after fsync; restarting with
                  the same DIR recovers every acknowledged event.
                  [--drain-deadline-ms N] on SIGTERM the server drains:
                  stops admitting work (typed `draining` error with a
                  retry-after hint), lets in-flight solves run up to N ms
                  (default 1000) before deadline-clamping them, flushes
                  the WAL, writes a final snapshot, and exits 0
  recover         --data-dir DIR [--shard NAME] [--out FILE] [--compact true]
                  inspect (and optionally re-snapshot) a durable corpus
                  store offline: reports snapshot seq, replayed WAL
                  events, torn bytes dropped, and every absorbed fault
                  per shard; --out writes the recovered corpus of --shard
                  as a plain corpus file
  chaos           [--schedules N] [--seed S] [--dir DIR]
                  drive the durable store through N (default 1000) seeded
                  fault schedules (short writes, failed fsyncs, disk
                  full, bit flips, crashes) and verify every acknowledged
                  event recovers intact; any violation exits 4
  help            print this text

select, narrow and eval reject any flag not listed for them (exit 2).

long-run flags (select, narrow, eval):
  --timeout SECS       cooperative deadline: iterative solvers stop at the
                       next check and return their best-so-far selections;
                       the command exits 6
  --resume true        (eval) resume from --checkpoint-dir, skipping
                       experiments whose results are already checkpointed

observability flags (any command):
  --trace LEVEL        human-readable tracing on stderr (error|warn|info|debug|trace)
  --metrics-json FILE  write a machine-readable solver-metrics report after the run

exit codes:
  0  success
  1  internal error
  2  usage error (bad flags, unknown command, out-of-range arguments)
  3  io error (file could not be opened, read, or written)
  4  data error (input parsed but is corrupt or unusable)
  5  solver error (numerical failure on the solve path)
  6  deadline exceeded (--timeout expired before the solve completed)
  7  disk fatal (ENOSPC/EROFS: disk full or read-only, never retried)";

/// Arg-parser and flag-validation strings are usage errors by definition.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::usage(message)
    }
}

/// Dispatch a raw argv to the matching command.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.first().is_some_and(|c| c == "help")
    {
        return Ok(USAGE.to_string());
    }
    let args = parse(argv)?;
    let command = args
        .positional()
        .first()
        .ok_or_else(|| CliError::usage("no command given"))?;
    init_tracing(&args)?;
    let metrics = args
        .get("metrics-json")
        .map(|_| Arc::new(SolverMetrics::new()));
    let started = std::time::Instant::now();
    let result = match command.as_str() {
        "generate" => cmd_generate(&args),
        "stats" => cmd_stats(&args),
        "convert-amazon" => cmd_convert_amazon(&args),
        "select" => cmd_select(&args, metrics.clone()),
        "narrow" => cmd_narrow(&args, metrics.clone()),
        "eval" => cmd_eval(&args, metrics.clone()),
        "serve" => cmd_serve(&args, metrics.clone()),
        "recover" => cmd_recover(&args, metrics.clone()),
        "chaos" => cmd_chaos(&args, metrics.clone()),
        other => Err(CliError::usage(format!("unknown command {other:?}"))),
    };
    if result.is_ok() {
        if let (Some(path), Some(collector)) = (args.get("metrics-json"), &metrics) {
            write_metrics_report(path, command, started.elapsed(), collector)?;
        }
    }
    result
}

/// Activate `--trace LEVEL` stderr tracing before the command runs.
fn init_tracing(args: &Args) -> Result<(), CliError> {
    if let Some(spec) = args.get("trace") {
        let level: tracing::Level = spec
            .parse()
            .map_err(|e| CliError::usage(format!("--trace: {e}")))?;
        comparesets_obs::init_stderr_tracing(level);
        tracing::info!("tracing enabled at level {level}");
    }
    Ok(())
}

/// Serialise the run's collector into the `--metrics-json` report file.
fn write_metrics_report(
    path: &str,
    command: &str,
    wall: std::time::Duration,
    metrics: &SolverMetrics,
) -> Result<(), CliError> {
    let report = MetricsReport::new(command, wall, metrics);
    let json = serde_json::to_string(&report)
        .map_err(|e| CliError::internal(format!("encoding metrics report: {e}")))?;
    std::fs::write(path, json + "\n")
        .map_err(|e| CliError::io(format!("writing metrics report {path}: {e}")))
}

fn parse_category(name: &str) -> Result<CategoryPreset, String> {
    match name.to_lowercase().as_str() {
        "cellphone" => Ok(CategoryPreset::Cellphone),
        "toy" => Ok(CategoryPreset::Toy),
        "clothing" => Ok(CategoryPreset::Clothing),
        other => Err(format!("unknown category {other:?}")),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name.to_lowercase().as_str() {
        "random" => Ok(Algorithm::Random),
        "crs" => Ok(Algorithm::Crs),
        "greedy" => Ok(Algorithm::CompareSetsGreedy),
        "comparesets" => Ok(Algorithm::CompareSets),
        "comparesets+" | "comparesetsplus" | "plus" => Ok(Algorithm::CompareSetsPlus),
        other => Err(format!("unknown algorithm {other:?}")),
    }
}

fn parse_scheme(name: &str) -> Result<OpinionScheme, String> {
    match name.to_lowercase().as_str() {
        "binary" => Ok(OpinionScheme::Binary),
        "3-polarity" | "three-polarity" | "ternary" => Ok(OpinionScheme::ThreePolarity),
        "unary-scale" | "unary" => Ok(OpinionScheme::UnaryScale),
        other => Err(format!("unknown opinion scheme {other:?}")),
    }
}

/// Load a corpus, classifying the failure: filesystem problems are IO
/// errors, everything past open-and-read (malformed JSON, inconsistent
/// dataset) is a data error. Reads go through a retrying reader, so
/// transient failures (EINTR, network-filesystem timeouts) are absorbed
/// with backoff — and counted into the `--metrics-json` report
/// (`io_retries`) when a collector is active.
fn load_corpus(path: &str, metrics: Option<&Arc<SolverMetrics>>) -> Result<Dataset, CliError> {
    corpus_io::load_retrying(
        Path::new(path),
        &comparesets_data::RetryPolicy::default(),
        metrics.cloned(),
    )
    .map_err(|e| {
        let message = format!("loading {path}: {e}");
        match e {
            corpus_io::IoError::Io(_) => CliError::io(message),
            corpus_io::IoError::Disk(_) => CliError::disk(message),
            corpus_io::IoError::Json(_) | corpus_io::IoError::InvalidDataset(_) => {
                CliError::data(message)
            }
        }
    })
}

/// Build the comparison instance anchored at a target product.
fn instance_for(
    dataset: &Dataset,
    target: u32,
    max_comparatives: usize,
) -> Result<(ComparisonInstance, InstanceContext), CliError> {
    if target as usize >= dataset.products.len() {
        return Err(CliError::usage(format!(
            "target {target} out of range (corpus has {} products)",
            dataset.products.len()
        )));
    }
    let pid = ProductId(target);
    if dataset.reviews_of(pid).is_empty() {
        return Err(CliError::data(format!("product {target} has no reviews")));
    }
    let comps: Vec<ProductId> = dataset
        .product(pid)
        .also_bought
        .iter()
        .copied()
        .filter(|c| !dataset.reviews_of(*c).is_empty())
        .collect();
    if comps.is_empty() {
        return Err(CliError::data(format!(
            "product {target} has no reviewed comparison products"
        )));
    }
    let mut items = vec![pid];
    items.extend(comps);
    let inst = ComparisonInstance { items }.truncated(max_comparatives);
    Ok((
        inst.clone(),
        InstanceContext::build(dataset, &inst, OpinionScheme::Binary),
    ))
}

fn cmd_generate(args: &Args) -> Result<String, CliError> {
    let category = parse_category(args.require("category")?)?;
    let products: usize = args.get_or("products", 240)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let out = args.require("out")?;
    let dataset = category.config(products, seed).generate();
    corpus_io::save(&dataset, Path::new(out))
        .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    Ok(format!(
        "wrote {} ({} products, {} reviews, {} aspects)",
        out,
        dataset.products.len(),
        dataset.reviews.len(),
        dataset.num_aspects()
    ))
}

fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let path = args
        .positional()
        .get(1)
        .ok_or_else(|| CliError::usage("stats needs a corpus file"))?;
    let dataset = load_corpus(path, None)?;
    Ok(DatasetStats::compute(&dataset).to_string())
}

fn cmd_convert_amazon(args: &Args) -> Result<String, CliError> {
    let reviews_path = args.require("reviews")?;
    let meta_path = args.require("meta")?;
    let out = args.require("out")?;
    let loader = AmazonLoader {
        name: args.get("name").unwrap_or("Amazon").to_string(),
        max_aspects: args.get_or("max-aspects", 500)?,
        min_aspect_count: args.get_or("min-aspect-count", 3)?,
        min_reviews_per_product: args.get_or("min-reviews", 1)?,
        error_budget: args.get_or("error-budget", 0)?,
    };
    let reviews = std::fs::File::open(reviews_path)
        .map_err(|e| CliError::io(format!("opening {reviews_path}: {e}")))?;
    let meta = std::fs::File::open(meta_path)
        .map_err(|e| CliError::io(format!("opening {meta_path}: {e}")))?;
    let (dataset, skipped) = loader
        .load_with_report(BufReader::new(reviews), BufReader::new(meta))
        .map_err(|e| {
            let message = format!("converting: {e}");
            match e {
                AmazonError::Io(_) => CliError::io(message),
                AmazonError::Parse { .. } | AmazonError::Empty => CliError::data(message),
            }
        })?;
    corpus_io::save(&dataset, Path::new(out))
        .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    let mut summary = format!(
        "wrote {} ({} products, {} usable reviews, {} aspects)",
        out,
        dataset.products.len(),
        dataset.reviews.len(),
        dataset.num_aspects()
    );
    if skipped.total() > 0 {
        summary.push_str(&format!(
            "\nskipped {} malformed line(s) ({} reviews, {} metadata); first: {}",
            skipped.total(),
            skipped.reviews,
            skipped.metadata,
            skipped.first_error.as_deref().unwrap_or("unknown"),
        ));
    }
    Ok(summary)
}

fn select_params(args: &Args) -> Result<SelectParams, String> {
    Ok(SelectParams {
        m: args.get_or("m", 3)?,
        lambda: args.get_or("lambda", 1.0)?,
        mu: args.get_or("mu", 0.1)?,
    })
}

/// Parse `--timeout SECS` into a deadline-armed [`CancelToken`].
fn timeout_token(args: &Args) -> Result<Option<Arc<CancelToken>>, String> {
    let secs: f64 = args.get_or("timeout", f64::NAN)?;
    if secs.is_nan() {
        return Ok(None);
    }
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!(
            "--timeout: must be a non-negative number, got {secs}"
        ));
    }
    Ok(Some(Arc::new(CancelToken::with_timeout(
        std::time::Duration::from_secs_f64(secs),
    ))))
}

/// Parse `--backend auto|dense|sparse` into a [`MatrixBackend`]. The
/// backend changes wall-clock and resident memory only — selections are
/// byte-identical either way (ARCHITECTURE.md §13).
fn matrix_backend(args: &Args) -> Result<MatrixBackend, String> {
    match args.get("backend").unwrap_or("auto") {
        "auto" => Ok(MatrixBackend::Auto),
        "dense" => Ok(MatrixBackend::Dense),
        "sparse" => Ok(MatrixBackend::Sparse),
        other => Err(format!(
            "--backend: expected auto, dense, or sparse, got {other}"
        )),
    }
}

/// Flags every command accepts (observability).
const GLOBAL_FLAGS: &[&str] = &["trace", "metrics-json"];

/// Flags [`solve_options`] reads.
const SOLVE_FLAGS: &[&str] = &["warm-start", "backend", "timeout"];

/// Reject every flag of `args` that `command` does not read, naming it:
/// a misspelt or retired flag is a usage error (exit 2), never a silent
/// no-op. Called before the filesystem is touched (see [`cmd_select`]).
fn accept_only(args: &Args, command: &str, flags: &[&str]) -> Result<(), String> {
    let known = [flags, SOLVE_FLAGS, GLOBAL_FLAGS].concat();
    match args.flags().filter(|flag| !known.contains(flag)).min() {
        Some(flag) => Err(format!("{command}: unknown flag --{flag}")),
        None => Ok(()),
    }
}

/// Parse `--warm-start BOOL` / `--backend NAME` / `--timeout SECS` into
/// [`SolveOptions`]. The optional `--metrics-json` collector only
/// observes, never steers. Warm starts default on and are
/// selection-invariant — `--warm-start false` forces every alternating
/// sweep to solve from scratch (the cold baseline the `alternation/*`
/// benches compare against). A timeout arms a cooperative deadline:
/// iterative solvers stop at their next cancellation check.
fn solve_options(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<SolveOptions, String> {
    Ok(SolveOptions {
        warm_start: args.get_or("warm-start", true)?,
        backend: matrix_backend(args)?,
        metrics,
        cancel: timeout_token(args)?,
    })
}

/// Run the solve in strict mode: any per-item numerical failure aborts
/// the command with the full error chain instead of degrading silently,
/// and an expired `--timeout` deadline exits 6.
fn solve_strict(
    ctx: &InstanceContext,
    algorithm: Algorithm,
    params: &SelectParams,
    seed: u64,
    opts: &SolveOptions,
) -> Result<Vec<Selection>, CliError> {
    let slots = solve_checked(ctx, algorithm, params, seed, opts).map_err(|e| match e {
        CoreError::InvalidParams(_) => CliError::usage(e.to_string()),
        CoreError::DeadlineExceeded { .. } => CliError::deadline(e.to_string()),
        _ => CliError::solver(e.to_string()),
    })?;
    slots
        .into_iter()
        .map(|slot| slot.map_err(|e| CliError::solver(e.to_string())))
        .collect()
}

fn cmd_select(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    // Validate every flag before touching the filesystem: a usage error
    // must not depend on whether the corpus happens to be readable.
    accept_only(
        args,
        "select",
        &[
            "corpus",
            "target",
            "m",
            "lambda",
            "mu",
            "algorithm",
            "max-comparatives",
            "scheme",
            "seed",
            "strict",
        ],
    )?;
    let target: u32 = args.get_or("target", u32::MAX)?;
    if target == u32::MAX {
        return Err(CliError::usage("missing required flag --target"));
    }
    let max_comp: usize = args.get_or("max-comparatives", 12)?;
    let algorithm = parse_algorithm(args.get("algorithm").unwrap_or("comparesets+"))?;
    let scheme = parse_scheme(args.get("scheme").unwrap_or("binary"))?;
    let params = select_params(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let opts = solve_options(args, metrics.clone())?;
    let strict: bool = args.get_or("strict", false)?;
    let dataset = load_corpus(args.require("corpus")?, metrics.as_ref())?;

    let (inst, _) = instance_for(&dataset, target, max_comp)?;
    let ctx = InstanceContext::build(&dataset, &inst, scheme);
    // A timeout routes through the checked solvers even in lenient mode:
    // an expired deadline must surface as exit 6, never as a silently
    // degraded selection.
    let selections = if strict || opts.cancel.is_some() {
        solve_strict(&ctx, algorithm, &params, seed, &opts)?
    } else {
        solve_with(&ctx, algorithm, &params, seed, &opts)
    };

    let mut out = format!(
        "algorithm: {} | m = {} | lambda = {} | mu = {}\n",
        algorithm.name(),
        params.m,
        params.lambda,
        params.mu
    );
    for (i, sel) in selections.iter().enumerate() {
        let item = ctx.item(i);
        let product = dataset.product(item.product);
        let role = if i == 0 { "TARGET" } else { "COMPARATIVE" };
        out.push_str(&format!(
            "\n[{role}] #{} {} ({} of {} reviews selected)\n",
            item.product.0,
            product.title,
            sel.len(),
            item.num_reviews()
        ));
        for &r in &sel.indices {
            let review = dataset.review(item.review_ids[r]);
            out.push_str(&format!("  {}* {}\n", review.rating, review.text));
        }
    }
    Ok(out)
}

fn cmd_narrow(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    // Flags first, filesystem second (see cmd_select).
    accept_only(
        args,
        "narrow",
        &[
            "corpus",
            "target",
            "k",
            "method",
            "max-comparatives",
            "m",
            "lambda",
            "mu",
            "seed",
            "time-limit-ms",
            "threads",
        ],
    )?;
    let target: u32 = args.get_or("target", u32::MAX)?;
    if target == u32::MAX {
        return Err(CliError::usage("missing required flag --target"));
    }
    let k: usize = args.get_or("k", 3)?;
    let method = args.get("method").unwrap_or("exact").to_lowercase();
    let max_comp: usize = args.get_or("max-comparatives", 12)?;
    let params = select_params(args)?;
    let seed: u64 = args.get_or("seed", 42)?;
    let time_limit: u64 = args.get_or("time-limit-ms", 60_000)?;
    let opts = solve_options(args, metrics.clone())?;
    let dataset = load_corpus(args.require("corpus")?, metrics.as_ref())?;

    let (_, ctx) = instance_for(&dataset, target, max_comp)?;
    // With a --timeout armed, the seeding solve goes through the checked
    // path so an expired deadline exits 6 instead of silently narrowing
    // from degraded selections.
    let selections = if opts.cancel.is_some() {
        solve_strict(&ctx, Algorithm::CompareSetsPlus, &params, seed, &opts)?
    } else {
        solve_with(&ctx, Algorithm::CompareSetsPlus, &params, seed, &opts)
    };
    let graph = SimilarityGraph::from_selections(&ctx, &selections, params.lambda, params.mu);
    let vertices = match method.as_str() {
        "exact" | "ilp" => {
            // --timeout and --metrics-json reach the graph solve, and
            // --threads picks the parallel branch-and-bound.
            let mut exact_opts = ExactOptions::default()
                .with_time_limit(std::time::Duration::from_millis(time_limit))
                .with_threads(args.get_or("threads", 1)?);
            exact_opts.cancel = opts.cancel.clone();
            exact_opts.metrics = opts.metrics.clone();
            let result = solve_exact(&graph, 0, k, &exact_opts);
            if opts.cancel.as_deref().is_some_and(CancelToken::fired) {
                return Err(CliError::deadline(format!(
                    "--timeout expired during exact narrowing \
                     (incumbent weight {:.4}, optimality gap <= {:.4})",
                    result.weight, result.gap
                )));
            }
            result.vertices
        }
        "greedy" => graph_greedy(&graph, 0, k),
        "topk" | "top-k" => solve_top_k_similarity(&graph, 0, k),
        "random" => solve_random_k(&graph, 0, k, seed),
        "peel" | "peeling" => improve_by_swaps(&graph, &solve_peeling(&graph, Some(0), k), &[0]),
        other => {
            return Err(CliError::usage(format!(
                "unknown narrowing method {other:?}"
            )))
        }
    };

    let mut out = format!(
        "method: {method} | k = {k} | candidates = {} | core weight = {:.4}\n",
        ctx.num_items() - 1,
        graph.subgraph_weight(&vertices)
    );
    for &v in &vertices {
        let item = ctx.item(v);
        let role = if v == 0 { "TARGET" } else { "CORE" };
        out.push_str(&format!(
            "[{role}] #{} {}\n",
            item.product.0,
            dataset.product(item.product).title
        ));
    }
    Ok(out)
}

/// Run the persistent solve server (ARCHITECTURE.md §10). Loads every
/// `--corpus` file as a shard named after its file stem, binds, announces
/// the resolved address on stdout (orchestration and the `serve-smoke`
/// recipe parse that line to find an ephemeral port), and serves until a
/// `shutdown` request, the `--max-requests` backstop, or a SIGTERM —
/// which drains gracefully (ARCHITECTURE.md §12): in-flight solves are
/// answered or deadline-clamped, the WAL is flushed, a final snapshot is
/// written, and the process exits 0.
fn cmd_serve(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_serve::{Server, ServerConfig};

    let corpora = args.require("corpus")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let request_timeout: f64 = args.get_or("request-timeout", 30.0)?;
    if !(request_timeout.is_finite() && request_timeout >= 0.0) {
        return Err(CliError::usage(format!(
            "--request-timeout: must be a non-negative number, got {request_timeout}"
        )));
    }
    let max_requests: u64 = args.get_or("max-requests", 0)?;
    let config = ServerConfig {
        workers: args.get_or("workers", 4)?,
        cache_capacity: args.get_or("cache-capacity", 64)?,
        request_timeout: std::time::Duration::from_secs_f64(request_timeout),
        overload_timeout: std::time::Duration::from_millis(
            args.get_or("overload-timeout-ms", 250)?,
        ),
        max_requests: (max_requests > 0).then_some(max_requests),
        data_dir: args.get("data-dir").map(std::path::PathBuf::from),
        snapshot_every: args.get_or("snapshot-every", 256)?,
        drain_deadline: std::time::Duration::from_millis(args.get_or("drain-deadline-ms", 1_000)?),
        ..ServerConfig::default()
    };
    if config.workers == 0 {
        return Err(CliError::usage("--workers: must be at least 1"));
    }

    // The server always collects metrics (the `metrics` op serves them);
    // with `--metrics-json` the same collector also feeds the report.
    let metrics = metrics.unwrap_or_else(|| Arc::new(SolverMetrics::new()));
    let mut shards = Vec::new();
    for path in corpora.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let name = Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(path)
            .to_string();
        shards.push((name, load_corpus(path, Some(&metrics))?));
    }
    if shards.is_empty() {
        return Err(CliError::usage("--corpus names no files"));
    }

    let server = Server::bind(addr, shards, Arc::clone(&metrics), config)
        .map_err(|e| CliError::io(format!("binding {addr}: {e}")))?;
    comparesets_serve::install_sigterm_drain();
    println!("serving on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server
        .run()
        .map_err(|e| CliError::io(format!("serving: {e}")))?;
    Ok(format!(
        "served {} request(s), {} degraded",
        summary.requests, summary.degraded
    ))
}

/// Inspect a durable corpus store offline (ARCHITECTURE.md §11): replay
/// each shard's snapshot + WAL tail exactly as `serve --data-dir` does
/// at bind, and report what a restart would recover. `--out` exports one
/// shard's recovered corpus as a plain corpus file; `--compact true`
/// folds each WAL tail into a fresh snapshot so the next open replays
/// nothing.
fn cmd_recover(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_data::wal::SNAPSHOT_FILE;
    use comparesets_data::CorpusStore;

    let root = Path::new(args.require("data-dir")?);
    let only = args.get("shard");
    let compact: bool = args.get_or("compact", false)?;
    let out = args.get("out");

    // A store root holds one subdirectory per shard; accept a bare shard
    // directory (snapshot.json at top level) too, named by its stem.
    let mut shard_dirs: Vec<(String, std::path::PathBuf)> = Vec::new();
    if root.join(SNAPSHOT_FILE).exists() {
        let name = root
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("corpus")
            .to_string();
        shard_dirs.push((name, root.to_path_buf()));
    } else {
        let entries = std::fs::read_dir(root)
            .map_err(|e| CliError::io(format!("reading {}: {e}", root.display())))?;
        for entry in entries {
            let entry =
                entry.map_err(|e| CliError::io(format!("reading {}: {e}", root.display())))?;
            let dir = entry.path();
            if dir.join(SNAPSHOT_FILE).exists() {
                let name = entry.file_name().to_string_lossy().into_owned();
                shard_dirs.push((name, dir));
            }
        }
        shard_dirs.sort();
    }
    if let Some(only) = only {
        shard_dirs.retain(|(name, _)| name == only);
        if shard_dirs.is_empty() {
            return Err(CliError::usage(format!(
                "shard {only:?} not found under {}",
                root.display()
            )));
        }
    }
    if shard_dirs.is_empty() {
        return Err(CliError::data(format!(
            "no corpus store under {} (no {} found)",
            root.display(),
            SNAPSHOT_FILE
        )));
    }
    if out.is_some() && shard_dirs.len() != 1 {
        return Err(CliError::usage(
            "--out needs exactly one shard (pass --shard NAME)",
        ));
    }

    let mut report = String::new();
    for (name, dir) in &shard_dirs {
        let recovered = comparesets_data::wal::recover(dir, metrics.as_deref())
            .map_err(|e| CliError::data(format!("recovering shard {name:?}: {e}")))?;
        report.push_str(&format!(
            "shard {name}: snapshot seq {}, replayed {} event(s), dropped {} torn byte(s), last seq {}, {} products, {} reviews\n",
            recovered.snapshot_seq,
            recovered.replayed,
            recovered.truncated_bytes,
            recovered.last_seq,
            recovered.dataset.products.len(),
            recovered.dataset.reviews.len(),
        ));
        for fault in &recovered.faults {
            report.push_str(&format!("shard {name}: absorbed fault: {fault}\n"));
        }
        if compact {
            // Re-opening the store replays the same tail, then one
            // explicit snapshot folds it in and truncates the WAL.
            let (mut store, rec) = CorpusStore::open(dir, None, 0, metrics.clone())
                .map_err(|e| CliError::data(format!("opening shard {name:?}: {e}")))?;
            store.snapshot(&rec.dataset).map_err(|e| {
                let message = format!("compacting shard {name:?}: {e}");
                match e {
                    comparesets_data::WalError::Disk(_) => CliError::disk(message),
                    _ => CliError::io(message),
                }
            })?;
            report.push_str(&format!("shard {name}: compacted\n"));
        }
        if let Some(out) = out {
            corpus_io::save(&recovered.dataset, Path::new(out))
                .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
            report.push_str(&format!("wrote {out}\n"));
        }
    }
    report.push_str(&format!("{} shard(s) recovered", shard_dirs.len()));
    Ok(report)
}

/// Drive the durable store through seeded fault schedules
/// (ARCHITECTURE.md §12): each schedule interleaves appends, snapshots,
/// and simulated crashes under an injection profile (short writes,
/// failed fsyncs, disk full, bit flips on read) and verifies after every
/// crash that the acknowledged prefix recovers byte-identical. A single
/// violated invariant fails the run with a data error.
fn cmd_chaos(args: &Args, _metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_data::{run_fault_schedule, CategoryPreset, FaultProfile};

    let schedules: u64 = args.get_or("schedules", 1_000)?;
    if schedules == 0 {
        return Err(CliError::usage("--schedules: must be at least 1"));
    }
    let base_seed: u64 = args.get_or("seed", 0)?;
    let root = match args.get("dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("comparesets_chaos_{}", std::process::id())),
    };
    let seed_dataset = CategoryPreset::Toy.config(6, 5).generate();
    let profile = FaultProfile::chaos();

    let (mut acked, mut faults, mut crashes, mut snapshots, mut failed) = (0u64, 0, 0, 0, 0u64);
    for i in 0..schedules {
        let seed = base_seed.wrapping_add(i);
        let dir = root.join(format!("sched_{seed}"));
        let outcome =
            run_fault_schedule(&dir, &seed_dataset, seed, &profile).map_err(|violation| {
                CliError::data(format!(
                    "schedule seed {seed}: invariant violated: {violation}"
                ))
            })?;
        let _ = std::fs::remove_dir_all(&dir);
        acked += outcome.acked;
        faults += outcome.faults_injected;
        crashes += outcome.crashes;
        snapshots += outcome.snapshots;
        failed += outcome.failed_appends;
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(format!(
        "{schedules} schedule(s) clean: {acked} event(s) acked, {faults} fault(s) injected, \
         {failed} append(s) failed, {crashes} crash(es) recovered, {snapshots} snapshot(s); \
         every acknowledged event recovered intact"
    ))
}

/// Run the reproduction suite (or a named subset) with optional
/// crash-safe checkpointing, and write the deterministic report (no
/// wall-clock lines, see `SuiteReport::render_stable`) atomically.
fn cmd_eval(args: &Args, metrics: Option<Arc<SolverMetrics>>) -> Result<String, CliError> {
    use comparesets_eval::{run_suite, run_suite_checkpointed, standard_suite, CheckpointStore};

    accept_only(
        args,
        "eval",
        &[
            "config",
            "scale",
            "experiments",
            "resume",
            "checkpoint-dir",
            "out",
        ],
    )?;
    let mut cfg = match args.get("config").unwrap_or("default") {
        "tiny" => comparesets_eval::EvalConfig::tiny(),
        "default" => comparesets_eval::EvalConfig::scaled(args.get_or("scale", 1)?),
        other => {
            return Err(CliError::usage(format!(
                "unknown --config {other:?} (expected tiny or default)"
            )))
        }
    };
    cfg.solve_options = solve_options(args, metrics)?;
    let token = cfg.solve_options.cancel.clone();

    let mut suite = standard_suite();
    if let Some(list) = args.get("experiments") {
        let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
        for name in &wanted {
            if !suite.iter().any(|e| e.name == *name) {
                return Err(CliError::usage(format!("unknown experiment {name:?}")));
            }
        }
        suite.retain(|e| wanted.contains(&e.name));
    }

    let resume: bool = args.get_or("resume", false)?;
    let report = match args.get("checkpoint-dir") {
        Some(dir) => {
            let store = CheckpointStore::new(dir);
            run_suite_checkpointed(&suite, &cfg, &store, resume)
                .map_err(|e| CliError::io(format!("checkpointing in {dir}: {e}")))?
        }
        None if resume => {
            return Err(CliError::usage("--resume needs --checkpoint-dir"));
        }
        None => run_suite(&suite, &cfg),
    };

    if let Some(out) = args.get("out") {
        corpus_io::write_atomic(Path::new(out), report.render_stable().as_bytes())
            .map_err(|e| CliError::io(format!("writing {out}: {e}")))?;
    }
    if token.is_some_and(|t| t.fired()) {
        return Err(CliError::deadline(format!(
            "--timeout expired mid-suite; {}/{} experiments completed (outputs may be \
             best-so-far and were not checkpointed)",
            report.completed(),
            report.outcomes.len()
        )));
    }
    let mut out = report.render_summary();
    if let Some(path) = args.get("out") {
        out.push_str(&format!("deterministic report written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::error::ErrorKind;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    /// A corpus path no other test in this (or any concurrent) test
    /// process uses: tests run on parallel threads, so the process id
    /// alone would hand every test the same file.
    fn temp_corpus() -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let thread = std::thread::current();
        let test = thread.name().unwrap_or("test").replace("::", "_");
        let dir = std::env::temp_dir().join("comparesets_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corpus_{}_{n}_{test}.json", std::process::id()));
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn generate_then_stats_then_select_then_narrow() {
        let path = temp_corpus();
        let g = run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "80",
            "--seed",
            "5",
            "--out",
            &path,
        ])
        .unwrap();
        assert!(g.contains("80 products"));

        let s = run(&["stats", &path]).unwrap();
        assert!(s.contains("#Target Product"));

        // Find a target with comparisons by trying product 0..n.
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances");
        let sel = run(&[
            "select",
            "--corpus",
            &path,
            "--target",
            &target.to_string(),
            "--m",
            "2",
        ])
        .unwrap();
        assert!(sel.contains("[TARGET]"));
        assert!(sel.contains("CompaReSetS+"));

        for method in ["exact", "greedy", "topk", "random", "peel"] {
            let n = run(&[
                "narrow",
                "--corpus",
                &path,
                "--target",
                &target.to_string(),
                "--k",
                "3",
                "--method",
                method,
            ])
            .unwrap();
            assert!(n.contains("[TARGET]"), "{method}: {n}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_command_fails() {
        let e = run(&["frobnicate"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert_eq!(e.exit_code(), 2);
        assert!(run(&[]).is_err());
    }

    #[test]
    fn help_prints_usage_with_exit_codes() {
        for argv in [&["help"][..], &["--help"], &["select", "--help"]] {
            let out = run(argv).unwrap();
            assert!(out.contains("exit codes:"), "{argv:?}");
            assert!(out.contains("5  solver error"), "{argv:?}");
        }
    }

    #[test]
    fn bad_category_fails() {
        let e = run(&["generate", "--category", "laptop", "--out", "/tmp/x.json"]).unwrap_err();
        assert!(e.to_string().contains("laptop"));
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn missing_corpus_file_is_an_io_error() {
        let e = run(&["stats", "/nonexistent/zz.json"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn corrupt_corpus_file_is_a_data_error() {
        let dir = std::env::temp_dir().join("comparesets_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt_{}.json", std::process::id()));
        std::fs::write(&path, "{\"name\": \"broken\"").unwrap();
        let e = run(&["stats", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Data);
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("loading"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn select_requires_target() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "20",
            "--seed",
            "1",
            "--out",
            &path,
        ])
        .unwrap();
        let e = run(&["select", "--corpus", &path]).unwrap_err();
        assert!(e.to_string().contains("target"));
        assert_eq!(e.kind, ErrorKind::Usage);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_target_fails() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "20",
            "--seed",
            "1",
            "--out",
            &path,
        ])
        .unwrap();
        let e = run(&["select", "--corpus", &path, "--target", "9999"]).unwrap_err();
        assert!(e.to_string().contains("out of range"));
        assert_eq!(e.kind, ErrorKind::Usage);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn strict_select_matches_default_on_well_posed_corpus() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "13",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let base = [
            "select",
            "--corpus",
            path.as_str(),
            "--target",
            target.as_str(),
        ];
        let lenient = run(&base).unwrap();
        let strict = run(&[&base[..], &["--strict", "true"]].concat()).unwrap();
        assert_eq!(lenient, strict);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn execution_flags_do_not_change_output() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "9",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let base = [
            "select",
            "--corpus",
            path.as_str(),
            "--target",
            target.as_str(),
        ];
        let sequential = run(&base).unwrap();
        let cold = run(&[&base[..], &["--warm-start", "false"]].concat()).unwrap();
        let dense = run(&[&base[..], &["--backend", "dense"]].concat()).unwrap();
        let sparse = run(&[&base[..], &["--backend", "sparse"]].concat()).unwrap();
        assert_eq!(sequential, cold);
        assert_eq!(sequential, dense);
        assert_eq!(sequential, sparse);
        assert!(run(&[&base[..], &["--backend", "csr"]].concat())
            .unwrap_err()
            .to_string()
            .contains("--backend"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unread_flags_are_usage_errors_before_the_corpus_is_touched() {
        // The corpus does not exist: a flag error must win over the io
        // error, and must name the flag.
        let select = ["select", "--corpus", "/nonexistent/c.json", "--target", "0"];
        for extra in [["--parallel", "true"], ["--threads", "2"], ["--sweps", "3"]] {
            let e = run(&[&select[..], &extra[..]].concat()).unwrap_err();
            assert_eq!(e.kind, ErrorKind::Usage, "{extra:?}: {e}");
            assert_eq!(e.exit_code(), 2);
            assert!(e.to_string().contains(extra[0]), "{e}");
        }
        let narrow = ["narrow", "--corpus", "/nonexistent/c.json", "--target", "0"];
        let e = run(&[&narrow[..], &["--parallel", "true"]].concat()).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("--parallel"), "{e}");
        let e = run(&["eval", "--config", "tiny", "--threads", "2"]).unwrap_err();
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("--threads"), "{e}");
        // Every flag a command reads still passes the check.
        let e = run(&[&narrow[..], &["--threads", "2", "--method", "exact"]].concat()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io, "{e}");
    }

    #[test]
    fn metrics_json_writes_a_valid_report() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "21",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let report_path = path.replace(".json", ".metrics.json");
        run(&[
            "select",
            "--corpus",
            &path,
            "--target",
            &target,
            "--metrics-json",
            &report_path,
        ])
        .unwrap();
        let raw = std::fs::read_to_string(&report_path).unwrap();
        let report: MetricsReport = serde_json::from_str(&raw).unwrap();
        assert!(report.schema_matches(), "schema tag: {}", report.schema);
        assert_eq!(report.command, "select");
        assert!(report.wall_ms > 0.0);
        // The default algorithm (CompaReSetS+) runs real regressions, so
        // the solver counters must have fired.
        assert!(!report.metrics.is_empty());
        assert!(report.metrics.nomp_pursuits > 0);
        assert!(report.metrics.integer_regressions > 0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn metrics_collection_does_not_change_output() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "23",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        let report_path = path.replace(".json", ".metrics2.json");
        let base = [
            "select",
            "--corpus",
            path.as_str(),
            "--target",
            target.as_str(),
        ];
        let plain = run(&base).unwrap();
        let metered =
            run(&[&base[..], &["--metrics-json", report_path.as_str()]].concat()).unwrap();
        assert_eq!(plain, metered);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&report_path).ok();
    }

    #[test]
    fn expired_timeout_exits_deadline() {
        let path = temp_corpus();
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "31",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances")
            .to_string();
        for cmd in ["select", "narrow"] {
            let e = run(&[
                cmd,
                "--corpus",
                &path,
                "--target",
                &target,
                "--timeout",
                "0",
            ])
            .unwrap_err();
            assert_eq!(e.kind, ErrorKind::Deadline, "{cmd}: {e}");
            assert_eq!(e.exit_code(), 6, "{cmd}");
            assert!(e.to_string().contains("deadline"), "{cmd}: {e}");
        }
        // A generous timeout changes nothing: output matches the plain run.
        let base = [
            "select",
            "--corpus",
            path.as_str(),
            "--target",
            target.as_str(),
        ];
        let plain = run(&base).unwrap();
        let timed = run(&[&base[..], &["--timeout", "3600"]].concat()).unwrap();
        assert_eq!(plain, timed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_timeout_is_a_usage_error() {
        let e = run(&[
            "select",
            "--corpus",
            "x.json",
            "--target",
            "0",
            "--timeout",
            "-5",
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--timeout"), "{e}");
    }

    #[test]
    fn eval_subset_writes_deterministic_report() {
        let dir = std::env::temp_dir().join(format!("comparesets_cli_eval_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.txt");
        let summary = run(&[
            "eval",
            "--config",
            "tiny",
            "--experiments",
            "table2",
            "--out",
            out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(summary.contains("1/1 experiments completed"), "{summary}");
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("1/1 experiments completed"), "{report}");
        assert!(!report.contains(" ms |"), "wall clock leaked: {report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eval_flag_validation() {
        let e = run(&["eval", "--experiments", "tablezzz"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        let e = run(&["eval", "--resume", "true"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--checkpoint-dir"), "{e}");
        let e = run(&["eval", "--config", "huge"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
    }

    #[test]
    fn serve_round_trips_over_the_wire() {
        use comparesets_serve::{Client, Request, Status};

        let path = temp_corpus().replace(".json", "_serve.json");
        run(&[
            "generate",
            "--category",
            "toy",
            "--products",
            "60",
            "--seed",
            "13",
            "--out",
            &path,
        ])
        .unwrap();
        let dataset = load_corpus(&path, None).unwrap();
        let target = dataset
            .instances()
            .first()
            .map(|i| i.target().0)
            .expect("corpus has instances");

        // Reserve an ephemeral port, free it, and hand it to the command:
        // the test cannot read the "serving on ..." stdout line in-process.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let addr = format!("127.0.0.1:{port}");
        let argv: Vec<String> = [
            "serve",
            "--corpus",
            &path,
            "--addr",
            &addr,
            "--workers",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let server = std::thread::spawn(move || dispatch(&argv));

        // The listener comes up asynchronously; retry the connect briefly.
        let mut client = None;
        for _ in 0..100 {
            match Client::connect(addr.as_str()) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let mut client = client.expect("server did not come up");
        assert_eq!(client.ping().unwrap().status, Status::Ok);
        let solved = client.call(&Request::solve(target)).unwrap();
        assert_eq!(solved.status, Status::Ok, "{solved:?}");
        assert!(!solved.selections.is_empty());
        client.shutdown().unwrap();

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("served 3 request(s)"), "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_flag_validation() {
        let e = run(&["serve"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("corpus"), "{e}");
        let e = run(&["serve", "--corpus", "x.json", "--workers", "0"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--workers"), "{e}");
        let e = run(&["serve", "--corpus", "x.json", "--request-timeout", "-1"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--request-timeout"), "{e}");
        let e = run(&["serve", "--corpus", "/nonexistent/zz.json"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);
    }

    #[test]
    fn recover_flag_validation_and_round_trip() {
        use comparesets_data::wal::{EventKind, ReviewEvent};
        use comparesets_data::{CorpusStore, ProductId, ReviewId};

        let e = run(&["recover"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("data-dir"), "{e}");
        let e = run(&["recover", "--data-dir", "/nonexistent/zz"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Io);

        // Build a store with one shard and one WAL event, then recover it.
        let root =
            std::env::temp_dir().join(format!("comparesets_cli_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let shard = root.join("main");
        let seed = CategoryPreset::Toy.config(8, 3).generate();
        let (mut store, rec) = CorpusStore::open(&shard, Some(&seed), 0, None).unwrap();
        let ev = ReviewEvent {
            seq: store.next_seq(),
            kind: EventKind::Add,
            product: ProductId(0),
            review: ReviewId(rec.dataset.reviews.len() as u32),
            reviewer: rec.dataset.num_reviewers,
            rating: 5,
            text: "streamed".to_string(),
            mentions: vec![],
        };
        store.append(std::slice::from_ref(&ev)).unwrap();
        drop(store);

        let e = run(&[
            "recover",
            "--data-dir",
            root.to_str().unwrap(),
            "--shard",
            "nope",
        ])
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);

        let out = root.join("recovered.json");
        let report = run(&[
            "recover",
            "--data-dir",
            root.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--compact",
            "true",
        ])
        .unwrap();
        assert!(report.contains("shard main"), "{report}");
        assert!(report.contains("replayed 1 event(s)"), "{report}");
        assert!(report.contains("compacted"), "{report}");
        let exported = corpus_io::load(&out).unwrap();
        assert_eq!(exported.reviews.len(), seed.reviews.len() + 1);

        // After --compact the WAL tail is folded in: nothing replays.
        let report = run(&["recover", "--data-dir", root.to_str().unwrap()]).unwrap();
        assert!(report.contains("replayed 0 event(s)"), "{report}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_trace_level_is_a_usage_error() {
        let e = run(&["stats", "/tmp/whatever.json", "--trace", "loud"]).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert!(e.to_string().contains("--trace"), "{e}");
    }

    #[test]
    fn algorithm_and_scheme_parsers() {
        assert!(parse_algorithm("comparesets+").is_ok());
        assert!(parse_algorithm("CRS").is_ok());
        assert!(parse_algorithm("nope").is_err());
        assert!(parse_scheme("unary-scale").is_ok());
        assert!(parse_scheme("binary").is_ok());
        assert!(parse_scheme("hex").is_err());
    }
}
