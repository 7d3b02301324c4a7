//! The restart path: recover a durable corpus store from its snapshot
//! plus WAL tail, and run one `comparesets select` process against the
//! same corpus as a file.

use crate::inputs::{derive_items, events, solvable_targets, Popularity};
use crate::util::Rng;
use comparesets_core::{
    solve_comparesets_plus_sweeps_with, InstanceContext, OpinionScheme, SelectParams, SolveOptions,
};
use comparesets_data::wal::{self, CorpusStore};
use comparesets_data::{ComparisonInstance, Dataset};
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Events appended per WAL write while seeding the tail.
const SEED_BATCH: usize = 64;

pub struct Restart {
    pub data_dir: PathBuf,
    pub corpus_file: PathBuf,
    /// The corpus the store must recover to, as JSON.
    pub expected: String,
    pub tail: u64,
    /// CLI targets, in the order the run cycles through them.
    pub targets: Vec<u32>,
}

/// Seed `root` with a store holding a snapshot of `ds` plus an
/// uncompacted tail of `tail` events, and `ds` as a plain corpus file.
pub fn setup(ds: &Dataset, root: &Path, tail: usize, rng: &mut Rng) -> Result<Restart, String> {
    let data_dir = root.join("store");
    let (mut store, _) =
        CorpusStore::open(&data_dir, Some(ds), 0, None).map_err(|e| e.to_string())?;
    let mut mirror = ds.clone();
    let pop = Popularity::new(ds);
    let evs: Vec<_> = events(&mut mirror, &pop, rng, tail)
        .into_iter()
        .map(|(_, ev)| ev)
        .collect();
    for chunk in evs.chunks(SEED_BATCH) {
        store.append(chunk).map_err(|e| e.to_string())?;
    }
    let corpus_file = root.join("corpus.json");
    comparesets_data::io::save(ds, &corpus_file).map_err(|e| e.to_string())?;
    let mut targets = solvable_targets(ds);
    rng.shuffle(&mut targets);
    Ok(Restart {
        data_dir,
        corpus_file,
        expected: serde_json::to_string(&mirror).map_err(|e| e.to_string())?,
        tail: tail as u64,
        targets,
    })
}

/// One `wal::recover`, checked against the corpus the setup wrote.
pub fn recover(r: &Restart) -> (f64, bool) {
    let t = Instant::now();
    let rec = wal::recover(&r.data_dir, None);
    let secs = t.elapsed().as_secs_f64();
    let ok = rec.is_ok_and(|rec| {
        rec.replayed == r.tail
            && serde_json::to_string(&rec.dataset).is_ok_and(|json| json == r.expected)
    });
    (secs, ok)
}

/// What `comparesets select` must print for a target, as the in-order
/// fragments of its report: each item's `#id`, then each selected
/// review's `rating* text` line.
pub fn expected_select(ds: &Dataset, target: u32) -> Vec<String> {
    let instance = ComparisonInstance {
        items: derive_items(ds, target, 12),
    };
    let ctx = InstanceContext::build(ds, &instance, OpinionScheme::Binary);
    let selections = solve_comparesets_plus_sweeps_with(
        &ctx,
        &SelectParams::default(),
        1,
        &SolveOptions::default(),
    );
    let mut out = Vec::new();
    for (i, sel) in selections.iter().enumerate() {
        let item = ctx.item(i);
        out.push(format!("#{} ", item.product.0));
        for &r in &sel.indices {
            let review = ds.review(item.review_ids[r]);
            out.push(format!("  {}* {}\n", review.rating, review.text));
        }
    }
    out
}

fn contains_in_order(haystack: &str, needles: &[String]) -> bool {
    let mut rest = haystack;
    for n in needles {
        match rest.find(n.as_str()) {
            Some(at) => rest = &rest[at + n.len()..],
            None => return false,
        }
    }
    true
}

/// The CLI select path: spawn to exit, output checked, peak memory
/// sampled.
pub struct Cli<'a> {
    bin: &'a Path,
    expected: HashMap<u32, Vec<String>>,
    /// Highest `VmHWM` seen in any select process so far, in MiB.
    pub peak_rss_mb: f64,
}

/// `VmHWM` of a running process, in KiB.
fn vm_hwm_kb(pid: u32) -> Option<f64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

impl<'a> Cli<'a> {
    pub fn new(bin: &'a Path) -> Cli<'a> {
        Cli {
            bin,
            expected: HashMap::new(),
            peak_rss_mb: 0.0,
        }
    }

    /// Run `comparesets select --corpus … --target T` once. A sampler
    /// thread reads the process's `VmHWM` every millisecond while it
    /// runs (the kernel's child rusage would report this process's own
    /// peak instead, inherited at spawn).
    pub fn select(&mut self, r: &Restart, ds: &Dataset, target: u32) -> (f64, bool) {
        let want = self
            .expected
            .entry(target)
            .or_insert_with(|| expected_select(ds, target))
            .clone();
        let mut cmd = Command::new(self.bin);
        cmd.arg("select")
            .arg("--corpus")
            .arg(&r.corpus_file)
            .arg("--target")
            .arg(target.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let t = Instant::now();
        let Ok(mut child) = cmd.spawn() else {
            return (t.elapsed().as_secs_f64(), false);
        };
        let pid = child.id();
        let exited = AtomicBool::new(false);
        let (status, stdout, peak_kb) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak: f64 = 0.0;
                while !exited.load(Ordering::SeqCst) {
                    if let Some(kb) = vm_hwm_kb(pid) {
                        peak = peak.max(kb);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                peak
            });
            let mut stdout = Vec::new();
            if let Some(mut pipe) = child.stdout.take() {
                let _ = pipe.read_to_end(&mut stdout);
            }
            let status = child.wait();
            exited.store(true, Ordering::SeqCst);
            (
                status,
                stdout,
                sampler.join().expect("rss sampler panicked"),
            )
        });
        let secs = t.elapsed().as_secs_f64();
        self.peak_rss_mb = self.peak_rss_mb.max(peak_kb / 1024.0);
        let ok = status.is_ok_and(|s| s.success())
            && contains_in_order(&String::from_utf8_lossy(&stdout), &want);
        (secs, ok)
    }
}
