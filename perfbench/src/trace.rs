//! Spans recorded by the benchmark around its calls into the program's
//! public functions (the program itself is not instrumented).
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! request it belongs to. Spans are buffered in memory and written out
//! as JSON lines when the run ends. A span's self time is its duration
//! minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

/// Handle to an open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans must nest");
        self.stack.pop();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open);
        out
    }

    /// Self time of every span, in nanoseconds (duration minus the
    /// duration of its direct children).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per span name: (count, total duration ns, total self ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += self_ns;
        }
        out
    }

    /// Mean duration of spans named `name`, in microseconds (0 when the
    /// span never ran on this workload).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns()));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e6
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// For each root span named `root`: its duration and the summed self
    /// time of its descendants (the stages it called), both in µs.
    pub fn root_coverage(&self, root: &str) -> Vec<(f64, f64)> {
        let own = self.self_ns();
        let mut staged: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut p = s.parent;
            while let Some(pi) = p {
                if self.spans[pi].parent.is_none() {
                    *staged.entry(pi).or_default() += own[i];
                    break;
                }
                p = self.spans[pi].parent;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == root)
            .map(|(i, s)| {
                let covered = staged.get(&i).copied().unwrap_or(0);
                (s.dur_ns() as f64 / 1e3, covered as f64 / 1e3)
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("root");
        let child = t.open("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(root);
        let own = t.self_ns();
        assert!(own[1] >= 2_000_000);
        assert!(own[0] < t.spans[0].dur_ns());
        let cov = t.root_coverage("root");
        assert_eq!(cov.len(), 1);
        assert!(cov[0].1 <= cov[0].0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x");
        t.close(s);
        assert!(t.spans.is_empty());
    }
}
