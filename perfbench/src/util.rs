//! Small helpers shared by every path: a seeded generator, order
//! statistics, process counters, and the result table.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a tiny, seedable generator. Every input the benchmark
/// sends is drawn from one of these, so a seed fixes the inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; `NaN` when
/// empty. Infinite entries (failed requests) sort last.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || v[hi].is_infinite() {
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The rate over several samples of equal work together: total work
/// over total time, i.e. the harmonic mean of the samples' rates. Unlike
/// a median it weighs every sample, so it does not flip between modes
/// when a shared host alternates between a fast and a slow state.
pub fn pooled_rate(rates: &[f64]) -> f64 {
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// The tail percentile a sample supports: the highest of p99 and below
/// that still leaves at least ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Latency summary: median, supported tail percentile, sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
}

pub fn summarize(xs: &[f64]) -> Summary {
    let q = tail_q(xs.len());
    Summary {
        p50: median(xs),
        tail: quantile(xs, q),
        tail_q: q,
        n: xs.len(),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.4} p{:.1} {:.4} (n={})",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

/// CPU seconds used so far by this process plus its waited-for
/// children (`utime + stime + cutime + cstime` from `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime is field 14.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = [11, 12, 13, 14]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|v| v.parse::<f64>().ok()))
        .sum();
    ticks / 100.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Metric name → (value, unit), in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("{name:?}: {{\"value\": {v}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_put_failures_last() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(quantile(&[1.0, f64::INFINITY], 1.0).is_infinite());
        assert_eq!(tail_q(2000), 0.99);
        assert!((tail_q(500) - 0.98).abs() < 1e-12);
        // Two equal pieces of work at 1/s and 3/s take 1 s + 1/3 s.
        assert!((pooled_rate(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
