//! A `std`-only stand-in for the subset of the Criterion API the bench
//! targets use.
//!
//! The build environment is offline, so the real `criterion` crate is
//! unavailable. This harness keeps the bench sources structurally
//! identical (same `criterion_group!`/`criterion_main!`/`bench_function`
//! shape) while timing with `std::time::Instant`: each benchmark runs
//! one untimed warm-up iteration, then `sample_size` timed iterations,
//! and reports mean/min wall time per iteration plus throughput when the
//! group declared one.

use crate::snapshot::BenchRecord;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// Top-level bench driver (stand-in for `criterion::Criterion`).
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 10 }
    }
}

impl Criterion {
    /// Sets the number of timed iterations per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        report(name, &b.samples, None);
    }

    /// Opens a named group of benchmarks sharing a throughput setting.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A benchmark group (stand-in for `criterion::BenchmarkGroup`).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration throughput of benchmarks in the group.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<S: AsRef<str>, F: FnMut(&mut Bencher)>(&mut self, id: S, mut f: F) {
        let mut b = Bencher {
            sample_size: self.parent.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        let full = format!("{}/{}", self.name, id.as_ref());
        report(&full, &b.samples, self.throughput);
    }

    /// Closes the group (formatting no-op, kept for API parity).
    pub fn finish(self) {}
}

/// Per-benchmark timing context handed to the closure.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `f`: one untimed warm-up call, then `sample_size` timed
    /// calls.
    ///
    /// Calling `iter` again **accumulates** further samples into the
    /// same benchmark (Criterion semantics); it must never discard the
    /// samples an earlier call collected.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        std::hint::black_box(f());
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed());
        }
    }

    /// Samples collected so far (all `iter` calls combined).
    pub fn samples(&self) -> &[Duration] {
        &self.samples
    }
}

/// Builds the machine-readable record for one finished benchmark.
fn record(name: &str, samples: &[Duration], throughput: Option<Throughput>) -> BenchRecord {
    BenchRecord {
        name: name.to_string(),
        samples_ns: samples.iter().map(|d| d.as_nanos() as u64).collect(),
        elements: throughput.map(|t| match t {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        }),
    }
}

fn report(name: &str, samples: &[Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{name:<44} (no samples)");
        return;
    }
    let rec = record(name, samples, throughput);
    let mean = Duration::from_nanos(rec.mean_ns() as u64);
    let median = Duration::from_nanos(rec.median_ns() as u64);
    let min = Duration::from_nanos(rec.min_ns());
    let rate = throughput.map(|t| {
        let per_sec = rec.per_sec().expect("throughput declared");
        match t {
            Throughput::Elements(_) => {
                format!("  {per_sec:>12.3e} elem/s  {:>8.2} ns/elem", 1e9 / per_sec)
            }
            Throughput::Bytes(_) => format!("  {per_sec:>12.3e} B/s"),
        }
    });
    println!(
        "{name:<44} mean {:>10.3?}  median {:>10.3?}  min {:>10.3?}{}",
        mean,
        median,
        min,
        rate.unwrap_or_default()
    );
    // One machine-readable line per benchmark; `bench_snapshot` and the
    // CI smoke collect these into a BENCH_*.json snapshot.
    println!("{}", rec.to_json());
}

/// Declares a bench group function calling each target with a shared
/// [`Criterion`] (stand-in for `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::harness::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares `main` running the listed bench groups (stand-in for
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_accumulates_across_calls() {
        // Regression test: a second `iter` call used to clear the
        // samples of the first, silently halving long benchmarks.
        let mut b = Bencher {
            sample_size: 3,
            samples: Vec::new(),
        };
        b.iter(|| 1 + 1);
        assert_eq!(b.samples().len(), 3);
        b.iter(|| 2 + 2);
        assert_eq!(b.samples().len(), 6, "second iter must accumulate");
    }

    #[test]
    fn bencher_collects_samples_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Elements(100));
        g.bench_function("inner", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
    }
}
