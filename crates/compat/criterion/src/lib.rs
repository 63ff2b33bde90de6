#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the API subset the workspace's `benches/` use — benchmark
//! groups, [`BenchmarkId`], [`Throughput`], `bench_with_input`, `Bencher::
//! iter`, `Bencher::iter_custom` — with plain wall-clock measurement: a
//! short warm-up, then `sample_size` timed samples, reporting the median
//! per-iteration time
//! (plus throughput when declared). No statistics engine, no HTML reports,
//! no comparison against saved baselines; the goal is that `cargo bench`
//! compiles, runs, and prints honest numbers in a vendored environment.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level handle handed to benchmark functions.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 30 }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n## {name}");
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size,
            throughput: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(name, None);
        self
    }
}

/// A named set of benchmarks sharing sample-size and throughput settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl<'a> BenchmarkGroup<'a> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` with `input`, labeled by `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.label), self.throughput);
        self
    }

    /// Benchmark `f`, labeled by `id`.
    pub fn bench_function<F>(&mut self, id: BenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.label), self.throughput);
        self
    }

    /// Close the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// Identifier for one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Compose `function_name/parameter`.
    pub fn new<P: Display>(function_name: &str, parameter: P) -> Self {
        let p = parameter.to_string();
        Self {
            label: if p.is_empty() {
                function_name.to_string()
            } else {
                format!("{function_name}/{p}")
            },
        }
    }

    /// A bare parameter id (no function name).
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Times closures; handed to every benchmark body.
///
/// The lifetime mirrors the real crate's `Bencher<'a>` signature so user
/// code written against criterion compiles unchanged.
pub struct Bencher<'a> {
    sample_size: usize,
    samples: Vec<Duration>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl<'a> Bencher<'a> {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            samples: Vec::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Measure `f`: warm up briefly, then record `sample_size` samples.
    ///
    /// Each sample batches enough iterations to dwarf timer resolution;
    /// the recorded value is per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up and batch calibration: aim for samples of >= 1 ms.
        let mut iters_per_sample = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(1) || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 4;
        }
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            self.samples.push(start.elapsed() / iters_per_sample as u32);
        }
    }

    /// Measure with a routine that reads the clock itself: `f(iters)`
    /// runs `iters` iterations and returns the time that counts — for a
    /// benchmark that times a part of each iteration (criterion's
    /// `iter_custom`). One untimed call warms up; samples are one
    /// iteration each.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        black_box(f(1));
        self.samples.clear();
        for _ in 0..self.sample_size {
            self.samples.push(f(1));
        }
    }

    fn report(&self, label: &str, throughput: Option<Throughput>) {
        if self.samples.is_empty() {
            println!("{label:<48} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let lo = sorted[0];
        let hi = sorted[sorted.len() - 1];
        let tp = match throughput {
            Some(Throughput::Bytes(b)) => {
                let gib = b as f64 / median.as_secs_f64() / (1u64 << 30) as f64;
                format!("  {gib:.3} GiB/s")
            }
            Some(Throughput::Elements(e)) => {
                let me = e as f64 / median.as_secs_f64() / 1e6;
                format!("  {me:.3} Melem/s")
            }
            None => String::new(),
        };
        println!(
            "{label:<48} time: [{} {} {}]{tp}",
            fmt_dur(lo),
            fmt_dur(median),
            fmt_dur(hi)
        );
    }
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Group benchmark functions under one entry point, as in real criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `fn main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` runs bench targets with `--test`; skip timing.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_composition() {
        assert_eq!(BenchmarkId::new("f", 10).label, "f/10");
        assert_eq!(BenchmarkId::new("f", "").label, "f");
        assert_eq!(BenchmarkId::from_parameter(7).label, "7");
    }

    #[test]
    fn bencher_records_samples() {
        let mut b = Bencher::new(5);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert_eq!(b.samples.len(), 5);
        b.report("test/sample", Some(Throughput::Elements(1)));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_nanos(500)), "500 ns");
        assert!(fmt_dur(Duration::from_micros(50)).ends_with("µs"));
        assert!(fmt_dur(Duration::from_millis(50)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_secs(2)).ends_with(" s"));
    }
}
