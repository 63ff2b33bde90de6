//! What the harness reads from the machine it runs on: the wall clock,
//! the host-speed calibration loop, peak memory and the output header.
//!
//! # Why calibration loops
//!
//! The recording host (a 2-vCPU KVM guest) runs identical instructions at
//! two speeds: a register-only loop of 5 M steps takes 6.1 ms or 8.0 ms
//! (+30 %), flipping every 1–25 s, with user time moving and nothing the
//! guest can observe explaining it. On top of that come stretches —
//! seconds to minutes long — in which memory-bound code slows by up to
//! 40 % while the register-only loop does not: a neighbour's cache
//! pressure. A slow stretch can outlast a whole invocation, so no
//! statistic of raw wall times repeats between two sets of runs.
//!
//! Two fixed loops are the yardstick: [`alu`](spin) (a dependent
//! multiply-rotate chain in registers) and [`mem`](scatter) (dependent
//! read-modify-writes at random places of a 4 MiB buffer). Both run right
//! before and right after every timed interval, and the interval's wall
//! time is scaled by the geometric mean of `nominal / measured` of the
//! two — the time it would have taken on a host on which both loops take
//! their nominal durations. The loops always run on one thread: a loop
//! per core measured whether the two vCPUs happened to share a physical
//! core at that instant, which says little about the run in between. See
//! `README.md` for the measurements behind this.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Iterations of the register-only loop.
const SPIN_ITERS: u64 = 5_000_000;

/// Read-modify-writes of the memory loop, and the words of its buffer
/// (4 MiB: beyond the private cache levels, inside the shared one).
const SCATTER_ITERS: u64 = 1_500_000;
const SCATTER_WORDS: usize = 1 << 19;

/// Duration of the register-only loop on the recording host in its fast
/// mode — with [`SCATTER_NOMINAL_S`] the speed all gated times are
/// normalised to. Changing either rescales every gated timing by the
/// same factor.
pub const SPIN_NOMINAL_S: f64 = 0.006_07;

/// Duration of the memory loop on the recording host when undisturbed.
pub const SCATTER_NOMINAL_S: f64 = 0.006_4;

/// A calibration sample this much above the nominal duration counts as
/// "host in slow mode" (`harness.calib_slow_frac`); the two modes of the
/// recording host are 30 % apart.
pub const SLOW_MODE_FACTOR: f64 = 1.10;

/// Nanoseconds since the first call in this process; every span and
/// sample shares this epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fixed dependent chain of multiply-rotate steps: no memory traffic,
/// no branches the predictor can miss, so its duration tracks the host's
/// current execution speed and nothing else.
#[inline(never)]
fn spin(iters: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9).rotate_left(17);
    }
    x
}

/// A fixed dependent chain of read-modify-writes at pseudo-random words
/// of `buf`: its duration tracks how fast the shared cache levels
/// currently answer.
#[inline(never)]
fn scatter(buf: &mut [u64], iters: u64) -> u64 {
    let mask = buf.len() - 1;
    let mut acc = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc;
    }
    acc
}

thread_local! {
    /// The memory loop's buffer, allocated on first calibration (after
    /// `peak_rss_mb` has been read, so the harness's own 4 MiB do not
    /// hide a workload's few).
    static SCATTER_BUF: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One pass of both calibration loops on this thread.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Seconds the register-only loop took.
    pub spin_s: f64,
    /// Seconds the memory loop took.
    pub scatter_s: f64,
}

/// Run both calibration loops once on this thread.
pub fn calibrate() -> Calibration {
    let t = Instant::now();
    std::hint::black_box(spin(std::hint::black_box(SPIN_ITERS)));
    let spin_s = t.elapsed().as_secs_f64();
    let scatter_s = SCATTER_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.is_empty() {
            buf.resize(SCATTER_WORDS, 1);
        }
        let t = Instant::now();
        std::hint::black_box(scatter(&mut buf, std::hint::black_box(SCATTER_ITERS)));
        t.elapsed().as_secs_f64()
    });
    Calibration { spin_s, scatter_s }
}

/// One timed interval bracketed by calibration loops.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds of the timed interval itself.
    pub wall_s: f64,
    /// Mean of the register-only loops run before and after it.
    pub spin_s: f64,
    /// Mean of the memory loops run before and after it.
    pub scatter_s: f64,
}

impl Sample {
    /// Wall time scaled to the nominal host speed: by the geometric mean
    /// of the two loops' `nominal / measured`.
    pub fn normalised_s(&self) -> f64 {
        let speed = (SPIN_NOMINAL_S / self.spin_s) * (SCATTER_NOMINAL_S / self.scatter_s);
        self.wall_s * speed.sqrt()
    }
}

/// Time `f` once, bracketed by calibration loops.
pub fn time_bracketed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let before = calibrate();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    let after = calibrate();
    (
        out,
        Sample {
            wall_s,
            spin_s: (before.spin_s + after.spin_s) / 2.0,
            scatter_s: (before.scatter_s + after.scatter_s) / 2.0,
        },
    )
}

/// Share of samples taken while the host was in its slow mode, judged
/// by the register-only loop (the one with two clean levels).
pub fn slow_frac(samples: &[Sample]) -> f64 {
    let slow = samples
        .iter()
        .filter(|s| s.spin_s > SPIN_NOMINAL_S * SLOW_MODE_FACTOR)
        .count();
    slow as f64 / samples.len().max(1) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc --version` of the toolchain that built this binary (recorded
/// by `build.rs`).
fn rustc_version() -> &'static str {
    env!("RENDEZ_BENCH_RUSTC")
}

/// The output header: where and with what the numbers were taken.
pub fn header(threads: usize) -> String {
    format!(
        "# host: nproc={} threads_used={} cpu=\"{}\" rustc=\"{}\"",
        nproc(),
        threads,
        cpu_model(),
        rustc_version()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_by_the_calibration_loop() {
        let fast = Sample {
            wall_s: 1.0,
            spin_s: SPIN_NOMINAL_S,
            scatter_s: SCATTER_NOMINAL_S,
        };
        // Both loops 30 % slow: the interval is credited 30 %.
        let slow = Sample {
            wall_s: 1.3,
            spin_s: SPIN_NOMINAL_S * 1.3,
            scatter_s: SCATTER_NOMINAL_S * 1.3,
        };
        // Only the memory loop slow: credited the geometric mean.
        let squeezed = Sample {
            wall_s: 1.2,
            spin_s: SPIN_NOMINAL_S,
            scatter_s: SCATTER_NOMINAL_S * 1.44,
        };
        assert!((fast.normalised_s() - 1.0).abs() < 1e-12);
        assert!((slow.normalised_s() - 1.0).abs() < 1e-12);
        assert!((squeezed.normalised_s() - 1.0).abs() < 1e-12);
        assert_eq!(slow_frac(&[fast, slow, slow, squeezed]), 0.5);
    }

    #[test]
    fn bracketed_timing_returns_the_closures_value_and_positive_times() {
        let (out, sample) = time_bracketed(|| 7);
        assert_eq!(out, 7);
        assert!(sample.spin_s > 0.0 && sample.scatter_s > 0.0 && sample.wall_s >= 0.0);
        assert!(peak_rss_mib().expect("VmHWM readable") > 0.0);
        assert!(now_ns() <= now_ns());
    }
}
