//! The untraced invocation: repeat the workload for the measuring time,
//! check every repetition, sample set-up, and reduce to the end-to-end
//! metrics.
//!
//! Estimator: every timed interval is bracketed by host-speed calibration
//! loops and normalised to the nominal host speed (see [`crate::host`]);
//! the reported time is the [`steady`](crate::stats::steady) value — the
//! lower quartile — of the normalised samples. The raw wall-clock minimum
//! and median ride along as ungated `harness.*` numbers so the
//! normalisation can always be audited.

use crate::host::{self, Sample};
use crate::stats;
use crate::workloads::{Facts, Plan, System};
use std::time::{Duration, Instant};

/// Repetitions timed however short the measuring time is.
pub const MIN_REPS: usize = 3;

/// Untimed runs before the first timed one: allocator arenas, pool
/// threads and caches settle, and `peak_rss_mb` is read after them.
const WARM_UPS: usize = 3;

/// Set-up samples: this many, unless [`SETUP_BUDGET_S`] runs out first.
const SETUP_SAMPLES: usize = 60;

/// Set-up samples taken however long each one is.
const MIN_SETUP_SAMPLES: usize = 12;

/// Wall-clock budget of the set-up sampling loop.
const SETUP_BUDGET_S: f64 = 3.0;

/// A set-up sample times as many consecutive set-ups as fit in about
/// this long, so that a 0.3 ms set-up is not lost next to the 6 ms
/// calibration loops around it.
const SETUP_SAMPLE_S: f64 = 0.015;

/// Tally of checked operations: how many were attempted, how many
/// failed, and the first failure's message.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, did not complete or failed a check.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one checked operation; `Some` if it passed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
                None
            }
        }
    }

    /// Give up once more operations failed than a run ever repeats at
    /// minimum: the system is broken, not unlucky.
    pub fn hopeless(&self) -> bool {
        self.failed > MIN_REPS as u64
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// The error to report when nothing succeeded.
    pub fn give_up(&self) -> String {
        self.first_failure
            .clone()
            .unwrap_or_else(|| "no repetition succeeded".to_string())
    }
}

/// `Ok` when `got` equals `want` in every exact count.
pub fn same_facts(got: Facts, want: &Facts, what: &str) -> Result<(), String> {
    if got == *want {
        Ok(())
    } else {
        Err(format!("{what} diverged: {got:?} instead of {want:?}"))
    }
}

/// Time one run of `system` between calibration loops and check it
/// against `want`; its sample joins `kept` only if it passed.
pub fn timed_run(
    system: &System,
    plan: &Plan,
    want: &Facts,
    what: &str,
    tally: &mut Tally,
    kept: &mut Vec<Sample>,
) {
    let (outcome, sample) = host::time_bracketed(|| system.run(plan));
    let checked = outcome.and_then(|got| same_facts(got, want, what));
    if tally.record(checked).is_some() {
        kept.push(sample);
    }
}

/// The steady (lower-quartile) speed-normalised time of `samples`.
pub fn steady_s(samples: &[Sample]) -> f64 {
    stats::steady(&samples.iter().map(Sample::normalised_s).collect::<Vec<_>>())
}

/// Everything the untraced invocation measured.
pub struct EndToEnd {
    /// The exact counts every repetition agreed on.
    pub facts: Facts,
    /// One sample per timed repetition.
    pub reps: Vec<Sample>,
    /// One sample per set-up batch, already divided by the batch size:
    /// generate inputs → build → first round → drop, once.
    pub setups: Vec<Sample>,
    /// Set-ups per batch.
    pub setup_batch: usize,
    /// Checked operations, the warm-up comparison included.
    pub tally: Tally,
    /// `VmHWM` after the warm-up runs, MiB — before the harness
    /// allocates its own calibration buffer.
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    /// Steady normalised time of one complete run, seconds.
    pub fn run_s(&self) -> f64 {
        steady_s(&self.reps)
    }

    /// Work units per second at [`run_s`](Self::run_s).
    pub fn throughput_per_s(&self) -> f64 {
        self.facts.work as f64 / self.run_s()
    }

    /// Steady normalised time of one set-up, seconds.
    pub fn setup_s(&self) -> f64 {
        steady_s(&self.setups)
    }
}

/// Run `plan`'s workload untraced for about `seconds` seconds.
///
/// Order: build once, compute the reference output, [`WARM_UPS`] untimed
/// runs, read peak memory, the timed repetitions, then the set-up
/// samples. A run fails if it errors, fails its own output check, or
/// differs from the first run or the reference in any exact count.
pub fn end_to_end(plan: &Plan, seconds: f64) -> Result<EndToEnd, String> {
    let system = System::build(plan);
    let reference = system.reference(plan)?;
    let mut tally = Tally::default();

    let facts = system.run(plan)?;
    let want = reference.as_ref().unwrap_or(&facts);
    tally.record(same_facts(facts.clone(), want, "warm-up run"));
    for _ in 1..WARM_UPS {
        let again = system
            .run(plan)
            .and_then(|got| same_facts(got, want, "warm-up run"));
        tally.record(again);
    }
    let peak_rss_mib = host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    while (reps.len() < MIN_REPS || Instant::now() < deadline) && !tally.hopeless() {
        timed_run(&system, plan, want, "run", &mut tally, &mut reps);
    }
    drop(system);

    let set_up = || {
        let plan = Plan::generate(plan.workload, plan.scale, plan.seed);
        System::build(&plan).first_round(&plan)
    };
    let probe = Instant::now();
    set_up()?;
    let setup_batch = (SETUP_SAMPLE_S / probe.elapsed().as_secs_f64())
        .ceil()
        .clamp(1.0, 64.0);
    let setup_batch = setup_batch as usize;
    let setup_deadline = Instant::now() + Duration::from_secs_f64(SETUP_BUDGET_S);
    let mut setups = Vec::new();
    while setups.len() < SETUP_SAMPLES
        && (setups.len() < MIN_SETUP_SAMPLES || Instant::now() < setup_deadline)
        && !tally.hopeless()
    {
        let (outcome, batch) = host::time_bracketed(|| (0..setup_batch).try_for_each(|_| set_up()));
        if tally.record(outcome).is_some() {
            setups.push(Sample {
                wall_s: batch.wall_s / setup_batch as f64,
                ..batch
            });
        }
    }

    if reps.is_empty() || setups.is_empty() {
        return Err(tally.give_up());
    }
    Ok(EndToEnd {
        facts,
        reps,
        setups,
        setup_batch,
        tally,
        peak_rss_mib,
    })
}
