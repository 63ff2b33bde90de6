//! The fleet engine: one persistent worker pool, a work-stealing trial
//! list, and an in-order fold — the workspace's one Monte-Carlo trial
//! scheduler.
//!
//! A job is `total` trials with indices `0..total` in one canonical
//! order. The pool's workers claim trials one at a time from an atomic
//! counter, run each against per-worker state, and stream `(j, result)`
//! to the caller's thread. There a reorder buffer releases the results
//! **in `j` order** into the caller's fold. Scheduling therefore
//! decides only *when* a result is folded, never *in which order* — the
//! source of the engine's bit-identical-at-any-pool-size guarantee.
//! Two consumers share that core:
//!
//! * a sweep ([`Fleet::run`]) is `cells × trials` trials with
//!   `j = cell · trials + trial`; each worker's state caches the
//!   scenario of the cell it last ran, and the fold is one block folder,
//!   which pushes trial points into fixed blocks of
//!   [`TRIALS_PER_JOB`](crate::TRIALS_PER_JOB) trials and merges each
//!   block into its cell. [`run_serial`] feeds the identical trial
//!   sequence through the identical folder inline;
//! * [`Fleet::map`] runs `f(i, derive_seed(seed, i))` and collects the
//!   results in trial order — how every `exp_*` harness runs its trials.
//!
//! The scheduling unit is one trial, not one block, because cells
//! differ in cost by orders of magnitude (a dating cell at the largest
//! `n` can outweigh a dozen spreading cells): with a block per claim, a
//! grid of 16-trial cells is one claim per cell, and the heaviest cells
//! — last in canonical order — leave one worker running alone. A trial
//! is milliseconds; its claim and its channel message are not.
//!
//! A panicking trial cancels the job: the panic is caught on the
//! worker, the first payload is recorded, and every worker stops at its
//! next claim. The pool survives; a sweep returns
//! [`SweepError::TrialPanicked`] and a map resumes the panic on the
//! caller.
//!
//! lint: deterministic

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use rendez_runtime::{Scenario, WorkerPool};
use rendez_sim::derive_seed;

use crate::agg::{BlockFolder, CellAgg, TrialPoint};
use crate::report::SweepReport;
use crate::spec::{Cell, SweepError, SweepSpec};

/// The first trial that panicked: its index and panic payload.
type Panicked = (usize, Box<dyn Any + Send>);

/// A persistent Monte-Carlo worker fleet.
///
/// Create one [`Fleet`] and run as many sweeps and maps as you like
/// against it; the pool's threads are spawned once and parked between
/// them. See the [crate docs](crate) for a runnable example.
#[derive(Debug)]
pub struct Fleet {
    pool: WorkerPool,
}

impl Fleet {
    /// A fleet with `threads` persistent workers (0 = one per core).
    pub fn new(threads: usize) -> Self {
        Self {
            pool: WorkerPool::new(threads),
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.pool.size()
    }

    /// The underlying pool, e.g. to share it with
    /// [`Scenario::run_pooled`](rendez_runtime::Scenario::run_pooled)
    /// between sweeps.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Run a whole sweep on the fleet.
    ///
    /// The report is a pure function of `spec` — bit-identical for any
    /// pool size and identical to [`run_serial`]'s. Returns
    /// [`SweepError::TrialPanicked`] (with the sweep cancelled at the
    /// first panic) if any trial panics; the fleet remains usable.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepReport, SweepError> {
        spec.validate()?;
        let cells = spec.cells();
        let aggs = self.drive(spec, &cells, &run_trial)?;
        Ok(SweepReport::assemble(spec, cells, aggs))
    }

    /// Run `trials` independent trials on the fleet and return their
    /// results in trial order. Trial `i` is `f(i, derive_seed(seed, i))`,
    /// so the output is a pure function of `(trials, seed, f)` —
    /// whatever the pool size, including 1.
    ///
    /// A panicking trial cancels the map (every worker stops at its next
    /// claim) and its panic is resumed on the caller; the fleet remains
    /// usable.
    ///
    /// ```rust
    /// use rendez_fleet::Fleet;
    ///
    /// let fleet = Fleet::new(2);
    /// let squares = fleet.map(5, 7, |i, _seed| i * i);
    /// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    /// ```
    pub fn map<T, F>(&self, trials: usize, seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let mut out = Vec::with_capacity(trials);
        let trial = |_: &mut (), i: usize| f(i, derive_seed(seed, i as u64));
        if let Err((_, payload)) = self.schedule(trials, &trial, |t| out.push(t)) {
            resume_unwind(payload);
        }
        out
    }

    /// A sweep on the scheduler core, generic over the trial runner so
    /// tests can inject panicking workloads.
    fn drive<F>(
        &self,
        spec: &SweepSpec,
        cells: &[Cell],
        runner: &F,
    ) -> Result<Vec<CellAgg>, SweepError>
    where
        F: Fn(&SweepSpec, &Scenario, &Cell, u64) -> TrialPoint + Sync,
    {
        let mut folder = BlockFolder::new(cells.len(), spec.trials);
        let total = cells.len() * spec.trials as usize;
        let trial = sweep_trial(spec, cells, runner);
        self.schedule(total, &trial, |point| folder.push(&point))
            .map_err(|failure| trial_panicked(spec, cells, failure))?;
        Ok(folder.finish())
    }

    /// The scheduler core: run trials `0..total` on the pool, each
    /// worker against its own default-initialised state, and `fold` the
    /// results in trial order on the calling thread. Returns the first
    /// trial that panicked, with the job cancelled at that point.
    fn schedule<W: Default, T: Send>(
        &self,
        total: usize,
        trial: &(impl Fn(&mut W, usize) -> T + Sync),
        mut fold: impl FnMut(T),
    ) -> Result<(), Panicked> {
        let next_trial = AtomicUsize::new(0);
        // Release on a panic pairs with the Acquire before each claim;
        // it publishes nothing else (the payload travels in `failure`).
        let cancel = AtomicBool::new(false);
        let failure: Mutex<Option<Panicked>> = Mutex::new(None);
        let (tx, rx) = mpsc::channel::<(usize, T)>();

        self.pool.scope(|s| {
            for _ in 0..self.pool.size() {
                let tx = tx.clone();
                let (next_trial, cancel, failure) = (&next_trial, &cancel, &failure);
                s.spawn(move || {
                    let claim = || {
                        let j = (!cancel.load(Ordering::Acquire))
                            .then(|| next_trial.fetch_add(1, Ordering::Relaxed))?;
                        (j < total).then_some(j)
                    };
                    // The receiver outlives the scope; send cannot fail
                    // while workers run.
                    let emit = |j, out| {
                        let _ = tx.send((j, out));
                    };
                    if let Err(panicked) = run_claimed(&mut W::default(), trial, claim, emit) {
                        failure
                            .lock()
                            .expect("failure lock poisoned")
                            .get_or_insert(panicked);
                        cancel.store(true, Ordering::Release);
                    }
                });
            }
            drop(tx);

            // Fold on the calling thread while workers produce: the
            // reorder buffer releases results in trial order, so the
            // fold sequence is independent of scheduling. The loop ends
            // when the last worker drops its sender.
            let mut pending: BTreeMap<usize, T> = BTreeMap::new();
            let mut next = 0;
            for (j, out) in rx {
                pending.insert(j, out);
                while let Some(out) = pending.remove(&next) {
                    fold(out);
                    next += 1;
                }
            }
        });

        match failure.into_inner().expect("failure lock poisoned") {
            Some(panicked) => Err(panicked),
            None => Ok(()),
        }
    }
}

/// Run the same sweep without the pool: the caller's thread walks the
/// identical trial list in order, through the identical trial runner
/// and folder — the honest baseline for speedup claims, byte-identical
/// to [`Fleet::run`]'s report.
pub fn run_serial(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    spec.validate()?;
    let cells = spec.cells();
    let aggs = serial_drive(spec, &cells, &run_trial)?;
    Ok(SweepReport::assemble(spec, cells, aggs))
}

/// Serial counterpart of [`Fleet::drive`], sharing its trial order,
/// trial loop, folder and cancellation semantics.
fn serial_drive<F>(spec: &SweepSpec, cells: &[Cell], runner: &F) -> Result<Vec<CellAgg>, SweepError>
where
    F: Fn(&SweepSpec, &Scenario, &Cell, u64) -> TrialPoint,
{
    let mut folder = BlockFolder::new(cells.len(), spec.trials);
    let mut trials = 0..cells.len() * spec.trials as usize;
    run_claimed(
        &mut None,
        &sweep_trial(spec, cells, runner),
        || trials.next(),
        |_, point| folder.push(&point),
    )
    .map_err(|failure| trial_panicked(spec, cells, failure))?;
    Ok(folder.finish())
}

/// The worker loop of both engines: run each trial `claim` hands out,
/// in the order it hands them out, against `state`, and give its result
/// to `emit`. Stops at the first panicking trial and returns it.
fn run_claimed<W, T>(
    state: &mut W,
    trial: &impl Fn(&mut W, usize) -> T,
    mut claim: impl FnMut() -> Option<usize>,
    mut emit: impl FnMut(usize, T),
) -> Result<(), Panicked> {
    while let Some(j) = claim() {
        match catch_unwind(AssertUnwindSafe(|| trial(state, j))) {
            Ok(out) => emit(j, out),
            Err(payload) => return Err((j, payload)),
        }
    }
    Ok(())
}

/// Sweep trial `j` against a worker's cached scenario. Claims only move
/// forward, so rebuilding the scenario whenever the claimed cell
/// changes builds each cell's at most once per worker.
fn sweep_trial<'a, F>(
    spec: &'a SweepSpec,
    cells: &'a [Cell],
    runner: &'a F,
) -> impl Fn(&mut Option<(usize, Scenario)>, usize) -> TrialPoint + 'a
where
    F: Fn(&SweepSpec, &Scenario, &Cell, u64) -> TrialPoint,
{
    move |built, j| {
        let cell = &cells[j / spec.trials as usize];
        let scenario = match *built {
            Some((index, ref scenario)) if index == cell.index => scenario,
            _ => &built.insert((cell.index, spec.scenario_for(cell))).1,
        };
        runner(spec, scenario, cell, j as u64 % spec.trials)
    }
}

/// The sweep's error for trial `j`'s panic.
fn trial_panicked(spec: &SweepSpec, cells: &[Cell], (j, payload): Panicked) -> SweepError {
    SweepError::TrialPanicked {
        cell: cells[j / spec.trials as usize].index,
        message: panic_message(&*payload),
    }
}

/// Run trial `trial` of `cell` against the cell's scenario.
fn run_trial(spec: &SweepSpec, scenario: &Scenario, cell: &Cell, trial: u64) -> TrialPoint {
    let report = scenario
        .run(spec.trial_seed(cell.index, trial))
        .expect("spec.validate() checked every cell");
    TrialPoint::from_report(&report)
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_runtime::Spreader;

    fn spec() -> SweepSpec {
        SweepSpec::new()
            .ns(vec![16, 32])
            .protocols(vec![Spreader::Push, Spreader::PushPull])
            .trials(20)
            .seed(11)
    }

    #[test]
    fn fleet_matches_serial_byte_for_byte() {
        let spec = spec();
        let serial = run_serial(&spec).expect("serial");
        for threads in [1, 3] {
            let fleet = Fleet::new(threads).run(&spec).expect("fleet");
            assert_eq!(serial.to_json(), fleet.to_json(), "threads={threads}");
        }
    }

    #[test]
    fn a_fleet_runs_many_sweeps_on_the_same_threads() {
        let fleet = Fleet::new(2);
        assert_eq!(fleet.size(), 2);
        let a = fleet.run(&spec()).expect("first sweep");
        let b = fleet.run(&spec()).expect("second sweep");
        assert_eq!(a.to_json(), b.to_json());
        let c = fleet.run(&spec().seed(12)).expect("third sweep");
        assert_ne!(a.to_json(), c.to_json(), "seed must matter");
    }

    #[test]
    fn a_panic_mid_block_cancels_the_sweep_and_spares_the_fleet() {
        // Trial 5 of cell 1 sits inside the cell's first 16-trial block
        // (trials = 20): the panic must surface from the middle of a
        // block, not only at a block edge.
        let spec = spec();
        let cells = spec.cells();
        let fleet = Fleet::new(2);
        let claimed = AtomicUsize::new(0);
        let err = fleet
            .drive(&spec, &cells, &|spec, scenario, cell, trial| {
                claimed.fetch_add(1, Ordering::Relaxed);
                if cell.index == 1 && trial == 5 {
                    panic!("injected trial failure");
                }
                run_trial(spec, scenario, cell, trial)
            })
            .expect_err("must cancel");
        assert_eq!(
            err,
            SweepError::TrialPanicked {
                cell: 1,
                message: "injected trial failure".to_string()
            }
        );
        // Each worker stops at its next claim; how many trials the other
        // worker finishes first is up to the schedule, but the panicking
        // trial (global index 25) was claimed, and the fleet is still
        // fully usable afterwards.
        assert!(claimed.load(Ordering::Relaxed) >= 26);
        let report = fleet.run(&spec).expect("fleet survives a panic");
        assert_eq!(
            report.to_json(),
            run_serial(&spec).expect("serial").to_json()
        );
    }

    #[test]
    fn serial_engine_reports_panics_too() {
        let spec = spec();
        let cells = spec.cells();
        let ran = AtomicUsize::new(0);
        let err = serial_drive(&spec, &cells, &|_, _, cell, trial| {
            if cell.index == 1 && trial == 5 {
                panic!("boom");
            }
            ran.fetch_add(1, Ordering::Relaxed);
            TrialPoint {
                completed: true,
                value: 1.0,
                rounds: 1.0,
                sent: 1.0,
                delivered: 1.0,
            }
        })
        .expect_err("must fail");
        assert_eq!(
            err,
            SweepError::TrialPanicked {
                cell: 1,
                message: "boom".to_string()
            }
        );
        // Serial cancellation is exact: cell 0's 20 trials and cell 1's
        // first five ran, nothing after the panic.
        assert_eq!(ran.load(Ordering::Relaxed), 25);
    }

    #[test]
    fn invalid_specs_are_typed_errors_not_panics() {
        let fleet = Fleet::new(1);
        assert!(matches!(
            fleet.run(&SweepSpec::new()).unwrap_err(),
            SweepError::EmptyAxis { axis: "ns" }
        ));
        assert!(matches!(
            run_serial(&spec().churns(vec![2.0])).unwrap_err(),
            SweepError::InvalidProbability { .. }
        ));
    }
}
