//! The fleet engine: one persistent worker pool, a work-stealing trial
//! list, and an in-order block folder.
//!
//! A sweep is `cells × trials` trials, each with a global index
//! `j = cell · trials + trial` in one canonical order. The pool's
//! workers claim trials one at a time from an atomic counter (the same
//! work-stealing idiom as `rendez_sim::run_trials`), build each cell's
//! scenario once for all the trials of it they claim, and stream
//! `(j, TrialPoint)` to the caller's thread. There a reorder buffer
//! releases the points **in `j` order** into one block folder, which
//! pushes them into fixed blocks of
//! [`TRIALS_PER_JOB`](crate::TRIALS_PER_JOB) trials and merges each
//! block into its cell. Scheduling therefore decides only *when* a
//! point is folded, never *in which order* — the source of the engine's
//! bit-identical-at-any-pool-size guarantee, which [`run_serial`] shares
//! by feeding the identical trial sequence through the identical folder
//! inline.
//!
//! The scheduling unit is one trial, not one block, because cells
//! differ in cost by orders of magnitude (a dating cell at the largest
//! `n` can outweigh a dozen spreading cells): with a block per claim, a
//! grid of 16-trial cells is one claim per cell, and the heaviest cells
//! — last in canonical order — leave one worker running alone. A trial
//! is milliseconds; its claim and its channel message are not.
//!
//! A panicking trial cancels the sweep: the panic is caught on the
//! worker, the first payload is recorded, and every worker stops at its
//! next claim. The pool survives and the sweep returns
//! [`SweepError::TrialPanicked`].
//!
//! lint: deterministic

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use rendez_runtime::{Scenario, WorkerPool};

use crate::agg::{BlockFolder, CellAgg, TrialPoint};
use crate::report::SweepReport;
use crate::spec::{Cell, SweepError, SweepSpec};

/// A persistent Monte-Carlo worker fleet.
///
/// Create one [`Fleet`] and run as many sweeps as you like against it;
/// the pool's threads are spawned once and parked between sweeps. See
/// the [crate docs](crate) for a runnable example.
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

    /// The scheduler core, generic over the trial runner so tests can
    /// inject panicking workloads.
    fn drive<F>(
        &self,
        spec: &SweepSpec,
        cells: &[Cell],
        runner: &F,
    ) -> Result<Vec<CellAgg>, SweepError>
    where
        F: Fn(&SweepSpec, &Scenario, &Cell, u64) -> TrialPoint + Sync,
    {
        let total = cells.len() * spec.trials as usize;
        let next_trial = AtomicUsize::new(0);
        // Release on a panic pairs with the Acquire before each claim;
        // it publishes nothing else (the error travels in `failure`).
        let cancel = AtomicBool::new(false);
        let failure: Mutex<Option<SweepError>> = Mutex::new(None);
        let mut folder = BlockFolder::new(cells.len(), spec.trials);
        let (tx, rx) = mpsc::channel::<(usize, TrialPoint)>();

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
                    let emit = |j, point| {
                        let _ = tx.send((j, point));
                    };
                    if let Err(err) = run_claimed(spec, cells, runner, claim, emit) {
                        failure
                            .lock()
                            .expect("failure lock poisoned")
                            .get_or_insert(err);
                        cancel.store(true, Ordering::Release);
                    }
                });
            }
            drop(tx);

            // Fold on the calling thread while workers produce: the
            // reorder buffer releases points in trial order, so the
            // push/merge sequence is independent of scheduling. The
            // loop ends when the last worker drops its sender.
            let mut pending: BTreeMap<usize, TrialPoint> = BTreeMap::new();
            for (j, point) in rx {
                pending.insert(j, point);
                while let Some(point) = pending.remove(&folder.next()) {
                    folder.push(&point);
                }
            }
        });

        match failure.into_inner().expect("failure lock poisoned") {
            Some(err) => Err(err),
            None => Ok(folder.finish()),
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
        spec,
        cells,
        runner,
        || trials.next(),
        |_, point| folder.push(&point),
    )?;
    Ok(folder.finish())
}

/// The worker loop of both engines: run each trial `claim` hands out,
/// in the order it hands them out, and give its point to `emit`. Claims
/// only move forward, so rebuilding the scenario whenever the claimed
/// cell changes builds each cell's at most once. Stops at the first
/// panicking trial and returns it.
fn run_claimed<F>(
    spec: &SweepSpec,
    cells: &[Cell],
    runner: &F,
    mut claim: impl FnMut() -> Option<usize>,
    mut emit: impl FnMut(usize, TrialPoint),
) -> Result<(), SweepError>
where
    F: Fn(&SweepSpec, &Scenario, &Cell, u64) -> TrialPoint,
{
    let mut built: Option<(usize, Scenario)> = None;
    while let Some(j) = claim() {
        let cell = &cells[j / spec.trials as usize];
        let scenario = match built {
            Some((index, ref scenario)) if index == cell.index => scenario,
            _ => &built.insert((cell.index, spec.scenario_for(cell))).1,
        };
        let trial = j as u64 % spec.trials;
        match catch_unwind(AssertUnwindSafe(|| runner(spec, scenario, cell, trial))) {
            Ok(point) => emit(j, point),
            Err(payload) => {
                return Err(SweepError::TrialPanicked {
                    cell: cell.index,
                    message: panic_message(&*payload),
                })
            }
        }
    }
    Ok(())
}

/// Run trial `trial` of `cell` against the cell's scenario.
fn run_trial(spec: &SweepSpec, scenario: &Scenario, cell: &Cell, trial: u64) -> TrialPoint {
    let report = scenario
        .run(spec.trial_seed(cell.index, trial))
        .expect("spec.validate() checked every cell");
    TrialPoint::from_report(&report)
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
