//! The fleet engine: one persistent worker pool, a work-stealing trial
//! list, and a per-cell fold — the workspace's one Monte-Carlo trial
//! scheduler.
//!
//! A job is `total` trials with indices `0..total` in one canonical
//! order, claimed one at a time from an atomic counter in a claim order
//! the job fixes up front. Each thread runs its claims against its own
//! state and folds each result the moment it finishes. Two consumers
//! share that core:
//!
//! * a sweep ([`Fleet::run`]) is `cells × trials` trials with
//!   `j = cell · trials + trial`; each thread's state caches the
//!   scenario of the cell it last ran, and the fold is one block folder,
//!   which pushes each cell's trial points in trial order into fixed
//!   blocks of [`TRIALS_PER_JOB`](crate::TRIALS_PER_JOB) trials and
//!   merges each block into its cell. [`run_serial`] feeds the same
//!   trials in canonical order through the identical folder inline;
//! * [`Fleet::map`] runs `f(i, derive_seed(seed, i))`, claims in
//!   canonical order, and files result `i` in slot `i` — how every
//!   `exp_*` harness runs its trials.
//!
//! # Scheduling
//!
//! The scheduling unit is one trial, not one block, because cells
//! differ in cost by orders of magnitude (a dating cell at the largest
//! `n` can outweigh a dozen spreading cells). A trial is milliseconds;
//! its claim and its fold are not.
//!
//! * **Longest cells first.** A sweep claims its cells sorted by
//!   `(n, churn, loss)` descending — each of the three only lengthens a
//!   run — with ties in canonical order, and each cell's trials
//!   contiguous and in trial order. The order is a pure function of the
//!   cells. A sweep with few trials per cell then ends on its cheapest
//!   cells with every thread busy, instead of on one thread running the
//!   largest, which canonical order (`ns` ascending) claims last.
//! * **The calling thread works.** A fleet of `size()` threads spawns
//!   `size() − 1` pool jobs and runs the same claim loop on the calling
//!   thread, the round engine's pattern (its coordinator runs the last
//!   shard itself). No thread sleeps on a channel to fold, and one pool
//!   thread stays parked for the job's whole length; it is there for
//!   [`Scenario::run_pooled`](rendez_runtime::Scenario::run_pooled)
//!   callers sharing [`Fleet::pool`].
//! * **Each cell folds on its own.** The folder pushes a point as soon
//!   as it is its cell's next trial; a point that finishes ahead of a
//!   same-cell trial still running waits for it alone. So the reorder
//!   buffer holds only trials overtaken in flight, whatever the claim
//!   order, and each cell's Welford `push`/`merge` sequence is the
//!   canonical one: scheduling decides when a point is folded, never in
//!   which order within its cell — the source of the engine's
//!   bit-identical-at-any-pool-size guarantee.
//!
//! A panicking trial cancels the job: the panic is caught on the thread
//! that ran it, the first payload is recorded, and every thread stops
//! at its next claim. The pool survives; a sweep returns
//! [`SweepError::TrialPanicked`] and a map resumes the panic on the
//! caller.
//!
//! lint: deterministic

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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

    /// Number of threads a job runs on: the calling thread and
    /// `size() − 1` pool threads.
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
        let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(trials).collect();
        let trial = |_: &mut (), i: usize| f(i, derive_seed(seed, i as u64));
        if let Err((_, payload)) = self.schedule(trials, &|i| i, &trial, |i, t| out[i] = Some(t)) {
            resume_unwind(payload);
        }
        out.into_iter()
            .map(|t| t.expect("every trial ran"))
            .collect()
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
        let trials = spec.trials as usize;
        let order = claim_order(cells);
        let job = |k: usize| order[k / trials] * trials + k % trials;
        let trial = sweep_trial(spec, cells, runner);
        self.schedule(cells.len() * trials, &job, &trial, |j, point| {
            folder.push(j as u64, &point)
        })
        .map_err(|failure| trial_panicked(spec, cells, failure))?;
        Ok(folder.finish())
    }

    /// The scheduler core: run trials `job(0), job(1), …, job(total − 1)`
    /// in that claim order, each thread against its own
    /// default-initialised state, and `fold` every `(trial, result)` as
    /// it finishes. The calling thread claims trials like the
    /// `size() − 1` pool jobs it spawns. Returns the first trial that
    /// panicked, with the job cancelled at that point.
    fn schedule<W: Default, T: Send>(
        &self,
        total: usize,
        job: &(impl Fn(usize) -> usize + Sync),
        trial: &(impl Fn(&mut W, usize) -> T + Sync),
        fold: impl FnMut(usize, T) + Send,
    ) -> Result<(), Panicked> {
        let next_claim = AtomicUsize::new(0);
        // Release on a panic pairs with the Acquire before each claim;
        // it publishes nothing else (the payload travels in `failure`).
        let cancel = AtomicBool::new(false);
        let failure: Mutex<Option<Panicked>> = Mutex::new(None);
        // Whichever thread finishes a trial folds it: a fold is a few
        // Welford updates against a trial's milliseconds.
        let fold = Mutex::new(fold);

        let work = || {
            let claim = || {
                let k = (!cancel.load(Ordering::Acquire))
                    .then(|| next_claim.fetch_add(1, Ordering::Relaxed))?;
                (k < total).then(|| job(k))
            };
            let emit = |j, out| (*fold.lock().expect("fold lock poisoned"))(j, out);
            if let Err(panicked) = run_claimed(&mut W::default(), trial, claim, emit) {
                failure
                    .lock()
                    .expect("failure lock poisoned")
                    .get_or_insert(panicked);
                cancel.store(true, Ordering::Release);
            }
        };
        self.pool.scope(|s| {
            for _ in 1..self.pool.size() {
                s.spawn(work);
            }
            work();
        });

        match failure.into_inner().expect("failure lock poisoned") {
            Some(panicked) => Err(panicked),
            None => Ok(()),
        }
    }
}

/// The order a sweep claims its cells in: longest first. A larger `n`,
/// more churn and more loss each only lengthen a run, so cells sort by
/// `(n, churn, loss)` descending, ties in canonical order (the sort is
/// stable). A short sweep then ends on its cheapest cells, with every
/// thread busy, instead of on one thread running the largest.
fn claim_order(cells: &[Cell]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&cells[a], &cells[b]);
        b.n.cmp(&a.n)
            .then(b.churn.total_cmp(&a.churn))
            .then(b.loss.total_cmp(&a.loss))
    });
    order
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
        |j, point| folder.push(j as u64, &point),
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

/// Sweep trial `j` against a worker's cached scenario. Each cell's
/// trials are claimed contiguously, so rebuilding the scenario whenever
/// the claimed cell changes builds each cell's at most once per thread.
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
        // Each thread stops at its next claim; how many trials the other
        // one finishes first is up to the schedule, but every claim up to
        // the panicking one was made, and the fleet is still fully usable
        // afterwards.
        let position = claim_order(&cells).iter().position(|&c| c == 1);
        let panicking_claim = position.expect("cell 1 is claimed") * 20 + 5;
        assert!(claimed.load(Ordering::Relaxed) > panicking_claim);
        let report = fleet.run(&spec).expect("fleet survives a panic");
        assert_eq!(
            report.to_json(),
            run_serial(&spec).expect("serial").to_json()
        );
    }

    #[test]
    fn cells_are_claimed_longest_first_ties_in_canonical_order() {
        let spec = SweepSpec::new()
            .ns(vec![16, 64, 32])
            .protocols(vec![Spreader::Push, Spreader::Dating])
            .churns(vec![0.1, 0.0])
            .losses(vec![0.0, 0.05]);
        let cells = spec.cells();
        let order = claim_order(&cells);
        let key = |c: &Cell| (c.n, c.churn, c.loss);
        for pair in order.windows(2) {
            let (a, b) = (&cells[pair[0]], &cells[pair[1]]);
            assert!(
                key(a) > key(b) || (key(a) == key(b) && a.index < b.index),
                "{a:?} before {b:?}"
            );
        }
        let first = &cells[order[0]];
        assert_eq!(key(first), (64, 0.1, 0.05));
        assert_eq!(first.protocol, Spreader::Push);
    }

    #[test]
    fn a_panic_in_the_first_claimed_cell_is_reported_for_that_cell() {
        // ns ascending: the largest-n cell with the most churn and loss
        // is canonically last but claimed first; its first trial panics.
        let spec = spec().churns(vec![0.0, 0.1]).losses(vec![0.05, 0.0]);
        let cells = spec.cells();
        let first = claim_order(&cells)[0];
        assert_eq!((cells[first].n, cells[first].churn), (32, 0.1));
        assert_eq!(cells[first].loss, 0.05);
        for threads in [1, 2, 3] {
            let fleet = Fleet::new(threads);
            let err = fleet
                .drive(&spec, &cells, &|spec, scenario, cell, trial| {
                    if cell.index == first && trial == 0 {
                        panic!("largest cell failed");
                    }
                    run_trial(spec, scenario, cell, trial)
                })
                .expect_err("must cancel");
            assert_eq!(
                err,
                SweepError::TrialPanicked {
                    cell: first,
                    message: "largest cell failed".to_string()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_returns_results_in_trial_order_at_any_pool_size() {
        let expected: Vec<(usize, u64)> = (0..37).map(|i| (i, derive_seed(5, i as u64))).collect();
        for threads in [1, 2, 3] {
            let fleet = Fleet::new(threads);
            // Uneven trial costs, so threads finish out of turn.
            let got = fleet.map(37, 5, |i, seed| {
                std::thread::sleep(std::time::Duration::from_micros((i as u64 * 7919) % 300));
                (i, seed)
            });
            assert_eq!(got, expected, "threads={threads}");
        }
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
