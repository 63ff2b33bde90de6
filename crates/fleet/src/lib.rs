#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-fleet — Monte-Carlo fleet engine
//!
//! Every figure in the paper is a *sweep*: the same experiment repeated
//! over a parameter grid (node count × protocol × churn × loss), each
//! grid cell sampled by many independent trials. Before this crate,
//! every experiment binary hand-rolled that loop — spawning fresh
//! threads per point, materializing per-trial vectors, printing ad-hoc
//! tables. The fleet makes the sweep itself the unit of work:
//!
//! * a [`SweepSpec`] names the grid — the cartesian product of the axes
//!   the [`Scenario`](rendez_runtime::Scenario) builder exposes — plus
//!   a trials-per-cell budget and one master seed;
//! * a [`Fleet`] owns a persistent
//!   [`WorkerPool`](rendez_runtime::WorkerPool): its threads are
//!   spawned once and parked between sweeps, and they — with the
//!   calling thread — claim trials one at a time from a shared counter,
//!   the longest cells first (work stealing at trial grain, so every
//!   thread shares in an expensive cell);
//! * aggregation is **streaming** — Welford accumulators per metric
//!   ([`rendez_stats::RunningStats`]), folded through fixed blocks,
//!   never a per-trial vector — into one machine-readable
//!   [`SweepReport`] (schema `rendez-fleet/sweep-v1`) whose metrics are
//!   [`rendez_stats::Summary`] records.
//!
//! ## Determinism
//!
//! Trial seeds derive from `(sweep seed, cell index, trial index)`
//! alone, and each cell's trial results are folded in trial order (a
//! result that finishes ahead of its cell's next trial waits for it), so
//! a sweep's report — down to its JSON bytes — is a pure function of the
//! [`SweepSpec`]: independent of pool size, claim order, trial
//! interleaving, and of whether [`Fleet::run`] or the inline
//! [`run_serial`] baseline produced it. Floating-point merge order is
//! the one hazard (Welford merges don't commute bit-for-bit), which is
//! why both engines fold through one fixed block structure
//! ([`TRIALS_PER_JOB`] trials pushed per block, blocks merged in order)
//! whatever the scheduler did.
//!
//! ## Failure semantics
//!
//! A panicking trial cancels the sweep at the first panic: each worker
//! stops before its next trial, the panic is reported as
//! [`SweepError::TrialPanicked`], and the fleet's threads survive for
//! the next sweep.
//!
//! ## Example
//!
//! ```rust
//! use rendez_fleet::{run_serial, Fleet, SweepSpec};
//! use rendez_runtime::Spreader;
//!
//! let spec = SweepSpec::new()
//!     .ns(vec![16, 32])
//!     .protocols(vec![Spreader::Push, Spreader::PushPull])
//!     .churns(vec![0.0, 0.1])
//!     .trials(8)
//!     .seed(7);
//!
//! let fleet = Fleet::new(2);
//! let report = fleet.run(&spec).expect("valid sweep");
//! assert_eq!(report.cells.len(), 8);
//! let push_ideal = &report.cells[0];
//! assert_eq!(push_ideal.completed, 8);
//! let (lo, hi) = push_ideal.value.ci95();
//! assert!(lo <= push_ideal.value.mean && push_ideal.value.mean <= hi);
//!
//! // The pool is an implementation detail: the serial baseline
//! // produces the same report, byte for byte.
//! let serial = run_serial(&spec).expect("valid sweep");
//! assert_eq!(report.to_json(), serial.to_json());
//! ```
//!
//! lint: deterministic

pub mod agg;
pub mod engine;
pub mod json;
pub mod report;
pub mod spec;

pub use agg::{CellAgg, TrialPoint, TRIALS_PER_JOB};
pub use engine::{run_serial, Fleet};
pub use report::{CellReport, SweepReport};
pub use spec::{Cell, SweepError, SweepSpec};
