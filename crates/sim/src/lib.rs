#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-sim — deterministic synchronous round simulator
//!
//! The dating-service paper analyses protocols in the classic synchronous
//! gossip model: computation proceeds in rounds, every node may send
//! messages during a round, and messages sent in round `t` are delivered at
//! the start of round `t + 1` (§1: "The communication is organized in
//! rounds"). The paper's own evaluation ran on a bespoke single-machine
//! simulator; this crate is our reconstruction of that substrate, built for
//! determinism and for the Monte-Carlo scale the paper reports (10³–10⁴
//! independent trials per data point).
//!
//! Components:
//!
//! * [`node`] — [`NodeId`], node-indexed helpers and the 4-byte optional
//!   id ([`Partner`]) the dating messages carry;
//! * [`rng`] — SplitMix64 seed derivation: one independent, reproducible
//!   RNG stream per node, per trial, per purpose;
//! * [`engine`] — the synchronous engine: a [`Protocol`]
//!   object holding all node state, per-node inboxes with a stable delivery
//!   order, configurable latency and random message drops;
//! * [`churn`] — crash-stop failure / recovery schedules (the paper's §1
//!   motivates coping with "dynamics of the networks, also node failures");
//! * [`metrics`] — message and byte accounting, per-round series;
//! * [`trace`] — a bounded event trace for debugging protocol runs;
//! * [`runner`] — a work-stealing parallel Monte-Carlo trial runner built
//!   on std scoped threads; every experiment harness in the workspace
//!   funnels through it.
//!
//! Determinism contract: a run is a pure function of `(protocol, seed)`.
//! Two runs with the same seed produce identical traces, metrics and
//! results; the parallel runner derives trial seeds by SplitMix64 so
//! results are independent of thread count and scheduling.

pub mod churn;
pub mod engine;
pub mod metrics;
pub mod node;
pub mod rng;
pub mod runner;
pub mod trace;

pub use churn::{ChurnEvent, ChurnSchedule};
pub use engine::{Ctx, Engine, EngineConfig, Protocol, RunOutcome};
pub use metrics::Metrics;
pub use node::{NodeId, Partner};
pub use rng::{derive_seed, small_rng_for, SplitMix64};
pub use runner::{run_trials, run_trials_stats, TrialCtx};
pub use trace::{Trace, TraceEvent};
