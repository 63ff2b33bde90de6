#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-sim — node ids, seed streams and the Monte-Carlo trial runner
//!
//! What every crate in the workspace shares; rounds themselves run on
//! `rendez_runtime`, the workspace's one round engine.
//!
//! * [`node`] — [`NodeId`], node-indexed helpers and the 4-byte optional
//!   id ([`Partner`]) the dating messages carry;
//! * [`rng`] — SplitMix64 seed derivation: one independent, reproducible
//!   RNG stream per node, per trial, per purpose;
//! * [`runner`] — a work-stealing parallel Monte-Carlo trial runner built
//!   on std scoped threads, used by the `exp_*` harnesses.
//!
//! Determinism contract: every stream is a pure function of one master
//! seed, and the runner derives trial seeds by SplitMix64, so results are
//! independent of thread count and scheduling.

pub mod node;
pub mod rng;
pub mod runner;

pub use node::{NodeId, Partner};
pub use rng::{derive_seed, small_rng_for, SplitMix64};
pub use runner::{run_trials, run_trials_stats, TrialCtx};
