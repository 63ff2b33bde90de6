#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-sim — node ids and seed streams
//!
//! What every crate in the workspace shares; rounds themselves run on
//! `rendez_runtime`, the workspace's one round engine.
//!
//! * [`node`] — [`NodeId`], node-indexed helpers and the 4-byte optional
//!   id ([`Partner`]) the dating messages carry;
//! * [`rng`] — SplitMix64 seed derivation: one independent, reproducible
//!   RNG stream per node, per trial, per purpose; a [`SeedKey`] holds
//!   the master's half of the hash for loops over many streams.
//!
//! Monte-Carlo trials run on `rendez_fleet`'s worker pool: `Fleet::map`,
//! which the `exp_*` harnesses use, gives trial `i` the seed
//! [`derive_seed`]`(seed, i)`.
//!
//! Determinism contract: every stream is a pure function of one master
//! seed, so results are independent of thread count and scheduling.

pub mod node;
pub mod rng;

pub use node::{NodeId, Partner};
pub use rng::{derive_seed, small_rng_for, SeedKey, SplitMix64};
