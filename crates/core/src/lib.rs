#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendez-core — the heterogeneous dating service
//!
//! Reproduction of the primary contribution of *"Heterogenous dating
//! service with application to rumor spreading"* (Beaumont, Duchon,
//! Korzeniowski; IPDPS 2008): a fully decentralized, round-based
//! matchmaking primitive that pairs supply ("offers") and demand
//! ("requests") of a per-node-bounded resource without ever exceeding any
//! node's capabilities.
//!
//! ## The algorithm (paper's Algorithm 1)
//!
//! Per round, node `i` sends `bout(i)` offers and `bin(i)` requests to
//! nodes drawn from a *shared, arbitrary* distribution. Each node then
//! matches a uniform random `min(s, r)` of the `s` offers and `r` requests
//! it received with a uniform random perfect matching and tells every
//! originator the outcome. Matched pairs — *dates* — exchange one unit
//! message.
//!
//! ## Guarantees reproduced here
//!
//! * **Lemma 1** `E[#dates] = Ω(m)` for any common distribution, where
//!   `m = min(Bin, Bout)`; ≈ `0.476·m` for uniform at `m = n`
//!   ([`analysis`]).
//! * **Lemma 2** concentration: `Pr[|X−E[X]| ≥ t] ≤ 2e^{−t²/m}`.
//! * **Lemma 3** conditional uniformity of the date set over
//!   `k`-matchings of `K_{Bout,Bin}` ([`matching::uniform_k_matching`] is
//!   the reference sampler it is tested against).
//! * **Capacity safety**: dates never exceed `bin`/`bout` ([`capacity`]).
//!
//! ## Module map
//!
//! * [`bandwidth`] — [`Platform`]: heterogeneous
//!   `bin`/`bout` capabilities with the paper's C-bounded per-node ratio;
//! * [`selector`] — the shared request-target distribution (uniform,
//!   alias-weighted, Zipf, hotspot, degenerate);
//! * [`service`] — Algorithm 1, oracle form (fast centralized sampling of
//!   the identical process; used for the `n = 10⁵` sweeps);
//! * [`distributed`] — Algorithm 1's request/answer/payload messages (the
//!   protocol itself runs on the round runtime: `RuntimeDating`);
//! * [`matching`] — uniform subset/matching primitives;
//! * [`capacity`] — invariant checkers;
//! * [`analysis`] — numeric theory (Poisson/binomial predictions, bounds);
//! * [`overhead`] — §2's control-traffic accounting;
//! * [`pipeline`] — §4's pipelined-dating latency model.

pub mod analysis;
pub mod bandwidth;
pub mod capacity;
pub mod distributed;
pub mod matching;
pub mod overhead;
pub mod pipeline;
pub mod selector;
pub mod service;

pub use bandwidth::{NodeCaps, Platform};
pub use capacity::{date_loads, verify_dates, CapacityViolation, DateLoads, LoadSummary};
pub use distributed::DatingMsg;
pub use selector::{AliasSelector, NodeSelector, SingleTargetSelector, UniformSelector};
pub use service::{
    run_round_counts, CountWorkspace, Date, DatingService, RoundOutcome, RoundWorkspace,
};

// Re-export the substrate id type: every public API here speaks NodeId.
pub use rendez_sim::NodeId;
