#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # rendezvous
//!
//! A complete Rust reproduction of *"Heterogenous dating service with
//! application to rumor spreading"* (Olivier Beaumont, Philippe Duchon,
//! Miroslaw Korzeniowski; IEEE IPDPS 2008 / INRIA RR-6168).
//!
//! The **dating service** is a fully decentralized, round-based
//! matchmaking primitive for heterogeneous networks: every node `i` sends
//! `bout(i)` *offers* and `bin(i)` *requests* to nodes drawn from a shared
//! (arbitrary!) distribution; every node matches `min(s, r)` of the
//! offers/requests it received uniformly at random; matched pairs — dates
//! — exchange one unit message. With `m = min(ΣBin, ΣBout)`, the service
//! arranges `Ω(m)` dates per round w.h.p. for *any* common selection
//! distribution, never exceeds any node's bandwidth, and spreads a rumor
//! to all `n` nodes in `O(log n)` rounds.
//!
//! ## Crate map (re-exported as modules here)
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | the dating service: platforms, selectors, Algorithm 1 (oracle form and the distributed wire format), matchings, capacity invariants, analytic predictions, overhead and pipelining models |
//! | [`gossip`] | rumor spreading over dates + the PUSH/PULL baseline family of Figure 2, Theorem 4 phase instrumentation, Theorem 10 heterogeneous experiments, multi-rumor |
//! | [`dht`] | Chord-style DHT substrate: random ring, arc ownership, finger routing, Naor–Wieder routing, the §4 DHT-based selector, and §4's routed (sequential vs pipelined) dating as a runtime protocol |
//! | [`coding`] | §5 extension: GF(256) randomized network coding for rumor mongering |
//! | [`storage`] | §5 extension: replicated storage via dating-driven block exchange |
//! | [`sim`] | node ids and SplitMix64 seed streams |
//! | [`runtime`] | sans-I/O round runtime: per-node protocol state machines behind pluggable sequential / sharded-parallel / event-driven executors, network conditions and churn, plus the persistent [`WorkerPool`](runtime::WorkerPool) |
//! | [`fleet`] | Monte-Carlo fleet engine, the one trial scheduler: persistent-pool sweeps with streaming (Welford) aggregation into machine-readable sweep reports, and `Fleet::map` for independent trials |
//! | [`stats`] | Welford summaries, Poisson/Binomial tails, the Hypergeometric pmf, Zipf weights, chi-square and KS tests, line fits |
//!
//! ## Quickstart
//!
//! ```rust
//! use rendezvous::prelude::*;
//! use rand::SeedableRng;
//!
//! // 100 nodes, bin = bout = 1 (the paper's Figure 1 workload).
//! let platform = Platform::unit(100);
//! let selector = UniformSelector::new(100);
//! let service = DatingService::new(&platform, &selector);
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
//! let outcome = service.run_round(&mut rng);
//!
//! // Ω(m) dates, and nobody's bandwidth was exceeded.
//! assert!(outcome.date_count() > 30);
//! assert!(verify_dates(&platform, &outcome.dates).is_ok());
//! ```
//!
//! See `examples/` for rumor spreading, DHT-backed dating, heterogeneous
//! broadcast, network-coded mongering and storage exchange; see
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

pub use rendez_coding as coding;
pub use rendez_core as core;
pub use rendez_dht as dht;
pub use rendez_fleet as fleet;
pub use rendez_gossip as gossip;
pub use rendez_runtime as runtime;
pub use rendez_sim as sim;
pub use rendez_stats as stats;
pub use rendez_storage as storage;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use rendez_core::{
        verify_dates, AliasSelector, Date, DatingService, NodeCaps, NodeSelector, Platform,
        RoundOutcome, RoundWorkspace, UniformSelector,
    };
    pub use rendez_dht::DhtSelector;
    pub use rendez_fleet::{Fleet, SweepReport, SweepSpec};
    pub use rendez_gossip::{run_spread, DatingSpread, SpreadProtocol};
    pub use rendez_runtime::{
        AsyncProtocol, AsyncSpread, AsyncSpreadSummary, Churn, EventExecutor, Executor, RunConfig,
        RuntimeDating, Scenario, ScenarioError, SequentialExecutor, ShardedExecutor, Spreader,
        TimeAxis, TimeModel, WorkloadOutput,
    };
    pub use rendez_sim::NodeId;
}
