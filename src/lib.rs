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
//! | [`core`] | the model the runtime runs: platforms, selectors, Algorithm 1's wire format, matchings, analytic predictions, overhead and pipelining models |
//! | [`runtime`] | sans-I/O round runtime: per-node protocol state machines (Algorithm 1 as `RuntimeDating`, the Figure-2 spreaders) behind pluggable sequential / sharded-parallel / event-driven executors, network conditions and churn, the [`Scenario`](runtime::Scenario) builder, plus the persistent [`WorkerPool`](runtime::WorkerPool) |
//! | [`dht`] | Chord-style DHT substrate: random ring, arc ownership, finger routing, Naor–Wieder routing, the §4 DHT-based selector, and §4's routed (sequential vs pipelined) dating as a runtime protocol |
//! | [`coding`] | §5 extension: GF(256) randomized network coding for rumor mongering |
//! | [`storage`] | §5 extension: replicated storage via dating-driven block exchange |
//! | [`sim`] | node ids and SplitMix64 seed streams |
//! | [`fleet`] | Monte-Carlo fleet engine, the one trial scheduler: persistent-pool sweeps with streaming (Welford) aggregation into machine-readable sweep reports, and `Fleet::map` for independent trials |
//! | [`stats`] | Welford summaries, Poisson/Binomial tails, the Hypergeometric pmf, Zipf weights, chi-square and KS tests, line fits |
//!
//! The centralised oracle, `rendez_gossip`, is the reference the tests
//! compare the runtime against; it is not part of this facade.
//!
//! ## Quickstart
//!
//! ```rust
//! use rendezvous::core::analysis;
//! use rendezvous::prelude::*;
//!
//! // 100 nodes, bin = bout = 1 (the paper's Figure 1 workload): twenty
//! // cycles of Algorithm 1 on the runtime.
//! let n = 100;
//! let out = Scenario::new(n).cycles(20).run(42).unwrap().expect_output();
//! let dating = out.dating().expect("dating run");
//!
//! // Ω(m) dates per cycle (≈ 0.476·m predicted), never more than m = n.
//! let predicted = analysis::expected_dates_uniform(n, n as u64, n as u64);
//! let mean = dating.total_dates() as f64 / dating.dates_per_cycle.len() as f64;
//! assert!((mean - predicted).abs() < 0.1 * n as f64);
//! assert!(dating.dates_per_cycle.iter().all(|&d| d <= n as u64));
//!
//! // The same runtime spreads a rumor over the dates (§3).
//! let out = Scenario::new(n).protocol(Spreader::Dating).run(42).unwrap().expect_output();
//! let rumor = out.spread().expect("spread run");
//! assert_eq!(rumor.final_informed(), n as u64);
//! ```
//!
//! See `examples/` for rumor spreading, DHT-backed dating, heterogeneous
//! broadcast, network-coded mongering and storage exchange; see
//! `EXPERIMENTS.md` for the paper-vs-measured record of every figure.

pub use rendez_coding as coding;
pub use rendez_core as core;
pub use rendez_dht as dht;
pub use rendez_fleet as fleet;
pub use rendez_runtime as runtime;
pub use rendez_sim as sim;
pub use rendez_stats as stats;
pub use rendez_storage as storage;

/// The most common imports, one `use` away.
pub mod prelude {
    pub use rendez_core::{AliasSelector, NodeCaps, NodeSelector, Platform, UniformSelector};
    pub use rendez_dht::DhtSelector;
    pub use rendez_fleet::{Fleet, SweepReport, SweepSpec};
    pub use rendez_runtime::{
        AsyncProtocol, AsyncSpread, AsyncSpreadSummary, Churn, EventExecutor, Executor, RunConfig,
        RuntimeDating, Scenario, ScenarioError, SequentialExecutor, ShardedExecutor, Spreader,
        TimeAxis, TimeModel, WorkloadOutput,
    };
    pub use rendez_sim::NodeId;
}
