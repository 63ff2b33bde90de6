#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

//! # rendez-runtime — sans-I/O round runtime with pluggable executors
//!
//! Every protocol in this workspace — the dating service and all seven
//! Figure-2 spreaders — is a round-based message-passing protocol, and
//! this crate is the workspace's one engine for running them (the oracle
//! samplers in `rendez_core` and `rendez_gossip` draw the same random
//! processes centrally). It separates **what a protocol does** from **how
//! its rounds are executed**, in the style of manul's round-based
//! protocol framework:
//!
//! * a protocol is a typed per-node state machine ([`RoundProtocol`]):
//!   it emits messages at round start, absorbs deliveries, does local
//!   end-of-round work, and finalizes each round into
//!   continue / halt-with-result ([`Verdict`]);
//! * it performs no I/O and owns no clock — an [`Executor`] drives it.
//!   The round family is one engine — shards that own their nodes, one
//!   round body, one coordinator loop — behind two executors:
//!   [`SequentialExecutor`] (one shard on the calling thread: the
//!   reference semantics) and [`ShardedExecutor`] (each round's shards
//!   side by side on a [`WorkerPool`], shard-local message fate +
//!   routing, a coordinator that only splices buckets and merges
//!   observation partials); message loss, latency distributions and churn are
//!   [`RunConfig`] fields, not executors. Outside the round family,
//!   [`EventExecutor`] is a deterministic continuous-time executor driving
//!   [`AsyncProtocol`] state machines from an event queue of exponential
//!   per-node wake clocks ([`TimeModel::Continuous`](scenario::TimeModel));
//! * [`adapters`] host all eight workloads — the distributed dating
//!   service and the seven Figure-2 spreaders — on the runtime; §4's
//!   routed dating (`rendez_dht::RoutedDating`) is a [`RoundProtocol`]
//!   of its own, outside the registry;
//! * the [`Scenario`] builder composes workload × platform × selector ×
//!   conditions × churn × executor behind one validated entry point.
//!
//! ## Determinism contract
//!
//! A run is a pure function of `(protocol, RunConfig)` — in particular it
//! does **not** depend on the executor, the shard count, or thread
//! scheduling. Executors guarantee, and the equivalence tests verify:
//!
//! 1. **Per-node RNG streams.** Node `i` draws from
//!    `small_rng_for(seed, i)` only, and only while node `i` is being
//!    stepped. No callback can observe another node's stream.
//! 2. **Canonical delivery order.** Messages due in a round are delivered
//!    in `(dst, src, seq)` order, where `seq` is the sender's private
//!    send counter — a pure function of protocol behaviour. Shards hold
//!    contiguous id ranges and keep their buckets `(src, seq)`-sorted
//!    with stable counting passes, so per-shard order concatenates to
//!    exactly the sequential order without a comparison sort.
//! 3. **Scheduling-free message fate.** Loss and latency under
//!    [`Conditions`] are decided by hashing `(seed, src, seq)`, never by
//!    consuming a shared RNG, so conditioning commutes with execution
//!    strategy.
//! 4. **Scheduling-free churn.** Node liveness under [`Churn`] is a bit
//!    hashed from `(seed, node, round)`, checked at dispatch and at
//!    delivery, so failures commute with execution strategy too.
//! 5. **Associative observation.** Protocols fold per-node observables
//!    into a [`RoundObs`] whose merge is commutative and associative, so
//!    the shard-order merge of per-shard partials equals the one-shard
//!    fold bit-for-bit at every shard count — and between-round
//!    coordinator work is O(shards), independent of `n`.
//!
//! Consequently `SequentialExecutor` and `ShardedExecutor::new(k)` return
//! identical [`RunReport`]s (rounds, output, digest trace, statistics)
//! for every `k` — the property the `exp_runtime_scaling` experiment
//! checks at `n = 10⁵` (and up to `n = 10⁷` with `--n-series`) while
//! measuring the parallel speedup.
//!
//! ## Quickstart: the `Scenario` builder
//!
//! [`Scenario`] is the front door: pick a workload from the
//! [`Spreader`] registry (the dating service or any Figure-2 spreader),
//! compose platform × selector × conditions × churn × executor, and get
//! one unified [`RunReport`] back:
//!
//! ```rust
//! use rendez_runtime::{Scenario, Spreader};
//!
//! let n = 500;
//! let scenario = Scenario::new(n).protocol(Spreader::PushPull);
//! let seq = scenario.run(42).expect("valid scenario");
//! let par = scenario.sharded(4).run(42).expect("valid scenario");
//! assert_eq!(seq.digests, par.digests);          // identical traces
//! let out = seq.expect_output();
//! assert_eq!(out.spread().unwrap().final_informed(), n as u64);
//! ```
//!
//! The lower-level pieces stay public for custom protocols: implement
//! [`RoundProtocol`] and hand it to any [`Executor`] directly.
//!
//! lint: deterministic

pub mod adapters;
pub mod arena;
pub mod batch;
pub mod churn;
pub mod conditions;
pub mod exec;
pub mod proto;
pub mod registry;
pub mod report;
pub mod scenario;

pub use adapters::{
    AsyncSpread, AsyncSpreadSummary, DatingRunSummary, RtDatingSpread, RtFairPull, RtFairPushPull,
    RtPull, RtPush, RtPushPull, RuntimeDating, SpreadRunSummary,
};
pub use arena::NodeArena;
pub use batch::{EnvBatch, SrcRun};
pub use churn::{Churn, ChurnModel};
pub use conditions::{Conditions, FateRun, LatencyDist};
pub use exec::{
    EventExecutor, Executor, PoolScope, SequentialExecutor, ShardedExecutor, WakeQueue, WakeTimer,
    WorkerPool, TICKS_PER_SEC,
};
pub use proto::{
    observe_nodes, AsyncProtocol, Envelope, Outbox, RoundObs, RoundProtocol, SendHalf, Verdict,
};
pub use registry::Spreader;
pub use report::{NetStats, RunConfig, RunReport, TimeAxis};
pub use scenario::{
    ExecChoice, Scenario, ScenarioError, ScenarioReport, TimeModel, WorkloadOutput,
    AUTO_SEQUENTIAL_BELOW, MAX_NODES,
};
