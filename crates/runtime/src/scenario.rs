//! The `Scenario` builder: one front door to every workload the
//! runtime can host.
//!
//! Every experiment in the workspace is some combination of *protocol ×
//! platform × selector × conditions × churn × executor*. Before this
//! module, each experiment binary hand-wired that combination; the
//! builder makes it a typed one-liner:
//!
//! ```rust
//! use rendez_runtime::{Scenario, Spreader, Churn, Conditions};
//!
//! let report = Scenario::new(1_000)
//!     .protocol(Spreader::FairPushPull)
//!     .conditions(Conditions::with_loss(0.1))
//!     .churn(Churn::intermittent(0.05))
//!     .sharded(4)
//!     .run(42)
//!     .expect("valid scenario");
//! assert_eq!(report.output.unwrap().spread().unwrap().final_informed(), 1_000);
//! ```
//!
//! Validation happens **up front**: size mismatches, out-of-range
//! sources and malformed probabilities come back as a typed
//! [`ScenarioError`] from [`Scenario::run`] instead of a mid-run panic
//! deep inside an executor. The determinism contract carries over
//! unchanged — for a fixed scenario and seed, every executor
//! configuration returns a bit-identical [`RunReport`].
//!
//! ## Time models
//!
//! The **time model** says what a run means: synchronous rounds (the
//! paper's model) or continuous time (exponential per-node wake
//! clocks, on the [`EventExecutor`]), selected via
//! [`Scenario::time_model`]. Which round executor computes a rounds run
//! — [`sequential`](Scenario::sequential) (the default) or
//! [`sharded`](Scenario::sharded) — is a separate choice that changes
//! wall-clock time and never the report. A continuous run ignores it:
//! the event loop is serial.
//!
//! ```rust
//! use rendez_runtime::{Scenario, Spreader, TimeModel};
//!
//! // Rounds on two shards: the sequential report, computed in parallel.
//! let sync = Scenario::new(5_000).protocol(Spreader::PushPull).sharded(2);
//! assert_eq!(sync.executor_name(), "sharded(2)");
//!
//! // Asynchronous PUSH&PULL: each node wakes ~1.0 times per simulated
//! // second; the report's time axis is simulated seconds + events.
//! let report = Scenario::new(500)
//!     .protocol(Spreader::PushPull)
//!     .time_model(TimeModel::Continuous { rate: 1.0 })
//!     .run(42)
//!     .expect("valid scenario");
//! let out = report.expect_output();
//! assert_eq!(out.async_spread().unwrap().final_informed(), 500);
//! ```
//!
//! lint: deterministic

use crate::adapters::{
    AsyncSpread, AsyncSpreadSummary, DatingRunSummary, RtDatingSpread, RtFairPull, RtFairPushPull,
    RtPull, RtPush, RtPushPull, RuntimeDating, SpreadRunSummary,
};
use crate::churn::Churn;
use crate::conditions::Conditions;
use crate::exec::{EventExecutor, Executor, SequentialExecutor, ShardedExecutor, WorkerPool};
use crate::proto::RoundProtocol;
use crate::registry::Spreader;
use crate::report::{RunConfig, RunReport};
use rendez_core::{NodeSelector, Platform, UniformSelector};
use rendez_sim::NodeId;

/// The scenario's time model: how simulated time advances.
///
/// It carries only what changes the report ([`Scenario::time_model`]).
/// `Rounds` is the paper's synchronous model; the round executor
/// ([`Scenario::sequential`] / [`Scenario::sharded`]) is not part of
/// it, because every executor produces a bit-identical report.
/// `Continuous` is the asynchronous setting (Patsonakis &
/// Roussopoulos): each node wakes on its own exponential clock and the
/// run is driven by the [`EventExecutor`]; the
/// report's [`time`](RunReport::time) axis becomes simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeModel {
    /// Synchronous rounds (the default).
    Rounds,
    /// Continuous time: every node wakes `rate` times per simulated
    /// second on average. Only workloads with a continuous-time port
    /// run here ([`Spreader::supports_continuous`]); channel
    /// conditioning and churn are rounds-model features and are
    /// rejected at validation.
    Continuous {
        /// Mean wakes per node per simulated second (finite, > 0).
        rate: f64,
    },
}

/// The largest node count a scenario accepts: [`NodeId`] is a `u32`
/// (the adapters draw peers as `u32`s) and the event executor's
/// intrusive lists use `u32::MAX` as their nil link.
pub const MAX_NODES: usize = (u32::MAX - 1) as usize;

/// What a [`Scenario`] run can reject at validation time.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Fewer than two nodes: nobody to date or inform.
    TooFewNodes {
        /// The offending node count.
        n: usize,
    },
    /// More than [`MAX_NODES`] nodes: node ids would not fit a `u32`.
    TooManyNodes {
        /// The offending node count.
        n: usize,
    },
    /// The platform's size differs from the scenario's `n`.
    PlatformMismatch {
        /// Platform size.
        platform_n: usize,
        /// Scenario size.
        n: usize,
    },
    /// The selector's universe differs from the scenario's `n`.
    SelectorMismatch {
        /// Selector universe size.
        selector_n: usize,
        /// Scenario size.
        n: usize,
    },
    /// The rumor source is not a node of the scenario.
    SourceOutOfRange {
        /// The configured source.
        source: NodeId,
        /// Scenario size.
        n: usize,
    },
    /// Payload-loss probability outside `[0, 1)`.
    InvalidLoss {
        /// The offending probability.
        loss: f64,
    },
    /// Channel drop probability outside `[0, 1)`.
    InvalidDropProb {
        /// The offending probability.
        drop_prob: f64,
    },
    /// Malformed latency distribution (zero latency, empty range, …).
    InvalidLatency {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Malformed churn model (probability outside `[0, 1)`, zero
    /// horizon).
    InvalidChurn {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// `Spreader::from_name` did not recognize a workload name.
    UnknownProtocol {
        /// The unrecognized key.
        name: String,
    },
    /// The configuration has no continuous-time reading: the workload
    /// lacks an async port ([`Spreader::supports_continuous`]), or the
    /// scenario layers rounds-model features (conditioning, churn) over
    /// [`TimeModel::Continuous`].
    ContinuousUnsupported {
        /// Human-readable reason.
        reason: String,
    },
    /// [`TimeModel::Continuous`] wake rate is not finite and positive.
    InvalidRate {
        /// The offending rate.
        rate: f64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::TooFewNodes { n } => {
                write!(f, "a scenario needs at least 2 nodes, got {n}")
            }
            ScenarioError::TooManyNodes { n } => {
                write!(f, "a scenario holds at most {MAX_NODES} nodes, got {n}")
            }
            ScenarioError::PlatformMismatch { platform_n, n } => {
                write!(
                    f,
                    "platform has {platform_n} nodes but the scenario has {n}"
                )
            }
            ScenarioError::SelectorMismatch { selector_n, n } => {
                write!(
                    f,
                    "selector universe is {selector_n} but the scenario has {n}"
                )
            }
            ScenarioError::SourceOutOfRange { source, n } => {
                write!(f, "source {source} is outside 0..{n}")
            }
            ScenarioError::InvalidLoss { loss } => {
                write!(f, "payload loss must be in [0,1), got {loss}")
            }
            ScenarioError::InvalidDropProb { drop_prob } => {
                write!(f, "drop probability must be in [0,1), got {drop_prob}")
            }
            ScenarioError::InvalidLatency { reason } => {
                write!(f, "invalid latency distribution: {reason}")
            }
            ScenarioError::InvalidChurn { reason } => write!(f, "invalid churn: {reason}"),
            ScenarioError::UnknownProtocol { name } => {
                write!(
                    f,
                    "unknown protocol {name:?}; see Spreader::ALL for the registry"
                )
            }
            ScenarioError::ContinuousUnsupported { reason } => {
                write!(f, "no continuous-time reading: {reason}")
            }
            ScenarioError::InvalidRate { rate } => {
                write!(f, "wake rate must be finite and positive, got {rate}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The output of a [`Scenario`] run: one enum over every workload's
/// summary type, so the builder can return a single unified
/// [`RunReport`] regardless of protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadOutput {
    /// Output of the [`Spreader::DatingService`] workload.
    Dating(DatingRunSummary),
    /// Output of any rumor-spreading workload under [`TimeModel::Rounds`].
    Spread(SpreadRunSummary),
    /// Output of a spreading workload under [`TimeModel::Continuous`].
    AsyncSpread(AsyncSpreadSummary),
}

impl WorkloadOutput {
    /// The dating-service summary, if this was a dating-service run.
    pub fn dating(&self) -> Option<&DatingRunSummary> {
        match self {
            WorkloadOutput::Dating(d) => Some(d),
            _ => None,
        }
    }

    /// The spreading summary, if this was a synchronous spreading run.
    pub fn spread(&self) -> Option<&SpreadRunSummary> {
        match self {
            WorkloadOutput::Spread(s) => Some(s),
            _ => None,
        }
    }

    /// The asynchronous spreading summary, if this was a continuous-time
    /// run.
    pub fn async_spread(&self) -> Option<&AsyncSpreadSummary> {
        match self {
            WorkloadOutput::AsyncSpread(s) => Some(s),
            _ => None,
        }
    }
}

/// A unified run report, whatever the workload.
pub type ScenarioReport = RunReport<WorkloadOutput>;

/// Builder for a complete runtime experiment: protocol × platform ×
/// selector × conditions × churn × executor. See the [module
/// docs](self) for an example and `EXPERIMENTS.md` for a one-liner per
/// paper figure.
///
/// Construction never fails; [`run`](Self::run) validates the whole
/// configuration first and returns a typed [`ScenarioError`] on
/// nonsense. `run` borrows the scenario immutably, so one scenario can
/// drive many seeds (Monte-Carlo trials) or executors.
#[derive(Debug, Clone)]
pub struct Scenario<S: NodeSelector + Clone = UniformSelector> {
    n: usize,
    platform: Platform,
    selector: S,
    protocol: Spreader,
    conditions: Conditions,
    churn: Churn,
    time: TimeModel,
    /// Round executor: `None` = sequential, `Some(k)` = sharded over
    /// `k` shards. Ignored under [`TimeModel::Continuous`].
    shards: Option<usize>,
    source: NodeId,
    cycles: u64,
    loss: f64,
    max_rounds: Option<u64>,
}

impl Scenario<UniformSelector> {
    /// A scenario over `n` nodes with the paper's defaults: unit
    /// platform, uniform selector, the dating-service workload, ideal
    /// channel, no churn, sequential execution, source node 0.
    ///
    /// Construction never fails; every misconfiguration — including
    /// `n < 2` — is reported as a [`ScenarioError`] by
    /// [`run`](Self::run) / [`validate`](Self::validate).
    pub fn new(n: usize) -> Self {
        Scenario {
            n,
            platform: Platform::unit(n.max(1)),
            selector: UniformSelector::new(n.max(1)),
            protocol: Spreader::DatingService,
            conditions: Conditions::ideal(),
            churn: Churn::none(),
            time: TimeModel::Rounds,
            shards: None,
            source: NodeId(0),
            cycles: 30,
            loss: 0.2,
            max_rounds: None,
        }
    }
}

impl<S: NodeSelector + Clone> Scenario<S> {
    /// Replace the bandwidth platform (must have `n` nodes).
    pub fn platform(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }

    /// Replace the request-target selector — any [`NodeSelector`], e.g.
    /// an alias-weighted or DHT-based distribution.
    pub fn selector<T: NodeSelector + Clone>(self, selector: T) -> Scenario<T> {
        Scenario {
            n: self.n,
            platform: self.platform,
            selector,
            protocol: self.protocol,
            conditions: self.conditions,
            churn: self.churn,
            time: self.time,
            shards: self.shards,
            source: self.source,
            cycles: self.cycles,
            loss: self.loss,
            max_rounds: self.max_rounds,
        }
    }

    /// Choose the workload (default: [`Spreader::DatingService`]).
    pub fn protocol(mut self, protocol: Spreader) -> Self {
        self.protocol = protocol;
        self
    }

    /// Choose the workload by registry name (see [`Spreader::from_name`]).
    pub fn protocol_named(self, name: &str) -> Result<Self, ScenarioError> {
        match Spreader::from_name(name) {
            Some(p) => Ok(self.protocol(p)),
            None => Err(ScenarioError::UnknownProtocol {
                name: name.to_string(),
            }),
        }
    }

    /// Set channel conditions (loss probability, latency distribution).
    pub fn conditions(mut self, conditions: Conditions) -> Self {
        self.conditions = conditions;
        self
    }

    /// Set node churn. For spreading workloads the source is protected
    /// automatically unless the churn already names a protected node.
    pub fn churn(mut self, churn: Churn) -> Self {
        self.churn = churn;
        self
    }

    /// Set the time model: synchronous rounds (the default) or
    /// continuous time on the event-driven executor — see the [module
    /// docs](self).
    pub fn time_model(mut self, time: TimeModel) -> Self {
        self.time = time;
        self
    }

    /// Execute rounds shard-parallel over `k` shards (`0` = one shard
    /// per core). The report is bit-identical to sequential
    /// execution for every `k` — that is the runtime's contract.
    /// A continuous-time run ignores this.
    pub fn sharded(mut self, k: usize) -> Self {
        self.shards = Some(k);
        self
    }

    /// Execute rounds on the calling thread (the default).
    pub fn sequential(mut self) -> Self {
        self.shards = None;
        self
    }

    /// Set the rumor source (default: node 0). Ignored by the
    /// dating-service workload.
    pub fn source(mut self, source: NodeId) -> Self {
        self.source = source;
        self
    }

    /// Dating-service cycles to run (default 30). Ignored by the
    /// spreading workloads, which halt on full information.
    pub fn cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Payload-loss probability for [`Spreader::LossyDating`] (default
    /// 0.2). Ignored by every other workload.
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Cap on engine rounds (default: the dating service's natural
    /// length, or a generous `3·(200 + 80·log₂ n)` for spreaders).
    /// Under [`TimeModel::Continuous`] the same number caps the *mean
    /// wakes per node* — the run stops after `max_rounds × n` events.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// The scenario's node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configured workload.
    pub fn spreader(&self) -> Spreader {
        self.protocol
    }

    /// Human-readable executor name, for experiment tables.
    pub fn executor_name(&self) -> String {
        match (self.time, self.shards) {
            (TimeModel::Continuous { rate }, _) => EventExecutor::new(rate).name(),
            (TimeModel::Rounds, None) => SequentialExecutor.name(),
            (TimeModel::Rounds, Some(k)) => ShardedExecutor::new(k).name(),
        }
    }

    /// Check the whole configuration without running anything.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.n < 2 {
            return Err(ScenarioError::TooFewNodes { n: self.n });
        }
        if self.n > MAX_NODES {
            return Err(ScenarioError::TooManyNodes { n: self.n });
        }
        if self.platform.n() != self.n {
            return Err(ScenarioError::PlatformMismatch {
                platform_n: self.platform.n(),
                n: self.n,
            });
        }
        if self.selector.n() != self.n {
            return Err(ScenarioError::SelectorMismatch {
                selector_n: self.selector.n(),
                n: self.n,
            });
        }
        if self.protocol.is_spreading() && self.source.index() >= self.n {
            return Err(ScenarioError::SourceOutOfRange {
                source: self.source,
                n: self.n,
            });
        }
        if self.protocol == Spreader::LossyDating {
            crate::adapters::check_loss(self.loss)
                .map_err(|_| ScenarioError::InvalidLoss { loss: self.loss })?;
        }
        if !(0.0..1.0).contains(&self.conditions.drop_prob) {
            return Err(ScenarioError::InvalidDropProb {
                drop_prob: self.conditions.drop_prob,
            });
        }
        // Latency and churn bounds come from the same check the
        // executors assert, so the typed layer cannot drift from the
        // panic layer when variants or bounds change.
        self.conditions
            .latency
            .check()
            .map_err(|reason| ScenarioError::InvalidLatency { reason })?;
        self.churn
            .check()
            .map_err(|reason| ScenarioError::InvalidChurn { reason })?;
        if let TimeModel::Continuous { rate } = self.time {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(ScenarioError::InvalidRate { rate });
            }
            if !self.protocol.supports_continuous() {
                return Err(ScenarioError::ContinuousUnsupported {
                    reason: format!("workload {} has no asynchronous port", self.protocol),
                });
            }
            if !self.conditions.is_ideal() {
                return Err(ScenarioError::ContinuousUnsupported {
                    reason: "channel conditioning is a rounds-model feature".to_string(),
                });
            }
            if !self.churn.is_none() {
                return Err(ScenarioError::ContinuousUnsupported {
                    reason: "churn is a rounds-model feature".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Validate, then execute the scenario with master seed `seed`.
    ///
    /// The result is a pure function of `(scenario, seed)` — the shard
    /// count changes wall-clock time, never the report.
    pub fn run(&self, seed: u64) -> Result<ScenarioReport, ScenarioError> {
        self.run_with(seed, None)
    }

    /// Like [`run`](Self::run), but a sharded scenario executes its
    /// shard workers on parked threads borrowed from `pool`
    /// ([`ShardedExecutor::run_in`]) — back-to-back runs then reuse the
    /// same threads instead of spawning fresh ones per run. Sequential
    /// and continuous-time scenarios ignore the pool. The report is
    /// bit-identical to [`run`](Self::run)'s for the same seed.
    pub fn run_pooled(
        &self,
        pool: &WorkerPool,
        seed: u64,
    ) -> Result<ScenarioReport, ScenarioError> {
        self.run_with(seed, Some(pool))
    }

    fn run_with(
        &self,
        seed: u64,
        pool: Option<&WorkerPool>,
    ) -> Result<ScenarioReport, ScenarioError> {
        self.validate()?;
        let churn = if self.protocol.is_spreading()
            && !self.churn.is_none()
            && self.churn.protected.is_none()
        {
            // A crashed source would strand the rumor before the first
            // date; protect it unless the caller chose otherwise.
            self.churn.protect(self.source)
        } else {
            self.churn
        };
        let cfg = RunConfig::seeded(seed)
            .max_rounds(self.resolve_max_rounds())
            .conditions(self.conditions)
            .churn(churn);

        if let TimeModel::Continuous { rate } = self.time {
            // Event processing is inherently serial; the round executor
            // and the worker pool are round-model choices, ignored here.
            let mut p = AsyncSpread::new(self.n, self.source, self.protocol);
            let report = EventExecutor::new(rate)
                .run(&mut p, self.n, &cfg)
                .map(WorkloadOutput::AsyncSpread);
            return Ok(report);
        }

        let report = match self.protocol {
            Spreader::DatingService => {
                let mut p =
                    RuntimeDating::new(self.platform.clone(), self.selector.clone(), self.cycles);
                self.execute(&mut p, &cfg, pool).map(WorkloadOutput::Dating)
            }
            Spreader::Push => self.spread(RtPush::new(self.n, self.source), &cfg, pool),
            Spreader::Pull => self.spread(RtPull::new(self.n, self.source), &cfg, pool),
            Spreader::PushPull => self.spread(RtPushPull::new(self.n, self.source), &cfg, pool),
            Spreader::FairPull => self.spread(RtFairPull::new(self.n, self.source), &cfg, pool),
            Spreader::FairPushPull => {
                self.spread(RtFairPushPull::new(self.n, self.source), &cfg, pool)
            }
            Spreader::Dating => {
                let p =
                    RtDatingSpread::new(self.platform.clone(), self.selector.clone(), self.source);
                self.spread(p, &cfg, pool)
            }
            Spreader::LossyDating => {
                let p = RtDatingSpread::with_loss(
                    self.platform.clone(),
                    self.selector.clone(),
                    self.source,
                    self.loss,
                );
                self.spread(p, &cfg, pool)
            }
        };
        Ok(report)
    }

    fn resolve_max_rounds(&self) -> u64 {
        if let Some(m) = self.max_rounds {
            return m;
        }
        match self.protocol {
            Spreader::DatingService => 3 * self.cycles + 1,
            // 3 engine rounds per cycle times the legacy fig2 cap.
            _ => 3 * (200 + 80 * (self.n.max(2) as f64).log2().ceil() as u64),
        }
    }

    /// [`execute`](Self::execute) a spreader and wrap its summary.
    fn spread<P: RoundProtocol<Output = SpreadRunSummary>>(
        &self,
        mut proto: P,
        cfg: &RunConfig,
        pool: Option<&WorkerPool>,
    ) -> ScenarioReport {
        self.execute(&mut proto, cfg, pool)
            .map(WorkloadOutput::Spread)
    }

    fn execute<P: RoundProtocol>(
        &self,
        proto: &mut P,
        cfg: &RunConfig,
        pool: Option<&WorkerPool>,
    ) -> RunReport<P::Output> {
        match (self.shards, pool) {
            (None, _) => SequentialExecutor.run(proto, self.n, cfg),
            (Some(k), None) => ShardedExecutor::new(k).run(proto, self.n, cfg),
            (Some(k), Some(pool)) => ShardedExecutor::new(k).run_in(pool, proto, self.n, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnModel;
    use crate::conditions::LatencyDist;

    #[test]
    fn default_scenario_runs_the_dating_service() {
        let report = Scenario::new(100).cycles(5).run(1).expect("valid");
        assert!(report.completed);
        let out = report.output.expect("halted");
        let dating = out.dating().expect("dating workload");
        assert_eq!(dating.dates_per_cycle.len(), 5);
        assert!(dating.total_dates() > 0);
        assert!(out.spread().is_none());
    }

    #[test]
    fn every_workload_runs_and_reports() {
        for spreader in Spreader::ALL {
            let report = Scenario::new(64)
                .protocol(spreader)
                .cycles(4)
                .run(7)
                .unwrap_or_else(|e| panic!("{spreader}: {e}"));
            assert!(report.completed, "{spreader} must complete");
            let out = report.output.expect("halted");
            if spreader.is_spreading() {
                assert_eq!(out.spread().expect("spread").final_informed(), 64);
            } else {
                assert!(out.dating().is_some());
            }
        }
    }

    #[test]
    fn pooled_scenario_runs_match_unpooled() {
        use crate::exec::WorkerPool;
        let pool = WorkerPool::new(2);
        let scenario = Scenario::new(300).protocol(Spreader::PushPull).sharded(2);
        let plain = scenario.run(11).expect("valid");
        for _ in 0..2 {
            let pooled = scenario.run_pooled(&pool, 11).expect("valid");
            assert_eq!(plain.digests, pooled.digests);
            assert_eq!(plain.stats, pooled.stats);
            assert_eq!(plain.output, pooled.output);
        }
        // Sequential scenarios ignore the pool but still work through it.
        let seq = Scenario::new(100).cycles(3);
        assert_eq!(
            seq.run(5).expect("valid").digests,
            seq.run_pooled(&pool, 5).expect("valid").digests
        );
    }

    #[test]
    fn too_few_nodes_is_a_typed_error() {
        assert_eq!(
            Scenario::new(1).run(0).unwrap_err(),
            ScenarioError::TooFewNodes { n: 1 }
        );
    }

    #[test]
    fn too_many_nodes_is_a_typed_error() {
        // Built field-wise: `Scenario::new` would allocate the platform.
        let sized = |n| Scenario {
            n,
            ..Scenario::new(2).protocol(Spreader::Push)
        };
        let n = MAX_NODES + 1;
        assert_eq!(
            sized(n).run(0).unwrap_err(),
            ScenarioError::TooManyNodes { n }
        );
        // The bound itself passes this check (and fails the next one).
        assert!(matches!(
            sized(MAX_NODES).validate(),
            Err(ScenarioError::PlatformMismatch { .. })
        ));
        let shown = ScenarioError::TooManyNodes { n: usize::MAX }.to_string();
        assert!(shown.contains(&MAX_NODES.to_string()), "{shown}");
    }

    #[test]
    fn size_mismatches_are_typed_errors() {
        let err = Scenario::new(10)
            .platform(Platform::unit(12))
            .run(0)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::PlatformMismatch {
                platform_n: 12,
                n: 10
            }
        );
        let err = Scenario::new(10)
            .selector(UniformSelector::new(9))
            .run(0)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SelectorMismatch {
                selector_n: 9,
                n: 10
            }
        );
    }

    #[test]
    fn bad_source_and_loss_are_typed_errors() {
        let err = Scenario::new(10)
            .protocol(Spreader::Push)
            .source(NodeId(10))
            .run(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::SourceOutOfRange { .. }));
        let err = Scenario::new(10)
            .protocol(Spreader::LossyDating)
            .loss(1.0)
            .run(0)
            .unwrap_err();
        assert_eq!(err, ScenarioError::InvalidLoss { loss: 1.0 });
        // The same loss on a non-lossy workload is ignored.
        assert!(Scenario::new(10)
            .protocol(Spreader::Push)
            .loss(1.0)
            .run(0)
            .is_ok());
    }

    #[test]
    fn bad_conditions_are_typed_errors() {
        let err = Scenario::new(10)
            .conditions(Conditions {
                drop_prob: 1.5,
                latency: LatencyDist::Fixed(1),
            })
            .run(0)
            .unwrap_err();
        assert_eq!(err, ScenarioError::InvalidDropProb { drop_prob: 1.5 });
        let err = Scenario::new(10)
            .conditions(Conditions {
                drop_prob: 0.0,
                latency: LatencyDist::Uniform { min: 5, max: 2 },
            })
            .run(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidLatency { .. }));
        let err = Scenario::new(10)
            .churn(Churn {
                model: ChurnModel::CrashStop {
                    fail_frac: 0.5,
                    horizon: 0,
                },
                protected: None,
            })
            .run(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidChurn { .. }));
    }

    #[test]
    fn unknown_protocol_name_is_a_typed_error() {
        let err = Scenario::new(10).protocol_named("telepathy").unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownProtocol {
                name: "telepathy".to_string()
            }
        );
        let ok = Scenario::new(10)
            .protocol_named("fair-pull")
            .expect("known");
        assert_eq!(ok.spreader(), Spreader::FairPull);
    }

    #[test]
    fn churn_protects_the_source_by_default() {
        // 90% crash fraction with an unprotected source would usually
        // strand the rumor; the builder protects the source, so the
        // informed count keeps growing past 1.
        let report = Scenario::new(200)
            .protocol(Spreader::Push)
            .churn(Churn::crash_stop(0.3, 10))
            .max_rounds(400)
            .run(3)
            .expect("valid");
        let last = *report.digests.last().expect("ran rounds");
        assert_ne!(last, report.digests[0], "informed set must grow");
    }

    #[test]
    fn executor_names_surface() {
        assert_eq!(Scenario::new(4).executor_name(), "sequential");
        assert_eq!(Scenario::new(4).sharded(3).executor_name(), "sharded(3)");
        assert_eq!(
            Scenario::new(4).sharded(3).sequential().executor_name(),
            "sequential"
        );
    }

    #[test]
    fn continuous_time_model_runs_async_push_pull() {
        use crate::report::TimeAxis;
        let report = Scenario::new(300)
            .protocol(Spreader::PushPull)
            .time_model(TimeModel::Continuous { rate: 1.0 })
            .run(21)
            .expect("valid");
        assert!(report.completed);
        match report.time {
            TimeAxis::SimSeconds { seconds, events } => {
                assert!(seconds > 0.0);
                assert_eq!(events, report.rounds);
            }
            other => panic!("continuous run reported {other:?}"),
        }
        let out = report.output.expect("halted");
        let s = out.async_spread().expect("async spread output");
        assert_eq!(s.final_informed(), 300);
        assert!(out.spread().is_none() && out.dating().is_none());
    }

    #[test]
    fn continuous_runs_are_seed_deterministic_and_seed_sensitive() {
        let mk = || {
            Scenario::new(200)
                .protocol(Spreader::FairPushPull)
                .time_model(TimeModel::Continuous { rate: 2.0 })
        };
        let a = mk().run(5).expect("valid");
        let b = mk().run(5).expect("valid");
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.output, b.output);
        let c = mk().run(6).expect("valid");
        assert_ne!(a.digests, c.digests, "different seed, different trace");
    }

    #[test]
    fn continuous_misconfigurations_are_typed_errors() {
        let base = |proto: Spreader| {
            Scenario::new(50)
                .protocol(proto)
                .time_model(TimeModel::Continuous { rate: 1.0 })
        };
        // Workloads without an async port.
        for proto in [
            Spreader::DatingService,
            Spreader::Dating,
            Spreader::LossyDating,
        ] {
            let err = base(proto).run(0).unwrap_err();
            assert!(
                matches!(err, ScenarioError::ContinuousUnsupported { .. }),
                "{proto}: {err}"
            );
        }
        // Rounds-model features layered over continuous time.
        let err = base(Spreader::PushPull)
            .conditions(Conditions::with_loss(0.1))
            .run(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::ContinuousUnsupported { .. }));
        let err = base(Spreader::PushPull)
            .churn(Churn::intermittent(0.1))
            .run(0)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::ContinuousUnsupported { .. }));
        // Bad rates.
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = base(Spreader::PushPull)
                .time_model(TimeModel::Continuous { rate })
                .run(0)
                .unwrap_err();
            assert!(matches!(err, ScenarioError::InvalidRate { .. }), "{rate}");
        }
        // Error messages render.
        let msg = base(Spreader::Dating).run(0).unwrap_err().to_string();
        assert!(msg.contains("no continuous-time reading"), "{msg}");
    }

    #[test]
    fn continuous_executor_name_surfaces() {
        let s = Scenario::new(50)
            .protocol(Spreader::Push)
            .time_model(TimeModel::Continuous { rate: 1.0 });
        assert_eq!(s.executor_name(), "event");
    }
}
