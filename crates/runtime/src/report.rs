//! Run configuration and the executor-independent run report.
//!
//! lint: deterministic

use crate::churn::Churn;
use crate::conditions::Conditions;

/// Configuration shared by every executor.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Master seed; node RNG streams, message fates and churn liveness
    /// all derive from it.
    pub seed: u64,
    /// Round cap: the run stops (with `completed = false`) if the
    /// protocol has not halted after this many rounds.
    pub max_rounds: u64,
    /// Channel conditions (ideal unless overridden with
    /// [`conditions`](Self::conditions)).
    pub conditions: Conditions,
    /// Node churn (none unless overridden). Liveness is a pure function
    /// of `(seed, node, round)`, so churned runs stay bit-identical
    /// across executors.
    pub churn: Churn,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            max_rounds: 1_000_000,
            conditions: Conditions::ideal(),
            churn: Churn::none(),
        }
    }
}

impl RunConfig {
    /// Config with the given seed and defaults elsewhere.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Replace the round cap.
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Replace the channel conditions.
    pub fn conditions(mut self, conditions: Conditions) -> Self {
        self.conditions = conditions;
        self
    }

    /// Replace the churn configuration.
    pub fn churn(mut self, churn: Churn) -> Self {
        self.churn = churn;
        self
    }
}

/// Message-level accounting, aggregated over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages queued by protocol code.
    pub sent: u64,
    /// Declared bytes of all sent messages.
    pub bytes_sent: u64,
    /// Messages delivered to a node.
    pub delivered: u64,
    /// Messages lost to channel conditioning.
    pub dropped: u64,
    /// Messages discarded because their destination was down (churned)
    /// in the delivery round.
    pub churn_lost: u64,
}

impl NetStats {
    /// Fold another tally into this one — the coordinator's per-round
    /// merge of shard-local accounting. Every field is a plain sum, so
    /// absorbing shard tallies in shard order equals counting the same
    /// events on one thread, which is what keeps sharded statistics
    /// bit-identical to [`SequentialExecutor`](crate::SequentialExecutor)'s.
    pub fn absorb(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.bytes_sent += other.bytes_sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.churn_lost += other.churn_lost;
    }
}

/// The unified time axis of a run: how far the simulation advanced,
/// in whichever units the executor's time model uses.
///
/// Synchronous-round executors ([`SequentialExecutor`](crate::SequentialExecutor),
/// [`ShardedExecutor`](crate::ShardedExecutor)) report `Rounds`; the
/// continuous-time [`EventExecutor`](crate::EventExecutor) reports
/// `SimSeconds` (simulated seconds plus the number of discrete wake
/// events it processed). `RunReport::rounds` stays populated in both
/// cases for legacy consumers — see its docs for the async reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeAxis {
    /// Synchronous rounds executed.
    Rounds(u64),
    /// Continuous (event-driven) simulated time.
    SimSeconds {
        /// Simulated seconds elapsed when the run ended.
        seconds: f64,
        /// Discrete wake events processed.
        events: u64,
    },
}

impl TimeAxis {
    /// The synchronous round count, if this run was round-based.
    pub fn rounds(&self) -> Option<u64> {
        match *self {
            TimeAxis::Rounds(r) => Some(r),
            TimeAxis::SimSeconds { .. } => None,
        }
    }

    /// The simulated seconds, if this run was continuous-time.
    pub fn sim_seconds(&self) -> Option<f64> {
        match *self {
            TimeAxis::Rounds(_) => None,
            TimeAxis::SimSeconds { seconds, .. } => Some(seconds),
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Rounds executed. For continuous-time runs (where there are no
    /// rounds) this holds the number of wake events processed, so
    /// legacy `rounds`-per-trial consumers keep getting a monotone
    /// work measure; [`RunReport::time`] carries the honest axis.
    pub rounds: u64,
    /// How far the run advanced on its executor's time axis — rounds
    /// for synchronous executors, simulated seconds + event count for
    /// the continuous-time one.
    pub time: TimeAxis,
    /// Whether the protocol halted by itself (false = hit `max_rounds`).
    pub completed: bool,
    /// The protocol's output, when it halted.
    pub output: Option<R>,
    /// Per-round state fingerprints from
    /// [`RoundProtocol::digest`](crate::RoundProtocol::digest); entry `t`
    /// describes the state after round `t`. Identical across executors
    /// for the same `(protocol, config)`.
    pub digests: Vec<u64>,
    /// Message accounting.
    pub stats: NetStats,
    /// Total resident bytes of node state at the end of the run, from
    /// [`RoundProtocol::node_mem_bytes`](crate::RoundProtocol::node_mem_bytes)
    /// — divide by `n` for the bytes/node scaling metric. Diagnostic
    /// only: not part of the cross-executor bit-identity contract
    /// (though it is in practice identical across executors).
    pub node_bytes: u64,
}

impl<R> RunReport<R> {
    /// The output, panicking if the run did not complete.
    pub fn expect_output(self) -> R {
        self.output
            .expect("protocol did not halt within max_rounds")
    }

    /// Map the output type, keeping rounds, digests and statistics —
    /// how [`Scenario`](crate::Scenario) unifies heterogeneous workload
    /// outputs into one report type.
    pub fn map<T>(self, f: impl FnOnce(R) -> T) -> RunReport<T> {
        RunReport {
            rounds: self.rounds,
            time: self.time,
            completed: self.completed,
            output: self.output.map(f),
            digests: self.digests,
            stats: self.stats,
            node_bytes: self.node_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = RunConfig::seeded(9).max_rounds(50);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.max_rounds, 50);
        assert!(cfg.conditions.is_ideal());
    }

    #[test]
    fn absorb_sums_every_field() {
        let mut a = NetStats {
            sent: 1,
            bytes_sent: 2,
            delivered: 3,
            dropped: 4,
            churn_lost: 5,
        };
        let b = NetStats {
            sent: 10,
            bytes_sent: 20,
            delivered: 30,
            dropped: 40,
            churn_lost: 50,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            NetStats {
                sent: 11,
                bytes_sent: 22,
                delivered: 33,
                dropped: 44,
                churn_lost: 55,
            }
        );
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn expect_output_panics_when_incomplete() {
        let r: RunReport<u32> = RunReport {
            rounds: 5,
            time: TimeAxis::Rounds(5),
            completed: false,
            output: None,
            digests: vec![],
            stats: NetStats::default(),
            node_bytes: 0,
        };
        let _ = r.expect_output();
    }

    #[test]
    fn time_axis_accessors() {
        let rounds = TimeAxis::Rounds(12);
        assert_eq!(rounds.rounds(), Some(12));
        assert_eq!(rounds.sim_seconds(), None);
        let cont = TimeAxis::SimSeconds {
            seconds: 2.5,
            events: 40,
        };
        assert_eq!(cont.rounds(), None);
        assert_eq!(cont.sim_seconds(), Some(2.5));
    }
}
