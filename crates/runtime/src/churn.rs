//! Node churn: deterministic per-node liveness.
//!
//! The paper's introduction motivates designs that tolerate "dynamics of
//! the networks, also node failures". The runtime models churn the same
//! way it models loss and latency — as a **pure function of the run
//! seed**. A node's liveness in a round is a bit hashed from
//! `(seed, node, round)`, so executors of every flavour
//! (sequential, sharded at any shard count) see exactly the same failure
//! pattern and the determinism contract of the [crate docs](crate) is
//! preserved without any coordination.
//!
//! Executors consult the liveness bit in two places:
//!
//! * **dispatch** — a down node's round hooks
//!   ([`on_round_start`](crate::RoundProtocol::on_round_start) /
//!   [`on_round_end`](crate::RoundProtocol::on_round_end)) are skipped,
//!   so it sends nothing and its RNG stream does not advance;
//! * **delivery** — messages due at a down destination are discarded
//!   (counted in [`NetStats::churn_lost`](crate::NetStats::churn_lost)).
//!
//! Protocol state is preserved across downtime (crash-recovery semantics
//! are the protocol's concern).
//!
//! lint: deterministic

use crate::conditions::to_unit;
use rendez_sim::{derive_seed, NodeId, SplitMix64};

/// Salt separating the churn stream from node RNG and message-fate streams.
const CHURN_SALT: u64 = 0xDEAD_BEA7_u64;

/// The failure process applied to every node of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnModel {
    /// No churn: every node is live in every round (the paper's model).
    None,
    /// Transient failures: each node is independently down in each round
    /// with probability `down_prob` (re-drawn every round) — the
    /// "dynamics of the network" regime where nodes blink in and out.
    Intermittent {
        /// Per-round probability that a node is down (`0 ≤ p < 1`).
        down_prob: f64,
    },
    /// Crash-stop failures: a hashed `fail_frac` fraction of the nodes
    /// each crash permanently at a hashed round in `0..horizon` — a
    /// uniform random victim set with uniform crash rounds.
    CrashStop {
        /// Fraction of nodes that eventually crash (`0 ≤ f < 1`).
        fail_frac: f64,
        /// Crash rounds are uniform in `0..horizon` (`horizon ≥ 1`).
        horizon: u64,
    },
}

/// Churn configuration carried by [`RunConfig`](crate::RunConfig):
/// a failure model plus an optional protected node (typically the rumor
/// source) that is never taken down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Churn {
    /// The failure process.
    pub model: ChurnModel,
    /// A node exempt from churn (e.g. the rumor source), if any.
    pub protected: Option<NodeId>,
}

impl Default for Churn {
    fn default() -> Self {
        Self::none()
    }
}

impl Churn {
    /// No churn (the default).
    pub fn none() -> Self {
        Self {
            model: ChurnModel::None,
            protected: None,
        }
    }

    /// Intermittent churn: each node independently down with probability
    /// `down_prob` in each round.
    ///
    /// # Panics
    /// Panics unless `0 ≤ down_prob < 1`.
    pub fn intermittent(down_prob: f64) -> Self {
        let c = Self {
            model: ChurnModel::Intermittent { down_prob },
            protected: None,
        };
        c.validate();
        c
    }

    /// Crash-stop churn: a hashed `fail_frac` of nodes crash permanently
    /// at hashed rounds in `0..horizon`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ fail_frac < 1` and `horizon ≥ 1`.
    pub fn crash_stop(fail_frac: f64, horizon: u64) -> Self {
        let c = Self {
            model: ChurnModel::CrashStop { fail_frac, horizon },
            protected: None,
        };
        c.validate();
        c
    }

    /// Exempt `node` from churn (it is live in every round).
    pub fn protect(mut self, node: NodeId) -> Self {
        self.protected = Some(node);
        self
    }

    /// Whether this is the no-churn configuration.
    pub fn is_none(&self) -> bool {
        matches!(self.model, ChurnModel::None)
    }

    /// Check parameter invariants, returning the violated rule if any.
    /// The single source of truth shared by the panicking executor entry
    /// points ([`validate`](Self::validate)) and the typed
    /// [`ScenarioError`](crate::ScenarioError) path.
    pub fn check(&self) -> Result<(), &'static str> {
        match self.model {
            ChurnModel::None => Ok(()),
            ChurnModel::Intermittent { down_prob } if !(0.0..1.0).contains(&down_prob) => {
                Err("down_prob must be in [0,1)")
            }
            ChurnModel::Intermittent { .. } => Ok(()),
            ChurnModel::CrashStop { fail_frac, .. } if !(0.0..1.0).contains(&fail_frac) => {
                Err("fail_frac must be in [0,1)")
            }
            ChurnModel::CrashStop { horizon, .. } if horizon < 1 => {
                Err("crash horizon must be at least one round")
            }
            ChurnModel::CrashStop { .. } => Ok(()),
        }
    }

    /// Assert parameter invariants.
    ///
    /// # Panics
    /// Panics on a probability outside `[0, 1)` or a zero horizon.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}, got {:?}", self.model);
        }
    }

    /// Is `node` live during `round` of the run keyed by `seed`?
    ///
    /// Pure in `(seed, node, round)`; no shared RNG stream is consumed,
    /// so liveness commutes with execution strategy exactly like message
    /// fate under [`Conditions`](crate::Conditions).
    #[inline]
    pub fn alive(&self, seed: u64, node: NodeId, round: u64) -> bool {
        match self.model {
            ChurnModel::None => true,
            _ if self.protected == Some(node) => true,
            ChurnModel::Intermittent { down_prob } => {
                let per_node = derive_seed(seed ^ CHURN_SALT, node.0 as u64);
                to_unit(derive_seed(per_node, round)) >= down_prob
            }
            ChurnModel::CrashStop { fail_frac, horizon } => {
                let h = derive_seed(seed ^ CHURN_SALT, node.0 as u64);
                if to_unit(h) >= fail_frac {
                    return true;
                }
                let crash_round = SplitMix64::mix(h) % horizon;
                round < crash_round
            }
        }
    }

    /// Fill `mask[i] = alive(seed, base + i, round)` for a contiguous id
    /// range — the uncached reference path; executors go through
    /// [`cache`](Self::cache) instead.
    #[cfg(test)]
    pub(crate) fn fill_live_mask(&self, seed: u64, round: u64, base: usize, mask: &mut [bool]) {
        for (off, live) in mask.iter_mut().enumerate() {
            *live = self.alive(seed, NodeId::from_index(base + off), round);
        }
    }

    /// Hoist the per-node half of the liveness hash for the id range
    /// `base..base + len`: `derive_seed(seed ^ CHURN_SALT, node)` is
    /// computed once per node up front instead of once per round — and
    /// for crash-stop churn the whole crash schedule is resolved, making
    /// the per-round check a plain comparison.
    pub(crate) fn cache(&self, seed: u64, base: usize, len: usize) -> ChurnCache {
        match self.model {
            ChurnModel::None => ChurnCache::None,
            ChurnModel::Intermittent { down_prob } => ChurnCache::Intermittent {
                down_prob,
                per_node: (0..len)
                    .map(|off| derive_seed(seed ^ CHURN_SALT, (base + off) as u64))
                    .collect(),
                protected: self
                    .protected
                    .map(|p| p.index())
                    .filter(|&p| p >= base && p < base + len)
                    .map(|p| p - base),
            },
            ChurnModel::CrashStop { fail_frac, horizon } => ChurnCache::CrashStop {
                crash_round: (0..len)
                    .map(|off| {
                        let node = NodeId::from_index(base + off);
                        if self.protected == Some(node) {
                            return u64::MAX;
                        }
                        let h = derive_seed(seed ^ CHURN_SALT, node.0 as u64);
                        if to_unit(h) >= fail_frac {
                            u64::MAX
                        } else {
                            SplitMix64::mix(h) % horizon
                        }
                    })
                    .collect(),
            },
        }
    }
}

/// Precomputed liveness streams for one contiguous id range — the
/// executors' per-round fast path (see [`Churn::cache`]). Bit-identical
/// to per-round [`Churn::alive`] queries, pinned by
/// `cache_matches_alive_bit_for_bit`.
#[derive(Debug, Clone)]
pub(crate) enum ChurnCache {
    /// No churn: every node live, the mask fill is a `fill(true)`.
    None,
    /// Per-node stream seeds hoisted; each round costs one `derive_seed`
    /// per node instead of two.
    Intermittent {
        down_prob: f64,
        per_node: Vec<u64>,
        /// Offset of the protected node within the range, if in range.
        protected: Option<usize>,
    },
    /// Crash rounds fully resolved (`u64::MAX` = never crashes); each
    /// round costs one comparison per node and no hashing at all.
    CrashStop { crash_round: Vec<u64> },
}

impl ChurnCache {
    /// Whether this is the no-churn cache.
    pub(crate) fn is_none(&self) -> bool {
        matches!(self, ChurnCache::None)
    }

    /// Fill `mask[i] = alive(base + i, round)` for the cached range.
    pub(crate) fn fill_live_mask(&self, round: u64, mask: &mut [bool]) {
        match self {
            ChurnCache::None => mask.fill(true),
            ChurnCache::Intermittent {
                down_prob,
                per_node,
                protected,
            } => {
                for (off, live) in mask.iter_mut().enumerate() {
                    *live = to_unit(derive_seed(per_node[off], round)) >= *down_prob;
                }
                if let Some(p) = protected {
                    mask[*p] = true;
                }
            }
            ChurnCache::CrashStop { crash_round } => {
                // Survivors hold u64::MAX, which no real round reaches.
                for (off, live) in mask.iter_mut().enumerate() {
                    *live = round < crash_round[off];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_churn_is_always_alive() {
        let c = Churn::none();
        assert!(c.is_none());
        for r in 0..50 {
            assert!(c.alive(7, NodeId(3), r));
        }
    }

    #[test]
    fn intermittent_rate_is_respected() {
        let c = Churn::intermittent(0.25);
        let mut down = 0u64;
        let trials = 100_000u64;
        for i in 0..trials {
            if !c.alive(42, NodeId((i % 1000) as u32), i / 1000) {
                down += 1;
            }
        }
        let rate = down as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "measured downtime {rate}");
    }

    #[test]
    fn intermittent_is_deterministic_and_seed_sensitive() {
        let c = Churn::intermittent(0.5);
        let a: Vec<bool> = (0..200).map(|r| c.alive(1, NodeId(9), r)).collect();
        let b: Vec<bool> = (0..200).map(|r| c.alive(1, NodeId(9), r)).collect();
        assert_eq!(a, b);
        let other: Vec<bool> = (0..200).map(|r| c.alive(2, NodeId(9), r)).collect();
        assert_ne!(a, other, "different seeds must fail different rounds");
    }

    #[test]
    fn crash_stop_is_permanent() {
        let c = Churn::crash_stop(0.5, 40);
        for node in 0..200u32 {
            let mut crashed = false;
            for round in 0..80 {
                let live = c.alive(3, NodeId(node), round);
                if crashed {
                    assert!(!live, "node {node} resurrected at round {round}");
                }
                crashed |= !live;
            }
        }
    }

    #[test]
    fn crash_stop_fraction_is_respected() {
        let c = Churn::crash_stop(0.3, 10);
        let n = 50_000u32;
        // After the horizon every doomed node has crashed.
        let down = (0..n).filter(|&v| !c.alive(11, NodeId(v), 100)).count();
        let frac = down as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "measured crash fraction {frac}");
    }

    #[test]
    fn protection_overrides_the_model() {
        let c = Churn::intermittent(0.9).protect(NodeId(4));
        for r in 0..100 {
            assert!(c.alive(5, NodeId(4), r));
        }
        let unprotected = (0..100).filter(|&r| !c.alive(5, NodeId(6), r)).count();
        assert!(unprotected > 50, "90% churn must take node 6 down often");
    }

    #[test]
    fn mask_matches_pointwise_queries() {
        let c = Churn::crash_stop(0.4, 20);
        let mut mask = vec![false; 64];
        c.fill_live_mask(9, 13, 100, &mut mask);
        for (off, &m) in mask.iter().enumerate() {
            assert_eq!(m, c.alive(9, NodeId::from_index(100 + off), 13));
        }
    }

    #[test]
    fn cache_matches_alive_bit_for_bit() {
        // The hoisted per-node streams must reproduce every liveness bit
        // of the uncached hash chain — including protected nodes inside
        // and outside the cached range.
        let configs = [
            Churn::none(),
            Churn::intermittent(0.3),
            Churn::intermittent(0.3).protect(NodeId(105)),
            Churn::intermittent(0.3).protect(NodeId(5)), // out of range
            Churn::crash_stop(0.4, 25),
            Churn::crash_stop(0.4, 25).protect(NodeId(117)),
        ];
        for churn in configs {
            let (base, len) = (100usize, 40usize);
            let cache = churn.cache(0xC0FFEE, base, len);
            assert_eq!(cache.is_none(), churn.is_none());
            let mut mask = vec![false; len];
            let mut reference = vec![false; len];
            for round in 0..60 {
                cache.fill_live_mask(round, &mut mask);
                churn.fill_live_mask(0xC0FFEE, round, base, &mut reference);
                assert_eq!(mask, reference, "churn={churn:?} round={round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "down_prob must be in")]
    fn certain_downtime_rejected() {
        let _ = Churn::intermittent(1.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be")]
    fn zero_horizon_rejected() {
        let _ = Churn::crash_stop(0.1, 0);
    }
}
