//! Continuous-time ports of the Figure-2 gossip spreaders.
//!
//! [`AsyncSpread`] hosts the five uniform-gossip baselines — PUSH, PULL,
//! PUSH&PULL (the flagship asynchronous workload, after Patsonakis &
//! Roussopoulos' asynchronous push&pull evaluation), fair PULL and fair
//! PUSH&PULL — as one [`AsyncProtocol`] for the
//! [`EventExecutor`](crate::EventExecutor). There are no rounds and no
//! phase cycles: a node acts when its private exponential clock fires.
//!
//! Per wake, a node first absorbs everything parked for it since its
//! last activation (rumors inform it; pull requests are answered
//! immediately in the unfair variants, or stashed and answered at most
//! one-per-wake in the fair ones), then performs its own action: push
//! the rumor to a uniform peer if informed, or send a pull request if
//! not (per the variant). Replies and pushes are parked at their
//! destinations until those nodes next wake.
//!
//! The dating-service workloads are *not* ported: their matchmaking step
//! is a barrier over each node's whole offer/request inbox, which has no
//! faithful one-node-at-a-time reading — the
//! [`Scenario`](crate::Scenario) builder rejects them under
//! [`TimeModel::Continuous`](crate::scenario::TimeModel) with a typed
//! error.
//!
//! lint: deterministic

use crate::arena::STASH_REQUESTS;
use crate::exec::TICKS_PER_SEC;
use crate::proto::{AsyncProtocol, Outbox, RoundObs, Verdict};
use crate::registry::Spreader;
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_sim::{NodeId, SplitMix64};

/// Salt mixed into the per-node observation digest, distinct from the
/// sync spread adapters' round-salted family.
const ASYNC_OBS_SALT: u64 = 0xA5EED;

/// What an asynchronous spreading run produced.
///
/// Time is integer simulated ticks ([`TICKS_PER_SEC`] per second), so
/// the summary stays `Eq`-comparable for the bit-identity tests; use
/// [`seconds`](Self::seconds) for the human-readable axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncSpreadSummary {
    /// Simulated ticks elapsed when the rumor reached all nodes.
    pub ticks: u64,
    /// Wake events processed to get there.
    pub events: u64,
    /// Informed count sampled once per whole simulated second (entry
    /// `s` is the count right after the first event at or beyond second
    /// `s`), plus a final entry at completion.
    pub informed_history: Vec<u64>,
}

impl AsyncSpreadSummary {
    /// Completion time in simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.ticks as f64 / TICKS_PER_SEC as f64
    }

    /// Nodes informed at the end of the run.
    pub fn final_informed(&self) -> u64 {
        self.informed_history.last().copied().unwrap_or(0)
    }
}

/// Per-node state: one bit. (No `pending` buffer like the sync
/// [`SpreadNode`](super::SpreadNode) — there are no phase cycles to
/// align, so a rumor informs the node the moment it is delivered.)
#[derive(Debug, Default)]
pub struct AsyncSpreadNode {
    informed: bool,
}

impl AsyncSpreadNode {
    /// Whether this node knows the rumor.
    pub fn knows(&self) -> bool {
        self.informed
    }
}

/// Messages of the asynchronous gossip family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsyncGossipMsg {
    /// The rumor itself (a push, or the answer to a pull request).
    Rumor,
    /// "Send me the rumor if you have it."
    PullRequest,
}

/// The five Figure-2 gossip baselines in continuous time, selected by
/// `mode`. Construct through
/// [`Scenario::time_model`](crate::Scenario::time_model) or directly for
/// a custom [`EventExecutor`](crate::EventExecutor) setup.
pub struct AsyncSpread {
    n: usize,
    source: NodeId,
    mode: Spreader,
    history: Vec<u64>,
    next_sample_sec: u64,
}

impl AsyncSpread {
    /// An `n`-node asynchronous spreader in the given gossip `mode`,
    /// with the rumor starting at `source`.
    ///
    /// # Panics
    /// Panics if `mode` has no continuous-time port
    /// ([`Spreader::supports_continuous`]) or `source` is out of range.
    pub fn new(n: usize, source: NodeId, mode: Spreader) -> Self {
        assert!(
            mode.supports_continuous(),
            "{mode} has no continuous-time port"
        );
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            mode,
            history: Vec::new(),
            next_sample_sec: 0,
        }
    }

    fn fair(&self) -> bool {
        matches!(self.mode, Spreader::FairPull | Spreader::FairPushPull)
    }

    fn pushes(&self) -> bool {
        matches!(
            self.mode,
            Spreader::Push | Spreader::PushPull | Spreader::FairPushPull
        )
    }

    fn pulls(&self) -> bool {
        matches!(
            self.mode,
            Spreader::Pull | Spreader::PushPull | Spreader::FairPull | Spreader::FairPushPull
        )
    }

    fn uniform_peer(&self, rng: &mut SmallRng) -> NodeId {
        NodeId(rng.gen_range(0..self.n as u32))
    }
}

impl AsyncProtocol for AsyncSpread {
    type Node = AsyncSpreadNode;
    type Msg = AsyncGossipMsg;
    type Output = AsyncSpreadSummary;

    fn init_node(&self, id: NodeId, _rng: &mut SmallRng) -> AsyncSpreadNode {
        AsyncSpreadNode {
            informed: id == self.source,
        }
    }

    fn on_message(
        &self,
        node: &mut AsyncSpreadNode,
        _id: NodeId,
        from: NodeId,
        msg: AsyncGossipMsg,
        _now_ticks: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, AsyncGossipMsg>,
    ) {
        match msg {
            AsyncGossipMsg::Rumor => node.informed = true,
            AsyncGossipMsg::PullRequest => {
                if self.fair() {
                    // Fair variants answer at most one request per wake:
                    // park the requester in this activation's stash and
                    // pick in `on_wake`.
                    out.stash(STASH_REQUESTS, from);
                } else if node.informed {
                    out.send(from, AsyncGossipMsg::Rumor);
                }
            }
        }
    }

    fn on_wake(
        &self,
        node: &mut AsyncSpreadNode,
        _id: NodeId,
        _now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, AsyncGossipMsg>,
    ) {
        if self.fair() && node.informed {
            let pending = out.stash_len(STASH_REQUESTS);
            if pending > 0 {
                let who = out.stash_at(STASH_REQUESTS, rng.gen_range(0..pending));
                out.send(who, AsyncGossipMsg::Rumor);
            }
        }
        if node.informed {
            if self.pushes() {
                let dst = self.uniform_peer(rng);
                out.send(dst, AsyncGossipMsg::Rumor);
            }
        } else if self.pulls() {
            let dst = self.uniform_peer(rng);
            out.send(dst, AsyncGossipMsg::PullRequest);
        }
    }

    fn observe_node(&self, node: &AsyncSpreadNode, id: NodeId, obs: &mut RoundObs) {
        if node.informed {
            obs.count = obs.count.wrapping_add(1);
            obs.digest ^= SplitMix64::mix(id.index() as u64 ^ ASYNC_OBS_SALT);
        }
    }

    fn finalize(
        &mut self,
        obs: &RoundObs,
        now_ticks: u64,
        events: u64,
    ) -> Verdict<AsyncSpreadSummary> {
        let sec = now_ticks / TICKS_PER_SEC;
        while self.next_sample_sec <= sec {
            self.history.push(obs.count);
            self.next_sample_sec += 1;
        }
        if obs.count >= self.n as u64 {
            self.history.push(obs.count);
            Verdict::Halt(AsyncSpreadSummary {
                ticks: now_ticks,
                events,
                informed_history: std::mem::take(&mut self.history),
            })
        } else {
            Verdict::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EventExecutor;
    use crate::report::RunConfig;

    const ASYNC_MODES: [Spreader; 5] = [
        Spreader::Push,
        Spreader::Pull,
        Spreader::PushPull,
        Spreader::FairPull,
        Spreader::FairPushPull,
    ];

    fn run(mode: Spreader, n: usize, seed: u64) -> crate::RunReport<AsyncSpreadSummary> {
        let mut p = AsyncSpread::new(n, NodeId(0), mode);
        EventExecutor::new(1.0).run(&mut p, n, &RunConfig::seeded(seed).max_rounds(500))
    }

    #[test]
    fn every_async_mode_spreads_to_everyone() {
        for mode in ASYNC_MODES {
            let r = run(mode, 150, 42);
            assert!(r.completed, "{mode} did not complete");
            let s = r.expect_output();
            assert_eq!(s.final_informed(), 150, "{mode}");
            assert!(s.ticks > 0 && s.events > 0, "{mode}");
            assert!(
                s.informed_history.len() as u64 >= s.ticks / TICKS_PER_SEC,
                "{mode}: one sample per whole simulated second"
            );
        }
    }

    #[test]
    fn async_traces_repeat_per_mode_and_differ_across_modes() {
        let runs: Vec<_> = ASYNC_MODES.iter().map(|&mode| run(mode, 120, 7)).collect();
        for (mode, base) in ASYNC_MODES.iter().zip(&runs) {
            let again = run(*mode, 120, 7);
            assert_eq!(base.digests, again.digests, "{mode}");
            assert_eq!(base.output, again.output, "{mode}");
            assert_eq!(base.stats, again.stats, "{mode}");
        }
        // Same seed, same wake schedule — the variants must still part
        // ways through what they send.
        for (k, a) in runs.iter().enumerate() {
            for b in &runs[k + 1..] {
                assert_ne!(a.digests, b.digests);
            }
        }
    }

    #[test]
    fn completion_time_scales_logarithmically() {
        // Doubling n should cost roughly one more "half-round" of
        // seconds, nowhere near doubling the completion time.
        let t1 = run(Spreader::PushPull, 200, 11).expect_output().seconds();
        let t2 = run(Spreader::PushPull, 400, 11).expect_output().seconds();
        assert!(
            t2 < 2.0 * t1,
            "push&pull must not scale linearly: {t1} → {t2}"
        );
    }

    #[test]
    #[should_panic(expected = "no continuous-time port")]
    fn dating_modes_are_rejected() {
        let _ = AsyncSpread::new(10, NodeId(0), Spreader::Dating);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected() {
        let _ = AsyncSpread::new(10, NodeId(10), Spreader::PushPull);
    }
}
