//! The five Figure-2 uniform-gossip baselines as one runtime protocol:
//! PUSH, PULL, PUSH&PULL, fair PULL and fair PUSH&PULL.
//!
//! They differ in three facts, and [`RtGossip`] takes each as a const
//! parameter: do informed nodes push (`PUSH`), do uninformed nodes pull
//! (`PULL`), and does an informed node answer one pull request per cycle
//! (`FAIR`) or all of them. Every phase guard is a compile-time constant,
//! so each alias monomorphises to its own straight-line hooks.
//!
//! Each expands one legacy synchronous round into a fixed phase cycle
//! (see the [`spread`](super::spread) module docs): sends happen at cycle
//! start, answers travel one engine round, and informs are buffered until
//! the next cycle start. Decisions therefore read the informed set as of
//! cycle start — the same law as `rendez_gossip::protocols` — so each
//! baseline's [`SpreadRunSummary::cycles`] is distribution-identical to
//! its legacy counterpart's round count (pinned by the KS tests in
//! `tests/scenario_api.rs`).
//!
//! | alias | cycle | phase 0 | phase 1 | phase 2 |
//! |---|---|---|---|---|
//! | [`RtPush`] | 2 | informed push | rumor lands | — |
//! | [`RtPull`] | 3 | uninformed request | informed answer **all** | answers land |
//! | [`RtPushPull`] | 3 | push + request | rumor lands; answer **all** | answers land |
//! | [`RtFairPull`] | 3 | uninformed request | informed answer **one** | answers land |
//! | [`RtFairPushPull`] | 3 | push + request | rumor lands; answer **one** | answers land |
//!
//! A fair target answers as its phase-1 delivery run ends: the run is
//! all of the round's pull requests to it, so it counts them, draws one
//! uniformly and answers it there. Only the per-message default stashes
//! the requests in the shard's [`NodeArena`](crate::NodeArena) and draws
//! at round end; requests that land off phase 1 (a latency spread) are
//! dropped unread either way.
//!
//! lint: deterministic

use super::spread::{
    observe_spread, spread_digest_obs, spread_finalize, SpreadNode, SpreadRunSummary,
};
use crate::arena::STASH_REQUESTS;
use crate::proto::{Outbox, RoundObs, RoundProtocol, Verdict};
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_sim::NodeId;

/// Messages of the uniform-gossip baselines, in both time models
/// ([`RtGossip`] and [`AsyncSpread`](super::AsyncSpread)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipMsg {
    /// The rumor itself (push transmission or pull answer).
    Rumor,
    /// "Send me the rumor if you have it."
    PullRequest,
}

/// Uniform gossip over explicit messages, phase-aligned with the legacy
/// baselines: informed nodes push the rumor to a uniform target if
/// `PUSH`, uninformed nodes ask a uniform target for it if `PULL`, and an
/// informed target answers one uniformly chosen request per cycle if
/// `FAIR`, every request otherwise. Use it through the aliases.
///
/// A variant that neither pushes nor pulls, or answers fairly without
/// pulling, is rejected at compile time:
///
/// ```compile_fail
/// use rendez_runtime::RtGossip;
/// use rendez_sim::NodeId;
///
/// let _ = RtGossip::<true, false, true>::new(4, NodeId(0));
/// ```
pub struct RtGossip<const PUSH: bool, const PULL: bool, const FAIR: bool> {
    n: usize,
    source: NodeId,
    history: Vec<u64>,
}

/// Simple PUSH: each cycle every informed node sends the rumor to a
/// uniform target (§1).
pub type RtPush = RtGossip<true, false, false>;

/// Simple (unfair) PULL: an informed target answers **every** request
/// (§1 — the variant the paper notes "may benefit from much higher
/// bandwidth").
pub type RtPull = RtGossip<false, true, false>;

/// PUSH&PULL with unfair answers; distribution-identical per cycle to
/// `rendez_gossip::PushPull`.
pub type RtPushPull = RtGossip<true, true, false>;

/// Fair PULL: an informed node answers only **one** uniformly chosen
/// request per cycle (§4: "a node satisfies only one request when it is
/// asked for information") — the bandwidth-honest baseline the dating
/// service is compared against.
pub type RtFairPull = RtGossip<false, true, true>;

/// Fair PUSH&PULL — PUSH plus the one-answer fair PULL (§4's "PUSH and
/// fair PULL", the paper's fair yardstick for the dating service).
pub type RtFairPushPull = RtGossip<true, true, true>;

impl<const PUSH: bool, const PULL: bool, const FAIR: bool> RtGossip<PUSH, PULL, FAIR> {
    /// Engine rounds per spreading cycle: send and land, plus an answer
    /// hop when nodes pull.
    pub const CYCLE: u64 = if PULL { 3 } else { 2 };

    /// The baseline over `n` nodes from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range. Fails to compile for a
    /// variant that neither pushes nor pulls, or is fair without pulling.
    pub fn new(n: usize, source: NodeId) -> Self {
        const { assert!(PUSH || PULL, "gossip must push or pull") };
        const { assert!(PULL || !FAIR, "fair answers need pull requests") };
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            history: Vec::new(),
        }
    }

    /// One delivered message, as the per-message hook takes it: a rumor
    /// is buffered; a pull request is stashed for the round-end draw when
    /// `FAIR`, else answered from cycle-start knowledge (`informed`
    /// cannot change mid-cycle, so delivery order leaks nothing).
    #[inline]
    fn take(
        informed: bool,
        pending: &mut bool,
        from: NodeId,
        msg: GossipMsg,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        match msg {
            GossipMsg::Rumor => *pending = true,
            GossipMsg::PullRequest if FAIR => out.stash(STASH_REQUESTS, from),
            GossipMsg::PullRequest => {
                if informed {
                    out.send(from, GossipMsg::Rumor);
                }
            }
        }
    }
}

/// Cycle start, out of line behind the inlined `round % CYCLE` guard:
/// apply the informs buffered over the last cycle, then contact one
/// uniform target — an informed node pushes the rumor if the protocol
/// `push`es, an uninformed one asks for it if the protocol `pull`s. The
/// target is drawn only if one is used.
#[inline(never)]
fn gossip_cycle_start(
    n: usize,
    (push, pull): (bool, bool),
    node: &mut SpreadNode,
    rng: &mut SmallRng,
    out: &mut Outbox<'_, GossipMsg>,
) {
    node.informed |= std::mem::take(&mut node.pending);
    let (sends, msg) = if node.informed {
        (push, GossipMsg::Rumor)
    } else {
        (pull, GossipMsg::PullRequest)
    };
    if sends {
        out.send(NodeId(rng.gen_range(0..n as u32)), msg);
    }
}

/// Phase-1 round end for the fair variants, driven message by message:
/// an informed node answers one uniform request from its arena stash.
/// The engine's run path stashes nothing (it draws as the run ends), so
/// this finds the stash empty there. No clearing is needed — the stash
/// expires at the round boundary, so an uninformed target silently
/// wastes the requests addressed to it, exactly as in the legacy
/// grouping (and the RNG is consumed only when an answer is drawn).
#[inline(never)]
fn answer_one_request(informed: bool, rng: &mut SmallRng, out: &mut Outbox<'_, GossipMsg>) {
    let pending = out.stash_len(STASH_REQUESTS);
    if informed && pending > 0 {
        let winner = out.stash_at(STASH_REQUESTS, rng.gen_range(0..pending));
        out.send(winner, GossipMsg::Rumor);
    }
}

impl<const PUSH: bool, const PULL: bool, const FAIR: bool> RoundProtocol
    for RtGossip<PUSH, PULL, FAIR>
{
    type Node = SpreadNode;
    type Msg = GossipMsg;
    type Output = SpreadRunSummary;

    fn init_node(&self, id: NodeId, _rng: &mut SmallRng) -> SpreadNode {
        SpreadNode::seeded(id == self.source)
    }

    #[inline]
    fn on_round_start(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        if round.is_multiple_of(Self::CYCLE) {
            gossip_cycle_start(self.n, (PUSH, PULL), node, rng, out);
        }
    }

    fn on_message(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        from: NodeId,
        msg: GossipMsg,
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        Self::take(node.informed, &mut node.pending, from, msg, out);
    }

    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[GossipMsg],
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        // `informed` cannot change mid-run (only `pending` is written),
        // so it is hoisted; answers go out in arrival order, exactly
        // like the per-message hook.
        let informed = node.informed;
        let mut pending = node.pending;
        if FAIR {
            // The run is all of this round's requests, and delivery sends
            // nothing else: the round-end draw, taken as the run ends.
            // Requests off phase 1 are dropped unread, as the stash would
            // let them expire.
            let mut requests = 0usize;
            for msg in msgs {
                match msg {
                    GossipMsg::Rumor => pending = true,
                    GossipMsg::PullRequest => requests += 1,
                }
            }
            if round % Self::CYCLE == 1 && informed && requests > 0 {
                let k = rng.gen_range(0..requests);
                let (&winner, _) = (srcs.iter().zip(msgs))
                    .filter(|(_, msg)| **msg == GossipMsg::PullRequest)
                    .nth(k)
                    .expect("k < requests");
                out.send(winner, GossipMsg::Rumor);
            }
        } else {
            for (from, msg) in srcs.iter().zip(msgs) {
                Self::take(informed, &mut pending, *from, *msg, out);
            }
        }
        node.pending = pending;
    }

    #[inline]
    fn on_round_end(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        if FAIR && round % Self::CYCLE == 1 {
            answer_one_request(node.informed, rng, out);
        }
    }

    fn observe_node(&self, node: &SpreadNode, id: NodeId, round: u64, obs: &mut RoundObs) {
        observe_spread(node, id, round, obs);
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<SpreadRunSummary> {
        spread_finalize(&mut self.history, obs.count, self.n, round, Self::CYCLE, 0)
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        spread_digest_obs(obs, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, SequentialExecutor, ShardedExecutor};
    use crate::report::RunConfig;

    fn run_seq<P: RoundProtocol<Output = SpreadRunSummary>>(
        mut p: P,
        n: usize,
        seed: u64,
    ) -> SpreadRunSummary {
        SequentialExecutor
            .run(&mut p, n, &RunConfig::seeded(seed).max_rounds(5_000))
            .expect_output()
    }

    #[test]
    fn push_doubles_at_most_per_cycle() {
        let n = 1000;
        let out = run_seq(RtPush::new(n, NodeId(0)), n, 1);
        assert_eq!(out.final_informed(), n as u64);
        // Inspect cycle boundaries: entry 2c is the state applied at the
        // start of cycle c; growth per cycle is at most 2x.
        let per_cycle: Vec<u64> = out
            .informed_history
            .iter()
            .copied()
            .step_by(RtPush::CYCLE as usize)
            .collect();
        for w in per_cycle.windows(2) {
            assert!(w[1] <= 2 * w[0], "push cannot more than double");
        }
        // Frieze–Grimmett: ~log2 n + ln n ≈ 17 cycles at n = 1000.
        assert!(
            (10..40).contains(&out.cycles),
            "push took {} cycles",
            out.cycles
        );
    }

    #[test]
    fn pull_starts_slow_and_completes() {
        let n = 512;
        let out = run_seq(RtPull::new(n, NodeId(0)), n, 2);
        assert_eq!(out.final_informed(), n as u64);
        assert!(
            out.cycles > 5,
            "pull can't finish 512 nodes in {} cycles",
            out.cycles
        );
        assert!(out.cycles < 100);
    }

    #[test]
    fn push_pull_completes_in_logarithmic_cycles() {
        let n = 1024;
        let mut p = RtPushPull::new(n, NodeId(0));
        let r = SequentialExecutor.run(&mut p, n, &RunConfig::seeded(1).max_rounds(500));
        assert!(r.completed);
        let out = r.expect_output();
        assert_eq!(out.final_informed(), n as u64);
        assert_eq!(out.informed_history[0], 1);
        // Legacy PUSH&PULL needs ~log2(n) + O(log log n) ≈ 13 rounds at
        // n = 1024; the phase-aligned port must match that in cycles.
        assert!(out.cycles < 25, "took {} cycles", out.cycles);
        assert_eq!(out.rounds.div_ceil(RtPushPull::CYCLE), out.cycles);
        for w in out.informed_history.windows(2) {
            assert!(w[1] >= w[0], "informed set shrank");
        }
    }

    #[test]
    fn fair_pull_answers_at_most_one_per_informed() {
        let n = 4096;
        let out = run_seq(RtFairPull::new(n, NodeId(0)), n, 3);
        assert_eq!(out.final_informed(), n as u64);
        let per_cycle: Vec<u64> = out
            .informed_history
            .iter()
            .copied()
            .step_by(RtFairPull::CYCLE as usize)
            .collect();
        for w in per_cycle.windows(2) {
            assert!(w[1] <= 2 * w[0], "fair pull must not more than double");
        }
    }

    #[test]
    fn fair_push_pull_beats_its_parts() {
        let n = 2048;
        let trials = 10u64;
        let mean = |f: &dyn Fn(u64) -> SpreadRunSummary| -> f64 {
            (0..trials).map(|s| f(s).cycles as f64).sum::<f64>() / trials as f64
        };
        let fpp = mean(&|s| run_seq(RtFairPushPull::new(n, NodeId(0)), n, s));
        let push = mean(&|s| run_seq(RtPush::new(n, NodeId(0)), n, 100 + s));
        let fp = mean(&|s| run_seq(RtFairPull::new(n, NodeId(0)), n, 200 + s));
        assert!(fpp < push, "combo ({fpp}) must beat push ({push})");
        assert!(fpp < fp, "combo ({fpp}) must beat fair pull ({fp})");
    }

    #[test]
    fn all_baselines_are_executor_independent() {
        let n = 600;
        let cfg = RunConfig::seeded(9).max_rounds(5_000);
        macro_rules! check {
            ($mk:expr) => {{
                let mut a = $mk;
                let seq = SequentialExecutor.run(&mut a, n, &cfg);
                for shards in [2, 7] {
                    let mut b = $mk;
                    let sh = ShardedExecutor::new(shards).run(&mut b, n, &cfg);
                    assert_eq!(seq.digests, sh.digests, "shards={shards}");
                    assert_eq!(seq.output, sh.output, "shards={shards}");
                    assert_eq!(seq.stats, sh.stats, "shards={shards}");
                }
            }};
        }
        check!(RtPush::new(n, NodeId(1)));
        check!(RtPull::new(n, NodeId(1)));
        check!(RtPushPull::new(n, NodeId(1)));
        check!(RtFairPull::new(n, NodeId(1)));
        check!(RtFairPushPull::new(n, NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected() {
        let _ = RtPush::new(4, NodeId(4));
    }
}
