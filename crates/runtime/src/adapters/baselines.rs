//! The remaining Figure-2 gossip baselines as runtime protocols: PUSH,
//! PULL, fair PULL and fair PUSH&PULL.
//!
//! Each adapter expands one legacy synchronous round into a fixed phase
//! cycle (see the [`spread`](super::spread) module docs): sends happen at
//! cycle start, answers travel one engine round, and informs are buffered
//! until the next cycle start. Decisions therefore read the informed set
//! as of cycle start — the same law as `rendez_gossip::protocols` — so
//! each adapter's [`SpreadRunSummary::cycles`] is distribution-identical
//! to its legacy counterpart's round count (pinned by the KS tests in
//! `tests/scenario_api.rs`).
//!
//! | adapter | cycle | phase 0 | phase 1 | phase 2 |
//! |---|---|---|---|---|
//! | [`RtPush`] | 2 | informed push | rumor lands | — |
//! | [`RtPull`] | 3 | uninformed request | informed answer **all** | answers land |
//! | [`RtFairPull`] | 3 | uninformed request | informed answer **one** | answers land |
//! | [`RtFairPushPull`] | 3 | push + request | rumor lands; answer one | answers land |
//!
//! lint: deterministic

use super::spread::{
    gossip_cycle_start, observe_spread, spread_digest_obs, spread_finalize, GossipMsg, SpreadNode,
    SpreadRunSummary,
};
use crate::arena::STASH_REQUESTS;
use crate::proto::{Outbox, RoundObs, RoundProtocol, Verdict};
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_sim::NodeId;

/// The three observation methods every baseline shares: [`RoundObs`]
/// fold via [`observe_spread`], verdict via [`spread_finalize`], digest
/// via [`spread_digest_obs`] — parameterized only by the adapter's
/// engine-rounds-per-cycle.
macro_rules! spread_observation {
    ($cycle:expr) => {
        fn observe_node(&self, node: &SpreadNode, id: NodeId, round: u64, obs: &mut RoundObs) {
            observe_spread(node, id, round, obs);
        }

        fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<SpreadRunSummary> {
            spread_finalize(&mut self.history, obs.count, self.n, round, $cycle, 0)
        }

        fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
            spread_digest_obs(obs, round)
        }
    };
}

/// Simple PUSH: each cycle every informed node sends the rumor to a
/// uniform target (§1). Two engine rounds per cycle: send, land.
pub struct RtPush {
    n: usize,
    source: NodeId,
    history: Vec<u64>,
}

impl RtPush {
    /// Engine rounds per spreading cycle.
    pub const CYCLE: u64 = 2;

    /// PUSH over `n` nodes from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: NodeId) -> Self {
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            history: Vec::new(),
        }
    }
}

impl RoundProtocol for RtPush {
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
            gossip_cycle_start(self.n, (true, false), node, rng, out);
        }
    }

    fn on_message(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        _from: NodeId,
        msg: GossipMsg,
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, GossipMsg>,
    ) {
        if msg == GossipMsg::Rumor {
            node.pending = true;
        }
    }

    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        _srcs: &[NodeId],
        msgs: &[GossipMsg],
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, GossipMsg>,
    ) {
        node.pending |= msgs.contains(&GossipMsg::Rumor);
    }

    spread_observation!(Self::CYCLE);
}

/// Simple (unfair) PULL: each cycle every uninformed node asks a uniform
/// target; an informed target answers **every** request (§1 — the
/// variant the paper notes "may benefit from much higher bandwidth").
pub struct RtPull {
    n: usize,
    source: NodeId,
    history: Vec<u64>,
}

impl RtPull {
    /// Engine rounds per spreading cycle.
    pub const CYCLE: u64 = 3;

    /// PULL over `n` nodes from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: NodeId) -> Self {
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            history: Vec::new(),
        }
    }
}

impl RoundProtocol for RtPull {
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
            gossip_cycle_start(self.n, (false, true), node, rng, out);
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
        match msg {
            GossipMsg::Rumor => node.pending = true,
            GossipMsg::PullRequest => {
                if node.informed {
                    out.send(from, GossipMsg::Rumor);
                }
            }
        }
    }

    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[GossipMsg],
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        // `informed` cannot change mid-run; answers go out in arrival
        // order, exactly like the per-message hook.
        let informed = node.informed;
        let mut pending = node.pending;
        for (from, msg) in srcs.iter().zip(msgs) {
            match msg {
                GossipMsg::Rumor => pending = true,
                GossipMsg::PullRequest => {
                    if informed {
                        out.send(*from, GossipMsg::Rumor);
                    }
                }
            }
        }
        node.pending = pending;
    }

    spread_observation!(Self::CYCLE);
}

/// Fair PULL: like [`RtPull`] but an informed node answers only **one**
/// uniformly chosen request per cycle (§4: "a node satisfies only one
/// request when it is asked for information") — the bandwidth-honest
/// baseline the dating service is compared against.
pub struct RtFairPull {
    n: usize,
    source: NodeId,
    history: Vec<u64>,
}

impl RtFairPull {
    /// Engine rounds per spreading cycle.
    pub const CYCLE: u64 = 3;

    /// Fair PULL over `n` nodes from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: NodeId) -> Self {
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            history: Vec::new(),
        }
    }
}

/// Phase-1 round end for the fair variants: an informed node answers one
/// uniform request from its arena stash. No clearing is needed — the
/// stash expires at the round boundary, so an uninformed target silently
/// wastes the requests addressed to it, exactly as in the legacy
/// grouping (and the RNG is consumed only when an answer is drawn, same
/// as before).
#[inline(never)]
fn answer_one_request(informed: bool, rng: &mut SmallRng, out: &mut Outbox<'_, GossipMsg>) {
    let pending = out.stash_len(STASH_REQUESTS);
    if informed && pending > 0 {
        let winner = out.stash_at(STASH_REQUESTS, rng.gen_range(0..pending));
        out.send(winner, GossipMsg::Rumor);
    }
}

impl RoundProtocol for RtFairPull {
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
            gossip_cycle_start(self.n, (false, true), node, rng, out);
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
        match msg {
            GossipMsg::Rumor => node.pending = true,
            GossipMsg::PullRequest => out.stash(STASH_REQUESTS, from),
        }
    }

    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[GossipMsg],
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        let mut pending = node.pending;
        for (from, msg) in srcs.iter().zip(msgs) {
            match msg {
                GossipMsg::Rumor => pending = true,
                GossipMsg::PullRequest => out.stash(STASH_REQUESTS, *from),
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
        if round % Self::CYCLE == 1 {
            answer_one_request(node.informed, rng, out);
        }
    }

    spread_observation!(Self::CYCLE);
}

/// Fair PUSH&PULL — PUSH plus the one-answer fair PULL (§4's "PUSH and
/// fair PULL", the paper's fair yardstick for the dating service).
pub struct RtFairPushPull {
    n: usize,
    source: NodeId,
    history: Vec<u64>,
}

impl RtFairPushPull {
    /// Engine rounds per spreading cycle.
    pub const CYCLE: u64 = 3;

    /// Fair PUSH&PULL over `n` nodes from `source`.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(n: usize, source: NodeId) -> Self {
        assert!(source.index() < n, "source out of range");
        Self {
            n,
            source,
            history: Vec::new(),
        }
    }
}

impl RoundProtocol for RtFairPushPull {
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
            gossip_cycle_start(self.n, (true, true), node, rng, out);
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
        match msg {
            GossipMsg::Rumor => node.pending = true,
            GossipMsg::PullRequest => out.stash(STASH_REQUESTS, from),
        }
    }

    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[GossipMsg],
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, GossipMsg>,
    ) {
        let mut pending = node.pending;
        for (from, msg) in srcs.iter().zip(msgs) {
            match msg {
                GossipMsg::Rumor => pending = true,
                GossipMsg::PullRequest => out.stash(STASH_REQUESTS, *from),
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
        if round % Self::CYCLE == 1 {
            answer_one_request(node.informed, rng, out);
        }
    }

    spread_observation!(Self::CYCLE);
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
        check!(RtFairPull::new(n, NodeId(1)));
        check!(RtFairPushPull::new(n, NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_rejected() {
        let _ = RtPush::new(4, NodeId(4));
    }
}
