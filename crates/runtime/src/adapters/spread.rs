//! Rumor spreading hosted on the runtime: the dating-service spreader
//! (with optional payload loss) as a true message-passing protocol, and
//! the node state, summary and observation folds every spread adapter
//! shares.
//!
//! The `rendez_gossip` implementations sample each round's communication
//! centrally; these adapters exchange real messages, so they run on every
//! executor and degrade gracefully under conditioning (loss, latency) and
//! churn. Every spread adapter in this crate follows the same
//! **phase-cycle convention**: one legacy Figure-2 round is expanded into
//! a fixed number of engine rounds (one per message hop) and an inform
//! received during a delivery phase is buffered (`pending`), never
//! applied mid-delivery, so no decision depends on the order in which a
//! round's mail arrives. *When* the buffer is applied differs:
//!
//! * the five uniform-gossip baselines ([`RtGossip`](super::RtGossip),
//!   in the [`gossip`](super::gossip) module) apply it at the next
//!   **cycle** start, so every decision reads the informed set as of
//!   cycle start — exactly the synchronous-round semantics of
//!   `rendez_gossip::protocols`;
//! * [`RtDatingSpread`] applies it at the start of **every** engine
//!   round, not at the next cycle start: a payload of cycle `c` lands in
//!   phase 0 of cycle `c + 1`, after that round's start hook, and its
//!   receiver must be a carrier by the time phase 2's answers read
//!   `informed`. On the synchronous model folding at phase 1's start
//!   alone would do; under a latency spread payloads and answers land in
//!   any phase, and a node carries the rumor from the round after it
//!   learnt it. Where the fold sits is therefore part of the trace under
//!   conditioning: with it behind a phase guard the ideal workloads keep
//!   their pins and `spread-faulty-seq` loses its own
//!   (`benchmark/pins.json`).
//!
//! Whatever a phase decides from a round's mail it decides in the
//! delivery run that brings it: a destination's whole round mail is one
//! [`on_receive_run`](RoundProtocol::on_receive_run) call. The
//! [`RtDatingSpread`] matchmakers pair their phase-1 offers and requests
//! as the run ends, with the kernel of [`RuntimeDating`](crate::RuntimeDating)
//! (see the [`dating`](super::dating) module docs), and the fair gossip
//! spreaders draw their one answer there; only the per-message default
//! stashes in the shard's [`NodeArena`](crate::NodeArena) and finishes
//! the phase at round end.
//!
//! [`SpreadRunSummary::cycles`] reports the legacy-equivalent round
//! count, which is what the KS-agreement tests in
//! `tests/scenario_api.rs` pin to the centralized oracle.
//!
//! lint: deterministic

use super::dating::{emit, matchmake, matchmake_stash};
use crate::arena::{STASH_OFFERS, STASH_REQUESTS};
use crate::proto::{Outbox, RoundObs, RoundProtocol, Verdict};
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_core::distributed::PAYLOAD_BYTES;
use rendez_core::overhead::ADDRESS_BYTES;
use rendez_core::{NodeSelector, Platform};
use rendez_sim::{NodeId, Partner, SplitMix64};

/// Per-node rumor state shared by the spread adapters: two booleans, no
/// heap — a matchmaker's offers and requests are paired as its delivery
/// run lands, in the executor shard's [`NodeArena`](crate::NodeArena)
/// inbox, and a fair spreader draws its one answer from the run itself.
#[derive(Debug, Default)]
pub struct SpreadNode {
    /// Informed as of the current cycle's start.
    pub informed: bool,
    /// Informed during a delivery phase; becomes `informed` when the
    /// adapter next folds it in (see the module docs for when).
    pub pending: bool,
}

impl SpreadNode {
    /// Counts as informed for completion purposes.
    pub(crate) fn knows(&self) -> bool {
        self.informed || self.pending
    }

    /// Start-of-run state: informed iff this is the source.
    pub(crate) fn seeded(informed: bool) -> Self {
        Self {
            informed,
            ..Self::default()
        }
    }
}

/// Streaming fold shared by every spread adapter: count informed nodes
/// and XOR a per-node identity hash into the digest accumulator. The
/// per-node hash is salted with the round, so the digest changes every
/// round even while the informed set is static.
pub(crate) fn observe_spread(node: &SpreadNode, id: NodeId, round: u64, obs: &mut RoundObs) {
    if node.knows() {
        obs.count += 1;
        obs.digest ^= SplitMix64::mix(SplitMix64::mix(round ^ 0x5EED) ^ id.index() as u64);
    }
}

/// Streaming digest shared by every spread adapter (see
/// [`observe_spread`]). XOR-merged per-node hashes make this invariant
/// under shard regrouping — the [`RoundObs`] merge-determinism rule.
pub(crate) fn spread_digest_obs(obs: &RoundObs, round: u64) -> u64 {
    SplitMix64::mix(round ^ 0x5EED) ^ obs.digest
}

/// What a spreading run reports on completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpreadRunSummary {
    /// Engine rounds executed (several per spreading cycle; see
    /// [`cycles`](Self::cycles)).
    pub rounds: u64,
    /// Legacy-equivalent spreading rounds: the number of Figure-2 rounds
    /// this run corresponds to, directly comparable to
    /// `rendez_gossip::SpreadResult::rounds`.
    pub cycles: u64,
    /// Informed-node counts; entry `t` is the state after `t` engine
    /// rounds (entry 0 is the initial single-source state).
    pub informed_history: Vec<u64>,
}

impl SpreadRunSummary {
    /// Final informed count.
    pub fn final_informed(&self) -> u64 {
        *self.informed_history.last().expect("history non-empty")
    }
}

/// Payload-loss bound — the single source of truth shared by the
/// panicking [`RtDatingSpread::with_loss`] constructor and the typed
/// [`ScenarioError`](crate::ScenarioError) path.
pub(crate) fn check_loss(loss: f64) -> Result<(), &'static str> {
    if (0.0..1.0).contains(&loss) {
        Ok(())
    } else {
        Err("loss must be in [0,1)")
    }
}

/// Shared finalize for spread adapters: record history, halt when all
/// `n` nodes know the rumor, converting engine rounds to
/// legacy-equivalent cycles with `cycle_len` (and `lag` trailing
/// delivery rounds). `count` is the informed total from this round's
/// merged [`RoundObs`].
pub(crate) fn spread_finalize(
    history: &mut Vec<u64>,
    count: u64,
    n: usize,
    round: u64,
    cycle_len: u64,
    lag: u64,
) -> Verdict<SpreadRunSummary> {
    if history.is_empty() {
        history.push(1);
    }
    history.push(count);
    if count == n as u64 {
        let rounds = round + 1;
        Verdict::Halt(SpreadRunSummary {
            rounds,
            cycles: rounds.saturating_sub(lag).div_ceil(cycle_len),
            informed_history: std::mem::take(history),
        })
    } else {
        Verdict::Continue
    }
}

/// Rumor spreading via the dating service, as a message-passing protocol,
/// with optional i.i.d. payload loss (§5's fault-tolerance experiment).
///
/// Runs the full 3-phase dating cycle of
/// [`RuntimeDating`](crate::RuntimeDating); payloads carry a flag saying
/// whether the sender was informed, and an informative payload informs its
/// receiver (§3: "the rumor spreading scheme is given by the dating
/// service algorithm"). Nodes never adapt offers/requests to rumor state
/// — which is exactly why a lost payload costs one date and nothing else
/// (no retransmission state, no stalled handshake), so
/// [`with_loss`](Self::with_loss) is the runtime port of
/// `rendez_gossip::DatingSpread::with_loss`.
pub struct RtDatingSpread<S: NodeSelector> {
    platform: Platform,
    selector: S,
    source: NodeId,
    loss: f64,
    history: Vec<u64>,
}

/// Messages of [`RtDatingSpread`] — dating control plus a rumor-carrying
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatingSpreadMsg {
    /// "Request for sending": the origin offers one outgoing unit.
    Offer,
    /// "Request for receiving": the origin wants one incoming unit.
    Request,
    /// Answer to an offer: the partner to send to, or none — the same
    /// 4-byte encoding as `rendez_core::DatingMsg`.
    AnswerOffer(Partner),
    /// Answer to a request (spreading ignores it; kept for fidelity).
    AnswerRequest(Partner),
    /// The unit payload; `informed` is the sender's rumor state.
    Payload {
        /// Whether the payload carries the rumor.
        informed: bool,
    },
}

const _: () = assert!(std::mem::size_of::<DatingSpreadMsg>() == 8);

/// [`DatingSpreadMsg`]'s answers, as [`matchmake`] builds them.
fn answer_offer(partner: Option<NodeId>) -> DatingSpreadMsg {
    DatingSpreadMsg::AnswerOffer(Partner::new(partner))
}

fn answer_request(partner: Option<NodeId>) -> DatingSpreadMsg {
    DatingSpreadMsg::AnswerRequest(Partner::new(partner))
}

impl<S: NodeSelector> RtDatingSpread<S> {
    /// Engine rounds per dating cycle.
    pub const CYCLE: u64 = 3;

    /// Dating-service spreading on `platform` from `source`.
    ///
    /// # Panics
    /// Panics if sizes mismatch or `source` is out of range.
    pub fn new(platform: Platform, selector: S, source: NodeId) -> Self {
        Self::with_loss(platform, selector, source, 0.0)
    }

    /// Dating-service spreading that drops each date's payload
    /// independently with probability `loss` (the port of the legacy
    /// lossy sampler; `loss = 0` is behaviourally identical to
    /// [`new`](Self::new)).
    ///
    /// # Panics
    /// Panics if sizes mismatch, `source` is out of range, or
    /// `loss ∉ [0, 1)`.
    pub fn with_loss(platform: Platform, selector: S, source: NodeId, loss: f64) -> Self {
        assert_eq!(
            platform.n(),
            selector.n(),
            "selector universe must match platform size"
        );
        assert!(source.index() < platform.n(), "source out of range");
        if let Err(reason) = check_loss(loss) {
            panic!("{reason}, got {loss}");
        }
        Self {
            platform,
            selector,
            source,
            loss,
            history: Vec::new(),
        }
    }
}

impl<S: NodeSelector> RoundProtocol for RtDatingSpread<S> {
    type Node = SpreadNode;
    type Msg = DatingSpreadMsg;
    type Output = SpreadRunSummary;

    fn init_node(&self, id: NodeId, _rng: &mut SmallRng) -> SpreadNode {
        SpreadNode::seeded(id == self.source)
    }

    #[inline]
    fn on_round_start(
        &self,
        node: &mut SpreadNode,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingSpreadMsg>,
    ) {
        // Every round, not only at cycle start (module docs).
        node.informed |= std::mem::take(&mut node.pending);
        if round.is_multiple_of(Self::CYCLE) {
            let msgs = (DatingSpreadMsg::Offer, DatingSpreadMsg::Request);
            emit(&self.platform, &self.selector, id, rng, out, msgs);
        }
    }

    fn on_message(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        from: NodeId,
        msg: DatingSpreadMsg,
        _round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingSpreadMsg>,
    ) {
        match msg {
            DatingSpreadMsg::Offer => out.stash(STASH_OFFERS, from),
            DatingSpreadMsg::Request => out.stash(STASH_REQUESTS, from),
            DatingSpreadMsg::AnswerOffer(partner) => {
                if let Some(p) = partner.get() {
                    // Link-fault injection: the payload of this date is
                    // lost with probability `loss`, decided by the
                    // sender's private stream (deterministic per run).
                    if self.loss > 0.0 && rng.gen::<f64>() < self.loss {
                        return;
                    }
                    out.send(
                        p,
                        DatingSpreadMsg::Payload {
                            informed: node.informed,
                        },
                    );
                }
            }
            DatingSpreadMsg::AnswerRequest(_) => {}
            DatingSpreadMsg::Payload { informed } => {
                if informed {
                    node.pending = true;
                }
            }
        }
    }

    #[inline]
    fn on_receive_run(
        &self,
        node: &mut SpreadNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[DatingSpreadMsg],
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingSpreadMsg>,
    ) {
        // `informed` is never written during delivery, so it is hoisted;
        // the lossy branch must draw from `rng` exactly once per matched
        // answer, in arrival order, and before the matchmaker's shuffle,
        // to keep the node's private stream bit-identical to the
        // per-message hook and its round end. A phase-1 run files its
        // offers and requests in the inbox and pairs them as it ends;
        // in any other phase they are dropped unread, as the stash
        // would let them expire.
        let matchmaking = round % Self::CYCLE == 1;
        let (inbox, tx) = out.split_inbox();
        let my_informed = node.informed;
        let mut pending = node.pending;
        for (from, msg) in srcs.iter().zip(msgs) {
            match msg {
                // One arm, the lane computed: a matchmaker's mail is
                // offers and requests in no order, a coin-flip branch.
                DatingSpreadMsg::Offer | DatingSpreadMsg::Request => {
                    if matchmaking {
                        let request = matches!(msg, DatingSpreadMsg::Request);
                        inbox[STASH_OFFERS + usize::from(request)].push(*from);
                    }
                }
                DatingSpreadMsg::AnswerOffer(partner) => {
                    if let Some(p) = partner.get() {
                        if self.loss > 0.0 && rng.gen::<f64>() < self.loss {
                            continue;
                        }
                        tx.send(
                            p,
                            DatingSpreadMsg::Payload {
                                informed: my_informed,
                            },
                        );
                    }
                }
                DatingSpreadMsg::AnswerRequest(_) => {}
                DatingSpreadMsg::Payload { informed } => {
                    if *informed {
                        pending = true;
                    }
                }
            }
        }
        node.pending = pending;
        if matchmaking {
            let [offers, requests] = inbox;
            matchmake(offers, requests, rng, tx, answer_offer, answer_request);
        }
    }

    #[inline]
    fn on_round_end(
        &self,
        _node: &mut SpreadNode,
        _id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingSpreadMsg>,
    ) {
        if round % Self::CYCLE == 1 {
            matchmake_stash(rng, out, answer_offer, answer_request);
        }
    }

    fn msg_bytes(&self, msg: &DatingSpreadMsg) -> usize {
        match msg {
            DatingSpreadMsg::Payload { .. } => PAYLOAD_BYTES,
            _ => ADDRESS_BYTES,
        }
    }

    fn observe_node(&self, node: &SpreadNode, id: NodeId, round: u64, obs: &mut RoundObs) {
        observe_spread(node, id, round, obs);
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<SpreadRunSummary> {
        // Payloads of cycle c land at the start of round 3(c+1): one
        // engine round of lag before cycle accounting.
        spread_finalize(
            &mut self.history,
            obs.count,
            self.platform.n(),
            round,
            Self::CYCLE,
            1,
        )
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        spread_digest_obs(obs, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, SequentialExecutor};
    use crate::report::RunConfig;
    use crate::Conditions;
    use rendez_core::UniformSelector;

    #[test]
    fn dating_spread_completes_on_unit_platform() {
        let n = 512;
        let mut p = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        let r = SequentialExecutor.run(&mut p, n, &RunConfig::seeded(2).max_rounds(3000));
        assert!(r.completed);
        let out = r.expect_output();
        assert_eq!(out.final_informed(), n as u64);
        // O(log n) cycles; generous cap.
        assert!(out.cycles < 120, "took {} cycles", out.cycles);
    }

    #[test]
    fn loss_slows_but_does_not_stop_spreading() {
        let n = 256;
        let cfg = RunConfig::seeded(4).max_rounds(5000);
        let mut ideal = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        let clean = SequentialExecutor.run(&mut ideal, n, &cfg).expect_output();
        let mut lossy = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        let noisy = SequentialExecutor
            .run(&mut lossy, n, &cfg.conditions(Conditions::with_loss(0.3)))
            .expect_output();
        assert_eq!(noisy.final_informed(), n as u64);
        assert!(
            noisy.rounds >= clean.rounds,
            "loss should not speed spreading ({} vs {})",
            noisy.rounds,
            clean.rounds
        );
    }

    #[test]
    fn payload_loss_slows_spreading() {
        // The lossy dating port: only date payloads face loss (control
        // messages are reliable), so the protocol still completes.
        let n = 256;
        let cfg = RunConfig::seeded(6).max_rounds(9000);
        let run = |loss: f64| {
            let mut p = RtDatingSpread::with_loss(
                Platform::unit(n),
                UniformSelector::new(n),
                NodeId(0),
                loss,
            );
            SequentialExecutor.run(&mut p, n, &cfg).expect_output()
        };
        let clean = run(0.0);
        let lossy = run(0.5);
        assert_eq!(lossy.final_informed(), n as u64);
        assert!(
            lossy.cycles > clean.cycles,
            "50% payload loss must slow spreading ({} vs {})",
            lossy.cycles,
            clean.cycles
        );
    }

    #[test]
    fn zero_loss_matches_plain_constructor_exactly() {
        let n = 200;
        let cfg = RunConfig::seeded(8).max_rounds(5000);
        let mut a = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        let mut b =
            RtDatingSpread::with_loss(Platform::unit(n), UniformSelector::new(n), NodeId(0), 0.0);
        let ra = SequentialExecutor.run(&mut a, n, &cfg);
        let rb = SequentialExecutor.run(&mut b, n, &cfg);
        assert_eq!(ra.digests, rb.digests);
        assert_eq!(ra.output, rb.output);
    }

    #[test]
    fn fast_source_informs_more_early() {
        // Theorem 10 mechanism: a high-bandwidth source is the sender of
        // up to bout(source) dates per cycle, so after the first cycle's
        // payloads land it has informed several nodes; a unit-bandwidth
        // source can have informed at most a couple.
        let platform = Platform::bimodal(100, 0.05, 1, 20);
        let early = |source: NodeId| -> f64 {
            let mut total = 0u64;
            let seeds = 20;
            for seed in 0..seeds {
                let mut p =
                    RtDatingSpread::new(platform.clone(), UniformSelector::new(100), source);
                let out = SequentialExecutor
                    .run(&mut p, 100, &RunConfig::seeded(seed).max_rounds(5000))
                    .expect_output();
                // Entry 4 = informed count once cycle 0's payloads landed.
                total += out.informed_history[4.min(out.informed_history.len() - 1)];
            }
            total as f64 / seeds as f64
        };
        let fast = early(NodeId(0)); // bout = 20
        let slow = early(NodeId(99)); // bout = 1
        assert!(
            fast > slow + 1.0,
            "fast source should lead after one cycle: fast {fast} vs slow {slow}"
        );
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn certain_loss_rejected() {
        let _ =
            RtDatingSpread::with_loss(Platform::unit(4), UniformSelector::new(4), NodeId(0), 1.0);
    }
}
