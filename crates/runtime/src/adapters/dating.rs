//! Algorithm 1 — the distributed dating service, hosted on the runtime.
//!
//! The 3-round cycle of `rendez_core::distributed`, on its wire messages
//! ([`DatingMsg`]: one 8-byte word, the partner of an answer a 4-byte
//! [`Partner`] with `u32::MAX` for "no date", which
//! [`MAX_NODES`](crate::MAX_NODES) keeps free of node ids):
//!
//! ```text
//! phase 0: every node sends bout(i) Offer and bin(i) Request messages
//! phase 1: matchmakers keep a uniform min(s, r) of each side at round
//!          end, match them uniformly, and answer every originator
//! phase 2: matched senders receive their partner and ship the payload
//! ```
//!
//! State lives per node, so the protocol runs unchanged on the
//! sequential, sharded and conditioned executors.
//! Equivalence with the oracle sampler is asserted by KS tests in
//! `tests/oracle_vs_distributed.rs` and `tests/runtime_equivalence.rs`.
//!
//! # Millions-of-nodes layout
//!
//! [`DatingNode`] is a flat 40-byte struct — no heap. The offer/request
//! inboxes live in the executor shard's [`NodeArena`](crate::NodeArena)
//! (filled via [`Outbox::stash`] during the delivery phase, drained at
//! round end of the same round), and per-cycle date history is
//! accumulated **in the protocol object** from the streaming
//! [`RoundObs`] date lane, one entry per matchmaking round — so node
//! count no longer multiplies allocations, and the coordinator never
//! scans the node slice between rounds.
//!
//! lint: deterministic

use crate::arena::{STASH_OFFERS, STASH_REQUESTS};
use crate::proto::{Outbox, RoundObs, RoundProtocol, Verdict};
use rand::rngs::SmallRng;
use rendez_core::distributed::{DatingMsg, PAYLOAD_BYTES};
use rendez_core::matching::partial_shuffle;
use rendez_core::overhead::ADDRESS_BYTES;
use rendez_core::{NodeSelector, Platform};
use rendez_sim::{NodeId, Partner, SplitMix64};

/// [`RoundObs`] lane: cumulative payloads received, summed over nodes.
const L_PAYLOADS: usize = 0;
/// [`RoundObs`] lane: cumulative answers received, summed over nodes.
const L_ANSWERS: usize = 1;
/// [`RoundObs`] lane: dates arranged in the *current* cycle.
const L_DATES: usize = 2;

/// The dating service as a runtime protocol.
pub struct RuntimeDating<S: NodeSelector> {
    platform: Platform,
    selector: S,
    max_cycles: u64,
    /// Per-cycle date totals, accumulated from the streaming round
    /// observations (one entry appended per matchmaking round); taken
    /// into the [`DatingRunSummary`] on halt.
    dates_per_cycle: Vec<u64>,
}

impl<S: NodeSelector> RuntimeDating<S> {
    /// Dating for `max_cycles` cycles on `platform` with `selector`.
    ///
    /// # Panics
    /// Panics if the selector universe differs from the platform size.
    pub fn new(platform: Platform, selector: S, max_cycles: u64) -> Self {
        assert_eq!(
            platform.n(),
            selector.n(),
            "selector universe must match platform size"
        );
        Self {
            platform,
            selector,
            max_cycles,
            dates_per_cycle: Vec::new(),
        }
    }

    /// The platform this service runs on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Engine rounds a full run occupies (3 per cycle + payload landing).
    pub fn total_rounds(&self) -> u64 {
        3 * self.max_cycles + 1
    }

    fn cycle_of(round: u64) -> u64 {
        round / 3
    }

    fn phase_of(round: u64) -> u64 {
        round % 3
    }
}

/// Phase 0 of the dating cycle, shared by both dating adapters: `id`
/// sends `bout(id)` offers and `bin(id)` requests to selected nodes.
#[inline(never)]
pub(super) fn emit<S: NodeSelector, M: Copy>(
    platform: &Platform,
    selector: &S,
    id: NodeId,
    rng: &mut SmallRng,
    out: &mut Outbox<'_, M>,
    (offer, request): (M, M),
) {
    let caps = platform.caps(id);
    for _ in 0..caps.bw_out {
        out.send(selector.select(rng), offer);
    }
    for _ in 0..caps.bw_in {
        out.send(selector.select(rng), request);
    }
}

/// Phase-1 round end of the dating cycle, shared by both dating
/// adapters: keep a uniform `q = min(offers, requests)` of each side,
/// pair them positionally and answer every originator; returns `q`.
///
/// Uniform q-subsets in uniform order → positional pairing is a uniform
/// random perfect matching (identical to the oracle form). The stash is
/// shuffled where it lies in the arena — offers first, then requests,
/// each consuming the RNG exactly like [`partial_shuffle`] on the old
/// per-node inbox `Vec`s — and never cleared: it expires at the round
/// boundary.
#[inline(never)]
pub(super) fn matchmake<M>(
    rng: &mut SmallRng,
    out: &mut Outbox<'_, M>,
    answer_offer: impl Fn(Option<NodeId>) -> M,
    answer_request: impl Fn(Option<NodeId>) -> M,
) -> usize {
    let ([offers, requests], tx) = out.split_stash();
    let q = offers.len().min(requests.len());
    partial_shuffle(offers, q, rng);
    partial_shuffle(requests, q, rng);
    let ((offers, spare_offers), (requests, spare_requests)) =
        (offers.split_at(q), requests.split_at(q));
    for (&o, &r) in offers.iter().zip(requests) {
        tx.send(o, answer_offer(Some(r)));
        tx.send(r, answer_request(Some(o)));
    }
    for &o in spare_offers {
        tx.send(o, answer_offer(None));
    }
    for &r in spare_requests {
        tx.send(r, answer_request(None));
    }
    q
}

/// Per-node dating state: flat scalars only (40 bytes, no heap — the
/// inboxes live in the shard's arena, the per-cycle history in the
/// protocol object).
#[derive(Debug, Default)]
pub struct DatingNode {
    /// Dates this node arranged in its most recent matchmaking round.
    dates_cycle: u64,
    /// `cycle + 1` of the matchmaking round that wrote `dates_cycle`
    /// (0 = never matched). Lets the round observation skip stale
    /// tallies of nodes that were down (churned) in the current cycle's
    /// matchmaking round.
    dates_mark: u64,
    /// Dates this node arranged over the whole run.
    dates_total: u64,
    payloads_received: u64,
    answers_received: u64,
}

/// Aggregate outcome of a runtime-hosted dating run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatingRunSummary {
    /// Dates arranged in each cycle (summed over matchmakers).
    pub dates_per_cycle: Vec<u64>,
    /// Payload messages delivered end-to-end.
    pub payloads_received: u64,
    /// Answers delivered to originators.
    pub answers_received: u64,
}

impl DatingRunSummary {
    /// Total dates across all cycles.
    pub fn total_dates(&self) -> u64 {
        self.dates_per_cycle.iter().sum()
    }
}

impl<S: NodeSelector> RoundProtocol for RuntimeDating<S> {
    type Node = DatingNode;
    type Msg = DatingMsg;
    type Output = DatingRunSummary;

    fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> DatingNode {
        DatingNode::default()
    }

    #[inline]
    fn on_round_start(
        &self,
        _node: &mut DatingNode,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        if Self::phase_of(round) == 0 && Self::cycle_of(round) < self.max_cycles {
            let msgs = (DatingMsg::Offer, DatingMsg::Request);
            emit(&self.platform, &self.selector, id, rng, out, msgs);
        }
    }

    fn on_message(
        &self,
        node: &mut DatingNode,
        _id: NodeId,
        from: NodeId,
        msg: DatingMsg,
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        match msg {
            DatingMsg::Offer => out.stash(STASH_OFFERS, from),
            DatingMsg::Request => out.stash(STASH_REQUESTS, from),
            DatingMsg::AnswerOffer(partner) => {
                node.answers_received += 1;
                if let Some(p) = partner.get() {
                    out.send(p, DatingMsg::Payload);
                }
            }
            DatingMsg::AnswerRequest(_) => {
                node.answers_received += 1;
            }
            DatingMsg::Payload => {
                node.payloads_received += 1;
            }
        }
    }

    #[inline]
    fn on_receive_run(
        &self,
        node: &mut DatingNode,
        _id: NodeId,
        srcs: &[NodeId],
        msgs: &[DatingMsg],
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        // Same transitions as the per-message hook, in the same order
        // (no RNG is consumed here); the counters accumulate in locals
        // and write back once per run instead of once per message.
        let mut answers = 0u64;
        let mut payloads = 0u64;
        for (from, msg) in srcs.iter().zip(msgs) {
            match msg {
                // One arm, the lane computed: a matchmaker's mail is
                // offers and requests in no order, a coin-flip branch.
                DatingMsg::Offer | DatingMsg::Request => {
                    let request = matches!(msg, DatingMsg::Request);
                    out.stash(STASH_OFFERS + usize::from(request), *from);
                }
                DatingMsg::AnswerOffer(partner) => {
                    answers += 1;
                    if let Some(p) = partner.get() {
                        out.send(p, DatingMsg::Payload);
                    }
                }
                DatingMsg::AnswerRequest(_) => answers += 1,
                DatingMsg::Payload => payloads += 1,
            }
        }
        node.answers_received += answers;
        node.payloads_received += payloads;
    }

    #[inline]
    fn on_round_end(
        &self,
        node: &mut DatingNode,
        _id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, DatingMsg>,
    ) {
        if Self::phase_of(round) == 1 {
            let q = matchmake(
                rng,
                out,
                |p| DatingMsg::AnswerOffer(Partner::new(p)),
                |p| DatingMsg::AnswerRequest(Partner::new(p)),
            ) as u64;
            node.dates_cycle = q;
            node.dates_mark = Self::cycle_of(round) + 1;
            node.dates_total += q;
        }
    }

    fn msg_bytes(&self, msg: &DatingMsg) -> usize {
        match msg {
            DatingMsg::Payload => PAYLOAD_BYTES,
            _ => ADDRESS_BYTES,
        }
    }

    fn observe_node(&self, node: &DatingNode, id: NodeId, round: u64, obs: &mut RoundObs) {
        obs.lane_add(L_PAYLOADS, node.payloads_received);
        obs.lane_add(L_ANSWERS, node.answers_received);
        // Only tallies written in the current cycle's matchmaking round
        // count — a matchmaker that was down this cycle keeps its stale
        // tally marked with an older cycle, which must not be recounted.
        if node.dates_mark == Self::cycle_of(round) + 1 {
            obs.lane_add(L_DATES, node.dates_cycle);
        }
        let local =
            node.dates_total ^ (node.payloads_received << 20) ^ (node.answers_received << 40);
        let salt = SplitMix64::mix(round ^ 0xDA71);
        obs.digest ^= SplitMix64::mix(local ^ SplitMix64::mix(salt ^ id.index() as u64));
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<DatingRunSummary> {
        if Self::phase_of(round) == 1 {
            let cycle = Self::cycle_of(round) as usize;
            while self.dates_per_cycle.len() <= cycle {
                self.dates_per_cycle.push(0);
            }
            self.dates_per_cycle[cycle] += obs.lane(L_DATES);
        }
        if round + 1 < self.total_rounds() {
            return Verdict::Continue;
        }
        let mut dates_per_cycle = std::mem::take(&mut self.dates_per_cycle);
        dates_per_cycle.resize(self.max_cycles as usize, 0);
        Verdict::Halt(DatingRunSummary {
            dates_per_cycle,
            payloads_received: obs.lane(L_PAYLOADS),
            answers_received: obs.lane(L_ANSWERS),
        })
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        SplitMix64::mix(round ^ 0xDA71) ^ obs.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, SequentialExecutor, ShardedExecutor};
    use crate::report::{RunConfig, RunReport};
    use rendez_core::{analysis, UniformSelector};

    fn report(n: usize, cycles: u64, seed: u64) -> RunReport<DatingRunSummary> {
        let mut proto = RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), cycles);
        let rounds = proto.total_rounds();
        SequentialExecutor.run(&mut proto, n, &RunConfig::seeded(seed).max_rounds(rounds))
    }

    fn run(n: usize, cycles: u64, seed: u64) -> DatingRunSummary {
        report(n, cycles, seed).expect_output()
    }

    /// The matchmaker on per-node `Vec` inboxes: what `matchmake` sends,
    /// as `(dst, msg)` in send order.
    fn matchmake_on_vecs(
        mut offers: Vec<NodeId>,
        mut requests: Vec<NodeId>,
        rng: &mut SmallRng,
    ) -> Vec<(NodeId, DatingMsg)> {
        let q = offers.len().min(requests.len());
        partial_shuffle(&mut offers, q, rng);
        partial_shuffle(&mut requests, q, rng);
        let mut sent = Vec::new();
        for j in 0..q {
            sent.push((
                offers[j],
                DatingMsg::AnswerOffer(Partner::new(Some(requests[j]))),
            ));
            sent.push((
                requests[j],
                DatingMsg::AnswerRequest(Partner::new(Some(offers[j]))),
            ));
        }
        sent.extend(
            offers[q..]
                .iter()
                .map(|&o| (o, DatingMsg::AnswerOffer(Partner::new(None)))),
        );
        sent.extend(
            requests[q..]
                .iter()
                .map(|&r| (r, DatingMsg::AnswerRequest(Partner::new(None)))),
        );
        sent
    }

    #[test]
    fn arena_matchmaking_matches_the_vec_reference() {
        use crate::arena::NodeArena;
        use crate::batch::Lanes;
        use rand::{Rng, SeedableRng};

        const N: usize = 16;
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        // (offers, requests) of matchmaker 3: nothing at all (q = 0), one
        // side empty either way, either side longer, level.
        let cases: [(&[u32], &[u32]); 7] = [
            (&[], &[]),
            (&[1, 2, 9], &[]),
            (&[], &[4]),
            (&[1, 2, 5, 8, 13], &[6, 7]),
            (&[1, 2], &[3, 4, 5, 6, 15]),
            (&[10, 11, 12, 0], &[0, 3, 3, 7]),
            (&[14], &[14]),
        ];
        for (case, (offers, requests)) in cases.into_iter().enumerate() {
            // `relocated`: matchmaker 4 stashes between 3's first entry
            // and the rest, so the arena moves 3's range to the tail.
            for relocated in [false, true] {
                let (mut seq, mut env) = (5u64, Lanes::<DatingMsg>::new(1, N));
                let mut arena = NodeArena::new(0, N);
                arena.begin_round();
                for (lane, entries) in [(STASH_OFFERS, offers), (STASH_REQUESTS, requests)] {
                    for (k, &e) in entries.iter().enumerate() {
                        if relocated && k == 1 {
                            arena.push(NodeId(4), lane, NodeId(2));
                        }
                        arena.push(NodeId(3), lane, NodeId(e));
                    }
                }
                let what = format!("case {case}, relocated: {relocated}");
                let (mut rng, mut ref_rng) = (
                    SmallRng::seed_from_u64(case as u64),
                    SmallRng::seed_from_u64(case as u64),
                );
                let want = matchmake_on_vecs(ids(offers), ids(requests), &mut ref_rng);
                let mut out = Outbox::new(NodeId(3), N, &mut seq, &mut env, &mut arena);
                let q = matchmake(
                    &mut rng,
                    &mut out,
                    |p| DatingMsg::AnswerOffer(Partner::new(p)),
                    |p| DatingMsg::AnswerRequest(Partner::new(p)),
                );
                assert_eq!(q, offers.len().min(requests.len()), "{what}");
                let [lane] = env.batches() else {
                    panic!("one lane")
                };
                let got: Vec<_> = lane.iter().map(|(_, _, dst, &msg)| (dst, msg)).collect();
                assert_eq!(got, want, "{what}");
                assert_eq!(seq, 5 + want.len() as u64, "{what}");
                assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "RNG state, {what}");
            }
        }
    }

    #[test]
    fn every_payload_lands() {
        let r = run(100, 5, 1);
        assert_eq!(r.dates_per_cycle.len(), 5);
        assert_eq!(r.payloads_received, r.total_dates());
    }

    #[test]
    fn every_request_is_answered() {
        let n = 80u64;
        let cycles = 4u64;
        let r = run(n as usize, cycles, 2);
        assert_eq!(r.answers_received, 2 * n * cycles);
    }

    #[test]
    fn date_counts_in_expected_range() {
        let n = 500;
        let r = run(n, 10, 3);
        let m = n as f64;
        for &d in &r.dates_per_cycle {
            assert!(d as f64 > 0.3 * m, "cycle with only {d} dates");
            assert!((d as f64) < m, "cannot exceed centralized optimum");
        }
        let predicted = analysis::expected_dates_uniform(n, n as u64, n as u64);
        let mean = r.total_dates() as f64 / r.dates_per_cycle.len() as f64;
        assert!(
            (mean - predicted).abs() < 0.1 * predicted,
            "mean {mean} vs predicted {predicted}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let (a, b) = (report(60, 3, 9), report(60, 3, 9));
        assert_eq!(a.digests, b.digests);
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats, b.stats);
        assert_ne!(
            a.digests,
            report(60, 3, 10).digests,
            "different seeds should differ"
        );
    }

    #[test]
    fn control_bytes_accounting() {
        let n = 100u64;
        let cycles = 3u64;
        let r = report(n as usize, cycles, 6);
        let payloads = r.output.as_ref().expect("halted").payloads_received;
        // Control = requests (2n per cycle) + answers (2n per cycle), each
        // ADDRESS_BYTES; everything else on the wire is payload.
        let control = r.stats.bytes_sent - payloads * PAYLOAD_BYTES as u64;
        assert_eq!(control, cycles * (2 * n + 2 * n) * ADDRESS_BYTES as u64);
        assert_eq!(r.stats.sent - payloads, cycles * (2 * n + 2 * n));
    }

    #[test]
    fn sharded_run_is_identical() {
        let n = 300;
        let mk = || RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), 6);
        let cfg = RunConfig::seeded(9).max_rounds(mk().total_rounds());
        let mut a = mk();
        let seq = SequentialExecutor.run(&mut a, n, &cfg);
        for shards in [2, 7] {
            let mut b = mk();
            let sh = ShardedExecutor::new(shards).run(&mut b, n, &cfg);
            assert_eq!(seq.digests, sh.digests, "shards={shards}");
            assert_eq!(seq.output, sh.output, "shards={shards}");
            assert_eq!(seq.stats, sh.stats, "shards={shards}");
        }
    }

    #[test]
    fn zero_cycles_is_quiet() {
        let r = report(10, 0, 7);
        assert_eq!(r.stats.sent, 0);
        let r = r.expect_output();
        assert!(r.dates_per_cycle.is_empty());
        assert_eq!(r.payloads_received, 0);
    }

    #[test]
    fn heterogeneous_platform_works() {
        let platform = Platform::power_law(120, 1.0, 3.0, 5);
        let mut proto = RuntimeDating::new(platform, UniformSelector::new(120), 6);
        let rounds = proto.total_rounds();
        let r = SequentialExecutor
            .run(&mut proto, 120, &RunConfig::seeded(4).max_rounds(rounds))
            .expect_output();
        assert_eq!(r.dates_per_cycle.len(), 6);
        assert!(r.total_dates() > 0);
        assert_eq!(r.payloads_received, r.total_dates());
    }
}
