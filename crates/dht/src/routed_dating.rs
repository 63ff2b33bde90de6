//! Dating over *routed* requests: the §4 deployment, message by message.
//!
//! On a real DHT a request is not delivered in one step — it travels
//! `Θ(log n)` overlay hops. [`RoutedDating`] runs the dating service as a
//! runtime protocol ([`RoundProtocol`]) with every request routed
//! hop-by-hop along Chord fingers, in two modes:
//!
//! * **sequential** — a node issues its next cycle's requests only after
//!   the previous cycle's answers arrive: each cycle costs a full
//!   round-trip, `Θ(log n)` rounds;
//! * **pipelined** — the paper's fix: "send requests for dates in each
//!   round even before receiving the answers for the previous one", so
//!   after a warm-up of one round-trip, one cycle's worth of dates
//!   completes *every* round.
//!
//! The measured makespans validate the closed forms in
//! `rendez_core::pipeline` on live message traffic.
//!
//! Routing state is per node — its issue cursor, the answers it awaits,
//! its matchmaker inboxes, its date tally and hop counter — and the ring
//! is shared read-only, so any executor runs the protocol, sharded runs
//! reproducing sequential ones bit for bit. The run's measurements are
//! folded from the round observations ([`RoutedDatingSummary`]).
//!
//! lint: deterministic

use crate::chord::ChordNet;
use crate::ring::Ring;
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_core::distributed::PAYLOAD_BYTES;
use rendez_core::matching::partial_shuffle;
use rendez_core::overhead::ADDRESS_BYTES;
use rendez_core::Platform;
use rendez_runtime::{
    Executor, Outbox, RoundObs, RoundProtocol, RunConfig, SequentialExecutor, Verdict,
};
use rendez_sim::{NodeId, SplitMix64};

/// [`RoundObs`] lane: overlay hops taken so far, summed over nodes.
const L_HOPS: usize = 0;
/// [`RoundObs`] lanes `L_DATES + c`: dates of cycle `c` so far, summed
/// over the offers' originators.
const L_DATES: usize = 1;

/// Messages of the routed dating protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutedMsg {
    /// An offer or request being routed to the matchmaker that owns `key`.
    Routed {
        /// Dating cycle this request belongs to.
        cycle: u32,
        /// The originator.
        origin: NodeId,
        /// Target key (the matchmaker is its owner).
        key: u64,
        /// Offer (`true`) or request (`false`).
        is_offer: bool,
    },
    /// Matchmaker answer back to an offer's originator (direct, one hop,
    /// as originators learn addresses — the paper's model).
    Answer {
        /// Dating cycle.
        cycle: u32,
        /// Matched partner to send the payload to, if any.
        partner: Option<NodeId>,
    },
    /// The unit payload on an arranged date (direct).
    Payload,
}

/// Routing mode under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueMode {
    /// New cycle only after the previous cycle's answers returned.
    Sequential,
    /// New cycle issued every round (the paper's pipelining).
    Pipelined,
}

/// The routed protocol: ring, platform and schedule, shared by every
/// node, plus the measurements folded from each round's observation.
pub struct RoutedDating {
    chord: ChordNet,
    platform: Platform,
    mode: IssueMode,
    total_cycles: u32,
    summary: RoutedDatingSummary,
}

/// One node's routed-dating state.
#[derive(Debug)]
pub struct RoutedNode {
    /// Next cycle this node will issue.
    next_cycle: u32,
    /// Outstanding answers to its offers (sequential mode gating).
    awaiting: u32,
    /// Matchmaker inboxes: `(cycle, origin)` per kind, drained each round.
    offers: Vec<(u32, NodeId)>,
    requests: Vec<(u32, NodeId)>,
    /// Per cycle, the answers to this node's offers that named a partner.
    dates: Vec<u32>,
    /// Overlay hops this node forwarded requests over.
    hops: u64,
}

/// What a routed dating run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedDatingSummary {
    /// Round at which each cycle's first payload arrived.
    pub cycle_payload_round: Vec<Option<u64>>,
    /// Dates arranged per cycle.
    pub dates_per_cycle: Vec<u64>,
    /// Total overlay hops traversed by all routed requests.
    pub total_hops: u64,
}

impl RoutedDatingSummary {
    /// Round by which every cycle had produced payloads (`None` if some
    /// cycle never completed).
    pub fn makespan(&self) -> Option<u64> {
        let latest = |m: u64, r: &Option<u64>| r.map(|r| m.max(r));
        self.cycle_payload_round.iter().try_fold(0, latest)
    }
}

impl RoutedDating {
    /// Build over a Chord network; `platform` ids must match ring ids.
    pub fn new(chord: ChordNet, platform: Platform, mode: IssueMode, total_cycles: u32) -> Self {
        assert_eq!(chord.n(), platform.n(), "ring/platform size mismatch");
        Self {
            chord,
            platform,
            mode,
            total_cycles,
            summary: RoutedDatingSummary {
                cycle_payload_round: vec![None; total_cycles as usize],
                dates_per_cycle: vec![0; total_cycles as usize],
                total_hops: 0,
            },
        }
    }

    /// Advance a routed request one step: enqueue it if `me` owns its
    /// key, otherwise forward it one greedy Chord hop (closest preceding
    /// finger, successor fallback — `ChordNet::route`'s rule).
    fn forward(
        &self,
        node: &mut RoutedNode,
        me: NodeId,
        msg: RoutedMsg,
        out: &mut Outbox<'_, RoutedMsg>,
    ) {
        let RoutedMsg::Routed {
            cycle,
            origin,
            key,
            is_offer,
        } = msg
        else {
            return;
        };
        if self.chord.ring().owner(key) == me {
            let inbox = if is_offer {
                &mut node.offers
            } else {
                &mut node.requests
            };
            inbox.push((cycle, origin));
        } else {
            node.hops += 1;
            out.send(self.chord.closest_preceding(me, key), msg);
        }
    }
}

/// Split the leading entries of `cycle` off a cycle-sorted inbox.
fn take_cycle<'a>(inbox: &mut &'a mut [(u32, NodeId)], cycle: u32) -> &'a mut [(u32, NodeId)] {
    let k = inbox.iter().take_while(|&&(c, _)| c == cycle).count();
    let (head, tail) = std::mem::take(inbox).split_at_mut(k);
    *inbox = tail;
    head
}

impl RoundProtocol for RoutedDating {
    type Node = RoutedNode;
    type Msg = RoutedMsg;
    type Output = RoutedDatingSummary;

    fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> RoutedNode {
        RoutedNode {
            next_cycle: 0,
            awaiting: 0,
            offers: Vec::new(),
            requests: Vec::new(),
            dates: vec![0; self.total_cycles as usize],
            hops: 0,
        }
    }

    fn on_round_start(
        &self,
        node: &mut RoutedNode,
        id: NodeId,
        _round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, RoutedMsg>,
    ) {
        let cycle = node.next_cycle;
        if cycle >= self.total_cycles || (self.mode == IssueMode::Sequential && node.awaiting > 0) {
            return;
        }
        let caps = self.platform.caps(id);
        for (count, is_offer) in [(caps.bw_out, true), (caps.bw_in, false)] {
            for _ in 0..count {
                let msg = RoutedMsg::Routed {
                    cycle,
                    origin: id,
                    key: rng.gen::<u64>(),
                    is_offer,
                };
                // Inject locally: if we own the key we are our own matchmaker.
                self.forward(node, id, msg, out);
            }
        }
        node.awaiting += caps.bw_out; // offers get answers
        node.next_cycle = cycle + 1;
    }

    fn on_message(
        &self,
        node: &mut RoutedNode,
        id: NodeId,
        _from: NodeId,
        msg: RoutedMsg,
        _round: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, RoutedMsg>,
    ) {
        match msg {
            RoutedMsg::Routed { .. } => self.forward(node, id, msg, out),
            RoutedMsg::Answer { cycle, partner } => {
                node.awaiting = node.awaiting.saturating_sub(1);
                if let Some(p) = partner {
                    out.send(p, RoutedMsg::Payload);
                    node.dates[cycle as usize] += 1;
                }
            }
            RoutedMsg::Payload => {}
        }
    }

    /// Matchmake everything that arrived this round, one cycle at a time
    /// in ascending order (requests of different cycles are never
    /// matched), answering every offer.
    fn on_round_end(
        &self,
        node: &mut RoutedNode,
        _id: NodeId,
        _round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, RoutedMsg>,
    ) {
        node.offers.sort_unstable_by_key(|&(c, _)| c);
        node.requests.sort_unstable_by_key(|&(c, _)| c);
        let (mut os, mut rs) = (&mut node.offers[..], &mut node.requests[..]);
        while let Some(&(cycle, _)) = [os.first(), rs.first()].into_iter().flatten().min() {
            let (o, r) = (take_cycle(&mut os, cycle), take_cycle(&mut rs, cycle));
            let q = o.len().min(r.len());
            partial_shuffle(o, q, rng);
            partial_shuffle(r, q, rng);
            for (j, &(_, origin)) in o.iter().enumerate() {
                let partner = (j < q).then(|| r[j].1);
                out.send(origin, RoutedMsg::Answer { cycle, partner });
            }
            // Unmatched requests receive no answer in this simplified
            // accounting (only offers gate the sequential mode).
        }
        node.offers.clear();
        node.requests.clear();
    }

    fn msg_bytes(&self, msg: &RoutedMsg) -> usize {
        match msg {
            RoutedMsg::Payload => PAYLOAD_BYTES,
            _ => ADDRESS_BYTES + 8,
        }
    }

    fn observe_node(&self, node: &RoutedNode, id: NodeId, round: u64, obs: &mut RoundObs) {
        obs.count += u64::from(node.next_cycle >= self.total_cycles);
        obs.lane_add(L_HOPS, node.hops);
        let mut dates = 0u64;
        for (cycle, &d) in node.dates.iter().enumerate() {
            if d > 0 {
                obs.lane_add(L_DATES + cycle, u64::from(d));
                dates += u64::from(d);
            }
        }
        // The inboxes are empty here: round end drained them.
        let local = u64::from(node.next_cycle)
            ^ u64::from(node.awaiting) << 16
            ^ dates << 40
            ^ node.hops.rotate_left(52);
        let salt = SplitMix64::mix(round ^ 0xD47E);
        obs.digest ^= SplitMix64::mix(local ^ SplitMix64::mix(salt ^ id.index() as u64));
    }

    /// Fold the round into the summary: per-cycle date totals and hops
    /// from the lanes, and a cycle's first-payload round the first time
    /// its tally is non-zero (an answer naming a partner in round `t`
    /// ships a payload that lands in `t + 1`). Halts once every node has
    /// issued every cycle and every cycle has a payload.
    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<RoutedDatingSummary> {
        let s = &mut self.summary;
        s.total_hops = obs.lane(L_HOPS);
        let cycles = s.dates_per_cycle.iter_mut().zip(&mut s.cycle_payload_round);
        for (c, (dates, first)) in cycles.enumerate() {
            *dates = obs.lane(L_DATES + c);
            if *dates > 0 && first.is_none() {
                *first = Some(round + 1);
            }
        }
        if obs.count == self.chord.n() as u64 && s.makespan().is_some() {
            Verdict::Halt(s.clone())
        } else {
            Verdict::Continue
        }
    }
}

/// Run `cycles` routed dating cycles over a fresh random ring of `n`
/// nodes, sequentially, for at most `max_rounds` rounds. A run that
/// exhausts `max_rounds` first reports the tally so far, with
/// `makespan() == None` unless every cycle had landed a payload.
pub fn run_routed_dating(
    n: usize,
    cycles: u32,
    mode: IssueMode,
    seed: u64,
    max_rounds: u64,
) -> RoutedDatingSummary {
    let chord = ChordNet::build(Ring::random(n, seed));
    let mut proto = RoutedDating::new(chord, Platform::unit(n), mode, cycles);
    let cfg = RunConfig::seeded(seed ^ 0xA11C).max_rounds(max_rounds);
    SequentialExecutor.run(&mut proto, n, &cfg);
    proto.summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_runtime::ShardedExecutor;

    #[test]
    fn pipelined_beats_sequential_makespan() {
        let n = 128;
        let cycles = 30;
        let pip = run_routed_dating(n, cycles, IssueMode::Pipelined, 1, 5_000);
        let seq = run_routed_dating(n, cycles, IssueMode::Sequential, 1, 50_000);
        let mp = pip.makespan().expect("pipelined completed");
        let ms = seq.makespan().expect("sequential completed");
        assert!(
            mp * 2 < ms,
            "pipelining should at least halve the makespan: {mp} vs {ms}"
        );
    }

    #[test]
    fn pipelined_makespan_is_warmup_plus_cycles() {
        let n = 256;
        let cycles = 50u32;
        let pip = run_routed_dating(n, cycles, IssueMode::Pipelined, 2, 5_000);
        let mp = pip.makespan().expect("completed");
        // Θ(log n + k): warm-up ≈ mean hops + 2, then ~1 cycle per round.
        let log2n = (n as f64).log2();
        assert!(
            (mp as f64) < 4.0 * log2n + cycles as f64 + 20.0,
            "makespan {mp} too large for log n + k shape"
        );
        assert!(mp as u32 >= cycles, "cannot finish k cycles in < k rounds");
    }

    #[test]
    fn dates_are_arranged_every_cycle() {
        let n = 100;
        let cycles = 10;
        let p = run_routed_dating(n, cycles, IssueMode::Pipelined, 3, 5_000);
        for (c, &d) in p.dates_per_cycle.iter().enumerate() {
            assert!(d > 0, "cycle {c} arranged no dates");
            assert!(d <= n as u64);
        }
    }

    #[test]
    fn routed_requests_pay_logarithmic_hops() {
        let n = 512;
        let cycles = 5;
        let p = run_routed_dating(n, cycles, IssueMode::Pipelined, 4, 5_000);
        let requests = (2 * n as u64) * cycles as u64;
        let mean_hops = p.total_hops as f64 / requests as f64;
        let log2n = (n as f64).log2();
        assert!(
            mean_hops > 1.0 && mean_hops < log2n + 2.0,
            "mean hops {mean_hops} vs log2 n {log2n}"
        );
    }

    #[test]
    fn sequential_issues_one_cycle_per_round_trip() {
        let n = 64;
        let cycles = 8;
        let seq = run_routed_dating(n, cycles, IssueMode::Sequential, 5, 50_000);
        let ms = seq.makespan().expect("completed");
        // Each cycle costs at least 3 rounds (route ≥1, answer, payload).
        assert!(ms >= 3 * cycles as u64 - 3, "makespan {ms} too small");
    }

    #[test]
    fn out_of_rounds_reports_no_makespan() {
        let short = run_routed_dating(128, 30, IssueMode::Sequential, 1, 20);
        assert_eq!(short.makespan(), None);
        assert!(short.dates_per_cycle[0] > 0 && short.total_hops > 0);
    }

    #[test]
    fn sharded_runs_are_identical() {
        let n = 128;
        for mode in [IssueMode::Sequential, IssueMode::Pipelined] {
            let mk = || {
                let chord = ChordNet::build(Ring::random(n, 6));
                RoutedDating::new(chord, Platform::unit(n), mode, 12)
            };
            let cfg = RunConfig::seeded(7).max_rounds(5_000);
            let seq = SequentialExecutor.run(&mut mk(), n, &cfg);
            assert!(seq.completed, "{mode:?}");
            for shards in [2, 3, 5] {
                let sh = ShardedExecutor::new(shards).run(&mut mk(), n, &cfg);
                let what = format!("{mode:?} shards={shards}");
                assert_eq!(seq.digests, sh.digests, "{what}");
                assert_eq!(seq.output, sh.output, "{what}");
                assert_eq!(seq.stats, sh.stats, "{what}");
            }
        }
    }
}
