//! Algorithm 1 — the dating service as a real message-passing protocol.
//!
//! The oracle form in [`crate::service`] samples the algorithm's random
//! process centrally; this module runs the *actual distributed protocol*
//! on the [`rendez_sim`] engine, exchanging explicit messages:
//!
//! ```text
//! cycle = 3 engine rounds
//! phase 0: every node sends bout(i) Offer and bin(i) Request messages
//!          to selector-chosen nodes
//! phase 1: matchmakers collect their inboxes; at round end each keeps a
//!          uniform random min(s, r) of each side, matches them uniformly,
//!          and answers every request (partner address or NoDate)
//! phase 2: matched senders receive their partner's address and ship the
//!          unit payload, which lands at phase 0 of the next cycle
//! ```
//!
//! # Wire format
//!
//! A [`DatingMsg`] is one 8-byte word (pinned at compile time): the
//! variant tag plus, in the two answers, a [`Partner`] — the partner's
//! address in four bytes, `u32::MAX` standing for "no date". No node
//! carries that id: the runtime's `MAX_NODES` is `u32::MAX − 1`, which
//! keeps it free for this encoding as well as for the event executor's
//! nil link. The runtime's dating adapters send the same type (and
//! `DatingSpreadMsg` the same partner field), so there is one encoding.
//!
//! The integration test `oracle_vs_distributed` checks the two forms
//! produce statistically identical date counts; the tests here check
//! protocol-level invariants (every request answered, payloads = dates,
//! capacity respected per cycle).

use crate::bandwidth::Platform;
use crate::matching::partial_shuffle;
use crate::overhead::ADDRESS_BYTES;
use crate::selector::NodeSelector;
use crate::service::Date;
use rendez_sim::{Ctx, Engine, EngineConfig, NodeId, Partner, Protocol};

/// Payload wire size used by the distributed form (unit message).
pub const PAYLOAD_BYTES: usize = 1024;

/// Messages of the distributed dating protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatingMsg {
    /// "Request for sending": the origin offers one outgoing unit.
    Offer,
    /// "Request for receiving": the origin wants one incoming unit.
    Request,
    /// Answer to an offer: the partner to send to, or none for no date.
    AnswerOffer(Partner),
    /// Answer to a request: the partner that will send, or none.
    AnswerRequest(Partner),
    /// The unit-size payload travelling on an arranged date.
    Payload,
}

const _: () = assert!(std::mem::size_of::<DatingMsg>() == 8);

/// Protocol state for all nodes (single-owner, per the engine's design).
pub struct DistributedDating<S: NodeSelector> {
    platform: Platform,
    selector: S,
    max_cycles: u64,
    offers_inbox: Vec<Vec<NodeId>>,
    requests_inbox: Vec<Vec<NodeId>>,
    /// Dates arranged by matchmakers, grouped by cycle.
    per_cycle_dates: Vec<Vec<Date>>,
    /// Payload messages that completed delivery.
    payloads_received: u64,
    /// Answers delivered to originators (both kinds, matched or not).
    answers_received: u64,
}

impl<S: NodeSelector> DistributedDating<S> {
    /// Create the protocol for `max_cycles` dating cycles.
    ///
    /// # Panics
    /// Panics if the selector universe differs from the platform size.
    pub fn new(platform: Platform, selector: S, max_cycles: u64) -> Self {
        assert_eq!(
            platform.n(),
            selector.n(),
            "selector universe must match platform size"
        );
        let n = platform.n();
        Self {
            platform,
            selector,
            max_cycles,
            offers_inbox: vec![Vec::new(); n],
            requests_inbox: vec![Vec::new(); n],
            per_cycle_dates: Vec::new(),
            payloads_received: 0,
            answers_received: 0,
        }
    }

    /// Dates arranged in each completed cycle.
    pub fn per_cycle_dates(&self) -> &[Vec<Date>] {
        &self.per_cycle_dates
    }

    /// Total dates arranged across all cycles.
    pub fn total_dates(&self) -> u64 {
        self.per_cycle_dates.iter().map(|c| c.len() as u64).sum()
    }

    /// Total payload messages delivered.
    pub fn payloads_received(&self) -> u64 {
        self.payloads_received
    }

    /// Total answers delivered to originators.
    pub fn answers_received(&self) -> u64 {
        self.answers_received
    }

    fn cycle_of(round: u64) -> u64 {
        round / 3
    }

    fn phase_of(round: u64) -> u64 {
        round % 3
    }
}

impl<S: NodeSelector> Protocol for DistributedDating<S> {
    type Msg = DatingMsg;

    fn on_round_start(&mut self, node: NodeId, ctx: &mut Ctx<'_, DatingMsg>) {
        if Self::phase_of(ctx.round()) != 0 || Self::cycle_of(ctx.round()) >= self.max_cycles {
            return;
        }
        let caps = self.platform.caps(node);
        for _ in 0..caps.bw_out {
            let dst = self.selector.select(ctx.rng());
            ctx.send(dst, DatingMsg::Offer);
        }
        for _ in 0..caps.bw_in {
            let dst = self.selector.select(ctx.rng());
            ctx.send(dst, DatingMsg::Request);
        }
    }

    fn on_message(
        &mut self,
        node: NodeId,
        from: NodeId,
        msg: DatingMsg,
        ctx: &mut Ctx<'_, DatingMsg>,
    ) {
        match msg {
            DatingMsg::Offer => self.offers_inbox[node.index()].push(from),
            DatingMsg::Request => self.requests_inbox[node.index()].push(from),
            DatingMsg::AnswerOffer(partner) => {
                self.answers_received += 1;
                if let Some(p) = partner.get() {
                    // The sender ships the unit payload directly.
                    ctx.send(p, DatingMsg::Payload);
                }
            }
            DatingMsg::AnswerRequest(_) => {
                self.answers_received += 1;
            }
            DatingMsg::Payload => {
                self.payloads_received += 1;
            }
        }
    }

    fn on_round_end(&mut self, node: NodeId, ctx: &mut Ctx<'_, DatingMsg>) {
        if Self::phase_of(ctx.round()) != 1 {
            return;
        }
        let cycle = Self::cycle_of(ctx.round()) as usize;
        while self.per_cycle_dates.len() <= cycle {
            self.per_cycle_dates.push(Vec::new());
        }
        let vi = node.index();
        // Move the inboxes out to satisfy the borrow checker; they are
        // re-cleared below, so steady state does not reallocate much.
        let mut offers = std::mem::take(&mut self.offers_inbox[vi]);
        let mut requests = std::mem::take(&mut self.requests_inbox[vi]);
        let q = offers.len().min(requests.len());
        // Uniform q-subsets in uniform order → positional pairing is a
        // uniform random perfect matching (same as the oracle form).
        partial_shuffle(&mut offers, q, ctx.rng());
        partial_shuffle(&mut requests, q, ctx.rng());
        for j in 0..q {
            self.per_cycle_dates[cycle].push(Date {
                sender: offers[j],
                receiver: requests[j],
                matchmaker: node,
            });
            ctx.send(
                offers[j],
                DatingMsg::AnswerOffer(Partner::new(Some(requests[j]))),
            );
            ctx.send(
                requests[j],
                DatingMsg::AnswerRequest(Partner::new(Some(offers[j]))),
            );
        }
        // Algorithm 1: every unmatched originator is told "not possible".
        for &o in &offers[q..] {
            ctx.send(o, DatingMsg::AnswerOffer(Partner::new(None)));
        }
        for &r in &requests[q..] {
            ctx.send(r, DatingMsg::AnswerRequest(Partner::new(None)));
        }
        offers.clear();
        requests.clear();
        self.offers_inbox[vi] = offers;
        self.requests_inbox[vi] = requests;
    }

    fn msg_bytes(msg: &DatingMsg) -> usize {
        match msg {
            DatingMsg::Payload => PAYLOAD_BYTES,
            _ => ADDRESS_BYTES,
        }
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRunResult {
    /// Dates arranged per cycle.
    pub dates_per_cycle: Vec<u64>,
    /// All dates arranged, grouped by cycle.
    pub per_cycle_dates: Vec<Vec<Date>>,
    /// Payload messages delivered end-to-end.
    pub payloads_received: u64,
    /// Answers delivered to originators.
    pub answers_received: u64,
    /// Control bytes on the wire (everything except payloads).
    pub control_bytes: u64,
    /// Total messages sent.
    pub messages_sent: u64,
}

/// Run the distributed protocol for `cycles` full dating cycles and
/// collect the outcome. Deterministic in `(platform, selector, seed)`.
pub fn run_distributed<S: NodeSelector>(
    platform: Platform,
    selector: S,
    cycles: u64,
    seed: u64,
) -> DistributedRunResult {
    let n = platform.n();
    let protocol = DistributedDating::new(platform, selector, cycles);
    let mut engine = Engine::new(n, protocol, EngineConfig::seeded(seed));
    // 3 rounds per cycle plus one to land the final cycle's payloads.
    engine.run_rounds(3 * cycles + 1);
    let payload_bytes_total = engine.protocol().payloads_received * PAYLOAD_BYTES as u64;
    let control_bytes = engine.metrics().bytes_sent - payload_bytes_total;
    let messages_sent = engine.metrics().sent;
    let p = engine.into_protocol();
    DistributedRunResult {
        dates_per_cycle: p.per_cycle_dates.iter().map(|c| c.len() as u64).collect(),
        payloads_received: p.payloads_received,
        answers_received: p.answers_received,
        per_cycle_dates: p.per_cycle_dates,
        control_bytes,
        messages_sent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::capacity::verify_dates;
    use crate::selector::UniformSelector;

    fn run(n: usize, cycles: u64, seed: u64) -> DistributedRunResult {
        run_distributed(Platform::unit(n), UniformSelector::new(n), cycles, seed)
    }

    #[test]
    fn every_payload_lands() {
        let r = run(100, 5, 1);
        assert_eq!(r.dates_per_cycle.len(), 5);
        let total: u64 = r.dates_per_cycle.iter().sum();
        assert_eq!(r.payloads_received, total, "payloads must equal dates");
    }

    #[test]
    fn every_request_is_answered() {
        let n = 80u64;
        let cycles = 4u64;
        let r = run(n as usize, cycles, 2);
        // Unit platform: 2n requests per cycle, each answered exactly once.
        assert_eq!(r.answers_received, 2 * n * cycles);
    }

    #[test]
    fn date_counts_in_expected_range() {
        let n = 500;
        let r = run(n, 10, 3);
        let m = n as f64;
        let predicted = analysis::expected_dates_uniform(n, n as u64, n as u64);
        for &d in &r.dates_per_cycle {
            assert!(d as f64 > analysis::BETA_PROVEN * m, "cycle with {d} dates");
            assert!((d as f64) < m, "cannot exceed centralized optimum");
        }
        let mean = r.dates_per_cycle.iter().sum::<u64>() as f64 / r.dates_per_cycle.len() as f64;
        assert!(
            (mean - predicted).abs() < 0.1 * predicted,
            "mean {mean} vs predicted {predicted}"
        );
    }

    #[test]
    fn capacity_respected_every_cycle() {
        let platform = Platform::power_law(120, 1.0, 3.0, 5);
        let r = run_distributed(platform.clone(), UniformSelector::new(120), 6, 4);
        for dates in &r.per_cycle_dates {
            verify_dates(&platform, dates).expect("capacity violated");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run(60, 3, 9);
        let b = run(60, 3, 9);
        assert_eq!(a.dates_per_cycle, b.dates_per_cycle);
        assert_eq!(a.messages_sent, b.messages_sent);
        let c = run(60, 3, 10);
        assert_ne!(
            a.per_cycle_dates, c.per_cycle_dates,
            "different seeds should differ"
        );
    }

    #[test]
    fn control_bytes_accounting() {
        let n = 100u64;
        let cycles = 3u64;
        let r = run(n as usize, cycles, 6);
        // Control = requests (2n per cycle) + answers (2n per cycle), each
        // ADDRESS_BYTES.
        let expected = cycles * (2 * n + 2 * n) * ADDRESS_BYTES as u64;
        assert_eq!(r.control_bytes, expected);
    }

    #[test]
    fn zero_cycles_is_quiet() {
        let r = run(10, 0, 7);
        assert!(r.dates_per_cycle.is_empty());
        assert_eq!(r.messages_sent, 0);
    }
}
