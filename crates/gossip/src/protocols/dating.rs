//! Rumor spreading via the dating service — the paper's protocol.
//!
//! §3: "The rumor spreading scheme is given by the dating service
//! algorithm. Namely it is the last step of the algorithm." Every round
//! the service arranges dates; a date whose sender is informed (at round
//! start) informs its receiver. Nodes never adapt their offers/requests to
//! their rumor state (§1), so the protocol below simply runs a dating
//! round per spreading round — heterogeneous bandwidths are exploited
//! automatically because a node with `bout = b` is the sender of up to
//! `b` dates per round.
//!
//! The same obliviousness makes the design fault tolerant: a lost payload
//! costs exactly one date and nothing else — no retransmission state, no
//! stalled handshake. [`DatingSpread::with_loss`] drops each
//! rumor-carrying payload independently with probability `loss`.

use super::{InformBuffer, SpreadProtocol, SpreadState};
use crate::service::{DatingService, RoundWorkspace};
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_core::NodeSelector;

/// The dating-service spreading protocol, parameterized by the shared
/// request-target distribution (uniform in Figure 2; DHT-based in §4),
/// with optional i.i.d. payload loss.
pub struct DatingSpread<'a, S: NodeSelector + ?Sized> {
    selector: &'a S,
    loss: f64,
    ws: RoundWorkspace,
    buf: InformBuffer,
    /// Rumor-carrying payloads dropped so far (always 0 without loss).
    pub dropped: u64,
}

impl<'a, S: NodeSelector + ?Sized> DatingSpread<'a, S> {
    /// Spread over dates arranged with `selector`.
    pub fn new(selector: &'a S) -> Self {
        Self::with_loss(selector, 0.0)
    }

    /// Spread over dates arranged with `selector`, losing each
    /// rumor-carrying payload with probability `loss`. At `loss = 0` no
    /// loss is drawn, so the run is [`new`](Self::new)'s draw for draw.
    ///
    /// # Panics
    /// Panics unless `0 ≤ loss < 1`.
    pub fn with_loss(selector: &'a S, loss: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0,1), got {loss}"
        );
        Self {
            selector,
            loss,
            ws: RoundWorkspace::default(),
            buf: InformBuffer::default(),
            dropped: 0,
        }
    }
}

impl<'a, S: NodeSelector + ?Sized> SpreadProtocol for DatingSpread<'a, S> {
    fn step(&mut self, st: &mut SpreadState<'_>, rng: &mut SmallRng) -> u64 {
        let svc = DatingService::new(st.platform, self.selector);
        let out = svc.run_round_with(&mut self.ws, rng);
        let mut delivered = 0u64;
        for d in &out.dates {
            // Round-start semantics: informs are buffered, so `contains`
            // still reflects the state when the round began.
            if !st.informed.contains(d.sender) {
                continue;
            }
            if self.loss > 0.0 && rng.gen::<f64>() < self.loss {
                self.dropped += 1;
                continue;
            }
            self.buf.push(d.receiver.0);
            delivered += 1;
        }
        self.buf.apply(st);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spread::run_spread;
    use rand::SeedableRng;
    use rendez_core::{Platform, UniformSelector};
    use rendez_sim::NodeId;

    #[test]
    fn completes_on_unit_platform() {
        let n = 512;
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut st = SpreadState::new(&platform, NodeId(0));
        let mut p = DatingSpread::new(&selector);
        let mut rounds = 0u64;
        while !st.complete() {
            p.step(&mut st, &mut rng);
            rounds += 1;
            assert!(rounds < 1000, "dating spread did not complete");
        }
        // O(log n) with a constant larger than push/pull; generous cap.
        assert!(rounds < 120, "took {rounds} rounds");
    }

    #[test]
    fn growth_bounded_by_informed_bandwidth() {
        // New informs per round ≤ dates with informed senders ≤ I_t.
        let n = 1000;
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut st = SpreadState::new(&platform, NodeId(0));
        let mut p = DatingSpread::new(&selector);
        for _ in 0..50 {
            let it = st.informed.informed_out_bw();
            let before = st.informed.count();
            let informative = p.step(&mut st, &mut rng);
            let gained = (st.informed.count() - before) as u64;
            assert!(informative <= it);
            assert!(gained <= informative);
            if st.complete() {
                break;
            }
        }
    }

    #[test]
    fn fast_source_speeds_first_rounds() {
        // A high-bandwidth source can inform up to bout(source) nodes in
        // one round — the mechanism behind Theorem 10.
        let platform = Platform::bimodal(100, 0.05, 1, 20);
        let selector = UniformSelector::new(100);
        let mut counts = Vec::new();
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut st = SpreadState::new(&platform, NodeId(0)); // fast node
            let mut p = DatingSpread::new(&selector);
            p.step(&mut st, &mut rng);
            counts.push(st.informed.count());
        }
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            mean > 2.0,
            "fast source should inform several nodes round one, got {mean}"
        );
    }

    #[test]
    fn uninformed_dates_carry_nothing() {
        let n = 50;
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut st = SpreadState::new(&platform, NodeId(0));
        let mut p = DatingSpread::new(&selector);
        let informative = p.step(&mut st, &mut rng);
        // Only the source's dates can inform in round one.
        assert!(informative <= 1);
    }

    fn rounds_at_loss(n: usize, loss: f64, trials: u64) -> f64 {
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let mut total = 0u64;
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(1000 + t);
            let mut p = DatingSpread::with_loss(&selector, loss);
            let r = run_spread(&mut p, &platform, NodeId(0), &mut rng, 100_000);
            assert!(r.completed, "loss={loss} trial {t} never completed");
            total += r.rounds;
        }
        total as f64 / trials as f64
    }

    #[test]
    fn spreading_survives_heavy_loss() {
        // Even at 50% payload loss the process completes — it just needs
        // more rounds (each link's per-round success probability halves).
        let clean = rounds_at_loss(512, 0.0, 10);
        let lossy = rounds_at_loss(512, 0.5, 10);
        assert!(lossy > clean, "loss should slow spreading");
        assert!(
            lossy < 4.0 * clean + 20.0,
            "50% loss should roughly double rounds, not explode: {clean} → {lossy}"
        );
    }

    #[test]
    fn rounds_increase_monotonically_with_loss() {
        let r0 = rounds_at_loss(256, 0.0, 15);
        let r1 = rounds_at_loss(256, 0.3, 15);
        let r2 = rounds_at_loss(256, 0.7, 15);
        assert!(r0 < r1 + 2.0);
        assert!(r1 < r2);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn certain_loss_rejected() {
        let sel = UniformSelector::new(4);
        let _ = DatingSpread::with_loss(&sel, 1.0);
    }
}
