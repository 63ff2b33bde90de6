//! Rumor mongering over the dating service: coded vs uncoded.
//!
//! A `k`-block message spreads over dating-service dates, one symbol per
//! date (§5: "the message is split into smaller parts and is sent in a
//! pipelined fashion through the network"). Two transfer modes:
//!
//! * [`TransferMode::Uncoded`] — a sender forwards a uniformly chosen
//!   block it holds; receivers suffer the coupon-collector tail (the last
//!   missing blocks take `Θ(log k)` extra useful receptions);
//! * [`TransferMode::Coded`] — RLNC: a sender forwards a random linear
//!   recombination of its subspace; w.h.p. every reception at a
//!   non-complete node is innovative, removing the tail — the \[DMC06\]
//!   effect the paper cites.

use crate::decoder::Decoder;
use crate::encoder::{recombine, Encoder};
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_core::{NodeSelector, Platform};
use rendez_gossip::{DatingService, RoundWorkspace};
use rendez_sim::NodeId;

/// How a sender fills a date's unit message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferMode {
    /// Forward a uniformly chosen held block.
    Uncoded,
    /// Forward a random linear recombination (RLNC).
    Coded,
    /// Systematic RLNC: the **source** first cycles through its `k`
    /// blocks uncoded (cheap decode for early receivers), then switches
    /// to random recombinations; relays always re-encode.
    Systematic,
}

/// Mongering experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct MongeringConfig {
    /// Number of message blocks `k`.
    pub k: usize,
    /// Block payload size in bytes (simulation-scale; shape-invariant).
    pub block_len: usize,
    /// Round cap.
    pub max_rounds: u64,
}

impl Default for MongeringConfig {
    fn default() -> Self {
        Self {
            k: 16,
            block_len: 32,
            max_rounds: 10_000,
        }
    }
}

/// Result of one mongering run.
#[derive(Debug, Clone)]
pub struct MongeringResult {
    /// Rounds until every node could reconstruct the message (cap if not).
    pub rounds: u64,
    /// Whether every node completed.
    pub completed: bool,
    /// Complete-node counts; entry `t` is after `t` rounds.
    pub completion_history: Vec<u64>,
    /// Symbols transmitted on dates.
    pub symbols_sent: u64,
    /// Symbols that increased the receiver's knowledge.
    pub innovative: u64,
    /// Whether all sampled completed nodes reconstructed the exact
    /// original message.
    pub decoded_ok: bool,
}

impl MongeringResult {
    /// Fraction of transmissions that were innovative.
    pub fn efficiency(&self) -> f64 {
        if self.symbols_sent == 0 {
            return 0.0;
        }
        self.innovative as f64 / self.symbols_sent as f64
    }
}

/// Per-node state for the uncoded baseline.
#[derive(Debug, Clone)]
struct BlockSet {
    held: Vec<u16>,
    have: Vec<bool>,
}

impl BlockSet {
    fn new(k: usize) -> Self {
        Self {
            held: Vec::new(),
            have: vec![false; k],
        }
    }

    fn add(&mut self, b: u16) -> bool {
        if self.have[b as usize] {
            return false;
        }
        self.have[b as usize] = true;
        self.held.push(b);
        true
    }

    fn complete(&self, k: usize) -> bool {
        self.held.len() == k
    }
}

/// Run the mongering protocol. The message content is generated from
/// `rng`; determinism therefore follows from the caller's seed.
pub fn run_mongering<S: NodeSelector + ?Sized>(
    platform: &Platform,
    selector: &S,
    source: NodeId,
    mode: TransferMode,
    config: MongeringConfig,
    rng: &mut SmallRng,
) -> MongeringResult {
    let n = platform.n();
    let k = config.k;
    let message: Vec<u8> = (0..k * config.block_len).map(|_| rng.gen()).collect();
    let encoder = Encoder::from_message(&message, k);
    let block_len = encoder.block_len();

    let svc = DatingService::new(platform, selector);
    let mut ws = RoundWorkspace::new(n);

    // Node state: the source starts complete in either mode.
    let coded = mode != TransferMode::Uncoded;
    let mut decoders: Vec<Decoder> = Vec::new();
    let mut sets: Vec<BlockSet> = Vec::new();
    if coded {
        decoders = (0..n).map(|_| Decoder::new(k, block_len)).collect();
        for i in 0..k {
            decoders[source.index()].ingest(encoder.plain(i));
        }
    } else {
        sets = (0..n).map(|_| BlockSet::new(k)).collect();
        for i in 0..k {
            sets[source.index()].add(i as u16);
        }
    }
    // Systematic phase cursor: next plain block the source will emit.
    let mut systematic_cursor = 0usize;

    let complete_count = |decoders: &Vec<Decoder>, sets: &Vec<BlockSet>| -> u64 {
        if coded {
            decoders.iter().filter(|d| d.is_complete()).count() as u64
        } else {
            sets.iter().filter(|s| s.complete(k)).count() as u64
        }
    };

    let mut history = vec![complete_count(&decoders, &sets)];
    let mut symbols_sent = 0u64;
    let mut innovative = 0u64;
    let mut round = 0u64;

    // Round-start snapshots: we buffer transfers and apply after the date
    // loop, so a symbol received this round is not re-forwarded this round.
    while round < config.max_rounds {
        let out = svc.run_round_with(&mut ws, rng);
        match mode {
            TransferMode::Coded | TransferMode::Systematic => {
                let mut transfers: Vec<(usize, crate::symbol::Symbol)> = Vec::new();
                for d in &out.dates {
                    let s = d.sender.index();
                    if decoders[s].rank() == 0 || d.sender == d.receiver {
                        continue;
                    }
                    // Systematic: the source's first k transmissions are
                    // the plain blocks in order; everything else is RLNC.
                    let sym = if mode == TransferMode::Systematic
                        && d.sender == source
                        && systematic_cursor < k
                    {
                        let sym = encoder.plain(systematic_cursor);
                        systematic_cursor += 1;
                        Some(sym)
                    } else {
                        recombine(&decoders[s].basis(), rng)
                    };
                    if let Some(sym) = sym {
                        transfers.push((d.receiver.index(), sym));
                        symbols_sent += 1;
                    }
                }
                for (r, sym) in transfers {
                    if decoders[r].ingest(sym) {
                        innovative += 1;
                    }
                }
            }
            TransferMode::Uncoded => {
                let mut transfers: Vec<(usize, u16)> = Vec::new();
                for d in &out.dates {
                    let s = d.sender.index();
                    if sets[s].held.is_empty() || d.sender == d.receiver {
                        continue;
                    }
                    let b = sets[s].held[rng.gen_range(0..sets[s].held.len())];
                    transfers.push((d.receiver.index(), b));
                    symbols_sent += 1;
                }
                for (r, b) in transfers {
                    if sets[r].add(b) {
                        innovative += 1;
                    }
                }
            }
        }
        round += 1;
        let done = complete_count(&decoders, &sets);
        history.push(done);
        if done == n as u64 {
            break;
        }
    }

    let completed = *history.last().unwrap() == n as u64;
    // Validate reconstruction on a sample of completed nodes.
    let decoded_ok = if coded {
        decoders
            .iter()
            .filter(|d| d.is_complete())
            .take(32)
            .all(|d| d.decode().as_deref() == Some(encoder.blocks()))
    } else {
        true // blocks are forwarded verbatim
    };

    MongeringResult {
        rounds: round,
        completed,
        completion_history: history,
        symbols_sent,
        innovative,
        decoded_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rendez_core::UniformSelector;

    fn run(n: usize, k: usize, mode: TransferMode, seed: u64) -> MongeringResult {
        let platform = Platform::unit(n);
        let selector = UniformSelector::new(n);
        let mut rng = SmallRng::seed_from_u64(seed);
        run_mongering(
            &platform,
            &selector,
            NodeId(0),
            mode,
            MongeringConfig {
                k,
                block_len: 8,
                max_rounds: 20_000,
            },
            &mut rng,
        )
    }

    #[test]
    fn coded_mongering_completes_and_decodes() {
        let r = run(60, 8, TransferMode::Coded, 1);
        assert!(r.completed, "coded run did not finish");
        assert!(r.decoded_ok, "a node decoded garbage");
        assert_eq!(*r.completion_history.last().unwrap(), 60);
    }

    #[test]
    fn uncoded_mongering_completes() {
        let r = run(60, 8, TransferMode::Uncoded, 2);
        assert!(r.completed);
        assert!(r.decoded_ok);
    }

    #[test]
    fn coded_is_more_efficient_than_uncoded() {
        // The headline [DMC06] effect: higher innovative fraction, fewer
        // rounds, averaged over seeds.
        let trials = 5;
        let (mut coded_rounds, mut uncoded_rounds) = (0u64, 0u64);
        let (mut coded_eff, mut uncoded_eff) = (0.0f64, 0.0f64);
        for seed in 0..trials {
            let c = run(80, 16, TransferMode::Coded, 100 + seed);
            let u = run(80, 16, TransferMode::Uncoded, 200 + seed);
            assert!(c.completed && u.completed);
            coded_rounds += c.rounds;
            uncoded_rounds += u.rounds;
            coded_eff += c.efficiency();
            uncoded_eff += u.efficiency();
        }
        assert!(
            coded_rounds < uncoded_rounds,
            "coded {coded_rounds} vs uncoded {uncoded_rounds} rounds"
        );
        assert!(
            coded_eff > uncoded_eff,
            "coded efficiency {coded_eff} vs uncoded {uncoded_eff}"
        );
    }

    #[test]
    fn completion_history_is_monotone() {
        let r = run(40, 4, TransferMode::Coded, 3);
        for w in r.completion_history.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(
            r.completion_history[0], 1,
            "only the source starts complete"
        );
    }

    #[test]
    fn single_block_degenerates_to_rumor_spreading() {
        let r = run(100, 1, TransferMode::Uncoded, 4);
        assert!(r.completed);
        // k=1: exactly n−1 transmissions are innovative (one per node
        // beyond the source); the rest land on already-complete nodes.
        assert_eq!(r.innovative, 99);
        assert!(r.efficiency() > 0.0);
    }

    #[test]
    fn systematic_completes_and_decodes() {
        let r = run(60, 8, TransferMode::Systematic, 6);
        assert!(r.completed);
        assert!(r.decoded_ok);
    }

    #[test]
    fn systematic_is_competitive_with_plain_coded() {
        // Systematic's plain prefix cannot hurt asymptotics; round counts
        // should be in the same ballpark as pure RLNC.
        let trials = 5;
        let (mut sys_rounds, mut coded_rounds) = (0u64, 0u64);
        for seed in 0..trials {
            let s = run(80, 16, TransferMode::Systematic, 300 + seed);
            let c = run(80, 16, TransferMode::Coded, 400 + seed);
            assert!(s.completed && c.completed);
            sys_rounds += s.rounds;
            coded_rounds += c.rounds;
        }
        assert!(
            sys_rounds < 2 * coded_rounds,
            "systematic {sys_rounds} vs coded {coded_rounds}"
        );
    }

    #[test]
    fn round_cap_respected() {
        let platform = Platform::unit(200);
        let selector = UniformSelector::new(200);
        let mut rng = SmallRng::seed_from_u64(5);
        let r = run_mongering(
            &platform,
            &selector,
            NodeId(0),
            TransferMode::Coded,
            MongeringConfig {
                k: 16,
                block_len: 8,
                max_rounds: 2,
            },
            &mut rng,
        );
        assert!(!r.completed);
        assert_eq!(r.rounds, 2);
    }
}
