//! Network conditioning: deterministic per-message loss and latency.
//!
//! The paper analyses the synchronous lossless model; the asynchronous and
//! lossy regimes studied by Patsonakis & Roussopoulos and by Cichoń et al.
//! are reached by *conditioning* the message channel. The crucial design
//! decision here is that a message's fate is a **pure function of the run
//! seed and the message's `(src, seq)` identity** — no shared RNG stream
//! is consumed. That keeps conditioned runs bit-for-bit identical across
//! executors (sequential, sharded, any shard count) and independent of
//! the order in which the coordinator happens to scan the send batch.
//!
//! lint: deterministic

use rendez_sim::{NodeId, SeedKey, SplitMix64};
use std::ops::Range;

/// Salt separating the conditioning stream from node RNG streams.
const FATE_SALT: u64 = 0xC01D_F47E_u64;

/// Sender `src`'s fate key in the run whose fate master key is `master`
/// (`SeedKey::new(seed ^ FATE_SALT)`): the key of the sender's seed
/// `derive_seed(seed ^ FATE_SALT, src)`, so that the hash of its message
/// `seq`, `derive_seed(sender seed, seq)`, is one `derive` away.
fn sender_key(master: SeedKey, src: usize) -> SeedKey {
    SeedKey::new(master.derive(src as u64))
}

/// The fate keys of the senders `ids` in the run keyed by `seed`, one
/// per node, from one master key: what a shard's fated lanes look a
/// sender up in.
pub(crate) fn fate_keys(seed: u64, ids: Range<usize>) -> Vec<SeedKey> {
    let master = SeedKey::new(seed ^ FATE_SALT);
    ids.map(|src| sender_key(master, src)).collect()
}

/// Latency distribution for conditioned delivery (in whole rounds ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyDist {
    /// Every message takes exactly this many rounds (1 = synchronous).
    Fixed(u64),
    /// Uniform over `min..=max` rounds.
    Uniform {
        /// Fastest delivery (≥ 1).
        min: u64,
        /// Slowest delivery (≥ `min`).
        max: u64,
    },
    /// Geometric with success probability `p`, capped at `cap` rounds:
    /// each round the message arrives with probability `p` — the discrete
    /// memoryless "asynchronous network" model.
    Geometric {
        /// Per-round arrival probability (0 < p ≤ 1).
        p: f64,
        /// Hard cap on the latency draw (≥ 1).
        cap: u64,
    },
}

impl LatencyDist {
    /// Largest latency this distribution can produce.
    pub fn max_latency(&self) -> u64 {
        match *self {
            LatencyDist::Fixed(l) => l,
            LatencyDist::Uniform { max, .. } => max,
            LatencyDist::Geometric { cap, .. } => cap,
        }
    }

    /// Smallest latency this distribution can produce.
    pub fn min_latency(&self) -> u64 {
        match *self {
            LatencyDist::Fixed(l) => l,
            LatencyDist::Uniform { min, .. } => min,
            LatencyDist::Geometric { .. } => 1,
        }
    }

    /// Check the variant's parameter invariants, returning the violated
    /// rule if any. The single source of truth shared by the panicking
    /// executor entry points ([`validate`](Self::validate)) and the typed
    /// [`ScenarioError`](crate::ScenarioError) path.
    pub fn check(&self) -> Result<(), &'static str> {
        match *self {
            LatencyDist::Fixed(l) if l < 1 => Err("latency must be at least one round"),
            LatencyDist::Uniform { min, .. } if min < 1 => {
                Err("latency must be at least one round")
            }
            LatencyDist::Uniform { min, max } if min > max => {
                Err("Uniform latency needs min <= max")
            }
            LatencyDist::Geometric { p, .. } if !(p > 0.0 && p <= 1.0) => {
                Err("Geometric latency needs p in (0,1]")
            }
            LatencyDist::Geometric { cap, .. } if cap < 1 => {
                Err("latency must be at least one round")
            }
            _ => Ok(()),
        }
    }

    /// Assert the variant's parameter invariants.
    ///
    /// # Panics
    /// Panics on `Fixed(0)`, an empty or zero-based `Uniform` range, or a
    /// `Geometric` with `p ∉ (0, 1]` or `cap == 0`.
    pub fn validate(&self) {
        if let Err(reason) = self.check() {
            panic!("{reason}, got {self:?}");
        }
    }

    fn sample(&self, u: u64) -> u64 {
        match *self {
            LatencyDist::Fixed(l) => l,
            LatencyDist::Uniform { min, max } => {
                let span = max - min + 1;
                min + ((u as u128 * span as u128) >> 64) as u64
            }
            LatencyDist::Geometric { p, cap } => {
                let x = to_unit(u);
                // Inversion: ceil(ln(1-x) / ln(1-p)), clamped to [1, cap].
                if p >= 1.0 {
                    return 1;
                }
                let draw = ((1.0 - x).ln() / (1.0 - p).ln()).ceil();
                (draw.max(1.0) as u64).min(cap)
            }
        }
    }
}

/// Map 64 uniform bits to `[0, 1)`.
pub(crate) fn to_unit(u: u64) -> f64 {
    (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Integer form of the loss test: `to_unit(h) < drop_prob` holds exactly
/// when `(h >> 11) < drop_threshold(drop_prob)`. `to_unit` scales the
/// 53-bit integer `h >> 11` by an exact power of two, so the float
/// compare is the real-number compare `h >> 11 < drop_prob · 2⁵³` (that
/// product is exact too), and an integer is below a real exactly when
/// it is below its ceiling — taken here without a libm call. The casts
/// saturate: NaN and negative probabilities give 0 = never drop, like
/// the float compare. Negated, it is churn's liveness test:
/// `to_unit(h) >= p` exactly when `(h >> 11) >= drop_threshold(p)`, for
/// every `p` but NaN.
pub(crate) fn drop_threshold(drop_prob: f64) -> u64 {
    let scaled = drop_prob * (1u64 << 53) as f64;
    let floor = scaled as u64;
    floor.saturating_add(u64::from((floor as f64) < scaled))
}

/// Channel conditions applied to every message of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conditions {
    /// Probability that a message is silently lost.
    pub drop_prob: f64,
    /// Latency distribution for messages that survive.
    pub latency: LatencyDist,
}

impl Default for Conditions {
    fn default() -> Self {
        Self::ideal()
    }
}

impl Conditions {
    /// The paper's model: lossless, synchronous (latency 1).
    pub fn ideal() -> Self {
        Self {
            drop_prob: 0.0,
            latency: LatencyDist::Fixed(1),
        }
    }

    /// Lossless but with the given latency distribution.
    pub fn with_latency(latency: LatencyDist) -> Self {
        Self {
            drop_prob: 0.0,
            latency,
        }
    }

    /// Synchronous with the given loss probability.
    ///
    /// # Panics
    /// Panics if `loss ∉ [0, 1)`.
    pub fn with_loss(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "drop_prob must be in [0,1)");
        Self {
            drop_prob: loss,
            latency: LatencyDist::Fixed(1),
        }
    }

    /// Whether these are the ideal (lossless, latency-1) conditions.
    pub fn is_ideal(&self) -> bool {
        self.drop_prob == 0.0 && self.latency == LatencyDist::Fixed(1)
    }

    /// Number of delivery slots a round's sends can spread over: a
    /// message sent in round `t` is due in `t + l` with
    /// `1 ≤ l ≤ max_latency`, i.e. slot `l − 1` of `0..latency_slots()`.
    /// Executors use this to pre-size their slot buckets so the hot loop
    /// never grows them.
    pub fn latency_slots(&self) -> usize {
        self.latency.max_latency() as usize
    }

    /// What these conditions do to a message, given its sender's fate
    /// key: the loss threshold and the latency law.
    pub(crate) fn fate_law(&self) -> FateLaw {
        FateLaw {
            drop_below: drop_threshold(self.drop_prob),
            latency: self.latency,
        }
    }

    /// Hoist the per-sender half of the fate hash: key `src`'s seed
    /// `derive_seed(seed ^ FATE_SALT, src)` once, then decide any number
    /// of that sender's messages with [`FateRun::fate`] at one `mix` for
    /// the loss test (and one more for a latency draw) per message.
    pub fn fate_run(&self, seed: u64, src: NodeId) -> FateRun {
        let key =
            (!self.is_ideal()).then(|| sender_key(SeedKey::new(seed ^ FATE_SALT), src.index()));
        FateRun {
            key,
            law: self.fate_law(),
        }
    }
}

/// The loss threshold and latency law of a conditioned channel: a
/// message's fate once its sender's key is known. The executors keep one
/// per shard and a key per sender ([`fate_keys`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FateLaw {
    /// [`drop_threshold`] of the conditions' `drop_prob`.
    drop_below: u64,
    latency: LatencyDist,
}

impl FateLaw {
    /// The fate of message `seq` of the sender keyed `key`: `None` =
    /// lost, `Some(l)` = delivered `l ≥ 1` rounds after sending.
    #[inline]
    pub(crate) fn fate(&self, key: SeedKey, seq: u64) -> Option<u64> {
        let h = key.derive(seq);
        if (h >> 11) < self.drop_below {
            return None;
        }
        let latency = self.latency.sample(SplitMix64::mix(h));
        Some(latency.max(1))
    }
}

/// The hoisted fate kernel for one sender's message stream: the sender's
/// key is derived once by [`Conditions::fate_run`], after which each
/// message costs one `mix` for the loss test and one for a latency draw
/// — or nothing at all under ideal conditions.
#[derive(Debug, Clone, Copy)]
pub struct FateRun {
    /// The sender's fate key; `None` on an ideal channel.
    key: Option<SeedKey>,
    law: FateLaw,
}

impl FateRun {
    /// Decide the fate of the sender's message number `seq`: `None` =
    /// lost, `Some(l)` = delivered `l ≥ 1` rounds after sending.
    /// Deterministic in `(seed, src, seq)` alone: the same message gets
    /// the same fate no matter which executor or thread asks.
    #[inline]
    pub fn fate(&self, seq: u64) -> Option<u64> {
        match self.key {
            None => Some(1),
            Some(key) => self.law.fate(key, seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_sim::{derive_seed, NodeId};

    #[test]
    fn ideal_is_always_next_round() {
        let run = Conditions::ideal().fate_run(7, NodeId(3));
        for seq in 0..100 {
            assert_eq!(run.fate(seq), Some(1));
        }
    }

    #[test]
    fn fate_is_deterministic_and_seed_sensitive() {
        let c = Conditions::with_loss(0.5);
        let a: Vec<_> = (0..200).map(|s| c.fate_run(1, NodeId(9)).fate(s)).collect();
        let b: Vec<_> = (0..200).map(|s| c.fate_run(1, NodeId(9)).fate(s)).collect();
        assert_eq!(a, b);
        let other: Vec<_> = (0..200).map(|s| c.fate_run(2, NodeId(9)).fate(s)).collect();
        assert_ne!(a, other, "different seeds must recondition messages");
    }

    #[test]
    fn loss_rate_is_respected() {
        let run = Conditions::with_loss(0.3).fate_run(42, NodeId(1));
        let n = 100_000;
        let lost = (0..n).filter(|&s| run.fate(s).is_none()).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "measured loss {rate}");
    }

    #[test]
    fn uniform_latency_bounds() {
        let c = Conditions::with_latency(LatencyDist::Uniform { min: 2, max: 5 });
        let run = c.fate_run(3, NodeId(2));
        let mut seen = std::collections::HashSet::new();
        for s in 0..10_000 {
            let l = run.fate(s).unwrap();
            assert!((2..=5).contains(&l));
            seen.insert(l);
        }
        assert_eq!(seen.len(), 4, "all latencies in range should occur");
    }

    #[test]
    fn geometric_latency_capped_with_correct_mean() {
        let c = Conditions::with_latency(LatencyDist::Geometric { p: 0.5, cap: 64 });
        let run = c.fate_run(4, NodeId(5));
        let n = 100_000u64;
        let mut sum = 0u64;
        for s in 0..n {
            let l = run.fate(s).unwrap();
            assert!((1..=64).contains(&l));
            sum += l;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "geometric mean {mean}");
    }

    #[test]
    fn latency_bounds_match_variants() {
        let bounds = |d: LatencyDist| (d.min_latency(), d.max_latency());
        assert_eq!(bounds(LatencyDist::Fixed(3)), (3, 3));
        assert_eq!(bounds(LatencyDist::Uniform { min: 2, max: 9 }), (2, 9));
        assert_eq!(bounds(LatencyDist::Geometric { p: 0.1, cap: 40 }), (1, 40));
    }

    #[test]
    fn latency_slots_cover_every_possible_fate() {
        for cond in [
            Conditions::ideal(),
            Conditions::with_latency(LatencyDist::Uniform { min: 2, max: 6 }),
            Conditions::with_latency(LatencyDist::Geometric { p: 0.4, cap: 12 }),
        ] {
            let slots = cond.latency_slots();
            let run = cond.fate_run(9, NodeId(1));
            for s in 0..2_000 {
                let l = run.fate(s).expect("lossless");
                assert!(((l - 1) as usize) < slots, "latency {l} vs {slots} slots");
            }
        }
    }

    #[test]
    fn fate_run_pins_legacy_formula() {
        // The hoisted kernel must reproduce the historical per-message
        // hash chain bit-for-bit — this inlines the legacy formula.
        let conds = [
            Conditions::with_loss(0.4),
            Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 6 }),
            Conditions::with_latency(LatencyDist::Geometric { p: 0.3, cap: 16 }),
        ];
        for c in conds {
            for src in [0u32, 7, 1_000_000] {
                let run = c.fate_run(0x5CA1E, NodeId(src));
                for seq in 0..500 {
                    let per_src = derive_seed(0x5CA1E ^ FATE_SALT, src as u64);
                    let h = derive_seed(per_src, seq);
                    let legacy = if c.drop_prob > 0.0 && to_unit(h) < c.drop_prob {
                        None
                    } else {
                        Some(c.latency.sample(SplitMix64::mix(h)).max(1))
                    };
                    assert_eq!(run.fate(seq), legacy);
                }
            }
        }
    }

    #[test]
    fn fate_keys_decide_like_fate_run() {
        let c = Conditions {
            drop_prob: 0.3,
            latency: LatencyDist::Uniform { min: 1, max: 4 },
        };
        let (law, ids) = (c.fate_law(), 1_000..1_040);
        for (src, key) in ids.clone().zip(fate_keys(0xBEEF, ids)) {
            let run = c.fate_run(0xBEEF, NodeId::from_index(src));
            for seq in 0..200 {
                assert_eq!(law.fate(key, seq), run.fate(seq), "src {src} seq {seq}");
            }
        }
    }

    proptest::proptest! {
        /// The integer loss test is the float one, bit for bit, and so is
        /// its negation, churn's liveness test: random and edge-case
        /// probabilities, hashes random and straddling the threshold.
        #[test]
        fn drop_threshold_equals_float_compare(
            h in proptest::prelude::any::<u64>(),
            p_bits in proptest::prelude::any::<u64>(),
            pick in 0u8..8,
            near in 0u64..4,
        ) {
            let p = match pick {
                0 => 0.0,
                1 => f64::from_bits(1), // smallest positive f64
                2 => 1.0 - f64::EPSILON,
                3 => f64::from_bits(1.0f64.to_bits() - 1), // largest below 1
                _ => to_unit(p_bits),
            };
            let t = drop_threshold(p);
            proptest::prop_assert!(t <= 1 << 53);
            // `near` 0 keeps the random hash; 1..=3 put `h >> 11` at
            // threshold − 1, threshold, threshold + 1.
            let h = match near {
                0 => h,
                k => ((t + k).saturating_sub(2) << 11) | (h & 0x7FF),
            };
            proptest::prop_assert_eq!((h >> 11) < t, p > 0.0 && to_unit(h) < p, "p={}, h={}", p, h);
            proptest::prop_assert_eq!((h >> 11) >= t, to_unit(h) >= p, "p={}, h={}", p, h);
        }
    }

    #[test]
    fn validate_accepts_well_formed_variants() {
        LatencyDist::Fixed(1).validate();
        LatencyDist::Uniform { min: 1, max: 1 }.validate();
        LatencyDist::Geometric { p: 1.0, cap: 1 }.validate();
    }

    #[test]
    #[should_panic(expected = "p in (0,1]")]
    fn validate_rejects_zero_geometric_p() {
        LatencyDist::Geometric { p: 0.0, cap: 64 }.validate();
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn validate_rejects_empty_uniform_range() {
        LatencyDist::Uniform { min: 5, max: 2 }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn validate_rejects_zero_fixed_latency() {
        LatencyDist::Fixed(0).validate();
    }
}
