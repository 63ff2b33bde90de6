//! Seed derivation: SplitMix64 streams for reproducible parallel trials.
//!
//! Every source of randomness in the workspace is derived from one master
//! seed through [`derive_seed`], so a whole experiment — thousands of
//! parallel trials, each with per-node RNG streams — is reproducible from a
//! single `u64` printed in its output header.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64: tiny, high-quality 64-bit mixer (Steele, Lea, Flood 2014).
///
/// Used both as a stream-splitting seed deriver and as the stable hash for
/// DHT node placement in `rendez-dht`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Stateless mix of a single value — usable as a hash function.
    #[inline]
    pub fn mix(x: u64) -> u64 {
        SplitMix64::new(x).next_u64()
    }
}

/// The half of [`derive_seed`] that depends on the master alone: one
/// [`SplitMix64::mix`] of it. `SeedKey::new(master).derive(stream)` is
/// `derive_seed(master, stream)`, so a loop that derives many streams
/// from one master keeps the key and pays one `mix` per stream instead
/// of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedKey(u64);

impl SeedKey {
    /// The key of `master`.
    #[inline]
    pub fn new(master: u64) -> Self {
        SeedKey(SplitMix64::mix(master ^ 0xA076_1D64_78BD_642F))
    }

    /// `derive_seed(master, stream)` for this key's master.
    #[inline]
    pub fn derive(self, stream: u64) -> u64 {
        SplitMix64::mix(self.0 ^ stream.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    /// `small_rng_for(master, stream)` for this key's master.
    pub fn small_rng(self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.derive(stream))
    }
}

/// Derive an independent seed for stream `stream` from `master`.
///
/// Distinct `(master, stream)` pairs yield (with overwhelming probability)
/// uncorrelated seeds; streams are stable across runs and platforms.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    SeedKey::new(master).derive(stream)
}

/// A `SmallRng` seeded for `(master, stream)`.
pub fn small_rng_for(master: u64, stream: u64) -> SmallRng {
    SeedKey::new(master).small_rng(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 0 from the published SplitMix64.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(s.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(s.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn derive_seed_reference_values() {
        // Every seed in the workspace comes out of this formula; these
        // outputs fix it, whatever its body becomes.
        assert_eq!(derive_seed(0, 0), 0xB1A6_D212_199B_7394);
        assert_eq!(derive_seed(1, 2), 0x6E52_42A9_475D_D47A);
        assert_eq!(derive_seed(u64::MAX, 7), 0xD085_6843_4A09_8FB2);
        // A sender's fate seed in the benchmark's default run.
        assert_eq!(
            derive_seed(0x5ca1e ^ 0xC01D_F47E, 2_499),
            0x248D_8EC8_516D_B9B0
        );
        let mut rng = small_rng_for(99, 7);
        assert_eq!(rng.next_u64(), 0xF917_3403_A75D_FFDE);
        assert_eq!(rng.next_u64(), 0xC18F_10AE_F9C5_3EFA);
    }

    #[test]
    fn derive_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 2), derive_seed(1, 3));
        assert_ne!(derive_seed(1, 2), derive_seed(2, 2));
    }

    #[test]
    fn streams_do_not_collide_for_small_indices() {
        let mut seen = std::collections::HashSet::new();
        for master in 0..10u64 {
            for stream in 0..1000u64 {
                assert!(seen.insert(derive_seed(master, stream)));
            }
        }
    }

    #[test]
    fn rng_reproducible() {
        let mut a = small_rng_for(99, 7);
        let mut b = small_rng_for(99, 7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix_is_stateless_hash() {
        assert_eq!(SplitMix64::mix(12345), SplitMix64::mix(12345));
        assert_ne!(SplitMix64::mix(12345), SplitMix64::mix(12346));
    }

    proptest::proptest! {
        /// A key derives what the two-step formula, written out, gives.
        #[test]
        fn seed_key_is_the_two_step_formula(
            master in proptest::prelude::any::<u64>(),
            stream in proptest::prelude::any::<u64>(),
        ) {
            let mut outer = SplitMix64::new(master ^ 0xA076_1D64_78BD_642F);
            let inner = outer.next_u64();
            let want = SplitMix64::mix(inner ^ stream.wrapping_mul(0xE703_7ED1_A0B4_28DB));
            proptest::prop_assert_eq!(SeedKey::new(master).derive(stream), want);
            proptest::prop_assert_eq!(
                SeedKey::new(master).small_rng(stream).next_u64(),
                small_rng_for(master, stream).next_u64()
            );
        }
    }
}
