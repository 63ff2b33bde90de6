//! The DHT-based node selector of §4.
//!
//! "If in our dating service we send requests to nodes responsible for
//! values chosen uniformly at random from (0,1], we choose nodes with
//! distribution far from uniform (some nodes have intervals of lengths
//! O(1/n²), some have Ω(log n/n)) but with the same distribution for each
//! node." — exactly the regime in which Lemma 1 still guarantees Ω(m)
//! dates. [`DhtSelector`] realizes that rule and exposes the *exact* arc
//! weights so `rendez_core::analysis::expected_dates_weighted` can predict
//! each concrete DHT's Figure 1 value.

use crate::ring::Ring;
use rand::rngs::SmallRng;
use rand::Rng;
use rendez_core::NodeSelector;
use rendez_sim::NodeId;

/// Selects the owner of a uniform random key — the paper's DHT targeting.
#[derive(Debug, Clone)]
pub struct DhtSelector {
    ring: Ring,
    n_universe: usize,
    name: String,
}

impl DhtSelector {
    /// Wrap a ring whose node ids are exactly `0..n` (the platform ids).
    ///
    /// # Panics
    /// Panics if the ring's ids are not a permutation of `0..n`.
    pub fn new(ring: Ring) -> Self {
        let n = ring.n();
        let mut seen = vec![false; n];
        for &id in ring.ids_in_ring_order() {
            assert!(
                id.index() < n && !seen[id.index()],
                "ring ids must be a permutation of 0..{n}"
            );
            seen[id.index()] = true;
        }
        Self {
            ring,
            n_universe: n,
            name: "dht".to_string(),
        }
    }

    /// Build the selector over a fresh random ring.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut s = Self::new(Ring::random(n, seed));
        s.name = format!("dht(seed={seed})");
        s
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }
}

impl NodeSelector for DhtSelector {
    #[inline]
    fn select(&self, rng: &mut SmallRng) -> NodeId {
        self.ring.owner(rng.gen::<u64>())
    }

    fn n(&self) -> usize {
        self.n_universe
    }

    fn weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n_universe];
        for (id, frac) in self.ring.arc_fractions() {
            w[id.index()] = frac;
        }
        w
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn weights_match_empirical_frequencies() {
        let sel = DhtSelector::random(20, 1);
        let w = sel.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(2);
        let draws = 200_000;
        let mut counts = [0u64; 20];
        for _ in 0..draws {
            counts[sel.select(&mut rng).index()] += 1;
        }
        for i in 0..20 {
            let f = counts[i] as f64 / draws as f64;
            assert!(
                (f - w[i]).abs() < 0.01,
                "node {i}: freq {f} vs weight {}",
                w[i]
            );
        }
    }

    #[test]
    fn distribution_is_skewed_but_total() {
        // Random arcs are "far from uniform": max/min weight ratio blows up.
        let sel = DhtSelector::random(100, 3);
        let w = sel.weights();
        let max = w.iter().cloned().fold(0.0, f64::max);
        let min = w.iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 3.0, "expected skew, got ratio {}", max / min);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn selector_works_with_dating_service() {
        use rendez_core::Platform;
        use rendez_gossip::DatingService;
        let n = 400;
        let p = Platform::unit(n);
        let sel = DhtSelector::random(n, 4);
        let svc = DatingService::new(&p, &sel);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut total = 0usize;
        let rounds = 100;
        for _ in 0..rounds {
            total += svc.run_round(&mut rng).date_count();
        }
        let frac = total as f64 / (rounds * n) as f64;
        // §4 measures DHT fractions above the uniform 0.476 (worst DHTs
        // ≈ 0.52); leave slack for this particular ring.
        assert!(frac > 0.45, "dht fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn non_contiguous_ids_rejected() {
        let ring = Ring::from_positions(vec![(1, NodeId(0)), (2, NodeId(5))]);
        let _ = DhtSelector::new(ring);
    }
}
