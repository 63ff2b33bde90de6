//! Property-based tests for matchings, selectors and the analytic predictions.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::matching::{canonical_matching, uniform_k_matching};
use rendez_core::{AliasSelector, NodeSelector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `uniform_k_matching` always returns k pairs with distinct left and
    /// distinct right vertices inside the declared universes.
    #[test]
    fn k_matching_structure(left in 1usize..30, right in 1usize..30, seed in 0u64..1_000) {
        let k = left.min(right);
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = uniform_k_matching(left, right, k, &mut rng);
        prop_assert_eq!(m.len(), k);
        let mut ls: Vec<u32> = m.iter().map(|&(l, _)| l).collect();
        let mut rs: Vec<u32> = m.iter().map(|&(_, r)| r).collect();
        ls.sort_unstable();
        rs.sort_unstable();
        prop_assert!(ls.windows(2).all(|w| w[0] != w[1]));
        prop_assert!(rs.windows(2).all(|w| w[0] != w[1]));
        prop_assert!(ls.iter().all(|&l| (l as usize) < left));
        prop_assert!(rs.iter().all(|&r| (r as usize) < right));
        // Canonical form is sorted and content-preserving.
        let c = canonical_matching(m.clone());
        prop_assert_eq!(c.len(), m.len());
        prop_assert!(c.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Alias selector frequencies honour the weight vector (coarsely).
    #[test]
    fn alias_selector_respects_weights(weights in prop::collection::vec(0.0f64..10.0, 2..20), seed in 0u64..100) {
        prop_assume!(weights.iter().sum::<f64>() > 0.1);
        let sel = AliasSelector::new(&weights, "prop");
        let w = sel.weights();
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(seed);
        let draws = 20_000;
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..draws {
            counts[sel.select(&mut rng).index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / draws as f64;
            // 6-sigma binomial tolerance.
            let sd = (w[i] * (1.0 - w[i]) / draws as f64).sqrt();
            prop_assert!((f - w[i]).abs() < 6.0 * sd + 1e-9,
                "node {}: freq {} vs weight {}", i, f, w[i]);
        }
    }

    /// The Poisson prediction lies within the universal bounds:
    /// bucket-bound ≤ E[X]/m ≤ 1 for probability vectors.
    #[test]
    fn prediction_within_bounds(n in 2usize..200, mult in 1u64..8) {
        let m = n as u64 * mult;
        let e = rendez_core::analysis::expected_dates_uniform(n, m, m);
        prop_assert!(e <= m as f64 + 1e-9);
        prop_assert!(e >= rendez_core::analysis::BETA_PROVEN * m as f64);
    }
}
