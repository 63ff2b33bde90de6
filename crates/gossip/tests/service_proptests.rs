//! Property-based tests for the dating service's oracle form.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{
    AliasSelector, NodeCaps, NodeSelector, Platform, SingleTargetSelector, UniformSelector,
};
use rendez_gossip::{verify_dates, DatingService};
use rendez_sim::NodeId;

/// Strategy: a small heterogeneous platform with bandwidths in 1..=5.
fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::collection::vec((1u32..=5, 1u32..=5), 2..40).prop_map(|caps| {
        Platform::new(
            caps.into_iter()
                .map(|(bw_in, bw_out)| NodeCaps { bw_in, bw_out })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The headline safety property: no round, on any platform, with any
    /// of the selector families, ever exceeds a node's bandwidth.
    #[test]
    fn capacity_never_exceeded(platform in arb_platform(), seed in 0u64..1_000, skew in 0.0f64..2.5) {
        let n = platform.n();
        let mut rng = SmallRng::seed_from_u64(seed);
        let selectors: Vec<Box<dyn NodeSelector>> = vec![
            Box::new(UniformSelector::new(n)),
            Box::new(AliasSelector::zipf(n, skew)),
            Box::new(SingleTargetSelector::new(n, NodeId(0))),
        ];
        for sel in &selectors {
            let svc = DatingService::new(&platform, sel.as_ref());
            let out = svc.run_round(&mut rng);
            prop_assert!(verify_dates(&platform, &out.dates).is_ok());
            // Request totals always equal the platform totals.
            prop_assert_eq!(out.offers_sent, platform.total_out());
            prop_assert_eq!(out.requests_sent, platform.total_in());
            // Dates cannot exceed the centralized optimum.
            prop_assert!(out.date_count() as u64 <= platform.m());
        }
    }

    /// All date endpoints are valid node ids and every date's matchmaker
    /// arranged at most min(s, r) pairs (≤ its received request counts).
    #[test]
    fn dates_are_well_formed(platform in arb_platform(), seed in 0u64..1_000) {
        let n = platform.n();
        let sel = UniformSelector::new(n);
        let svc = DatingService::new(&platform, &sel);
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = svc.run_round(&mut rng);
        for d in &out.dates {
            prop_assert!(d.sender.index() < n);
            prop_assert!(d.receiver.index() < n);
            prop_assert!(d.matchmaker.index() < n);
        }
    }

    /// The degenerate single-target selector is the centralized scheme:
    /// exactly m dates, every round.
    #[test]
    fn single_target_is_centralized_optimum(platform in arb_platform(), seed in 0u64..1_000) {
        let n = platform.n();
        let sel = SingleTargetSelector::new(n, NodeId((seed % n as u64) as u32));
        let svc = DatingService::new(&platform, &sel);
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = svc.run_round(&mut rng);
        prop_assert_eq!(out.date_count() as u64, platform.m());
    }
}
