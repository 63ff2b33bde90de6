//! `Fleet::map`, the trial runner every `exp_*` harness uses: results
//! are the plain in-order loop's at any pool size, and a panicking trial
//! surfaces on the caller without costing the fleet its threads.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rendez_fleet::Fleet;
use rendez_sim::derive_seed;

fn trial(i: usize, seed: u64) -> u64 {
    seed.wrapping_mul(i as u64 + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trial `i` sees `derive_seed(seed, i)` and results come back in
    /// trial order, whatever the pool size.
    #[test]
    fn map_equals_the_in_order_loop_at_every_pool_size(
        trials in 1usize..60,
        seed in 0u64..10_000,
    ) {
        let expected: Vec<u64> =
            (0..trials).map(|i| trial(i, derive_seed(seed, i as u64))).collect();
        for threads in [1, 2, 3, 8] {
            prop_assert_eq!(Fleet::new(threads).map(trials, seed, trial), expected.clone());
        }
    }
}

#[test]
fn zero_trials_map_to_nothing() {
    let out: Vec<u64> = Fleet::new(3).map(0, 9, trial);
    assert!(out.is_empty());
}

#[test]
fn a_panicking_trial_resurfaces_on_the_caller_and_spares_the_fleet() {
    let fleet = Fleet::new(3);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        fleet.map(40, 5, |i, seed| {
            if i == 17 {
                panic!("trial {i} failed");
            }
            trial(i, seed)
        })
    }))
    .expect_err("the panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("trial 17 failed")
    );
    let expected: Vec<u64> = (0..40)
        .map(|i| trial(i, derive_seed(5, i as u64)))
        .collect();
    assert_eq!(fleet.map(40, 5, trial), expected, "fleet survives a panic");
}
