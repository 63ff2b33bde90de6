//! Property-based tests for the Monte-Carlo trial runner. (The round
//! engine's conservation, latency and determinism laws are pinned on the
//! runtime, in `crates/runtime/tests/engine_paths.rs`.)

use proptest::prelude::*;
use rendez_sim::run_trials;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parallel trial runner returns identical results regardless of
    /// thread count.
    #[test]
    fn runner_thread_invariance(trials in 1usize..60, seed in 0u64..10_000) {
        let f = |t: rendez_sim::TrialCtx| t.seed.wrapping_mul(t.index as u64 + 1);
        let one = run_trials(trials, seed, 1, f);
        let many = run_trials(trials, seed, 8, f);
        prop_assert_eq!(one, many);
    }
}
