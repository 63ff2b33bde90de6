//! Lemma 3 verification: conditioned on the number of dates `k`, the
//! dating service's date set is a **uniform** random `k`-matching of
//! `K_{Bout,Bin}`.
//!
//! On the unit platform the bandwidth units are the nodes themselves, so
//! for `n = 3` and `k = 2` the date set is a 2-matching of `K_{3,3}`:
//! `C(3,2)²·2! = 18` equally likely matchings. We collect rounds with
//! exactly two dates, chi-square the observed matching frequencies
//! against uniform, and cross-check marginals against the reference
//! sampler `uniform_k_matching`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{DatingService, RoundWorkspace};
use rendezvous::core::matching::{canonical_matching, uniform_k_matching};
use rendezvous::prelude::*;
use rendezvous::stats::{chi_square_gof, Hypergeometric};
use std::collections::HashMap;

fn collect_conditional_matchings(
    n: usize,
    k: usize,
    target_samples: usize,
    seed: u64,
) -> HashMap<Vec<(u32, u32)>, u64> {
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let svc = DatingService::new(&platform, &selector);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ws = RoundWorkspace::new(n);
    let mut counts: HashMap<Vec<(u32, u32)>, u64> = HashMap::new();
    let mut collected = 0usize;
    let mut guard = 0usize;
    while collected < target_samples {
        guard += 1;
        assert!(guard < 200 * target_samples, "conditioning starved");
        let out = svc.run_round_with(&mut ws, &mut rng);
        if out.date_count() != k {
            continue;
        }
        let pairs: Vec<(u32, u32)> = out
            .dates
            .iter()
            .map(|d| (d.sender.0, d.receiver.0))
            .collect();
        *counts.entry(canonical_matching(pairs)).or_insert(0) += 1;
        collected += 1;
    }
    counts
}

#[test]
fn conditional_date_set_is_uniform_k_matching() {
    let n = 3;
    let k = 2;
    let samples = 36_000;
    let counts = collect_conditional_matchings(n, k, samples, 0x13);

    // All 18 matchings must appear…
    assert_eq!(
        counts.len(),
        18,
        "some 2-matchings of K_{{3,3}} never occurred"
    );

    // …with uniform frequencies (chi-square at a generous alpha, since
    // this is a single pre-seeded draw, not a repeated test).
    let observed: Vec<u64> = counts.values().copied().collect();
    let expected = vec![samples as f64 / 18.0; observed.len()];
    let r = chi_square_gof(&observed, &expected, 0);
    assert!(
        r.p_value > 0.001,
        "chi-square rejects uniformity: stat={:.1} dof={} p={:.5}",
        r.statistic,
        r.dof,
        r.p_value
    );
}

#[test]
fn reference_sampler_agrees_with_service() {
    // The reference sampler (used in proofs/tests elsewhere) and the
    // dating service must put the same mass on each canonical matching.
    let n = 3;
    let k = 2;
    let samples = 18_000;
    let svc_counts = collect_conditional_matchings(n, k, samples, 0x14);

    let mut rng = SmallRng::seed_from_u64(0x15);
    let mut ref_counts: HashMap<Vec<(u32, u32)>, u64> = HashMap::new();
    for _ in 0..samples {
        let m = canonical_matching(uniform_k_matching(n, n, k, &mut rng));
        *ref_counts.entry(m).or_insert(0) += 1;
    }
    assert_eq!(ref_counts.len(), 18);

    // Compare the two empirical distributions category by category: each
    // difference should be within 5 joint standard deviations.
    for (matching, &c_ref) in &ref_counts {
        let c_svc = svc_counts.get(matching).copied().unwrap_or(0);
        let p = 1.0 / 18.0;
        let sd = (2.0 * samples as f64 * p * (1.0 - p)).sqrt();
        let diff = (c_ref as f64 - c_svc as f64).abs();
        assert!(
            diff < 5.0 * sd,
            "matching {matching:?}: service {c_svc} vs reference {c_ref} (sd {sd:.1})"
        );
    }
}

#[test]
fn per_link_date_counts_follow_hypergeometric() {
    // Lemma 3's consequence: conditional on k dates, the number of dates
    // whose sender lies in a fixed set S of outgoing links is
    // hypergeometric (k, Bout, |S|). Unit platform, S = {nodes 0, 1}.
    let n = 8;
    let k = 3;
    let s_size = 2u64;
    let platform = Platform::unit(n);
    let selector = UniformSelector::new(n);
    let svc = DatingService::new(&platform, &selector);
    let mut rng = SmallRng::seed_from_u64(0x16);
    let mut ws = RoundWorkspace::new(n);
    let h = Hypergeometric::new(n as u64, s_size, k as u64);

    let samples = 30_000;
    let mut observed = vec![0u64; (h.support_max() + 1) as usize];
    let mut collected = 0;
    while collected < samples {
        let out = svc.run_round_with(&mut ws, &mut rng);
        if out.date_count() != k {
            continue;
        }
        let hits = out
            .dates
            .iter()
            .filter(|d| d.sender.0 < s_size as u32)
            .count();
        observed[hits] += 1;
        collected += 1;
    }
    let expected: Vec<f64> = (0..observed.len())
        .map(|x| h.pmf(x as u64) * samples as f64)
        .collect();
    let r = chi_square_gof(&observed, &expected, 0);
    assert!(
        r.p_value > 0.001,
        "hypergeometric law rejected: p={:.5} observed={observed:?}",
        r.p_value
    );
}
