//! Random subset choice and uniform random matchings.
//!
//! Algorithm 1's matchmaker step is: given `s` offers and `r` requests,
//! pick `q = min(s, r)` of each *uniformly at random* and join them by a
//! *uniform random perfect matching*. Lemma 3 rests on this uniformity, so
//! the primitives here are implemented (and tested) to be exactly uniform:
//!
//! * [`partial_shuffle`] — a partial Fisher–Yates: after the call the first
//!   `q` slots hold a uniform random `q`-subset in uniform random order;
//! * [`uniform_k_matching`] — the *reference* sampler for Lemma 3: a
//!   uniform `k`-matching of the complete bipartite graph
//!   `K_{left,right}`, against which the dating service's conditional date
//!   distribution is chi-square tested.

use rand::rngs::SmallRng;
use rand::Rng;

/// Partial Fisher–Yates: place a uniform random `q`-subset of `items`,
/// in uniform random order, in `items[..q]`.
///
/// # Panics
/// Panics if `q > items.len()`.
#[inline]
pub fn partial_shuffle<T>(items: &mut [T], q: usize, rng: &mut SmallRng) {
    assert!(q <= items.len(), "cannot choose {q} of {}", items.len());
    for i in 0..q {
        let j = rng.gen_range(i..items.len());
        items.swap(i, j);
    }
}

/// A uniform random `k`-matching of the complete bipartite graph with
/// `left` and `right` vertices: `k` distinct left vertices, `k` distinct
/// right vertices, and a uniform bijection between them.
///
/// Returns pairs `(left_vertex, right_vertex)`.
///
/// # Panics
/// Panics if `k > min(left, right)`.
pub fn uniform_k_matching(
    left: usize,
    right: usize,
    k: usize,
    rng: &mut SmallRng,
) -> Vec<(u32, u32)> {
    assert!(k <= left.min(right), "k={k} exceeds min({left}, {right})");
    let mut ls: Vec<u32> = (0..left as u32).collect();
    let mut rs: Vec<u32> = (0..right as u32).collect();
    partial_shuffle(&mut ls, k, rng);
    partial_shuffle(&mut rs, k, rng);
    ls[..k]
        .iter()
        .copied()
        .zip(rs[..k].iter().copied())
        .collect()
}

/// Canonical form of a `k`-matching for frequency counting: pairs sorted by
/// left vertex. Two draws are the same matching iff their canonical forms
/// are equal.
pub fn canonical_matching(mut pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    pairs.sort_unstable();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn partial_shuffle_prefix_is_uniform_subset() {
        // All C(4,2)=6 subsets of {0,1,2,3} should appear ~equally.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let mut items = [0u32, 1, 2, 3];
            partial_shuffle(&mut items, 2, &mut rng);
            let mut subset = vec![items[0], items[1]];
            subset.sort_unstable();
            *counts.entry(subset).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (sub, &c) in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01, "subset {sub:?} frequency {f}");
        }
    }

    #[test]
    fn partial_shuffle_full_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut items: Vec<u32> = (0..10).collect();
        partial_shuffle(&mut items, 10, &mut rng);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn partial_shuffle_zero_is_noop_on_content() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut items = [5u32, 6, 7];
        partial_shuffle(&mut items, 0, &mut rng);
        assert_eq!(items, [5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn partial_shuffle_too_many_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut items = [1u32, 2];
        partial_shuffle(&mut items, 3, &mut rng);
    }

    #[test]
    fn k_matching_shape() {
        let mut rng = SmallRng::seed_from_u64(6);
        let m = uniform_k_matching(5, 7, 4, &mut rng);
        assert_eq!(m.len(), 4);
        let mut ls: Vec<u32> = m.iter().map(|&(l, _)| l).collect();
        let mut rs: Vec<u32> = m.iter().map(|&(_, r)| r).collect();
        ls.sort_unstable();
        ls.dedup();
        rs.sort_unstable();
        rs.dedup();
        assert_eq!(ls.len(), 4, "left vertices must be distinct");
        assert_eq!(rs.len(), 4, "right vertices must be distinct");
        assert!(ls.iter().all(|&l| l < 5));
        assert!(rs.iter().all(|&r| r < 7));
    }

    #[test]
    fn k_matching_is_uniform_small_case() {
        // K_{2,2}, k=1: four possible 1-matchings, each probability 1/4.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts: HashMap<Vec<(u32, u32)>, u64> = HashMap::new();
        let trials = 40_000;
        for _ in 0..trials {
            let m = canonical_matching(uniform_k_matching(2, 2, 1, &mut rng));
            *counts.entry(m).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4);
        for &c in counts.values() {
            let f = c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.01);
        }
    }

    #[test]
    fn k_matching_full_bijection_uniform() {
        // K_{3,3}, k=3: 3!·C(3,3)² = 6 perfect matchings, each 1/6.
        let mut rng = SmallRng::seed_from_u64(8);
        let mut counts: HashMap<Vec<(u32, u32)>, u64> = HashMap::new();
        let trials = 60_000;
        for _ in 0..trials {
            let m = canonical_matching(uniform_k_matching(3, 3, 3, &mut rng));
            *counts.entry(m).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 6);
        for &c in counts.values() {
            let f = c as f64 / trials as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01);
        }
    }

    #[test]
    fn canonical_matching_sorts() {
        let m = canonical_matching(vec![(2, 0), (0, 1), (1, 2)]);
        assert_eq!(m, vec![(0, 1), (1, 2), (2, 0)]);
    }
}
