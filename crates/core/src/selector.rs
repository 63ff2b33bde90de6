//! Node selectors: the common distribution used to target requests.
//!
//! Algorithm 1 sends every offer and request "to randomly chosen nodes".
//! The paper's central practical observation is that this choice need
//! **not** be uniform — any fixed distribution, shared by all nodes and by
//! both request types, preserves the Ω(m) guarantee (Lemma 1). This module
//! provides the distributions exercised in the paper and in our extension
//! experiments:
//!
//! * [`UniformSelector`] — the classic rumor-spreading assumption;
//! * [`AliasSelector`] — arbitrary weights via Vose's alias method (O(1)
//!   per draw); constructors for Zipf and hotspot skews probe the §2
//!   conjecture that uniform is the *worst* case;
//! * [`SingleTargetSelector`] — the degenerate "all requests to one node"
//!   extreme the paper mentions ("sending all requests to a single node
//!   would result in a centralized scheme").
//!
//! The DHT-based selector of §4 lives in `rendez-dht` and implements the
//! same [`NodeSelector`] trait.

use rand::rngs::SmallRng;
use rand::Rng;
use rendez_sim::NodeId;

/// A probability distribution over the `n` nodes, shared by every node and
/// by both request types. Implementations must be cheap (`select` is called
/// `Bin + Bout` times per round) and thread-safe.
pub trait NodeSelector: Send + Sync {
    /// Draw a destination node.
    fn select(&self, rng: &mut SmallRng) -> NodeId;

    /// Number of nodes in the distribution's support universe.
    fn n(&self) -> usize;

    /// Exact selection probabilities, indexed by node id (sums to 1).
    /// Used by the analytic predictions in [`crate::analysis`].
    fn weights(&self) -> Vec<f64>;

    /// Human-readable name for experiment tables.
    fn name(&self) -> &str {
        "custom"
    }
}

/// Uniform selection: every node with probability `1/n`.
#[derive(Debug, Clone, Copy)]
pub struct UniformSelector {
    n: usize,
}

impl UniformSelector {
    /// Uniform distribution over `n` nodes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "selector needs at least one node");
        Self { n }
    }
}

impl NodeSelector for UniformSelector {
    #[inline]
    fn select(&self, rng: &mut SmallRng) -> NodeId {
        NodeId(rng.gen_range(0..self.n as u32))
    }

    fn n(&self) -> usize {
        self.n
    }

    fn weights(&self) -> Vec<f64> {
        vec![1.0 / self.n as f64; self.n]
    }

    fn name(&self) -> &str {
        "uniform"
    }
}

/// Weighted selection in O(1) per draw via Vose's alias method: one
/// table, one line per draw. A column's acceptance threshold and its
/// fallback node sit side by side, so a draw reads one 16-byte entry and
/// picks between its two candidates without a branch.
#[derive(Debug, Clone)]
pub struct AliasSelector {
    table: Vec<Column>,
    /// The normalized weights (kept for `weights()` and predictions).
    weights: Vec<f64>,
    name: String,
}

/// One column of the alias table.
#[derive(Debug, Clone, Copy)]
struct Column {
    /// Acceptance threshold: the column keeps its own index below it.
    prob: f64,
    /// Fallback node otherwise.
    alias: u32,
}

impl AliasSelector {
    /// Build from arbitrary non-negative weights (they are normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64], name: impl Into<String>) -> Self {
        assert!(!weights.is_empty(), "selector needs at least one node");
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "weights must sum to a positive finite value"
        );
        for (i, &w) in weights.iter().enumerate() {
            assert!(w >= 0.0 && w.is_finite(), "weight {i} invalid: {w}");
        }
        let n = weights.len();
        let normalized: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Vose's alias construction, in the table itself: scale to mean
        // 1, split into small and large columns, pair each small column
        // with a large donor. A column's `prob` is final once it is small.
        let mut table: Vec<Column> = normalized
            .iter()
            .map(|w| Column {
                prob: w * n as f64,
                alias: 0,
            })
            .collect();
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, col) in table.iter().enumerate() {
            if col.prob < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            table[s as usize].alias = l;
            table[l as usize].prob -= 1.0 - table[s as usize].prob;
            if table[l as usize].prob < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers (roundoff) become certain columns.
        for &i in small.iter().chain(large.iter()) {
            table[i as usize].prob = 1.0;
        }
        Self {
            table,
            weights: normalized,
            name: name.into(),
        }
    }

    /// Zipf-weighted selector: node `i` has weight `(i+1)^{-s}`.
    pub fn zipf(n: usize, s: f64) -> Self {
        let z = rendez_stats::Zipf::new(n, s);
        Self::new(&z.weights(), format!("zipf(s={s})"))
    }

    /// Hotspot selector: `hot_count` nodes get `boost`× the weight of the
    /// remaining nodes.
    ///
    /// # Panics
    /// Panics if `hot_count > n` or `boost <= 0`.
    pub fn hotspot(n: usize, hot_count: usize, boost: f64) -> Self {
        assert!(hot_count <= n, "hot_count exceeds n");
        assert!(boost > 0.0, "boost must be positive");
        let weights: Vec<f64> = (0..n)
            .map(|i| if i < hot_count { boost } else { 1.0 })
            .collect();
        Self::new(&weights, format!("hotspot({hot_count}x{boost})"))
    }
}

impl NodeSelector for AliasSelector {
    #[inline]
    fn select(&self, rng: &mut SmallRng) -> NodeId {
        let i = rng.gen_range(0..self.table.len());
        let Column { prob, alias } = self.table[i];
        let keep = rng.gen::<f64>() < prob;
        NodeId(if keep { i as u32 } else { alias })
    }

    fn n(&self) -> usize {
        self.table.len()
    }

    fn weights(&self) -> Vec<f64> {
        self.weights.clone()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Degenerate selector: every request goes to one fixed node — the
/// "centralized scheme" extreme of §2. All dates are arranged by that
/// node, which becomes the single point of load.
#[derive(Debug, Clone, Copy)]
pub struct SingleTargetSelector {
    n: usize,
    target: NodeId,
}

impl SingleTargetSelector {
    /// All requests target `target` out of `n` nodes.
    ///
    /// # Panics
    /// Panics if `target` is out of range.
    pub fn new(n: usize, target: NodeId) -> Self {
        assert!(target.index() < n, "target out of range");
        Self { n, target }
    }
}

impl NodeSelector for SingleTargetSelector {
    #[inline]
    fn select(&self, _rng: &mut SmallRng) -> NodeId {
        self.target
    }

    fn n(&self) -> usize {
        self.n
    }

    fn weights(&self) -> Vec<f64> {
        let mut w = vec![0.0; self.n];
        w[self.target.index()] = 1.0;
        w
    }

    fn name(&self) -> &str {
        "single-target"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn freq(sel: &dyn NodeSelector, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; sel.n()];
        for _ in 0..draws {
            counts[sel.select(&mut rng).index()] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_frequencies_match() {
        let sel = UniformSelector::new(10);
        let f = freq(&sel, 100_000, 1);
        for &p in &f {
            assert!((p - 0.1).abs() < 0.01, "p={p}");
        }
        let w = sel.weights();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alias_matches_weights() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let sel = AliasSelector::new(&weights, "test");
        let f = freq(&sel, 200_000, 2);
        for (i, &p) in f.iter().enumerate() {
            let expect = weights[i] / 10.0;
            assert!((p - expect).abs() < 0.01, "node {i}: {p} vs {expect}");
        }
    }

    /// Vose's method on two arrays with a branchy draw — the layout
    /// `AliasSelector` had before its table was interleaved, kept as the
    /// reference the one-table form must reproduce draw for draw.
    struct TwoArrayAlias {
        prob: Vec<f64>,
        alias: Vec<u32>,
    }

    impl TwoArrayAlias {
        /// From weights already normalized (`AliasSelector::weights`).
        fn new(normalized: &[f64]) -> Self {
            let n = normalized.len();
            let mut scaled: Vec<f64> = normalized.iter().map(|w| w * n as f64).collect();
            let mut prob = vec![0.0f64; n];
            let mut alias = vec![0u32; n];
            let (mut small, mut large) = (Vec::new(), Vec::new());
            for (i, &s) in scaled.iter().enumerate() {
                if s < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                prob[s as usize] = scaled[s as usize];
                alias[s as usize] = l;
                scaled[l as usize] -= 1.0 - scaled[s as usize];
                if scaled[l as usize] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            for &i in small.iter().chain(large.iter()) {
                prob[i as usize] = 1.0;
            }
            Self { prob, alias }
        }

        fn select(&self, rng: &mut SmallRng) -> NodeId {
            let i = rng.gen_range(0..self.prob.len());
            if rng.gen::<f64>() < self.prob[i] {
                NodeId(i as u32)
            } else {
                NodeId(self.alias[i])
            }
        }
    }

    #[test]
    fn one_table_alias_draws_what_the_two_array_form_drew() {
        use crate::bandwidth::Platform;
        // The benchmark's `hetero-dating-seq` selector: incoming bandwidth
        // of its power-law platform.
        let bw_in: Vec<f64> = Platform::power_law(20_000, 1.1, 4.0, 0xBE9C)
            .iter()
            .map(|(_, caps)| caps.bw_in as f64)
            .collect();
        let cases = [
            ("power-law bw_in", AliasSelector::new(&bw_in, "bw_in")),
            ("zipf", AliasSelector::zipf(1000, 1.0)),
            ("hotspot", AliasSelector::hotspot(500, 5, 50.0)),
            ("one node", AliasSelector::new(&[3.0], "one")),
            // Every column certain: the alias is never taken.
            ("all equal", AliasSelector::new(&[2.5; 64], "equal")),
        ];
        for (what, sel) in cases {
            let reference = TwoArrayAlias::new(&sel.weights());
            let (mut rng, mut ref_rng) = (SmallRng::seed_from_u64(77), SmallRng::seed_from_u64(77));
            for draw in 0..100_000 {
                let (got, want) = (sel.select(&mut rng), reference.select(&mut ref_rng));
                assert_eq!(got, want, "{what}, draw {draw}");
            }
            assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "RNG state, {what}");
        }
    }

    #[test]
    fn alias_handles_zero_weights() {
        let sel = AliasSelector::new(&[0.0, 1.0, 0.0, 1.0], "zeros");
        let f = freq(&sel, 50_000, 3);
        assert_eq!(f[0], 0.0);
        assert_eq!(f[2], 0.0);
        assert!((f[1] - 0.5).abs() < 0.02);
    }

    #[test]
    fn alias_extreme_skew() {
        let mut w = vec![1.0; 100];
        w[7] = 1e6;
        let sel = AliasSelector::new(&w, "skew");
        let f = freq(&sel, 100_000, 4);
        assert!(f[7] > 0.99);
    }

    #[test]
    fn zipf_selector_rank_order() {
        let sel = AliasSelector::zipf(20, 1.0);
        let w = sel.weights();
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hotspot_weights() {
        let sel = AliasSelector::hotspot(10, 2, 5.0);
        let w = sel.weights();
        // 2 nodes at 5, 8 nodes at 1 → hot weight 5/18.
        assert!((w[0] - 5.0 / 18.0).abs() < 1e-12);
        assert!((w[9] - 1.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn single_target_is_deterministic() {
        let sel = SingleTargetSelector::new(5, NodeId(3));
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(sel.select(&mut rng), NodeId(3));
        }
        assert_eq!(sel.weights()[3], 1.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn all_zero_weights_rejected() {
        let _ = AliasSelector::new(&[0.0, 0.0], "bad");
    }
}
