//! Algorithm 1 — the dating service, oracle form.
//!
//! This is the paper's algorithm executed as one centralized sampling of
//! the *identical* random process (the distributed message-passing form
//! is `rendez_runtime::RuntimeDating`, speaking [`crate::distributed`]'s
//! messages; the integration test `oracle_vs_distributed` certifies the
//! two produce the same date-count distribution).
//!
//! Per round:
//!
//! 1. every node `i` addresses `bout(i)` **offers** ("requests for
//!    sending") and `bin(i)` **requests** ("requests for receiving") to
//!    nodes drawn i.i.d. from the shared [`NodeSelector`];
//! 2. every node `v`, acting as matchmaker over the `s` offers and `r`
//!    requests it received, keeps a uniform random `q = min(s, r)` of
//!    each and joins them by a uniform random perfect matching;
//! 3. each matched (offer, request) pair is a [`Date`]: the offer's origin
//!    will send one unit message to the request's origin.
//!
//! A node may be matched with itself (the algorithm as stated does not
//! exclude it, and at `m = n` self-dates are a `Θ(1/n)` fraction); the
//! rumor-spreading layer treats them as no-ops.

use crate::bandwidth::Platform;
use crate::matching::partial_shuffle;
use crate::selector::NodeSelector;
use rand::rngs::SmallRng;
use rendez_sim::NodeId;

/// One arranged communication: `sender` will transmit a unit message to
/// `receiver`; `matchmaker` is the node that arranged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Date {
    /// Origin of the matched offer (will send).
    pub sender: NodeId,
    /// Origin of the matched request (will receive).
    pub receiver: NodeId,
    /// The node that arranged the date.
    pub matchmaker: NodeId,
}

/// Everything one dating round produced.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// The arranged dates.
    pub dates: Vec<Date>,
    /// Total offers sent (= `Bout`).
    pub offers_sent: u64,
    /// Total requests sent (= `Bin`).
    pub requests_sent: u64,
}

impl RoundOutcome {
    /// Number of arranged dates.
    pub fn date_count(&self) -> usize {
        self.dates.len()
    }

    /// Fraction of the centralized optimum `m` that was arranged.
    pub fn fraction_of(&self, m: u64) -> f64 {
        self.dates.len() as f64 / m as f64
    }
}

/// Reusable buffers for [`DatingService::run_round_with`]; amortizes all
/// allocation across rounds (the Figure 1 experiment runs 10⁴ rounds at
/// `n = 10⁵`).
#[derive(Debug, Default)]
pub struct RoundWorkspace {
    offers_at: Vec<Vec<u32>>,
    requests_at: Vec<Vec<u32>>,
    touched: Vec<u32>,
}

impl RoundWorkspace {
    /// Workspace for an `n`-node platform.
    pub fn new(n: usize) -> Self {
        Self {
            offers_at: vec![Vec::new(); n],
            requests_at: vec![Vec::new(); n],
            touched: Vec::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        if self.offers_at.len() < n {
            self.offers_at.resize_with(n, Vec::new);
            self.requests_at.resize_with(n, Vec::new);
        }
        for &v in &self.touched {
            self.offers_at[v as usize].clear();
            self.requests_at[v as usize].clear();
        }
        self.touched.clear();
    }
}

/// The dating service bound to a platform and a selector.
///
/// ```
/// use rendez_core::{DatingService, Platform, UniformSelector, verify_dates};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let platform = Platform::unit(100);            // bin = bout = 1, m = 100
/// let selector = UniformSelector::new(100);
/// let service = DatingService::new(&platform, &selector);
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let outcome = service.run_round(&mut rng);
/// assert!(outcome.date_count() > 0);
/// assert!(outcome.date_count() as u64 <= platform.m());
/// assert!(verify_dates(&platform, &outcome.dates).is_ok());
/// ```
pub struct DatingService<'a, S: NodeSelector + ?Sized> {
    platform: &'a Platform,
    selector: &'a S,
}

impl<'a, S: NodeSelector + ?Sized> DatingService<'a, S> {
    /// Bind the service to a platform and a shared selector.
    ///
    /// # Panics
    /// Panics if the selector's universe size differs from the platform's.
    pub fn new(platform: &'a Platform, selector: &'a S) -> Self {
        assert_eq!(
            platform.n(),
            selector.n(),
            "selector universe must match platform size"
        );
        Self { platform, selector }
    }

    /// The platform this service runs on.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// Run one full dating round, returning the arranged dates.
    pub fn run_round(&self, rng: &mut SmallRng) -> RoundOutcome {
        let mut ws = RoundWorkspace::new(self.platform.n());
        self.run_round_with(&mut ws, rng)
    }

    /// Run one round reusing `ws` buffers (no allocation in steady state).
    pub fn run_round_with(&self, ws: &mut RoundWorkspace, rng: &mut SmallRng) -> RoundOutcome {
        run_round_counts(
            self.platform.n(),
            |v| {
                let c = self.platform.caps(v);
                (c.bw_out, c.bw_in)
            },
            self.selector,
            ws,
            rng,
        )
    }

    /// Count the dates of one round without materializing them: the
    /// number of dates is `Σ_v min(s_v, r_v)`, which needs only the
    /// per-matchmaker tallies. This is the fast path behind the Figure 1
    /// sweep at `n = 10⁵`.
    pub fn count_dates(&self, counts: &mut CountWorkspace, rng: &mut SmallRng) -> u64 {
        let n = self.platform.n();
        counts.reset(n);
        for (v, caps) in self.platform.iter() {
            let _ = v;
            for _ in 0..caps.bw_out {
                let dst = self.selector.select(rng).index();
                if counts.offers[dst] == 0 && counts.requests[dst] == 0 {
                    counts.touched.push(dst as u32);
                }
                counts.offers[dst] += 1;
            }
            for _ in 0..caps.bw_in {
                let dst = self.selector.select(rng).index();
                if counts.offers[dst] == 0 && counts.requests[dst] == 0 {
                    counts.touched.push(dst as u32);
                }
                counts.requests[dst] += 1;
            }
        }
        counts
            .touched
            .iter()
            .map(|&v| counts.offers[v as usize].min(counts.requests[v as usize]) as u64)
            .sum()
    }
}

/// Run one dating round with arbitrary per-node offer/request counts.
///
/// This is the Algorithm 1 engine underneath [`DatingService`]: `counts(v)`
/// returns `(offers, requests)` for node `v`, and zeros are allowed — the
/// storage-exchange application (§5) computes per-round supply/demand that
/// may vanish at individual nodes.
pub fn run_round_counts<S, F>(
    n: usize,
    counts: F,
    selector: &S,
    ws: &mut RoundWorkspace,
    rng: &mut SmallRng,
) -> RoundOutcome
where
    S: NodeSelector + ?Sized,
    F: Fn(NodeId) -> (u32, u32),
{
    assert_eq!(n, selector.n(), "selector universe must match n");
    ws.reset(n);

    // Step 1: every node addresses its offers and requests.
    let mut offers_sent = 0u64;
    let mut requests_sent = 0u64;
    for v in NodeId::all(n) {
        let (n_offers, n_requests) = counts(v);
        let origin = v.0;
        for _ in 0..n_offers {
            let dst = selector.select(rng).index();
            if ws.offers_at[dst].is_empty() && ws.requests_at[dst].is_empty() {
                ws.touched.push(dst as u32);
            }
            ws.offers_at[dst].push(origin);
            offers_sent += 1;
        }
        for _ in 0..n_requests {
            let dst = selector.select(rng).index();
            if ws.offers_at[dst].is_empty() && ws.requests_at[dst].is_empty() {
                ws.touched.push(dst as u32);
            }
            ws.requests_at[dst].push(origin);
            requests_sent += 1;
        }
    }

    // Steps 2–3: each matchmaker joins min(s, r) of each side by a
    // uniform random perfect matching.
    let mut dates = Vec::new();
    for &v in &ws.touched {
        let vi = v as usize;
        let offers = &mut ws.offers_at[vi];
        let requests = &mut ws.requests_at[vi];
        let q = offers.len().min(requests.len());
        if q == 0 {
            continue;
        }
        // Uniform q-subset of each side, in uniform random order. The
        // composed orders already realize a uniform random bijection, so
        // pairing positionally yields a uniform perfect matching.
        partial_shuffle(offers, q, rng);
        partial_shuffle(requests, q, rng);
        let mm = NodeId(v);
        for j in 0..q {
            dates.push(Date {
                sender: NodeId(offers[j]),
                receiver: NodeId(requests[j]),
                matchmaker: mm,
            });
        }
    }

    RoundOutcome {
        dates,
        offers_sent,
        requests_sent,
    }
}

/// Reusable tallies for [`DatingService::count_dates`].
#[derive(Debug, Default)]
pub struct CountWorkspace {
    offers: Vec<u32>,
    requests: Vec<u32>,
    touched: Vec<u32>,
}

impl CountWorkspace {
    /// Workspace for an `n`-node platform.
    pub fn new(n: usize) -> Self {
        Self {
            offers: vec![0; n],
            requests: vec![0; n],
            touched: Vec::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        if self.offers.len() < n {
            self.offers.resize(n, 0);
            self.requests.resize(n, 0);
        }
        for &v in &self.touched {
            self.offers[v as usize] = 0;
            self.requests[v as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::{SingleTargetSelector, UniformSelector};
    use rand::SeedableRng;
    use rendez_sim::small_rng_for;

    fn unit_service(n: usize) -> (Platform, UniformSelector) {
        (Platform::unit(n), UniformSelector::new(n))
    }

    #[test]
    fn round_outcome_totals() {
        let (p, sel) = unit_service(50);
        let svc = DatingService::new(&p, &sel);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = svc.run_round(&mut rng);
        assert_eq!(out.offers_sent, 50);
        assert_eq!(out.requests_sent, 50);
        assert!(out.date_count() <= 50);
        assert!(out.date_count() > 0);
    }

    #[test]
    fn fraction_near_poisson_prediction() {
        // At m = n with uniform selection the mean date fraction is
        // E[min(Po(1),Po(1))] ≈ 0.476 (the paper measures "slightly more
        // than 0.47·n").
        let (p, sel) = unit_service(2000);
        let svc = DatingService::new(&p, &sel);
        let mut ws = RoundWorkspace::new(p.n());
        let mut rng = small_rng_for(2, 0);
        let rounds = 300;
        let mut total = 0usize;
        for _ in 0..rounds {
            total += svc.run_round_with(&mut ws, &mut rng).date_count();
        }
        let frac = total as f64 / (rounds as f64 * p.m() as f64);
        assert!((frac - 0.476).abs() < 0.01, "fraction {frac}");
    }

    #[test]
    fn count_dates_matches_full_round_distribution() {
        let (p, sel) = unit_service(300);
        let svc = DatingService::new(&p, &sel);
        let mut counts = CountWorkspace::new(p.n());
        let mut ws = RoundWorkspace::new(p.n());
        let mut rng_a = small_rng_for(3, 0);
        let mut rng_b = small_rng_for(3, 0);
        // Identical RNG stream → identical request placement → the count
        // must equal the materialized date list length, round by round.
        for _ in 0..50 {
            let fast = svc.count_dates(&mut counts, &mut rng_a);
            let full = svc.run_round_with(&mut ws, &mut rng_b).date_count() as u64;
            assert_eq!(fast, full);
            // Re-sync stream b: the full round consumed extra randomness
            // for the matching step, so re-derive both streams.
            rng_a = small_rng_for(4, fast);
            rng_b = small_rng_for(4, fast);
        }
    }

    #[test]
    fn centralized_extreme_arranges_all_dates() {
        // All requests to one node: q = min(Bout, Bin) = m, so the single
        // matchmaker arranges exactly m dates — the centralized optimum.
        let p = Platform::unit(40);
        let sel = SingleTargetSelector::new(40, NodeId(0));
        let svc = DatingService::new(&p, &sel);
        let mut rng = SmallRng::seed_from_u64(5);
        let out = svc.run_round(&mut rng);
        assert_eq!(out.date_count() as u64, p.m());
        assert!(out.dates.iter().all(|d| d.matchmaker == NodeId(0)));
    }

    #[test]
    fn heterogeneous_platform_respects_multiplicity() {
        let p = Platform::new(vec![
            crate::bandwidth::NodeCaps {
                bw_in: 3,
                bw_out: 1,
            },
            crate::bandwidth::NodeCaps {
                bw_in: 1,
                bw_out: 3,
            },
            crate::bandwidth::NodeCaps {
                bw_in: 2,
                bw_out: 2,
            },
        ]);
        let sel = UniformSelector::new(3);
        let svc = DatingService::new(&p, &sel);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            let out = svc.run_round(&mut rng);
            assert_eq!(out.offers_sent, 6);
            assert_eq!(out.requests_sent, 6);
            // Capacity invariant is checked exhaustively in capacity.rs
            // tests; here just bound the total.
            assert!(out.date_count() <= 6);
        }
    }

    #[test]
    fn workspace_reuse_is_clean() {
        // Reusing a workspace must not leak requests across rounds: with a
        // fresh workspace each round, outcomes under the same RNG stream
        // must match.
        let (p, sel) = unit_service(64);
        let svc = DatingService::new(&p, &sel);
        let mut ws = RoundWorkspace::new(p.n());
        let mut rng1 = small_rng_for(7, 0);
        let mut rng2 = small_rng_for(7, 0);
        for _ in 0..20 {
            let reused = svc.run_round_with(&mut ws, &mut rng1);
            let fresh = svc.run_round(&mut rng2);
            assert_eq!(reused.date_count(), fresh.date_count());
            assert_eq!(reused.dates, fresh.dates);
        }
    }

    #[test]
    #[should_panic(expected = "selector universe")]
    fn mismatched_sizes_rejected() {
        let p = Platform::unit(5);
        let sel = UniformSelector::new(6);
        let _ = DatingService::new(&p, &sel);
    }
}
