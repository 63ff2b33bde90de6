//! Pipelined dating over multi-hop routing (§4, practical considerations).
//!
//! On a DHT, every request is routed in `Θ(log n)` hops, so a naive
//! implementation pays that latency *every* round. The paper's remedy:
//! "One can use pipelining of dates, that is send requests for dates in
//! each round even before receiving the answers for the previous one.
//! Thus, after Θ(log n) time steps, answers will start coming each round.
//! This means that for k rounds of dating service we need time
//! Θ(log n + k)."
//!
//! This module holds the closed-form makespans only. `rendez_dht`'s
//! `RoutedDating` runs the routed dating as real traffic, and its tests
//! check the same shape on it: a pipelined makespan within
//! `O(log n) + k`, under half the sequential one.

/// Time steps for one dating round issued in isolation: the request routes
/// `hops` steps to the matchmaker, the answer routes `hops` steps back,
/// and the payload takes one direct step (originators learn each other's
/// addresses, so payload transfer is direct).
pub fn round_latency(hops: u64) -> u64 {
    2 * hops + 1
}

/// Makespan of `k` dating rounds executed strictly sequentially: each
/// round starts only after the previous round's payload lands.
pub fn sequential_makespan(k: u64, hops: u64) -> u64 {
    k * round_latency(hops)
}

/// Makespan of `k` dating rounds with pipelining: a new round's requests
/// are issued every step, so after one warm-up latency the rounds complete
/// once per step — `Θ(log n + k)` exactly as in §4.
pub fn pipelined_makespan(k: u64, hops: u64) -> u64 {
    if k == 0 {
        return 0;
    }
    round_latency(hops) + (k - 1)
}

/// Speedup of pipelining for `k` rounds at the given hop count.
pub fn pipeline_speedup(k: u64, hops: u64) -> f64 {
    sequential_makespan(k, hops) as f64 / pipelined_makespan(k, hops).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_round_latency() {
        assert_eq!(round_latency(0), 1); // direct neighbors: payload step only
        assert_eq!(round_latency(5), 11);
        assert_eq!(sequential_makespan(1, 5), pipelined_makespan(1, 5));
    }

    #[test]
    fn speedup_approaches_round_latency() {
        // For k >> hops, speedup → 2·hops + 1.
        let hops = 10;
        let s = pipeline_speedup(100_000, hops);
        assert!((s - round_latency(hops) as f64).abs() < 0.1, "{s}");
        // For k = 1, no speedup.
        assert!((pipeline_speedup(1, hops) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rounds() {
        assert_eq!(pipelined_makespan(0, 7), 0);
        assert_eq!(sequential_makespan(0, 7), 0);
    }

    #[test]
    fn theta_log_n_plus_k_shape() {
        // The paper's claim: k rounds in Θ(log n + k). With hops = log₂ n,
        // the pipelined makespan is linear in k with unit slope and
        // intercept Θ(log n).
        let hops = 17; // log₂(10⁵) ≈ 17
        let m1 = pipelined_makespan(10, hops);
        let m2 = pipelined_makespan(110, hops);
        assert_eq!(m2 - m1, 100);
        assert!(m1 >= hops);
    }
}
