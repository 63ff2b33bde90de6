//! Streaming-observation equivalence: the per-shard [`RoundObs`]
//! reduction is the runtime's only observation path, so for every
//! registry workload it must give one report whatever the shard layout —
//! and the whole-slice `finalize`/`digest` stubs the trait still
//! provides must be exactly that reduction over a slice.
//!
//! The harness compares the sequential run against the sharded executor
//! at 1, 2 and 8 shards — digest trace, round count, message statistics,
//! final output and node bytes — under ideal, lossy, latency-spread and
//! churned conditions alike, and checks the provided slice methods
//! against `observe_nodes` + `finalize_obs`/`digest_obs` on a hand-built
//! node slice. A property sweep then drives random `(seed, n,
//! conditions, churn)` combinations through all eight workloads.

use proptest::prelude::*;
use rendezvous::prelude::*;
use rendezvous::runtime::{
    observe_nodes, Conditions, LatencyDist, RoundProtocol, RtDatingSpread, RtFairPull,
    RtFairPushPull, RtPull, RtPush, RtPushPull,
};
use rendezvous::sim::small_rng_for;

const SHARDS: [usize; 3] = [1, 2, 8];

/// Run `make()`'s protocol on every executor and demand bit-identical
/// reports across the whole matrix; then check the provided slice
/// methods against the streaming fold they are defined by.
fn assert_streaming_matches_slice<P, F>(label: &str, make: F, n: usize, cfg: &RunConfig)
where
    P: RoundProtocol,
    P::Output: PartialEq + std::fmt::Debug + Clone,
    F: Fn() -> P,
{
    let reference = SequentialExecutor.run(&mut make(), n, cfg);
    for shards in SHARDS {
        let sh = ShardedExecutor::new(shards).run(&mut make(), n, cfg);
        assert_eq!(
            reference.digests, sh.digests,
            "{label}: sharded({shards}) digest trace"
        );
        assert_eq!(
            reference.rounds, sh.rounds,
            "{label}: sharded({shards}) rounds"
        );
        assert_eq!(
            reference.stats, sh.stats,
            "{label}: sharded({shards}) stats"
        );
        assert_eq!(
            reference.output, sh.output,
            "{label}: sharded({shards}) output"
        );
        assert_eq!(
            reference.node_bytes, sh.node_bytes,
            "{label}: sharded({shards}) bytes"
        );
    }

    // Executors expose no node slice, so build one: the initial states.
    let (mut by_slice, mut by_obs) = (make(), make());
    assert!(by_slice.streams(), "{label}: streams() is constant true");
    let nodes: Vec<P::Node> = (0..n)
        .map(|i| {
            by_slice.init_node(
                NodeId::from_index(i),
                &mut small_rng_for(cfg.seed, i as u64),
            )
        })
        .collect();
    let obs = observe_nodes(&by_obs, 0, &nodes, 0);
    assert_eq!(
        by_slice.digest(&nodes, 0),
        by_obs.digest_obs(&obs, 0),
        "{label}: provided digest"
    );
    assert_eq!(
        by_slice.finalize(&nodes, 0),
        by_obs.finalize_obs(&obs, 0),
        "{label}: provided finalize"
    );
}

/// All eight registry workloads through the full matrix.
fn check_all_workloads(n: usize, cycles: u64, cfg: &RunConfig) {
    assert_streaming_matches_slice(
        "dating",
        || RuntimeDating::new(Platform::unit(n), UniformSelector::new(n), cycles),
        n,
        cfg,
    );
    assert_streaming_matches_slice("push", || RtPush::new(n, NodeId(0)), n, cfg);
    assert_streaming_matches_slice("pull", || RtPull::new(n, NodeId(1)), n, cfg);
    assert_streaming_matches_slice("push-pull", || RtPushPull::new(n, NodeId(0)), n, cfg);
    assert_streaming_matches_slice("fair-pull", || RtFairPull::new(n, NodeId(2)), n, cfg);
    assert_streaming_matches_slice(
        "fair-push-pull",
        || RtFairPushPull::new(n, NodeId(0)),
        n,
        cfg,
    );
    assert_streaming_matches_slice(
        "dating-spread",
        || RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0)),
        n,
        cfg,
    );
    assert_streaming_matches_slice(
        "lossy-dating",
        || RtDatingSpread::with_loss(Platform::unit(n), UniformSelector::new(n), NodeId(0), 0.15),
        n,
        cfg,
    );
}

#[test]
fn streaming_equals_slice_under_ideal_conditions() {
    let cfg = RunConfig::seeded(0x0B5).max_rounds(400);
    check_all_workloads(120, 4, &cfg);
}

#[test]
fn streaming_equals_slice_under_loss_and_churn() {
    let cfg = RunConfig::seeded(0x0B6)
        .max_rounds(300)
        .conditions(Conditions::with_loss(0.1))
        .churn(Churn::intermittent(0.05));
    check_all_workloads(90, 3, &cfg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random `(seed, n, loss, latency, churn)` combinations: the
    /// streaming reduction and the slice scan must stay bit-identical
    /// for every workload and shard count.
    #[test]
    fn streaming_equals_slice_everywhere(
        seed in any::<u64>(),
        n in 40usize..140,
        lossy in any::<bool>(),
        spread_latency in any::<bool>(),
        churned in any::<bool>(),
    ) {
        let conditions = Conditions {
            drop_prob: if lossy { 0.1 } else { 0.0 },
            latency: if spread_latency {
                LatencyDist::Uniform { min: 1, max: 3 }
            } else {
                LatencyDist::Fixed(1)
            },
        };
        let churn = if churned {
            Churn::intermittent(0.05)
        } else {
            Churn::none()
        };
        let cfg = RunConfig::seeded(seed)
            .max_rounds(250)
            .conditions(conditions)
            .churn(churn);
        check_all_workloads(n, 3, &cfg);
    }
}
