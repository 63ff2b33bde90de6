//! Runtime acceptance tests.
//!
//! 1. **Cross-executor equivalence**: `SequentialExecutor` and
//!    `ShardedExecutor` produce identical informed-set traces (per-round
//!    digests), round counts, outputs and message statistics for the same
//!    seed — for ideal and conditioned channels alike.
//! 2. **Statistical fidelity**: the runtime-hosted dating service draws
//!    its date counts from the same distribution as the oracle sampler,
//!    checked with the same KS harness as `oracle_vs_distributed`.
//! 3. **Property sweep**: random `(workload, shards, loss, latency,
//!    churn)` combinations — not just the pairwise fixtures — must keep
//!    sequential and sharded reports bit-identical.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rendez_gossip::{DatingService, RoundWorkspace};
use rendezvous::prelude::*;
use rendezvous::runtime::{
    Conditions, LatencyDist, Outbox, RoundObs, RoundProtocol, RtDatingSpread, Verdict,
};
use rendezvous::sim::SplitMix64;
use rendezvous::stats::ks_two_sample;

#[test]
fn spread_trace_identical_across_executors() {
    let n = 2_000;
    let cfg = RunConfig::seeded(0xE0).max_rounds(5_000);
    let mut proto = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
    let seq = SequentialExecutor.run(&mut proto, n, &cfg);
    assert!(seq.completed, "spread must complete");

    for shards in [2, 3, 8, 13] {
        let mut proto = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        let sh = ShardedExecutor::new(shards).run(&mut proto, n, &cfg);
        assert_eq!(seq.rounds, sh.rounds, "round count, shards={shards}");
        assert_eq!(
            seq.digests, sh.digests,
            "informed-set trace, shards={shards}"
        );
        assert_eq!(seq.output, sh.output, "informed history, shards={shards}");
        assert_eq!(seq.stats, sh.stats, "message accounting, shards={shards}");
    }
}

#[test]
fn conditioned_runs_are_executor_independent() {
    // Loss and latency fates are hashed per message, so conditioning must
    // commute with the execution strategy.
    let n = 800;
    let cfg = RunConfig::seeded(0xE2)
        .max_rounds(5_000)
        .conditions(Conditions {
            drop_prob: 0.15,
            latency: LatencyDist::Uniform { min: 1, max: 3 },
        });
    let run = |shards: Option<usize>| {
        let mut proto = RtDatingSpread::new(Platform::unit(n), UniformSelector::new(n), NodeId(0));
        match shards {
            None => SequentialExecutor.run(&mut proto, n, &cfg),
            Some(s) => ShardedExecutor::new(s).run(&mut proto, n, &cfg),
        }
    };
    let seq = run(None);
    assert!(seq.stats.dropped > 0, "loss must bite");
    for shards in [2, 5] {
        let sh = run(Some(shards));
        assert_eq!(seq.digests, sh.digests, "shards={shards}");
        assert_eq!(seq.stats, sh.stats, "shards={shards}");
        assert_eq!(seq.output, sh.output, "shards={shards}");
    }
}

/// Order witness: every node sends three numbered messages per round;
/// receivers check the canonical `(src, seq)` order of each delivery run
/// themselves and fold what they saw, in order, into their state.
struct OrderWitness {
    n: u32,
}

impl RoundProtocol for OrderWitness {
    /// `(messages sent, order-sensitive fold of deliveries)`.
    type Node = (u64, u64);
    /// The sender's send counter, i.e. the message's `seq`.
    type Msg = u64;
    type Output = ();

    fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> Self::Node {
        (0, 0)
    }

    fn on_round_start(
        &self,
        node: &mut Self::Node,
        _id: NodeId,
        _round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, u64>,
    ) {
        for _ in 0..3 {
            out.send(NodeId(rng.gen_range(0..self.n)), node.0);
            node.0 += 1;
        }
    }

    fn on_message(
        &self,
        _: &mut Self::Node,
        _: NodeId,
        _: NodeId,
        _: u64,
        _: u64,
        _: &mut SmallRng,
        _: &mut Outbox<'_, u64>,
    ) {
        unreachable!("on_receive_run is overridden");
    }

    fn on_receive_run(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        srcs: &[NodeId],
        msgs: &[u64],
        round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, u64>,
    ) {
        let keys: Vec<_> = srcs.iter().zip(msgs).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "node {id:?} round {round}: run not in (src, seq) order: {keys:?}"
        );
        for (src, seq) in keys {
            node.1 = (node.1 ^ (u64::from(src.0) << 40 | seq)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn observe_node(&self, node: &Self::Node, id: NodeId, _round: u64, obs: &mut RoundObs) {
        // XOR of per-node hashes: invariant under any shard layout.
        obs.digest ^= SplitMix64::mix(node.1 ^ node.0 ^ SplitMix64::mix(u64::from(id.0)));
    }

    fn finalize_obs(&mut self, _obs: &RoundObs, _round: u64) -> Verdict<()> {
        Verdict::Continue
    }
}

#[test]
fn geometric_latency_delivers_in_canonical_order_on_every_executor() {
    // Geometric latency with a 16-round cap puts up to 16 send rounds
    // into one delivery bucket: the run-header merge at its widest, with
    // each sender present in many segments.
    let n = 300;
    let cfg = RunConfig::seeded(0xE3)
        .max_rounds(60)
        .conditions(Conditions {
            drop_prob: 0.1,
            latency: LatencyDist::Geometric { p: 0.3, cap: 16 },
        });
    let seq = SequentialExecutor.run(&mut OrderWitness { n: n as u32 }, n, &cfg);
    assert!(seq.stats.delivered > 40_000 && seq.stats.dropped > 0);
    for shards in [1, 3, 8] {
        let sh = ShardedExecutor::new(shards).run(&mut OrderWitness { n: n as u32 }, n, &cfg);
        assert_eq!(seq.digests, sh.digests, "shards={shards}");
        assert_eq!(seq.stats, sh.stats, "shards={shards}");
    }
}

fn oracle_samples(platform: &Platform, trials: usize, seed: u64) -> Vec<f64> {
    let selector = UniformSelector::new(platform.n());
    let svc = DatingService::new(platform, &selector);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ws = RoundWorkspace::new(platform.n());
    (0..trials)
        .map(|_| svc.run_round_with(&mut ws, &mut rng).date_count() as f64)
        .collect()
}

fn runtime_samples(platform: &Platform, cycles: u64, seed: u64) -> Vec<f64> {
    let n = platform.n();
    let mut proto = RuntimeDating::new(platform.clone(), UniformSelector::new(n), cycles);
    let rounds = proto.total_rounds();
    let out = ShardedExecutor::new(4)
        .run(&mut proto, n, &RunConfig::seeded(seed).max_rounds(rounds))
        .expect_output();
    out.dates_per_cycle.iter().map(|&d| d as f64).collect()
}

#[test]
fn runtime_dating_matches_oracle_distribution_unit_platform() {
    let platform = Platform::unit(300);
    let a = oracle_samples(&platform, 400, 0xD1);
    let b = runtime_samples(&platform, 400, 0xD2);
    let r = ks_two_sample(&a, &b);
    assert!(
        r.accepts(0.001),
        "oracle vs runtime diverge: D={:.4} p={:.5}",
        r.statistic,
        r.p_value
    );
}

#[test]
fn runtime_dating_matches_oracle_distribution_heterogeneous() {
    let platform = Platform::power_law(200, 1.0, 3.0, 9);
    let a = oracle_samples(&platform, 400, 0xD3);
    let b = runtime_samples(&platform, 400, 0xD4);
    let r = ks_two_sample(&a, &b);
    assert!(
        r.accepts(0.001),
        "heterogeneous: oracle vs runtime diverge: D={:.4} p={:.5}",
        r.statistic,
        r.p_value
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The determinism contract, fuzzed: any workload under any
    /// combination of loss, latency spread and churn must produce the
    /// same report on the sequential executor and on a sharded executor
    /// with an arbitrary shard count — including shard counts larger
    /// than the latency window and spreads that leave messages in
    /// flight at halt. Until this sweep, loss + latency + churn were
    /// only pinned pairwise.
    #[test]
    fn random_conditions_keep_executors_bit_identical(
        seed in 0u64..1_000_000,
        (n, shards) in (40usize..200, 2usize..17),
        proto_idx in 0usize..8,
        (drop_milli, lat_kind, lat_min, lat_span) in (0u32..350, 0u8..3, 1u64..4, 0u64..5),
        (churn_kind, churn_milli) in (0u8..3, 10u32..300),
    ) {
        let latency = match lat_kind {
            0 => LatencyDist::Fixed(lat_min),
            1 => LatencyDist::Uniform { min: lat_min, max: lat_min + lat_span },
            _ => LatencyDist::Geometric { p: 0.2 + 0.15 * lat_span as f64, cap: 9 },
        };
        let churn = match churn_kind {
            0 => Churn::none(),
            1 => Churn::intermittent(churn_milli as f64 / 1000.0),
            _ => Churn::crash_stop(churn_milli as f64 / 1000.0, 15),
        };
        let conditions = Conditions { drop_prob: drop_milli as f64 / 1000.0, latency };
        let base = Scenario::new(n)
            .protocol(Spreader::ALL[proto_idx])
            .cycles(12)
            .conditions(conditions)
            .churn(churn)
            .max_rounds(240);
        let seq = base.clone().run(seed).expect("scenario must validate");
        let sh = base
            .clone()
            .sharded(shards)
            .run(seed)
            .expect("scenario must validate");
        prop_assert_eq!(seq.rounds, sh.rounds);
        prop_assert_eq!(seq.completed, sh.completed);
        prop_assert_eq!(&seq.digests, &sh.digests);
        prop_assert_eq!(seq.stats, sh.stats);
        prop_assert_eq!(seq.output, sh.output);
        prop_assert_eq!(seq.node_bytes, sh.node_bytes);
    }
}

#[test]
fn runtime_transport_is_lossless_under_ideal_conditions() {
    let n = 250u64;
    let cycles = 20u64;
    let mut proto = RuntimeDating::new(
        Platform::unit(n as usize),
        UniformSelector::new(n as usize),
        cycles,
    );
    let rounds = proto.total_rounds();
    let r = SequentialExecutor
        .run(
            &mut proto,
            n as usize,
            &RunConfig::seeded(0xD5).max_rounds(rounds),
        )
        .expect_output();
    assert_eq!(r.payloads_received, r.total_dates());
    assert_eq!(r.answers_received, 2 * n * cycles);
}
