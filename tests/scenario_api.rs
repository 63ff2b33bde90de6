//! Acceptance tests for the `Scenario` builder — the runtime's one
//! front door.
//!
//! 1. **Cross-executor equivalence**: every registry workload (dating
//!    service + all seven Figure-2 spreaders), run through the builder,
//!    produces bit-identical `RunReport`s on `SequentialExecutor` and
//!    `ShardedExecutor` (k ∈ {2, 7}) — with and without churn.
//! 2. **Statistical fidelity**: each runtime spreader's legacy-equivalent
//!    round count (`SpreadRunSummary::cycles`) is drawn from the same
//!    distribution as its centralized `rendez_gossip` counterpart,
//!    checked with the workspace KS harness.
//! 3. **Typed validation**: nonsense configurations come back as
//!    `ScenarioError`s, not mid-run panics.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_gossip::{
    run_spread, DatingSpread, FairPull, FairPushPull, Pull, Push, PushPull, SpreadProtocol,
};
use rendezvous::prelude::*;
use rendezvous::runtime::{Conditions, LatencyDist};
use rendezvous::stats::ks_two_sample;

/// Bit-identity across the whole report, not just the output.
fn assert_identical(
    a: &rendezvous::runtime::ScenarioReport,
    b: &rendezvous::runtime::ScenarioReport,
    tag: &str,
) {
    assert_eq!(a.rounds, b.rounds, "{tag}: rounds");
    assert_eq!(a.completed, b.completed, "{tag}: completion");
    assert_eq!(a.digests, b.digests, "{tag}: digest trace");
    assert_eq!(a.stats, b.stats, "{tag}: message accounting");
    assert_eq!(a.output, b.output, "{tag}: output");
}

#[test]
fn every_workload_is_executor_independent_with_and_without_churn() {
    let n = 400;
    let churns = [
        ("none", Churn::none()),
        ("intermittent", Churn::intermittent(0.15)),
        ("crash-stop", Churn::crash_stop(0.1, 30)),
    ];
    for spreader in Spreader::ALL {
        for (churn_tag, churn) in churns {
            // Crash-stopped nodes can never learn the rumor, so churned
            // spreading runs are capped instead of run to completion.
            let scenario = Scenario::new(n)
                .protocol(spreader)
                .cycles(12)
                .churn(churn)
                .max_rounds(240);
            let seq = scenario.run(0xACC).expect("valid scenario");
            for k in [2, 7] {
                let sh = scenario
                    .clone()
                    .sharded(k)
                    .run(0xACC)
                    .expect("valid scenario");
                assert_identical(&seq, &sh, &format!("{spreader}/{churn_tag}/k={k}"));
            }
        }
    }
}

#[test]
fn conditioned_scenarios_are_executor_independent() {
    // Loss + latency + churn together, still bit-identical.
    let scenario = Scenario::new(300)
        .protocol(Spreader::FairPushPull)
        .conditions(Conditions {
            drop_prob: 0.1,
            latency: LatencyDist::Uniform { min: 1, max: 2 },
        })
        .churn(Churn::intermittent(0.1))
        .max_rounds(2_000);
    let seq = scenario.run(0xC0).expect("valid scenario");
    assert!(seq.stats.dropped > 0, "loss must bite");
    assert!(seq.stats.churn_lost > 0, "churn must bite");
    for k in [2, 7] {
        let sh = scenario
            .clone()
            .sharded(k)
            .run(0xC0)
            .expect("valid scenario");
        assert_identical(&seq, &sh, &format!("conditioned/k={k}"));
    }
}

// ---------------------------------------------------------------------
// KS agreement: runtime cycles vs legacy rounds, per spreader.

const KS_N: usize = 200;
const KS_TRIALS: u64 = 100;

fn legacy_samples<'a, F>(mk: F, seed: u64) -> Vec<f64>
where
    F: Fn(usize) -> Box<dyn SpreadProtocol + 'a>,
{
    let platform = Platform::unit(KS_N);
    (0..KS_TRIALS)
        .map(|t| {
            let mut rng = SmallRng::seed_from_u64(seed ^ (t << 8));
            let mut proto = mk(KS_N);
            let r = run_spread(&mut *proto, &platform, NodeId(0), &mut rng, 100_000);
            assert!(r.completed);
            r.rounds as f64
        })
        .collect()
}

fn runtime_samples(spreader: Spreader, loss: f64, seed: u64) -> Vec<f64> {
    let scenario = Scenario::new(KS_N).protocol(spreader).loss(loss);
    (0..KS_TRIALS)
        .map(|t| {
            let r = scenario.run(seed ^ (t << 8)).expect("valid scenario");
            assert!(r.completed, "{spreader} trial {t} did not complete");
            r.expect_output().spread().expect("spreading").cycles as f64
        })
        .collect()
}

fn assert_ks_agreement(spreader: Spreader, legacy: Vec<f64>, runtime: Vec<f64>) {
    let r = ks_two_sample(&legacy, &runtime);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        r.accepts(0.001),
        "{spreader}: runtime cycles diverge from legacy rounds: D={:.4} p={:.5} \
         (legacy mean {:.2}, runtime mean {:.2})",
        r.statistic,
        r.p_value,
        mean(&legacy),
        mean(&runtime),
    );
}

#[test]
fn ks_push_matches_legacy() {
    assert_ks_agreement(
        Spreader::Push,
        legacy_samples(|_| Box::new(Push::new()), 0x11),
        runtime_samples(Spreader::Push, 0.0, 0x21),
    );
}

#[test]
fn ks_pull_matches_legacy() {
    assert_ks_agreement(
        Spreader::Pull,
        legacy_samples(|_| Box::new(Pull::new()), 0x12),
        runtime_samples(Spreader::Pull, 0.0, 0x22),
    );
}

#[test]
fn ks_push_pull_matches_legacy() {
    assert_ks_agreement(
        Spreader::PushPull,
        legacy_samples(|_| Box::new(PushPull::new()), 0x13),
        runtime_samples(Spreader::PushPull, 0.0, 0x23),
    );
}

#[test]
fn ks_fair_pull_matches_legacy() {
    assert_ks_agreement(
        Spreader::FairPull,
        legacy_samples(|_| Box::new(FairPull::new()), 0x14),
        runtime_samples(Spreader::FairPull, 0.0, 0x24),
    );
}

#[test]
fn ks_fair_push_pull_matches_legacy() {
    assert_ks_agreement(
        Spreader::FairPushPull,
        legacy_samples(|_| Box::new(FairPushPull::new()), 0x15),
        runtime_samples(Spreader::FairPushPull, 0.0, 0x25),
    );
}

#[test]
fn ks_dating_matches_legacy() {
    let selector = UniformSelector::new(KS_N);
    assert_ks_agreement(
        Spreader::Dating,
        legacy_samples(|_| Box::new(DatingSpread::new(&selector)), 0x16),
        runtime_samples(Spreader::Dating, 0.0, 0x26),
    );
}

#[test]
fn ks_lossy_dating_matches_legacy() {
    let selector = UniformSelector::new(KS_N);
    assert_ks_agreement(
        Spreader::LossyDating,
        legacy_samples(|_| Box::new(DatingSpread::with_loss(&selector, 0.3)), 0x17),
        runtime_samples(Spreader::LossyDating, 0.3, 0x27),
    );
}

// ---------------------------------------------------------------------
// Typed validation at the front door.

#[test]
fn builder_rejects_nonsense_without_panicking() {
    assert!(matches!(
        Scenario::new(1).run(0),
        Err(ScenarioError::TooFewNodes { n: 1 })
    ));
    assert!(matches!(
        Scenario::new(50).platform(Platform::unit(49)).run(0),
        Err(ScenarioError::PlatformMismatch { .. })
    ));
    assert!(matches!(
        Scenario::new(50).selector(UniformSelector::new(51)).run(0),
        Err(ScenarioError::SelectorMismatch { .. })
    ));
    assert!(matches!(
        Scenario::new(50)
            .protocol(Spreader::Push)
            .source(NodeId(50))
            .run(0),
        Err(ScenarioError::SourceOutOfRange { .. })
    ));
    let err = Scenario::new(50)
        .protocol_named("smoke-signals")
        .unwrap_err();
    assert!(err.to_string().contains("smoke-signals"));
}

#[test]
fn registry_names_drive_the_builder() {
    for spreader in Spreader::ALL {
        let report = Scenario::new(80)
            .protocol_named(spreader.name())
            .expect("registry name resolves")
            .cycles(3)
            .run(5)
            .expect("valid scenario");
        assert!(report.completed, "{spreader}");
    }
}

// ---------------------------------------------------------------------
// TimeModel API: the redesigned time axis end to end, and the pinned
// rounds-case JSON schema.

#[test]
fn sharding_never_overrides_continuous_time() {
    let base = Scenario::new(400).protocol(Spreader::PushPull);
    let continuous = TimeModel::Continuous { rate: 1.0 };
    let plain = base.clone().time_model(continuous);
    let reference = plain.run(9).expect("valid");
    assert!(matches!(reference.time, TimeAxis::SimSeconds { .. }));
    for (order, s) in [
        (
            "sharded first",
            base.clone().sharded(2).time_model(continuous),
        ),
        ("sharded last", plain.clone().sharded(2)),
    ] {
        assert_eq!(s.executor_name(), "event", "{order}");
        let report = s.run(9).expect("valid");
        assert_eq!(report.time, reference.time, "{order}: time axis");
        assert_identical(&report, &reference, order);
    }
}

#[test]
fn rounds_sweep_json_is_pinned_to_the_pre_time_model_schema() {
    // Byte-level pin: a default (rounds-only) sweep must render exactly
    // the schema emitted before the time-model axis existed — no
    // "time_model" key anywhere, same header and per-cell field order.
    use rendezvous::fleet::SweepSpec;
    let spec = SweepSpec::new()
        .ns(vec![16])
        .protocols(vec![Spreader::Push])
        .trials(2)
        .seed(12)
        .cycles(10);
    let json = rendezvous::fleet::Fleet::new(1)
        .run(&spec)
        .expect("sweep runs")
        .to_json();
    assert!(
        !json.contains("time_model"),
        "rounds cells must not grow keys"
    );
    assert!(json.starts_with(
        "{\n  \"schema\": \"rendez-fleet/sweep-v1\",\n  \"seed\": 12,\n  \
         \"trials_per_cell\": 2,\n  \"trials_per_job\": 16,\n  \"cells\": [\n"
    ));
    assert!(json.contains(
        "    {\"index\": 0, \"n\": 16, \"protocol\": \"push\", \"churn\": 0.0, \
         \"loss\": 0.0, \"trials\": 2, \"completed\": 2,\n"
    ));
    for key in [
        "\"value\": {",
        "\"rounds\": {",
        "\"sent\": {",
        "\"delivered\": {",
    ] {
        assert!(json.contains(key), "missing metric {key}");
    }
    assert!(json.ends_with("  ]\n}\n"));
}
