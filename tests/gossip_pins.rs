//! Exact pins for the five round-model uniform-gossip spreaders (PUSH,
//! PULL, PUSH&PULL, fair PULL, fair PUSH&PULL) run through `Scenario`.
//!
//! Each row fixes one `(spreader, seed, conditions)` run bit for bit:
//! rounds, legacy-equivalent cycles, every `NetStats` field and an
//! FNV-1a hash of the per-round digests. Both executors read the same
//! table, so a row also pins sequential against `sharded(3)`. A change
//! to any RNG draw, send order or phase guard of the adapters moves at
//! least one column.

use rendezvous::prelude::*;
use rendezvous::runtime::{Conditions, LatencyDist, NetStats};

const N: usize = 300;

/// FNV-1a over the little-endian bytes of `xs`.
fn fnv1a(xs: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in xs.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `faulty` = loss 0.1, latency uniform on 1..=3 and intermittent churn
/// 0.05; otherwise the ideal channel.
fn scenario(spreader: Spreader, faulty: bool) -> Scenario {
    let base = Scenario::new(N).protocol(spreader);
    if faulty {
        base.conditions(Conditions {
            drop_prob: 0.1,
            latency: LatencyDist::Uniform { min: 1, max: 3 },
        })
        .churn(Churn::intermittent(0.05))
    } else {
        base
    }
}

/// `(spreader, seed, faulty, rounds, cycles, sent, bytes_sent,
/// delivered, dropped, churn_lost, fnv1a(digests))`.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const PINS: [(Spreader, u64, bool, u64, u64, u64, u64, u64, u64, u64, u64); 20] = [
    (Spreader::Push, 0x1, false, 32, 16, 2208, 2208, 2208, 0, 0, 0x416442e629a0abca),
    (Spreader::Push, 0xBEEF, false, 34, 17, 2632, 2632, 2632, 0, 0, 0x89228ed039bae46f),
    (Spreader::Push, 0x1, true, 38, 19, 2135, 2135, 1651, 221, 97, 0xe0d6531bd76a1e95),
    (Spreader::Push, 0xBEEF, true, 44, 22, 3112, 3112, 2513, 290, 136, 0xa385fb76c4e8afc2),
    (Spreader::Pull, 0x1, false, 36, 12, 2806, 2806, 2806, 0, 0, 0xb93ecc3dca9ddf17),
    (Spreader::Pull, 0xBEEF, false, 39, 13, 3135, 3135, 3135, 0, 0, 0x336e7b0c68264afc),
    (Spreader::Pull, 0x1, true, 74, 25, 5669, 5669, 4822, 598, 245, 0x23492016c88fc2fb),
    (Spreader::Pull, 0xBEEF, true, 70, 24, 4859, 4859, 4175, 472, 210, 0x712c3435848c11a6),
    (Spreader::PushPull, 0x1, false, 24, 8, 2596, 2596, 2596, 0, 0, 0xa923ec8d48aa5a20),
    (Spreader::PushPull, 0xBEEF, false, 23, 8, 2602, 2602, 2601, 0, 0, 0xfd466c52583e8507),
    (Spreader::PushPull, 0x1, true, 41, 14, 4319, 4319, 3510, 462, 180, 0x8e70f98c26f50540),
    (Spreader::PushPull, 0xBEEF, true, 34, 12, 3749, 3749, 2969, 369, 151, 0xa34cab77ccccabce),
    (Spreader::FairPull, 0x1, false, 45, 15, 3576, 3576, 3576, 0, 0, 0x4be694b2b233055c),
    (Spreader::FairPull, 0xBEEF, false, 51, 17, 4099, 4099, 4099, 0, 0, 0xc0805ba70b07c969),
    (Spreader::FairPull, 0x1, true, 194, 65, 11112, 11112, 9431, 1195, 485, 0x3ef231fb0fe02090),
    (Spreader::FairPull, 0xBEEF, true, 149, 50, 8449, 8449, 7247, 839, 362, 0x3f7b46f4bb3e926e),
    (Spreader::FairPushPull, 0x1, false, 27, 9, 2873, 2873, 2873, 0, 0, 0x6793f40590c43239),
    (Spreader::FairPushPull, 0xBEEF, false, 26, 9, 2871, 2871, 2869, 0, 0, 0xa70ff2727d23c72b),
    (Spreader::FairPushPull, 0x1, true, 48, 16, 4659, 4659, 3880, 492, 208, 0x130dda0d9e61e6cb),
    (Spreader::FairPushPull, 0xBEEF, true, 44, 15, 4395, 4395, 3604, 431, 191, 0x4039a70aa73b4e5a),
];

/// Run every row on one executor and compare all its columns.
fn check_executor(sharded: bool) {
    for (
        spreader,
        seed,
        faulty,
        rounds,
        cycles,
        sent,
        bytes_sent,
        delivered,
        dropped,
        churn_lost,
        digests,
    ) in PINS
    {
        let base = scenario(spreader, faulty);
        let base = if sharded {
            base.sharded(3)
        } else {
            base.sequential()
        };
        let report = base.run(seed).expect("valid scenario");
        let what = format!("{spreader} seed {seed:#x} faulty={faulty} sharded={sharded}");
        assert!(report.completed, "{what}: did not complete");
        assert_eq!(report.rounds, rounds, "{what}: rounds");
        let out = report
            .output
            .as_ref()
            .and_then(|o| o.spread())
            .expect("spread output");
        assert_eq!(out.cycles, cycles, "{what}: cycles");
        let stats = NetStats {
            sent,
            bytes_sent,
            delivered,
            dropped,
            churn_lost,
        };
        assert_eq!(report.stats, stats, "{what}: net stats");
        assert_eq!(fnv1a(&report.digests), digests, "{what}: digests");
    }
}

#[test]
fn sequential_runs_match_the_pins() {
    check_executor(false);
}

#[test]
fn sharded_runs_match_the_pins() {
    check_executor(true);
}
