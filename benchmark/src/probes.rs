//! Replay probes: kernel-level layer metrics that no callback boundary
//! exposes. Each probe times one *public* function of a layer over the
//! op count the workload actually produced in one round (messages per
//! round, nodes, stash entries), for a few passes, and keeps the fastest
//! pass — the layer's cost with nothing else in the cache's way. They are
//! lower bounds on what the layer costs inside a run, not shares of it;
//! `conditions.fate_share_est` is labelled an estimate for that reason.

use crate::workloads::{Facts, Plan, System, Workload, PAR_THREADS};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rendez_core::{AliasSelector, DatingMsg, NodeSelector, UniformSelector};
use rendez_runtime::adapters::{AsyncGossipMsg, DatingSpreadMsg};
use rendez_runtime::arena::STASH_OFFERS;
use rendez_runtime::{EnvBatch, NodeArena, WorkerPool};
use rendez_sim::{NodeId, SplitMix64};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Passes per probe; the fastest is reported.
const PASSES: usize = 5;

/// Cap on ops per pass, so a probe stays in the tens of milliseconds.
const MAX_OPS: usize = 1 << 20;

/// Pool round trips timed for `pool.scope_roundtrip_ns`.
const ROUNDTRIPS: u32 = 2_000;

/// Fastest of [`PASSES`] timings of `f`, in seconds.
pub fn fastest(mut f: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Deterministic pseudo-random destinations, precomputed so the timed
/// loops contain the probed call and nothing else.
fn destinations(count: usize, n: usize, seed: u64) -> Vec<NodeId> {
    (0..count as u64)
        .map(|i| NodeId::from_index((SplitMix64::mix(seed ^ i) % n as u64) as usize))
        .collect()
}

/// `batch.*`: push one round's messages into an [`EnvBatch`] the way
/// `Outbox::send` does (per-sender runs, ascending sequence numbers),
/// then read them back run by run.
fn batch<M: Clone>(
    out: &mut BTreeMap<&'static str, f64>,
    msg: M,
    n: usize,
    per_round: usize,
    seed: u64,
) {
    let dsts = destinations(per_round, n, seed);
    let per_src = per_round.div_ceil(n).max(1);
    let mut b: EnvBatch<M> = EnvBatch::new();
    let fill = |b: &mut EnvBatch<M>| {
        b.clear();
        for (k, &dst) in dsts.iter().enumerate() {
            let src = NodeId::from_index(k / per_src);
            b.push(src, (k % per_src) as u64, dst, msg.clone());
        }
    };
    fill(&mut b); // grow once, untimed
    let push_s = fastest(|| fill(black_box(&mut b)));
    let read_s = fastest(|| {
        let mut acc = 0usize;
        b.for_each_run(|run, dsts, msgs| {
            acc += run.src.index() + msgs.len();
            for d in dsts {
                acc += d.index();
            }
        });
        black_box(acc);
    });
    let msgs = b.len().max(1) as f64;
    out.insert("batch.push_ns_per_msg", push_s * 1e9 / msgs);
    out.insert("batch.read_ns_per_msg", read_s * 1e9 / msgs);
    let bytes = b.len() * (std::mem::size_of::<NodeId>() + std::mem::size_of::<M>())
        + std::mem::size_of_val(b.runs());
    out.insert("batch.bytes_per_msg", bytes as f64 / msgs);
}

/// `conditions.*` and `churn.*`: the per-message fate kernel (seed
/// hoisted once per sender, as `route_sends` does) and the per-node
/// liveness hash.
fn fate_and_churn(
    out: &mut BTreeMap<&'static str, f64>,
    plan: &Plan,
    facts: &Facts,
    per_round: usize,
    run_wall_s: f64,
) {
    let per_src = per_round.div_ceil(plan.n).max(1) as u64;
    let fate_s = fastest(|| {
        let mut delivered = 0u64;
        for src in 0..(per_round as u64 / per_src) {
            let run = plan
                .conditions
                .fate_run(plan.seed, NodeId::from_index(src as usize));
            for seq in 0..per_src {
                delivered += run.fate(black_box(seq)).is_some() as u64;
            }
        }
        black_box(delivered);
    });
    let fate_ns = fate_s * 1e9 / per_round.max(1) as f64;
    out.insert("conditions.fate_ns_per_msg", fate_ns);
    out.insert(
        "conditions.fate_share_est",
        fate_ns * 1e-9 * facts.sent as f64 / run_wall_s,
    );
    let sent = facts.sent.max(1) as f64;
    out.insert("conditions.dropped_frac", facts.dropped as f64 / sent);
    out.insert("churn.lost_frac", facts.churn_lost as f64 / sent);

    let checks = plan.n.min(MAX_OPS);
    let alive_s = fastest(|| {
        let mut up = 0u64;
        for i in 0..checks {
            up += plan
                .churn
                .alive(plan.seed, NodeId::from_index(i), black_box(3)) as u64;
        }
        black_box(up);
    });
    out.insert("churn.alive_ns_per_check", alive_s * 1e9 / checks as f64);
}

/// `arena.*`: stash one round's entries node by node (contiguous per
/// node, as the delivery phase produces them), shuffle every node's
/// stash, and reset the arena.
fn arena(out: &mut BTreeMap<&'static str, f64>, n: usize, per_round: usize, seed: u64) {
    let entries = destinations(per_round, n, seed ^ 0xa7e4a);
    let per_node = per_round.div_ceil(n).max(1);
    let mut a = NodeArena::new(0, n);
    let fill = |a: &mut NodeArena| {
        a.begin_round();
        for (k, &v) in entries.iter().enumerate() {
            a.push(NodeId::from_index(k / per_node), STASH_OFFERS, v);
        }
    };
    fill(&mut a);
    let push_s = fastest(|| fill(black_box(&mut a)));
    let nodes_used = per_round.div_ceil(per_node);
    let mut rng = SmallRng::seed_from_u64(seed);
    let shuffle_s = fastest(|| {
        for i in 0..nodes_used {
            let id = NodeId::from_index(i);
            let len = a.len_of(id, STASH_OFFERS);
            a.shuffle(id, STASH_OFFERS, len, &mut rng);
        }
    });
    // The reset alone: refill (untimed) before every timed call.
    let reset_s = (0..PASSES)
        .map(|_| {
            fill(&mut a);
            let t = Instant::now();
            black_box(&mut a).begin_round();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let per = per_round.max(1) as f64;
    out.insert("arena.push_ns_per_entry", push_s * 1e9 / per);
    out.insert("arena.shuffle_ns_per_entry", shuffle_s * 1e9 / per);
    out.insert("arena.begin_round_ns", reset_s * 1e9);
}

/// `selector.*` and `platform.*`: uniform and alias draws at the
/// workload's `n`, and what building the heterogeneous inputs costs.
fn selectors(out: &mut BTreeMap<&'static str, f64>, plan: &Plan, per_round: usize) {
    let mut platform = None;
    let platform_s = fastest(|| platform = Some(black_box(plan.power_law_platform())));
    let platform = platform.expect("at least one pass ran");
    let mut alias: Option<AliasSelector> = None;
    let alias_s = fastest(|| alias = Some(black_box(plan.alias_selector(&platform))));
    let alias = alias.expect("at least one pass ran");
    out.insert("platform.power_law_build_s", platform_s);
    out.insert("selector.alias_build_s", alias_s);

    let mut rng = SmallRng::seed_from_u64(plan.seed);
    let draws = per_round.max(1);
    out.insert(
        "selector.uniform_ns_per_draw",
        draw_ns(&UniformSelector::new(plan.n), draws, &mut rng),
    );
    out.insert(
        "selector.alias_ns_per_draw",
        draw_ns(&alias, draws, &mut rng),
    );
}

/// Nanoseconds per `select` over `draws` draws (statically dispatched,
/// as in the adapters).
fn draw_ns<S: NodeSelector>(selector: &S, draws: usize, rng: &mut SmallRng) -> f64 {
    fastest(|| {
        let mut acc = 0usize;
        for _ in 0..draws {
            acc += selector.select(rng).index();
        }
        black_box(acc);
    }) * 1e9
        / draws as f64
}

/// `scenario.*` and `pool.*`: the two halves of set-up, and what the
/// worker pool costs to create and to cross once.
fn setup_and_pool(out: &mut BTreeMap<&'static str, f64>, plan: &Plan) -> Result<(), String> {
    let mut built = None;
    let build_s = fastest(|| built = Some(System::build(black_box(plan))));
    let system = built.expect("at least one pass ran");
    let mut outcome = Ok(());
    let first_s = fastest(|| outcome = system.first_round(plan));
    outcome?;
    out.insert("scenario.build_validate_s", build_s);
    out.insert("scenario.first_round_s", first_s);

    let mut pool = None;
    let spawn_s = fastest(|| pool = Some(WorkerPool::new(PAR_THREADS)));
    let pool = pool.expect("at least one pass ran");
    let t = Instant::now();
    for _ in 0..ROUNDTRIPS {
        pool.scope(|s| {
            for _ in 0..PAR_THREADS {
                s.spawn(|| {
                    black_box(());
                });
            }
        });
    }
    out.insert("pool.spawn_s", spawn_s);
    out.insert(
        "pool.scope_roundtrip_ns",
        t.elapsed().as_secs_f64() * 1e9 / ROUNDTRIPS as f64,
    );
    Ok(())
}

/// Run every probe for `plan`, sized by the run that produced `facts`
/// in `run_wall_s` seconds.
pub fn all(
    plan: &Plan,
    facts: &Facts,
    run_wall_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    // One round's messages; an event or a sweep has no rounds, so one
    // message per node stands in.
    let per_round = match facts.rounds {
        0 => plan.n,
        r => (facts.sent / r) as usize,
    }
    .clamp(1, MAX_OPS);
    match plan.workload {
        Workload::HeteroDatingSeq => {
            batch(&mut out, DatingMsg::Offer, plan.n, per_round, plan.seed)
        }
        Workload::AsyncEvents => batch(
            &mut out,
            AsyncGossipMsg::Rumor,
            plan.n,
            per_round,
            plan.seed,
        ),
        _ => batch(
            &mut out,
            DatingSpreadMsg::Offer,
            plan.n,
            per_round,
            plan.seed,
        ),
    }
    fate_and_churn(&mut out, plan, facts, per_round, run_wall_s);
    arena(&mut out, plan.n, per_round, plan.seed);
    selectors(&mut out, plan, per_round);
    setup_and_pool(&mut out, plan)?;
    Ok(out)
}
