//! The one round engine: shards that own their nodes, and the
//! coordinator loop that drives them.
//!
//! Nodes are partitioned into contiguous shards of `n.div_ceil(shards)`
//! ids. A [`Shard`] **owns** its chunk of the run state — node states,
//! RNG streams, send counters, liveness mask — plus everything a round
//! needs to stay allocation-free: the emission batch, the route/deliver
//! kernels' scratch, a pool of recycled envelope segments, the hoisted
//! churn streams and the node arena. [`Shard::round`] is the only round
//! body in the crate: churn mask → round-start → deliveries → round-end
//! → observation fold → fate + routing of the shard's own sends into
//! `routed[latency_slot][destination_shard]` (a move of the whole
//! emission batch where the layout has one such bucket, see "Memory
//! discipline").
//!
//! [`drive`] is the only coordinator: it keeps the latency ring, hands
//! each shard the segments due this round, splices the routed lanes back
//! into the ring in shard order (whole-batch moves — no envelope is
//! touched), merges the per-shard [`RoundObs`] partials and asks the
//! protocol for the digest and the verdict. Between-round coordinator
//! work is O(shards · latency slots), independent of `n`.
//!
//! [`SequentialExecutor`](super::SequentialExecutor) is this loop over
//! one shard, run inline on the calling thread;
//! [`ShardedExecutor`](super::ShardedExecutor) hands each round's shards
//! out as `&mut Shard` through one [`WorkerPool::scope`] — all but the
//! last as jobs, the last to the coordinating thread itself, which would
//! otherwise sleep through the round. Workers borrow `&P` inside the
//! scope and the coordinator takes `&mut P` for the verdict between
//! scopes, so the borrow checker — not a convention — keeps round
//! callbacks and the verdict apart. A panic in a protocol callback
//! reaches the caller verbatim on either path.
//!
//! # Determinism
//!
//! Traces are bit-identical — same digests, output, round count and
//! statistics — for every shard count and pool size. The invariants, in
//! dependency order:
//!
//! 1. **Node isolation.** Callbacks touch exactly one node's state and
//!    private RNG stream, so running disjoint node ranges concurrently
//!    cannot interleave state.
//! 2. **Fate purity.** A message's loss/latency is a pure function of
//!    `(seed, src, seq)` ([`Conditions::fate`](crate::Conditions::fate)),
//!    and its `(src, seq)` identity is assigned by protocol behaviour
//!    alone, so deciding it in the sending shard cannot change any
//!    outcome.
//! 3. **Splice order = emission order.** Shards are contiguous id ranges
//!    spliced in shard order, and each shard's routed buckets are
//!    `(src, seq)`-sorted ([`route_sends`] walks sources in ascending id
//!    order; [`route_whole`] only takes a batch that was emitted in that
//!    order). Concatenating shard buckets in shard order therefore
//!    yields the one-shard run's per-bucket content and order.
//! 4. **Delivery order.** Messages due in a round are consumed in
//!    `(dst, src, seq)` order. A lane holds src-ascending segments in
//!    (send round, shard) order; [`order_deliveries`] merges their run
//!    *headers* into `(src, seq)` order — one stream per send round, so
//!    a lane filled by one round (always, under fixed latency such as
//!    the paper's synchronous model) is plain concatenation — and one
//!    stable counting pass by destination completes the sort in
//!    `O(m + shard_width)`, with no comparison sort over messages.
//! 5. **Associative observation.** [`RoundObs::merge`] is commutative
//!    and associative, so the shard-order merge of per-shard partials
//!    equals a single whole-run fold.
//!
//! # Memory discipline
//!
//! Messages travel in compact SoA [`EnvBatch`] lanes (see the
//! [`batch`](crate::batch) module), and batches cycle rather than churn:
//! fresh → ring → due → pool → fresh. A routed batch is moved
//! (pointer-level) into the ring, later handed to the destination shard
//! as a delivery segment, drained there, and kept in that shard's segment
//! pool. Where a round's whole emission is one routed bucket — one shard,
//! fixed latency (the paper's synchronous model, with or without loss),
//! sends already in `(src, seq)` order — the emission batch *is* that
//! routed batch: fate filters it in place ([`route_whole`]), it goes to
//! the ring as it stands, and the pool backs the next round's emissions,
//! so two batches alternate and no message is copied between emission and
//! delivery ordering. Every other round ([`route_sends`]: several shards,
//! a latency spread, or a node that sent from two phases of the round)
//! copies survivors into per-bucket batches that the pool backs. What
//! the pool cannot supply is sized, not grown: the first emission batch
//! has room for one message and one run per node, its stand-in after a
//! hand-over for at least the round just routed, and a routed bucket for
//! its share of the round's emission — so cold rounds do not grow buffers
//! from zero and warm rounds do not allocate.
//!
//! lint: deterministic

use super::pool::WorkerPool;
use crate::arena::NodeArena;
use crate::batch::{
    order_deliveries, route_sends, route_whole, DeliverScratch, EnvBatch, RouteScratch,
};
use crate::churn::ChurnCache;
use crate::proto::{observe_nodes, Outbox, RoundObs, RoundProtocol, Verdict};
use crate::report::{NetStats, RunConfig, RunReport, TimeAxis};
use rand::rngs::SmallRng;
use rendez_sim::{small_rng_for, NodeId};
use std::collections::VecDeque;

/// Cap on a shard's pool of recycled envelope segments.
const POOL_CAP: usize = 64;

/// Shard layout of one run.
#[derive(Clone, Copy)]
struct Geometry {
    n: usize,
    chunk: usize,
    shards: usize,
    slots: usize,
}

/// One contiguous id range `base..base + nodes.len()` of a run, with
/// everything its rounds read and write.
struct Shard<P: RoundProtocol> {
    base: usize,
    nodes: Vec<P::Node>,
    rngs: Vec<SmallRng>,
    seqs: Vec<u64>,
    /// Liveness mask of the current round; empty iff churn is off.
    live: Vec<bool>,
    churn: ChurnCache,
    arena: NodeArena,
    /// This round's emissions: drained by [`route_sends`], or handed
    /// over whole ([`route_whole`]) and replaced from `pool`.
    fresh: EnvBatch<P::Msg>,
    rs: RouteScratch,
    ds: DeliverScratch<P::Msg>,
    /// Drained delivery segments, kept to back the next routed batches
    /// and emission batches.
    pool: Vec<EnvBatch<P::Msg>>,
    /// This round's surviving sends: `routed[slot][dest_shard]`, each
    /// batch `(src, seq)`-sorted; slot `k` is due `k + 1` rounds on. The
    /// coordinator's splice takes the batches and leaves the skeleton.
    routed: Vec<Vec<EnvBatch<P::Msg>>>,
}

/// Keep a drained segment in `pool` for reuse (bounded, so a bursty
/// round cannot pin memory forever).
fn recycle<M>(pool: &mut Vec<EnvBatch<M>>, seg: EnvBatch<M>) {
    if pool.len() < POOL_CAP && seg.has_capacity() {
        pool.push(seg);
    }
}

impl<P: RoundProtocol> Shard<P> {
    /// Shard `s` of the layout `geo`: RNG streams, then node states in
    /// id order.
    fn new(proto: &P, cfg: &RunConfig, geo: Geometry, s: usize) -> Self {
        let base = s * geo.chunk;
        let len = geo.chunk.min(geo.n - base);
        let mut rngs: Vec<SmallRng> = (base..base + len)
            .map(|i| small_rng_for(cfg.seed, i as u64))
            .collect();
        let nodes = rngs
            .iter_mut()
            .enumerate()
            .map(|(off, rng)| proto.init_node(NodeId::from_index(base + off), rng))
            .collect();
        let churn = cfg.churn.cache(cfg.seed, base, len);
        Shard {
            base,
            nodes,
            rngs,
            seqs: vec![0; len],
            live: vec![true; if churn.is_none() { 0 } else { len }],
            churn,
            arena: NodeArena::new(base, len),
            fresh: EnvBatch::with_capacity(len, len),
            rs: RouteScratch::default(),
            ds: DeliverScratch::default(),
            pool: Vec::new(),
            routed: (0..geo.slots)
                .map(|_| (0..geo.shards).map(|_| EnvBatch::new()).collect())
                .collect(),
        }
    }

    /// One full round for this shard's nodes: the three phase hooks, the
    /// observation fold, then fate + routing of the shard's own sends
    /// into `self.routed`. `due` holds the delivery segments due this
    /// round, in splice order, and is left empty.
    fn round(
        &mut self,
        proto: &P,
        cfg: &RunConfig,
        geo: Geometry,
        round: u64,
        due: &mut Vec<EnvBatch<P::Msg>>,
    ) -> (NetStats, RoundObs) {
        let Shard {
            base,
            nodes,
            rngs,
            seqs,
            live,
            churn,
            arena,
            fresh,
            rs,
            ds,
            pool,
            routed,
        } = self;
        let (base, len, n) = (*base, nodes.len(), geo.n);
        let mut tally = NetStats::default();
        if !live.is_empty() {
            churn.fill_live_mask(round, live);
        }
        // Down nodes are not dispatched (their RNG streams do not
        // advance) and lose the mail due to them this round.
        let up = |off: usize| live.is_empty() || live[off];
        arena.begin_round();

        // Phase 1: round-start hooks, id order.
        for (off, node) in nodes.iter_mut().enumerate() {
            if !up(off) {
                continue;
            }
            let id = NodeId::from_index(base + off);
            let mut out = Outbox::new(id, n, &mut seqs[off], fresh, arena);
            proto.on_round_start(node, id, round, &mut rngs[off], &mut out);
        }

        // Phase 2: deliveries in (dst, src, seq) order — run-header merge
        // plus one stable counting pass, then one `on_receive_run`
        // dispatch per destination.
        let total = order_deliveries(due, base, len, ds);
        for seg in due.drain(..) {
            recycle(pool, seg);
        }
        if total > 0 {
            for off in 0..len {
                let (s, e) = (ds.starts[off] as usize, ds.starts[off + 1] as usize);
                if s == e {
                    continue;
                }
                if !up(off) {
                    tally.churn_lost += (e - s) as u64;
                    continue;
                }
                tally.delivered += (e - s) as u64;
                let id = NodeId::from_index(base + off);
                let mut out = Outbox::new(id, n, &mut seqs[off], fresh, arena);
                proto.on_receive_run(
                    &mut nodes[off],
                    id,
                    &ds.srcs[s..e],
                    &ds.msgs[s..e],
                    round,
                    &mut rngs[off],
                    &mut out,
                );
            }
        }

        // Phase 3: round-end hooks, id order.
        for (off, node) in nodes.iter_mut().enumerate() {
            if !up(off) {
                continue;
            }
            let id = NodeId::from_index(base + off);
            let mut out = Outbox::new(id, n, &mut seqs[off], fresh, arena);
            proto.on_round_end(node, id, round, &mut rngs[off], &mut out);
        }

        let obs = observe_nodes(proto, base, nodes, round);

        // Routing. Where the whole emission is one routed bucket (one
        // shard, fixed latency, sends already in (src, seq) order) it is
        // handed over as it stands: fate filters it in place, the batch
        // itself becomes the bucket, and a pooled batch — or a new one
        // sized like this round — backs the next emissions.
        let whole = if geo.shards == 1 {
            route_whole(fresh, cfg.seed, &cfg.conditions, &mut tally, |m| {
                proto.msg_bytes(m)
            })
        } else {
            None
        };
        if let Some(slot) = whole {
            let next = pool
                .pop()
                .unwrap_or_else(|| EnvBatch::with_capacity(len.max(fresh.len()), len));
            routed[slot][0] = std::mem::replace(fresh, next);
        } else {
            // The hoisted fate kernel walks this shard's emissions
            // grouped by source and buckets survivors by
            // [latency_slot][destination_shard]; downstream splices
            // preserve the (src, seq) order, which is what makes
            // delivery-side counting exact. A bucket the splice took is
            // re-backed on its first push, from the pool or sized to its
            // share of the round.
            let seg_msgs = fresh.len().div_ceil(geo.slots * geo.shards);
            let seg_runs = fresh.runs().len().min(seg_msgs);
            route_sends(
                fresh,
                cfg.seed,
                &cfg.conditions,
                base,
                len,
                rs,
                &mut tally,
                |m| proto.msg_bytes(m),
                |slot, src, dst, msg| {
                    let bucket = &mut routed[slot][dst.index() / geo.chunk];
                    if !bucket.has_capacity() {
                        *bucket = pool
                            .pop()
                            .unwrap_or_else(|| EnvBatch::with_capacity(seg_msgs, seg_runs));
                    }
                    bucket.push_grouped(src, dst, msg);
                },
            );
        }
        (tally, obs)
    }
}

/// Run `proto` over `n` nodes in `shards` contiguous shards until it
/// halts or `cfg.max_rounds`. Each round is one `pool.scope`: every
/// shard but the last runs as a job, the last — the only one, when the
/// layout comes to one shard — on the calling thread. Without a pool
/// all of them run inline on the calling thread.
pub(super) fn drive<P: RoundProtocol>(
    proto: &mut P,
    n: usize,
    cfg: &RunConfig,
    shards: usize,
    pool: Option<&WorkerPool>,
) -> RunReport<P::Output> {
    assert!(n > 0, "a run needs at least one node");
    assert!(
        (0.0..1.0).contains(&cfg.conditions.drop_prob),
        "drop_prob must be in [0,1), got {}",
        cfg.conditions.drop_prob
    );
    cfg.conditions.latency.validate();
    cfg.churn.validate();

    let chunk = n.div_ceil(shards.max(1));
    let geo = Geometry {
        n,
        chunk,
        shards: n.div_ceil(chunk),
        slots: cfg.conditions.latency_slots(),
    };
    let mut shards: Vec<Shard<P>> = (0..geo.shards)
        .map(|s| Shard::new(&*proto, cfg, geo, s))
        .collect();

    // `ring[k][dest_shard]` lists the segments due `k` rounds after the
    // current pop, in arrival (= emission) order: `slots` rows, popped
    // at the front and pushed back hollow once per round, so filing
    // never grows the ring.
    let mut ring: VecDeque<Vec<Vec<EnvBatch<P::Msg>>>> = (0..geo.slots)
        .map(|_| (0..geo.shards).map(|_| Vec::new()).collect())
        .collect();
    let mut outs = vec![(NetStats::default(), RoundObs::default()); geo.shards];
    let mut stats = NetStats::default();
    let mut digests = Vec::new();
    let mut output = None;
    let mut rounds = cfg.max_rounds;

    for round in 0..cfg.max_rounds {
        let mut row = ring.pop_front().expect("ring holds `slots` rows");
        let mut jobs = shards.iter_mut().zip(&mut row).zip(&mut outs);
        let shared: &P = proto;
        let run = move |((shard, due), out): ((&mut Shard<P>, _), &mut _)| {
            *out = shard.round(shared, cfg, geo, round, due);
        };
        match pool {
            None => jobs.for_each(run),
            Some(pool) => pool.scope(|scope| {
                let mine = jobs.next_back();
                for job in jobs {
                    scope.spawn(move || run(job));
                }
                if let Some(job) = mine {
                    run(job);
                }
            }),
        }
        ring.push_back(row);

        // Splice in shard order: shard s's bucket for (slot, dest) is
        // appended after shards 0..s's, so each lane's concatenation
        // equals the one-shard emission order (module docs, invariant
        // 3). The partials merge in the same order.
        let mut merged = RoundObs::default();
        for (shard, (tally, obs)) in shards.iter_mut().zip(&outs) {
            stats.absorb(tally);
            merged.merge(obs);
            for (lanes, row) in shard.routed.iter_mut().zip(ring.iter_mut()) {
                for (seg, due) in lanes.iter_mut().zip(row) {
                    if !seg.is_empty() {
                        due.push(std::mem::take(seg));
                    }
                }
            }
        }
        digests.push(proto.digest_obs(&merged, round));
        if let Verdict::Halt(out) = proto.finalize_obs(&merged, round) {
            output = Some(out);
            rounds = round + 1;
            break;
        }
    }

    RunReport {
        rounds,
        time: TimeAxis::Rounds(rounds),
        completed: output.is_some(),
        output,
        digests,
        stats,
        node_bytes: shards
            .iter()
            .flat_map(|shard| &shard.nodes)
            .map(|node| proto.node_mem_bytes(node) as u64)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::testproto::RandomPing;
    use super::*;
    use crate::conditions::Conditions;

    /// The batch cycle fresh → ring → due → pool → fresh closes on two
    /// batches: once both are warm no round allocates, grows or strands
    /// one — on the hand-over path with and without loss.
    #[test]
    fn batch_capacities_are_stable_after_three_warm_rounds() {
        const N: usize = 64;
        for cond in [Conditions::ideal(), Conditions::with_loss(0.3)] {
            let proto = RandomPing {
                n: N,
                target_total: u64::MAX,
            };
            let cfg = RunConfig::seeded(4).conditions(cond);
            let geo = Geometry {
                n: N,
                chunk: N,
                shards: 1,
                slots: 1,
            };
            let mut shard = Shard::new(&proto, &cfg, geo, 0);
            let mut due = Vec::new();
            let mut live = Vec::new();
            for round in 0..8 {
                let (tally, _) = shard.round(&proto, &cfg, geo, round, &mut due);
                assert_eq!(tally.sent, N as u64);
                // The coordinator's splice, for the one lane there is.
                assert!(due.is_empty());
                due.push(std::mem::take(&mut shard.routed[0][0]));
                assert!(!due[0].runs().is_empty(), "the emission was handed over");
                let mut caps: Vec<_> = std::iter::once(&shard.fresh)
                    .chain(&due)
                    .chain(&shard.pool)
                    .map(EnvBatch::capacities)
                    .collect();
                caps.sort_unstable();
                live.push(caps);
            }
            assert_eq!(live[3].len(), 2, "fresh + the one in flight: {live:?}");
            assert!(live[3..].iter().all(|caps| *caps == live[3]), "{live:?}");
        }
    }

    #[test]
    fn recycle_pool_is_bounded() {
        let mut pool: Vec<EnvBatch<u32>> = Vec::new();
        for _ in 0..(POOL_CAP + 10) {
            recycle(&mut pool, EnvBatch::with_capacity(1, 1));
        }
        assert_eq!(pool.len(), POOL_CAP);
        // Zero-capacity batches are not worth pooling.
        pool.pop();
        recycle(&mut pool, EnvBatch::new());
        assert_eq!(pool.len(), POOL_CAP - 1);
    }
}
