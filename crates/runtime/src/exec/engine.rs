//! The one round engine: shards that own their nodes, and the
//! coordinator loop that drives them.
//!
//! Nodes are partitioned into contiguous shards of `n.div_ceil(shards)`
//! ids. A [`Shard`] **owns** its chunk of the run state — node states,
//! RNG streams, send counters, liveness mask — plus everything a round
//! needs to stay allocation-free: the emission lanes, the delivery
//! kernel's scratch, a pool of recycled envelope segments, the hoisted
//! churn streams and the node arena. [`Shard::round`] is the only round
//! body in the crate: churn mask → round-start → deliveries → round-end
//! → observation fold → routing of the shard's own sends into
//! `routed[latency_slot][destination_shard]`. Where a message goes is
//! decided where it is emitted — [`Outbox::send`] files it in the
//! emission lane of its destination's shard and, on a channel that loses
//! or delays, of the latency slot its fate assigns — so routing is a
//! tally and a move of each lane (see "Memory discipline").
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
//!    spliced in shard order, and each shard's routed bucket for a slot
//!    and destination shard is its emission lane for them, as emitted.
//!    Filing a send by slot and destination shard keeps the relative
//!    order of the sends that share a lane, so concatenating shard
//!    buckets in shard order yields, per bucket, the one-shard run's
//!    messages for those destinations in the one-shard run's order.
//! 4. **Delivery order.** Messages due in a round are consumed in
//!    `(dst, src, seq)` order. A ring lane holds segments in (send
//!    round, shard) order, each src-ascending but for a step back where
//!    a later phase of its round began; [`order_deliveries`] merges their
//!    run *headers* into `(src, seq)` order — one stream per send round
//!    and phase, so a lane filled by one single-phase round (the paper's
//!    synchronous model) is plain concatenation — and one stable counting
//!    pass by destination completes the sort in `O(m + shard_width)`,
//!    with no comparison sort over messages.
//! 5. **Associative observation.** [`RoundObs::merge`] is commutative
//!    and associative, so the shard-order merge of per-shard partials
//!    equals a single whole-run fold.
//!
//! # Memory discipline
//!
//! Messages travel in compact SoA [`EnvBatch`] lanes (see the
//! [`batch`](crate::batch) module), and batches cycle rather than churn:
//! lane → ring → due → pool → lane, on every shard count and under every
//! [`Conditions`]. A lane *is* the routed bucket for its latency slot and
//! destination shard: it is tallied, moved (pointer-level) into the ring,
//! later handed to the destination shard as a delivery segment, drained
//! there and kept in that shard's segment pool, which backs that shard's
//! next lanes. Two batches alternate per lane and no message is copied
//! between emission and delivery ordering. What the pool cannot supply is
//! sized, not grown, and not before it is needed: a lane without a batch
//! — every lane when the run begins, later one that was handed over while
//! the pool was empty — is backed as the next round starts, with room for
//! its share of one message and one run per node and for a round like the
//! one just routed ([`Geometry::lane_room`]). So cold rounds do not grow
//! buffers from zero, warm rounds do not allocate, a lane nothing is ever
//! due in keeps its first batch, and a run's last round leaves no batch
//! behind for a round that does not come.
//!
//! lint: deterministic

use super::pool::WorkerPool;
use crate::arena::NodeArena;
use crate::batch::{order_deliveries, slot_rows, DeliverScratch, EnvBatch, Lanes};
use crate::churn::ChurnCache;
use crate::conditions::Conditions;
use crate::proto::{observe_nodes, Outbox, RoundObs, RoundProtocol, Verdict};
use crate::report::{NetStats, RunConfig, RunReport, TimeAxis};
use rand::rngs::SmallRng;
use rendez_sim::{small_rng_for, NodeId};
use std::collections::VecDeque;

/// Shard layout of one run: `shards` contiguous ranges of `chunk` ids
/// (the last may be shorter) and `slots` latency slots, of which a
/// round's sends can be due in the last `rows`.
#[derive(Clone, Copy)]
struct Geometry {
    n: usize,
    chunk: usize,
    shards: usize,
    slots: usize,
    rows: usize,
}

impl Geometry {
    fn new(n: usize, shards: usize, cond: &Conditions) -> Self {
        let chunk = n.div_ceil(shards.max(1));
        Geometry {
            n,
            chunk,
            shards: n.div_ceil(chunk),
            slots: cond.latency_slots(),
            rows: slot_rows(cond),
        }
    }

    /// Capacity for an emission lane expected to carry `msgs`. With
    /// several lanes a shard's sends split over them at random, so a
    /// phase lands a little above its mean share every other round: an
    /// eighth of headroom keeps that from doubling the buffer. With one
    /// lane the volume is the protocol's own and gets exactly its room.
    fn lane_room(&self, msgs: usize) -> usize {
        if self.shards * self.rows > 1 {
            msgs + msgs / 8
        } else {
            msgs
        }
    }

    /// Cap on a shard's pool of recycled envelope segments: room for the
    /// segments one round of this layout can bring in, twice over.
    fn pool_cap(&self) -> usize {
        (2 * self.shards * self.slots).max(64)
    }
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
    /// This round's emissions, one lane per latency slot they can be due
    /// in and destination shard ([`back_lanes`], [`hand_over`]).
    fresh: Lanes<P::Msg>,
    /// Messages and runs of the largest lane handed over last round with
    /// no pooled batch to take its place: what the next round sizes such
    /// lanes' new batches for.
    stand_in: [usize; 2],
    ds: DeliverScratch<P::Msg>,
    /// Drained delivery segments, kept to back the next emission lanes.
    pool: Vec<EnvBatch<P::Msg>>,
    /// This round's surviving sends: `routed[slot][dest_shard]`, each
    /// batch an emission lane; slot `k` is due `k + 1` rounds on. The
    /// coordinator's splice takes the batches and leaves the skeleton.
    routed: Vec<Vec<EnvBatch<P::Msg>>>,
}

/// Keep a drained segment in `pool` for reuse (bounded by `cap`, so a
/// bursty round cannot pin memory forever).
fn recycle<M>(pool: &mut Vec<EnvBatch<M>>, cap: usize, seg: EnvBatch<M>) {
    if pool.len() < cap && seg.has_capacity() {
        pool.push(seg);
    }
}

/// Phases 1 and 3 of a round: `hook` (`on_round_start`, `on_round_end`)
/// for every node that is up (`live` empty: all), in id order, the node
/// arrays walked in step.
///
/// A function of its own, and not inlined, for the rounds in which the
/// phase has nothing to do: the adapters' hooks are inlinable guards on
/// the round number in front of out-of-line bodies, and with this loop
/// the only one in its function the optimiser unswitches it on the
/// guard — an off-phase round-end pass is skipped whole, an off-phase
/// round-start pass is a sweep over the node states. Among the sibling
/// loops of [`Shard::round`] it is not (unswitching is budgeted per
/// function), and every node pays for an [`Outbox`] it does not use.
#[inline(never)]
fn each_live<P: RoundProtocol>(
    proto: &P,
    hook: impl Fn(&P, &mut P::Node, NodeId, u64, &mut SmallRng, &mut Outbox<'_, P::Msg>),
    (nodes, rngs, seqs): (&mut [P::Node], &mut [SmallRng], &mut [u64]),
    live: &[bool],
    (base, n, round): (usize, usize, u64),
    (fresh, arena): (&mut Lanes<P::Msg>, &mut NodeArena),
) {
    let states = nodes.iter_mut().zip(rngs.iter_mut()).zip(seqs.iter_mut());
    for (off, ((node, rng), seq)) in states.enumerate() {
        if live.is_empty() || live[off] {
            let id = NodeId::from_index(base + off);
            let mut out = Outbox::new(id, n, seq, fresh, arena);
            hook(proto, node, id, round, rng, &mut out);
        }
    }
}

/// As a round begins, give every lane without a batch one (module docs,
/// "Memory discipline"): room for its share of one message and one run
/// per node of the shard's `len` and for a round like the last
/// (`stand_in`), and for the share `drop_prob` of them that fate loses.
/// Out of line with [`hand_over`], which says why.
#[inline(never)]
fn back_lanes<M>(
    fresh: &mut Lanes<M>,
    stand_in: &mut [usize; 2],
    geo: Geometry,
    len: usize,
    drop_prob: f64,
) {
    let share = geo.lane_room(len.div_ceil(geo.shards * geo.rows));
    let [msgs, runs] = stand_in.map(|last| share.max(geo.lane_room(last)));
    for lane in fresh.batches() {
        if !lane.has_capacity() {
            *lane = EnvBatch::with_capacity(msgs, runs);
        }
    }
    *stand_in = [0; 2];
    if let Some(lost) = fresh.lost() {
        lost.reserve((drop_prob * len as f64).ceil() as usize);
    }
}

/// The routing of a round: every lane of `fresh` is one routed bucket as
/// emitted — row by row the shard's surviving sends due in one slot,
/// lane `dest` of a row those to shard `dest` — so each is tallied and
/// moved into `routed[slot][dest]`, a batch from `pool` taking its place.
/// What fate lost is tallied and dropped.
/// Not inlined, nor is [`back_lanes`] — like [`each_live`], measured:
/// with the two inline, `spread-ideal-seq` read 0.97–0.98 of what it
/// read with the copying router, out of line 1.00–1.02.
#[inline(never)]
fn hand_over<P: RoundProtocol>(
    proto: &P,
    geo: Geometry,
    fresh: &mut Lanes<P::Msg>,
    (pool, stand_in): (&mut Vec<EnvBatch<P::Msg>>, &mut [usize; 2]),
    routed: &mut [Vec<EnvBatch<P::Msg>>],
    tally: &mut NetStats,
) {
    let mut sent = |msgs: &[P::Msg]| {
        tally.sent += msgs.len() as u64;
        for m in msgs {
            tally.bytes_sent += proto.msg_bytes(m) as u64;
        }
    };
    let rows = fresh.batches().chunks_mut(geo.shards);
    for (row, buckets) in rows.zip(&mut routed[geo.slots - geo.rows..]) {
        for (lane, bucket) in row.iter_mut().zip(buckets) {
            if lane.is_empty() {
                continue;
            }
            sent(lane.msgs());
            let next = pool.pop().unwrap_or_else(|| {
                let emitted = [lane.len(), lane.runs().len()];
                *stand_in = [0, 1].map(|i| stand_in[i].max(emitted[i]));
                EnvBatch::new()
            });
            *bucket = std::mem::replace(lane, next);
        }
    }
    if let Some(lost) = fresh.lost() {
        sent(lost);
        tally.dropped += lost.len() as u64;
        lost.clear();
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
            // Backed when the first round begins, like every lane that
            // was handed over.
            fresh: Lanes::conditioned(geo.shards, geo.chunk, cfg.seed, &cfg.conditions),
            stand_in: [0; 2],
            ds: DeliverScratch::default(),
            pool: Vec::new(),
            routed: (0..geo.slots)
                .map(|_| (0..geo.shards).map(|_| EnvBatch::new()).collect())
                .collect(),
        }
    }

    /// One full round for this shard's nodes: the three phase hooks, the
    /// observation fold, then routing of the shard's own sends into
    /// `self.routed`. `due` holds the delivery segments due this
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
            stand_in,
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
        let (live, at) = (live.as_slice(), (base, n, round));
        let up = |off: usize| live.is_empty() || live[off];
        arena.begin_round();

        back_lanes(fresh, stand_in, geo, len, cfg.conditions.drop_prob);

        // Phase 1: round-start hooks, id order.
        let states = (&mut nodes[..], &mut rngs[..], &mut seqs[..]);
        each_live(proto, P::on_round_start, states, live, at, (fresh, arena));

        // Phase 2: deliveries in (dst, src, seq) order — run-header merge
        // plus one stable counting pass, then one `on_receive_run`
        // dispatch per destination.
        let total = order_deliveries(due, base, len, ds);
        let pool_cap = geo.pool_cap();
        for seg in due.drain(..) {
            recycle(pool, pool_cap, seg);
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
        let states = (&mut nodes[..], &mut rngs[..], &mut seqs[..]);
        each_live(proto, P::on_round_end, states, live, at, (fresh, arena));

        let obs = observe_nodes(proto, base, nodes, round);

        hand_over(proto, geo, fresh, (pool, stand_in), routed, &mut tally);
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

    let geo = Geometry::new(n, shards, &cfg.conditions);
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
    use super::*;
    use crate::conditions::LatencyDist;

    /// Every node sends one message a round, node `i` to shard
    /// `i % shards`, so every emission lane carries exactly its share.
    struct Comb {
        n: usize,
        shards: usize,
    }

    impl RoundProtocol for Comb {
        type Node = ();
        type Msg = u8;
        type Output = ();

        fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) {}

        fn on_round_start(
            &self,
            _node: &mut (),
            id: NodeId,
            _round: u64,
            _rng: &mut SmallRng,
            out: &mut Outbox<'_, u8>,
        ) {
            let (i, k) = (id.index(), self.shards);
            out.send(NodeId::from_index(i % k * (self.n / k) + i / k), 1);
        }

        fn on_message(
            &self,
            _node: &mut (),
            _id: NodeId,
            _from: NodeId,
            _msg: u8,
            _round: u64,
            _rng: &mut SmallRng,
            _out: &mut Outbox<'_, u8>,
        ) {
        }

        fn observe_node(&self, _node: &(), _id: NodeId, _round: u64, _obs: &mut RoundObs) {}

        fn finalize_obs(&mut self, _obs: &RoundObs, _round: u64) -> Verdict<()> {
            Verdict::Continue
        }
    }

    /// The batch cycle lane → ring → due → pool → lane closes: once the
    /// batches are warm no round allocates, grows or strands one — one
    /// batch per lane and one per bucket in flight, with and without
    /// loss, under a latency spread (two slot rows), on one shard and on
    /// two.
    #[test]
    fn batch_capacities_are_stable_after_three_warm_rounds() {
        // Large enough that a lane's random share of a round stays
        // inside `lane_room`'s eighth of headroom (≥ 4 σ).
        const N: usize = 4096;
        let spread = Conditions {
            drop_prob: 0.3,
            latency: LatencyDist::Uniform { min: 1, max: 2 },
        };
        for shards in [1, 2] {
            for cond in [Conditions::ideal(), Conditions::with_loss(0.3), spread] {
                let proto = Comb { n: N, shards };
                let cfg = RunConfig::seeded(4).conditions(cond);
                let geo = Geometry::new(N, shards, &cond);
                let mut layout: Vec<_> = (0..shards)
                    .map(|s| Shard::new(&proto, &cfg, geo, s))
                    .collect();
                // The coordinator's ring: `ring[k][dest]` is due `k` rounds on.
                let mut ring: VecDeque<Vec<Vec<EnvBatch<u8>>>> =
                    vec![vec![Vec::new(); shards]; geo.slots].into();
                let mut live = Vec::new();
                for round in 0..8 {
                    let mut dues = ring.pop_front().expect("`slots` rows");
                    for (shard, due) in layout.iter_mut().zip(&mut dues) {
                        let (tally, _) = shard.round(&proto, &cfg, geo, round, due);
                        assert_eq!(tally.sent, (N / shards) as u64);
                        assert!(due.is_empty());
                    }
                    ring.push_back(dues);
                    for shard in &mut layout {
                        for (buckets, row) in shard.routed.iter_mut().zip(ring.iter_mut()) {
                            for (seg, due) in buckets.iter_mut().zip(row) {
                                assert!(!seg.runs().is_empty(), "every lane was handed over");
                                due.push(std::mem::take(seg));
                            }
                        }
                    }
                    let mut caps = Vec::new();
                    for shard in &mut layout {
                        let lanes = shard.fresh.batches().iter();
                        caps.extend(lanes.chain(&shard.pool).map(EnvBatch::capacities));
                    }
                    caps.extend(ring.iter().flatten().flatten().map(EnvBatch::capacities));
                    caps.sort_unstable();
                    live.push(caps);
                }
                let what = format!("shards={shards} {cond:?}: {live:?}");
                // A bucket due `l` rounds on is in flight for `l` rounds.
                let in_flight: usize = (geo.slots - geo.rows + 1..=geo.slots).sum();
                assert_eq!(
                    live[3].len(),
                    (geo.rows + in_flight) * shards * shards,
                    "lanes + in flight, {what}"
                );
                assert!(live[3..].iter().all(|caps| *caps == live[3]), "{what}");
            }
        }
    }

    #[test]
    fn recycle_pool_is_bounded_by_one_round_of_the_layout() {
        let slots = |max| Conditions::with_latency(LatencyDist::Uniform { min: 1, max });
        let small = Geometry::new(1000, 8, &slots(2)).pool_cap();
        assert_eq!(small, 64);
        // 100 shards × 3 slots can bring 300 segments into one round.
        let wide = Geometry::new(1000, 100, &slots(3)).pool_cap();
        assert_eq!(wide, 600);
        let mut pool: Vec<EnvBatch<u32>> = Vec::new();
        for _ in 0..(small + 10) {
            recycle(&mut pool, small, EnvBatch::with_capacity(1, 1));
        }
        assert_eq!(pool.len(), small);
        // Zero-capacity batches are not worth pooling.
        pool.pop();
        recycle(&mut pool, small, EnvBatch::new());
        assert_eq!(pool.len(), small - 1);
    }
}
