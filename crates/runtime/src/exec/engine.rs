//! The one round engine: shards that own their nodes, and the
//! coordinator loop that drives them.
//!
//! Nodes are partitioned into contiguous shards of `n.div_ceil(shards)`
//! ids. A [`Shard`] **owns** its chunk of the run state — node states,
//! RNG streams, send counters, liveness mask — plus everything a round
//! needs to stay allocation-free: the emission lanes, the delivery
//! kernel's scratch, the hoisted churn streams and the node arena.
//! [`Shard::round`] is the only round body in the crate: churn mask →
//! delivery ordering → round-start → deliveries → round-end → observation
//! fold → tally of the shard's own sends. Where a message goes is decided
//! where it is emitted — [`Outbox::send`] files it in the emission lane
//! of its destination's shard and, on a channel that loses or delays, of
//! the latency slot its fate assigns — so a lane is its own routed
//! bucket, and routing is a move of each lane (see "Memory discipline").
//!
//! [`drive`] is the only coordinator: it keeps the latency ring, hands
//! each shard the segments due this round, [`splice`]s the shards' lanes
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
//!    `(seed, src, seq)` ([`FateRun::fate`](crate::FateRun::fate)),
//!    and its `(src, seq)` identity is assigned by protocol behaviour
//!    alone, so deciding it in the sending shard cannot change any
//!    outcome.
//! 3. **Splice order = emission order.** Shards are contiguous id ranges
//!    spliced in shard order, and a shard's lane for a slot and
//!    destination shard holds its sends to them as emitted. Filing a
//!    send by slot and destination shard keeps the relative order of the
//!    sends that share a lane, so concatenating the shards' lanes in
//!    shard order yields, per lane, the one-shard run's messages for
//!    those destinations in the one-shard run's order.
//! 4. **Delivery order.** Messages due in a round are consumed in
//!    `(dst, src, seq)` order. A ring lane holds segments in (send
//!    round, shard) order, each src-ascending but for a step back where
//!    a later phase of its round began, and every message carries its
//!    sender; [`order_deliveries`] merges them by sender into `(src,
//!    seq)` order — one stream per send round and phase, so a lane filled
//!    by one single-phase round (the paper's synchronous model) is plain
//!    concatenation — and one stable counting pass by destination
//!    completes the sort in `O(m + shard_width)`, with no comparison sort
//!    over messages.
//! 5. **Associative observation.** [`RoundObs::merge`] is commutative
//!    and associative, so the shard-order merge of per-shard partials
//!    equals a single whole-run fold.
//!
//! # Memory discipline
//!
//! Messages travel in compact SoA [`EnvBatch`] lanes (see the
//! [`batch`](crate::batch) module), and batches cycle rather than churn:
//! lane → ring → due → lane, on every shard count and under every
//! [`Conditions`]. A lane that carries mail is moved (pointer-level) into
//! the ring by [`splice`], later handed to the destination shard as a
//! delivery segment, and drained there by delivery ordering — which a
//! round does first, before any hook — so [`back_lanes`] backs the same
//! round's lanes with it. One batch per lane is in flight, none waits
//! drained while a lane fills, and no message is copied between emission
//! and delivery ordering; a lane's first sends land on lines ordering has
//! just read. What the drained segments cannot supply is sized, not
//! grown, and not before it is needed: a lane without a batch — every
//! lane when the run begins, later one whose batch was spliced while no
//! segment came back to replace it — is backed as the next round starts,
//! with room for its share of [`FRESH_SENDS_PER_NODE`] sends per node and
//! for a round like the one just routed ([`Geometry::lane_room`]); a
//! segment left over once every lane is backed is freed. So cold rounds
//! do not grow or copy buffers, warm rounds do not allocate, a lane
//! nothing is ever due in keeps its first batch, and a run's last round
//! leaves no batch behind for a round that does not come.
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
use rendez_sim::{NodeId, SeedKey};
use std::collections::VecDeque;

/// Sends per node that a fresh emission lane reserves room for, split
/// over the shard's lanes. A batch is made fresh only where no drained
/// delivery segment is left to back a lane — every lane in round 0, and
/// under a latency spread the rows whose mail is not yet due back — so
/// this sizes a run's first lanes, and each later cycles lane → ring →
/// due → lane at the capacity it has. It is more than the first round of
/// any benchmark workload sends per node (the dating service on
/// `hetero-dating-seq`'s power-law platform sends `bout + bin`, eight),
/// so no lane grows, and no array is copied, in the round that fills it.
/// Capacity a round leaves untouched is address space, not resident
/// memory. With room for one send per node the three arrays of that
/// workload's lane grew three times in round 0, and glibc trimming the
/// freed heap after each set-up raised its page faults from 595 to 1 516
/// a set-up (`spread-ideal-sharded` from 0 to 771); EXPERIMENTS.md ("One
/// sender word per message", "One batch per lane") records faults and
/// peak memory for both sizings.
const FRESH_SENDS_PER_NODE: usize = 16;

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
    /// in and destination shard ([`back_lanes`], [`hand_over`],
    /// [`splice`]).
    fresh: Lanes<P::Msg>,
    /// Messages of the largest lane tallied last round: what
    /// [`back_lanes`] sizes a fresh batch for when the drained segments
    /// run out.
    stand_in: usize,
    ds: DeliverScratch<P::Msg>,
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

/// As a round begins, once its due segments are ordered, give every lane
/// without a batch one (module docs, "Memory discipline"): a drained
/// segment from `due` while they last, then a fresh batch with room for
/// its share of [`FRESH_SENDS_PER_NODE`] messages per node of the shard's
/// `len` and for a round like the last (`stand_in`); and room for the
/// `drop_prob · len` messages fate loses. The segments no lane needs are
/// freed, leaving `due` empty. The only place a lane takes a drained
/// segment. Out of line with [`hand_over`], which says why.
#[inline(never)]
fn back_lanes<M>(
    fresh: &mut Lanes<M>,
    (due, stand_in): (&mut Vec<EnvBatch<M>>, &mut usize),
    geo: Geometry,
    len: usize,
    drop_prob: f64,
) {
    let share = geo.lane_room((FRESH_SENDS_PER_NODE * len).div_ceil(geo.shards * geo.rows));
    let msgs = share.max(geo.lane_room(*stand_in));
    for lane in fresh.batches() {
        if !lane.has_capacity() {
            *lane = due.pop().unwrap_or_else(|| EnvBatch::with_capacity(msgs));
        }
    }
    due.clear();
    *stand_in = 0;
    if let Some(lost) = fresh.lost() {
        lost.reserve((drop_prob * len as f64).ceil() as usize);
    }
}

/// The tally of a round's sends: every message in a lane of `fresh` —
/// the shard's surviving sends, a lane per latency slot and destination
/// shard — is counted as sent, and `stand_in` keeps the largest lane's
/// length for [`back_lanes`] to size a fresh batch by; the lanes stay
/// where they are for [`splice`]. What fate lost is tallied and dropped.
/// Not inlined, nor is [`back_lanes`] — like [`each_live`], measured:
/// with the two inline, `spread-ideal-seq` read 0.97–0.98 of what it
/// read with the copying router, out of line 1.00–1.02.
#[inline(never)]
fn hand_over<P: RoundProtocol>(
    proto: &P,
    fresh: &mut Lanes<P::Msg>,
    stand_in: &mut usize,
    tally: &mut NetStats,
) {
    let mut sent = |msgs: &[P::Msg]| {
        tally.sent += msgs.len() as u64;
        for m in msgs {
            tally.bytes_sent += proto.msg_bytes(m) as u64;
        }
    };
    for lane in fresh.batches() {
        sent(lane.msgs());
        *stand_in = (*stand_in).max(lane.len());
    }
    if let Some(lost) = fresh.lost() {
        sent(lost);
        tally.dropped += lost.len() as u64;
        lost.clear();
    }
}

/// `ring[k][dest_shard]` lists the segments due `k + 1` rounds after the
/// current one, in arrival (= emission) order.
type Ring<M> = VecDeque<Vec<Vec<EnvBatch<M>>>>;

/// Move one shard's lanes into the ring once its round is over: row `j`
/// of `fresh` holds the sends due in ring row `slots − rows + j`, lane
/// `dest` of a row those to shard `dest`, and each lane that carries mail
/// is appended whole to `ring[slots − rows + j][dest]`, leaving it
/// without a batch until [`back_lanes`] backs it next round. Called in
/// shard order, so each ring lane lists the shards' segments in shard
/// order (module docs, invariant 3). The only place a lane moves into the
/// ring.
fn splice<M>(fresh: &mut Lanes<M>, ring: &mut Ring<M>, geo: Geometry) {
    let rows = fresh.batches().chunks_mut(geo.shards);
    for (row, dues) in rows.zip(ring.range_mut(geo.slots - geo.rows..)) {
        for (lane, due) in row.iter_mut().zip(dues) {
            if !lane.is_empty() {
                due.push(std::mem::take(lane));
            }
        }
    }
}

impl<P: RoundProtocol> Shard<P> {
    /// Shard `s` of the layout `geo`: RNG streams, then node states in
    /// id order.
    fn new(proto: &P, cfg: &RunConfig, geo: Geometry, s: usize) -> Self {
        let base = s * geo.chunk;
        let len = geo.chunk.min(geo.n - base);
        // Node `i`'s stream is `small_rng_for(seed, i)`, the seed's key
        // derived once.
        let key = SeedKey::new(cfg.seed);
        let mut rngs: Vec<SmallRng> = (base..base + len)
            .map(|i| key.small_rng(i as u64))
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
            // was spliced.
            fresh: Lanes::conditioned(
                geo.shards,
                geo.chunk,
                cfg.seed,
                &cfg.conditions,
                base..base + len,
            ),
            stand_in: 0,
            ds: DeliverScratch::default(),
        }
    }

    /// One full round for this shard's nodes: the three phase hooks, the
    /// observation fold, then the tally of the shard's own sends, which
    /// stay in its lanes for [`splice`]. `due` holds the delivery
    /// segments due this round, in splice order, and is left empty.
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

        // The mail due this round in (dst, src, seq) order — a merge by
        // sender plus one stable counting pass — before any hook runs:
        // ordering reads only `due` and writes only the scratch, so no
        // callback can tell, and the drained segments back this round's
        // lanes.
        let total = order_deliveries(due, base, len, ds);
        back_lanes(fresh, (due, stand_in), geo, len, cfg.conditions.drop_prob);

        // Phase 1: round-start hooks, id order.
        let states = (&mut nodes[..], &mut rngs[..], &mut seqs[..]);
        each_live(proto, P::on_round_start, states, live, at, (fresh, arena));

        // Phase 2: deliveries, one `on_receive_run` dispatch per
        // destination.
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

        hand_over(proto, fresh, stand_in, &mut tally);
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

    // `slots` rows, popped at the front and pushed back hollow once per
    // round, so filing never grows the ring.
    let mut ring: Ring<P::Msg> = (0..geo.slots)
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

        // Splice and merge in shard order.
        let mut merged = RoundObs::default();
        for (shard, (tally, obs)) in shards.iter_mut().zip(&outs) {
            stats.absorb(tally);
            merged.merge(obs);
            splice(&mut shard.fresh, &mut ring, geo);
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

    /// The batch cycle lane → ring → due → lane closes: once the batches
    /// are warm no round allocates, grows or strands one — one batch per
    /// lane in flight and none besides (between rounds every lane is
    /// spliced into the ring), with and without loss, under a latency
    /// spread (two slot rows), on one shard and on two.
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
                let mut ring: Ring<u8> = vec![vec![Vec::new(); shards]; geo.slots].into();
                let mut live = Vec::new();
                for round in 0..8 {
                    let mut dues = ring.pop_front().expect("`slots` rows");
                    for (shard, due) in layout.iter_mut().zip(&mut dues) {
                        let (tally, _) = shard.round(&proto, &cfg, geo, round, due);
                        assert_eq!(tally.sent, (N / shards) as u64);
                        assert!(due.is_empty());
                    }
                    ring.push_back(dues);
                    let mut caps = Vec::new();
                    for shard in &mut layout {
                        let full = shard.fresh.batches().iter().all(|lane| !lane.is_empty());
                        assert!(full, "every lane carries mail");
                        splice(&mut shard.fresh, &mut ring, geo);
                        caps.extend(shard.fresh.batches().iter().map(EnvBatch::capacities));
                    }
                    caps.extend(ring.iter().flatten().flatten().map(EnvBatch::capacities));
                    // Only a batch with capacity holds memory; a lane
                    // spliced has none until the next round backs it.
                    caps.retain(|&[dst, ..]| dst > 0);
                    caps.sort_unstable();
                    live.push(caps);
                }
                let what = format!("shards={shards} {cond:?}: {live:?}");
                // A lane due `l` rounds on is in flight for `l` rounds.
                let in_flight: usize = (geo.slots - geo.rows + 1..=geo.slots).sum();
                assert_eq!(
                    live[3].len(),
                    in_flight * shards * shards,
                    "one batch per lane in flight, {what}"
                );
                assert!(live[3..].iter().all(|caps| *caps == live[3]), "{what}");
            }
        }
    }

    /// `proto` over `n` nodes in `shards` shards, each round's segments
    /// spliced and its partials merged as [`drive`] does, until the
    /// verdict halts; returns the shards. The shards run inline: the
    /// layout, not the threads, decides which arena a node uses.
    fn layout_after_run<P: RoundProtocol>(
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
        shards: usize,
    ) -> Vec<Shard<P>> {
        let geo = Geometry::new(n, shards, &cfg.conditions);
        let mut layout: Vec<_> = (0..geo.shards)
            .map(|s| Shard::new(&*proto, cfg, geo, s))
            .collect();
        let mut ring: Ring<P::Msg> = (0..geo.slots)
            .map(|_| (0..geo.shards).map(|_| Vec::new()).collect())
            .collect();
        for round in 0..cfg.max_rounds {
            let mut dues = ring.pop_front().expect("`slots` rows");
            let mut merged = RoundObs::default();
            for (shard, due) in layout.iter_mut().zip(&mut dues) {
                merged.merge(&shard.round(proto, cfg, geo, round, due).1);
            }
            ring.push_back(dues);
            for shard in &mut layout {
                splice(&mut shard.fresh, &mut ring, geo);
            }
            if let Verdict::Halt(_) = proto.finalize_obs(&merged, round) {
                return layout;
            }
        }
        panic!("no verdict in {} rounds", cfg.max_rounds);
    }

    /// The dating matchmakers pair their mail in the delivery run, in
    /// the arena's inbox: after whole runs of both dating adapters, on
    /// one shard and on three, ideal and under a latency spread, no
    /// shard arena has allocated a stash lane.
    #[test]
    fn dating_runs_leave_the_arena_stash_unallocated() {
        use crate::adapters::{RtDatingSpread, RuntimeDating};
        use rendez_core::{Platform, UniformSelector};

        const N: usize = 300;
        let spread = Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 3 });
        fn stash_free<P: RoundProtocol>(layout: &[Shard<P>]) -> bool {
            layout.iter().all(|shard| !shard.arena.stash_allocated())
        }
        for shards in [1, 3] {
            for cond in [Conditions::ideal(), spread] {
                let what = format!("shards={shards} {cond:?}");
                let cfg = RunConfig::seeded(11).max_rounds(2_000).conditions(cond);
                let platform = Platform::power_law(N, 1.1, 4.0, 5);
                let mut dating = RuntimeDating::new(platform, UniformSelector::new(N), 5);
                let layout = layout_after_run(&mut dating, N, &cfg, shards);
                assert!(stash_free(&layout), "dating service, {what}");
                let platform = Platform::unit(N);
                let mut rumor = RtDatingSpread::new(platform, UniformSelector::new(N), NodeId(0));
                let layout = layout_after_run(&mut rumor, N, &cfg, shards);
                assert!(stash_free(&layout), "dating spread, {what}");
            }
        }
    }
}
