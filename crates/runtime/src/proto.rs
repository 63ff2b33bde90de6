//! The sans-I/O protocol abstraction: per-node state machines that emit
//! and absorb messages, with no knowledge of how rounds are executed.
//!
//! A protocol is split into two parts, following the manul school of
//! round-based protocol design:
//!
//! * the **protocol object** (`impl RoundProtocol`) — immutable,
//!   shared configuration (platform, selector, cycle schedule) plus the
//!   round/finalization logic, borrowed by every worker;
//! * the **node state** ([`RoundProtocol::Node`]) — one value per
//!   simulated participant, owned by whichever executor shard currently
//!   runs that participant.
//!
//! Because callbacks receive exactly one `&mut Node` plus that node's
//! private RNG stream, an executor may run disjoint node sets on different
//! threads without changing observable behaviour — the determinism
//! contract in the [crate docs](crate) makes this precise.
//!
//! lint: deterministic

use crate::arena::{NodeArena, STASH_LANES};
use crate::batch::Lanes;
use rand::rngs::SmallRng;
use rendez_sim::NodeId;

/// Write-side of a node's network interface, handed to every callback.
///
/// Messages queued here during round `t` are delivered at round
/// `t + latency` (latency ≥ 1; 1 under ideal [`Conditions`]). In
/// continuous time ([`EventExecutor`]) a message is parked at its
/// destination as it is sent and delivered when the destination next
/// wakes.
///
/// Every send is stamped with the sender's private counter `seq`. `(src,
/// seq)` identifies a message within a run and is a pure function of
/// protocol behaviour, never of executor scheduling: delivery order and
/// per-message fate ([`FateRun::fate`](crate::FateRun::fate)) are
/// specified against it. Queued messages live in
/// [`EnvBatch`](crate::EnvBatch) lanes, which carry `(src, seq)` once per
/// run of consecutive same-sender sends (see the [`batch`](crate::batch)
/// module docs).
///
/// [`Conditions`]: crate::Conditions
/// [`EventExecutor`]: crate::EventExecutor
pub struct Outbox<'a, M> {
    tx: SendHalf<'a, M>,
    arena: &'a mut NodeArena,
}

/// The send half of an [`Outbox`]: the sender's identity and counter and
/// the shard's emission lanes, without the arena — what is left to send
/// through while a matchmaker borrows the arena's inbox.
pub(crate) struct SendHalf<'a, M> {
    src: NodeId,
    n: usize,
    seq: &'a mut u64,
    env: &'a mut Lanes<M>,
}

/// Out-of-line panic for [`SendHalf::send`]'s bounds check, so the hot
/// send path is a compare-and-branch to a cold stub instead of inlining
/// panic formatting into every protocol callback.
#[cold]
#[inline(never)]
fn bad_destination(dst: NodeId, n: usize) -> ! {
    panic!("send to out-of-range node {dst} (n = {n})");
}

impl<M> SendHalf<'_, M> {
    /// Queue `msg` for delivery to `dst`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    #[inline]
    pub fn send(&mut self, dst: NodeId, msg: M) {
        if dst.index() >= self.n {
            bad_destination(dst, self.n);
        }
        self.env.push(self.src, *self.seq, dst, msg);
        *self.seq += 1;
    }
}

impl<'a, M> Outbox<'a, M> {
    /// Bind an outbox to sender `src` with its persistent send counter
    /// and the shard's emission lanes and arena.
    pub(crate) fn new(
        src: NodeId,
        n: usize,
        seq: &'a mut u64,
        env: &'a mut Lanes<M>,
        arena: &'a mut NodeArena,
    ) -> Self {
        let tx = SendHalf { src, n, seq, env };
        Self { tx, arena }
    }

    /// The node this outbox belongs to.
    pub fn src(&self) -> NodeId {
        self.tx.src
    }

    /// Total number of nodes.
    pub fn n(&self) -> usize {
        self.tx.n
    }

    /// Queue `msg` for delivery to `dst`.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    #[inline]
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.tx.send(dst, msg);
    }

    /// Stash `v` into this node's `lane` inbox (arena-backed; see
    /// [`NodeArena`]). Entries live until the end of the current round.
    pub fn stash(&mut self, lane: usize, v: NodeId) {
        self.arena.push(self.tx.src, lane, v);
    }

    /// Number of entries stashed in `lane` this round.
    pub fn stash_len(&self, lane: usize) -> usize {
        self.arena.len_of(self.tx.src, lane)
    }

    /// The `j`-th stashed entry in `lane` (arrival order).
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn stash_at(&self, lane: usize, j: usize) -> NodeId {
        self.arena.get(self.tx.src, lane, j)
    }

    /// Lend out the shard's two-lane inbox filled with this node's stash
    /// — the entries [`stash_at`](Self::stash_at) reads, in that order —
    /// together with the send half, so the per-message round-end drain
    /// pairs them the way a delivery run pairs its own inbox. `None` when
    /// no node of the shard stashed anything this round.
    pub(crate) fn split_stashed_inbox(
        &mut self,
    ) -> Option<(&mut [Vec<NodeId>; STASH_LANES], &mut SendHalf<'a, M>)> {
        if self.arena.stash_is_empty() {
            return None;
        }
        Some((self.arena.inbox_of_stash(self.tx.src), &mut self.tx))
    }

    /// Lend out the shard's two-lane inbox, emptied, together with the
    /// send half: scratch a delivery run files its offers and requests
    /// into, in arrival order, to pair them before the run returns (see
    /// the [`arena`](crate::arena) module docs). Nothing in it outlives
    /// the loan.
    pub(crate) fn split_inbox(
        &mut self,
    ) -> (&mut [Vec<NodeId>; STASH_LANES], &mut SendHalf<'a, M>) {
        (self.arena.inbox(), &mut self.tx)
    }
}

/// An associative per-round observation partial: what the coordinator
/// sees of a round, in place of the node states themselves.
///
/// Each executor shard folds its own nodes into a `RoundObs` via
/// [`observe_node`](RoundProtocol::observe_node) after the round-end
/// pass (in parallel, on the worker threads), and the coordinator merges
/// the per-shard partials in shard order — so between-round coordinator
/// work is O(shards), not O(n).
///
/// # Merge-determinism rule
///
/// The digest trace and the halt verdict must be **bit-identical for
/// every executor and every shard count**. Shard boundaries are
/// arbitrary, so everything a protocol folds into a `RoundObs` must be
/// invariant under regrouping and reordering of nodes — i.e. each field
/// is combined with a commutative, associative operation:
///
/// * [`count`](Self::count) and the [`lanes`](Self::lanes) merge by
///   wrapping addition;
/// * [`digest`](Self::digest) merges by XOR — so fold *per-node hashes*
///   (e.g. `SplitMix64::mix` of node-local state salted with the node
///   id and round) into it, never order-sensitive chained hashes.
///
/// Anything order-sensitive (a chained hash, a max-by-first-index) would
/// make the result depend on the shard layout and break the
/// cross-executor equivalence contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundObs {
    /// Primary counter (by convention: nodes satisfying the protocol's
    /// headline predicate, e.g. "informed"). Merges by wrapping add.
    pub count: u64,
    /// XOR-accumulated digest of per-node state hashes. Merges by XOR.
    pub digest: u64,
    /// Extra wrapping-add counters, keyed by protocol-defined lane
    /// indices (see [`lane_add`](Self::lane_add)). Missing lanes read
    /// as 0, so partials with different lane counts merge cleanly.
    pub lanes: Vec<u64>,
}

impl RoundObs {
    /// Add `v` into lane `lane`, growing the lane vector on demand.
    pub fn lane_add(&mut self, lane: usize, v: u64) {
        if self.lanes.len() <= lane {
            self.lanes.resize(lane + 1, 0);
        }
        self.lanes[lane] = self.lanes[lane].wrapping_add(v);
    }

    /// Read lane `lane` (0 if never written).
    pub fn lane(&self, lane: usize) -> u64 {
        self.lanes.get(lane).copied().unwrap_or(0)
    }

    /// Fold `other` into `self`. Commutative and associative, so any
    /// grouping of per-shard partials yields the same total.
    pub fn merge(&mut self, other: &RoundObs) {
        self.count = self.count.wrapping_add(other.count);
        self.digest ^= other.digest;
        for (lane, &v) in other.lanes.iter().enumerate() {
            self.lane_add(lane, v);
        }
    }

    /// Remove `other` from `self` — the exact inverse of
    /// [`merge`](Self::merge): counts and lanes un-add by wrapping
    /// subtraction, the digest un-XORs (XOR is its own inverse).
    ///
    /// This is what lets the continuous-time
    /// [`EventExecutor`](crate::EventExecutor) keep one *global*
    /// observation incrementally: before a node's wake event it retracts
    /// that node's old contribution, after the callbacks it merges the
    /// new one — O(1) per event instead of an O(n) re-fold.
    pub fn retract(&mut self, other: &RoundObs) {
        self.count = self.count.wrapping_sub(other.count);
        self.digest ^= other.digest;
        for (lane, &v) in other.lanes.iter().enumerate() {
            if self.lanes.len() <= lane {
                self.lanes.resize(lane + 1, 0);
            }
            self.lanes[lane] = self.lanes[lane].wrapping_sub(v);
        }
    }
}

/// Fold `nodes` (ids `base..base + nodes.len()`) into one [`RoundObs`]
/// via [`RoundProtocol::observe_node`].
///
/// This is the per-shard pass of every round executor (the sequential
/// executor's one shard holds all nodes) — by the merge-determinism rule
/// any shard layout composes to identical totals.
pub fn observe_nodes<P: RoundProtocol + ?Sized>(
    proto: &P,
    base: usize,
    nodes: &[P::Node],
    round: u64,
) -> RoundObs {
    let mut obs = RoundObs::default();
    for (off, node) in nodes.iter().enumerate() {
        proto.observe_node(node, NodeId::from_index(base + off), round, &mut obs);
    }
    obs
}

/// What [`RoundProtocol::finalize_obs`] decided after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict<R> {
    /// Run another round.
    Continue,
    /// The protocol is done; `R` is its result.
    Halt(R),
}

/// A round-based protocol as a typed per-node state machine.
///
/// Executors drive implementations through the round schedule:
///
/// 1. [`on_round_start`](Self::on_round_start) for every node, in id
///    order — emit this round's messages;
/// 2. [`on_receive_run`](Self::on_receive_run) for every destination
///    with deliveries due this round, in ascending destination order,
///    each run sorted by `(src, seq)` — i.e. the canonical
///    `(dst, src, seq)` per-message schedule, dispatched once per
///    destination (the default forwards to
///    [`on_message`](Self::on_message) per entry);
/// 3. [`on_round_end`](Self::on_round_end) for every node, in id order —
///    local end-of-round processing (e.g. matchmaking), possibly sending;
/// 4. observation — each shard folds its nodes into a [`RoundObs`] via
///    [`observe_node`](Self::observe_node); the partials, merged in
///    shard order, feed [`digest_obs`](Self::digest_obs) and
///    [`finalize_obs`](Self::finalize_obs) on the coordinator.
///
/// Steps 1–3 and the observation fold see node state shard-locally and
/// may run on any thread; the verdict itself is computed on the
/// coordinating thread between rounds, from the merged partial alone —
/// O(shards) work, and no executor ever holds a view of all node states.
pub trait RoundProtocol: Sync {
    /// Per-node state.
    type Node: Send;
    /// The message type exchanged between nodes. `Clone` (in practice:
    /// `Copy` — payloads are small value enums) lets the executors keep
    /// messages in flat [`EnvBatch`](crate::EnvBatch) arrays and hand delivery slices to
    /// [`on_receive_run`](Self::on_receive_run).
    type Msg: Send + Clone;
    /// The protocol's final result, produced on halt.
    type Output;

    /// Build node `id`'s initial state. `rng` is the node's private
    /// stream, the same one later callbacks for `id` receive.
    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> Self::Node;

    /// Round `round` begins for `id`: emit outgoing messages.
    fn on_round_start(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// `msg` from `from` is delivered to `id` during `round`.
    #[allow(clippy::too_many_arguments)]
    fn on_message(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        from: NodeId,
        msg: Self::Msg,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// All of round `round`'s deliveries for `id`, in one call: `srcs`
    /// and `msgs` are parallel slices holding the senders and payloads
    /// in canonical `(src, seq)` order — together with the executor
    /// delivering destinations in ascending order, exactly the
    /// per-message `(dst, src, seq)` schedule.
    ///
    /// One call carries the destination's whole mail of the round: no
    /// more arrives for `id` before [`on_round_end`](Self::on_round_end).
    /// An override may therefore finish a phase here — pair a
    /// matchmaker's offers and requests, answer one pull request — that
    /// the per-message path can only finish at round end, as long as
    /// nothing between the two reads or writes what it touches.
    ///
    /// The default forwards to [`on_message`](Self::on_message) once per
    /// entry and **must stay observably equivalent in any override**:
    /// same state transitions, same sends in the same order, same RNG
    /// consumption — counted over the call and the round-end hook
    /// together when the override does round-end work early. Overriding
    /// buys batch-level optimisation (hoisted field accesses, one
    /// accumulator write-back instead of `len` read-modify-writes, a
    /// phase finished while its input is hot), not different semantics —
    /// digest traces are compared across executors, which all dispatch
    /// through this hook.
    /// The gate is `tests/per_message.rs`: every registry adapter, with
    /// its override taken away by a `PerMessage` wrapper, must reproduce
    /// its whole report.
    #[allow(clippy::too_many_arguments)]
    fn on_receive_run(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        srcs: &[NodeId],
        msgs: &[Self::Msg],
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        for (from, msg) in srcs.iter().zip(msgs) {
            self.on_message(node, id, *from, msg.clone(), round, rng, out);
        }
    }

    /// Round `round` ends for `id`, after all deliveries.
    fn on_round_end(
        &self,
        _node: &mut Self::Node,
        _id: NodeId,
        _round: u64,
        _rng: &mut SmallRng,
        _out: &mut Outbox<'_, Self::Msg>,
    ) {
    }

    /// Fold one node into a [`RoundObs`] partial. Runs on the shard
    /// worker that owns `node`, after its round-end hook; must respect
    /// the [`RoundObs`] merge-determinism rule.
    fn observe_node(&self, node: &Self::Node, id: NodeId, round: u64, obs: &mut RoundObs);

    /// Decide continue / halt from the merged observation of `round`.
    ///
    /// Takes `&mut self` so protocols can accumulate per-round
    /// observables (informed counts, date tallies) into the eventual
    /// [`Verdict::Halt`] output.
    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<Self::Output>;

    /// A fingerprint of global protocol state after `round`, computed
    /// from the merged observation and recorded into
    /// [`RunReport::digests`](crate::RunReport::digests).
    ///
    /// Executors of every flavour must produce identical digest traces
    /// for the same `(protocol, config)` — this is the hook the
    /// cross-executor equivalence tests key on. The default passes the
    /// XOR accumulator through; override to mix in a round salt.
    fn digest_obs(&self, obs: &RoundObs, _round: u64) -> u64 {
        obs.digest
    }

    /// Declared wire size of a message, for byte accounting.
    fn msg_bytes(&self, _msg: &Self::Msg) -> usize {
        1
    }

    /// [`finalize_obs`](Self::finalize_obs) over a whole node slice (ids
    /// `0..nodes.len()`).
    ///
    /// **No executor calls this.** It is a stub kept, with
    /// [`digest`](Self::digest) and [`streams`](Self::streams), only
    /// because the frozen `benchmark/` package overrides and forwards
    /// all three; they go when that package can next be edited (see
    /// ROADMAP). New code neither overrides nor calls it.
    fn finalize(&mut self, nodes: &[Self::Node], round: u64) -> Verdict<Self::Output> {
        let obs = observe_nodes(&*self, 0, nodes, round);
        self.finalize_obs(&obs, round)
    }

    /// [`digest_obs`](Self::digest_obs) over a whole node slice. A stub
    /// no executor calls — see [`finalize`](Self::finalize).
    fn digest(&self, nodes: &[Self::Node], round: u64) -> u64 {
        self.digest_obs(&observe_nodes(self, 0, nodes, round), round)
    }

    /// Always `true`: observation through [`RoundObs`] is the only path.
    /// A stub no executor calls — see [`finalize`](Self::finalize).
    fn streams(&self) -> bool {
        true
    }

    /// Resident bytes attributed to one node's state, for the
    /// bytes/node scaling metric ([`RunReport::node_bytes`]). The
    /// default counts the inline struct size only; override when node
    /// state owns heap allocations.
    ///
    /// [`RunReport::node_bytes`]: crate::RunReport::node_bytes
    fn node_mem_bytes(&self, _node: &Self::Node) -> usize {
        std::mem::size_of::<Self::Node>()
    }
}

/// A continuous-time protocol as a typed per-node state machine — the
/// asynchronous counterpart of [`RoundProtocol`], driven by the
/// [`EventExecutor`](crate::EventExecutor).
///
/// There are no rounds: each node wakes on its own exponential clock.
/// The executor processes one wake event at a time, in global
/// `(time, node)` order:
///
/// 1. every message parked for the waking node since its last activation
///    is delivered through [`on_message`](Self::on_message), in arrival
///    order (parking is FIFO per destination — early messages wait,
///    manul-style, for the destination's next activation);
/// 2. [`on_wake`](Self::on_wake) runs — the node's own action (push a
///    rumor, issue a pull request, answer a stashed request);
/// 3. the executor re-observes the node and feeds the updated global
///    [`RoundObs`] to [`finalize`](Self::finalize).
///
/// Messages sent from either hook are parked at their destinations and
/// delivered at the destination's next wake — including a node's
/// messages to itself, which wait for its *next* wake.
///
/// # Time-independent observation
///
/// Unlike [`RoundProtocol::observe_node`], the fold here takes **no
/// round/time salt**: the executor maintains one global [`RoundObs`]
/// incrementally, retracting a node's old contribution before its wake
/// and merging the new one after ([`RoundObs::retract`]). That only
/// works if a node's contribution is a pure function of its state — the
/// same state must fold to the same partial at any simulated time.
pub trait AsyncProtocol: Sync {
    /// Per-node state.
    type Node: Send;
    /// The message type exchanged between nodes.
    type Msg: Send;
    /// The protocol's final result, produced on halt.
    type Output;

    /// Build node `id`'s initial state. `rng` is the node's private
    /// stream, the same one later callbacks for `id` receive.
    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> Self::Node;

    /// Node `id` wakes at `now_ticks` (after its parked messages were
    /// delivered): perform its action, possibly sending.
    fn on_wake(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// `msg` from `from`, parked since it was sent, is delivered to the
    /// waking node `id` at `now_ticks`. Replies are parked at `from`
    /// until *its* next wake.
    #[allow(clippy::too_many_arguments)]
    fn on_message(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        from: NodeId,
        msg: Self::Msg,
        now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    );

    /// Fold one node's state into a [`RoundObs`] partial. Must be a pure
    /// function of `(node, id)` — see the trait docs on time-independent
    /// observation — and respect the [`RoundObs`] merge-determinism rule.
    fn observe_node(&self, node: &Self::Node, id: NodeId, obs: &mut RoundObs);

    /// Decide continue / halt from the up-to-date global observation,
    /// after each wake event. `events` counts wake events processed so
    /// far (including the current one).
    fn finalize(&mut self, obs: &RoundObs, now_ticks: u64, events: u64) -> Verdict<Self::Output>;

    /// Fingerprint the global observation after an event; folded into
    /// the executor's chained per-event trace digest. The default passes
    /// the XOR accumulator through.
    fn digest_obs(&self, obs: &RoundObs) -> u64 {
        obs.digest
    }

    /// Declared wire size of a message, for byte accounting. The
    /// executor weighs a message when it is delivered, or when the run
    /// ends with it still parked, so the size must depend on the message
    /// alone.
    fn msg_bytes(&self, _msg: &Self::Msg) -> usize {
        1
    }

    /// Resident bytes attributed to one node's state, for the
    /// bytes/node scaling metric
    /// ([`RunReport::node_bytes`](crate::RunReport::node_bytes)).
    fn node_mem_bytes(&self, _node: &Self::Node) -> usize {
        std::mem::size_of::<Self::Node>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{STASH_OFFERS, STASH_REQUESTS};
    use crate::batch::EnvBatch;

    fn arena(n: usize) -> NodeArena {
        let mut a = NodeArena::new(0, n);
        a.begin_round();
        a
    }

    #[test]
    fn outbox_stamps_src_and_seq() {
        let mut seq = 5u64;
        let mut env: Lanes<u8> = Lanes::new(1, 4);
        let mut arena = arena(4);
        let mut out = Outbox::new(NodeId(2), 4, &mut seq, &mut env, &mut arena);
        assert_eq!(out.src(), NodeId(2));
        assert_eq!(out.n(), 4);
        out.send(NodeId(0), 7);
        out.send(NodeId(3), 9);
        assert_eq!(seq, 7);
        let [env] = env.batches() else {
            panic!("one lane")
        };
        let sent: Vec<_> = env
            .iter()
            .map(|(src, seq, dst, &msg)| (src, seq, dst, msg))
            .collect();
        assert_eq!(
            sent,
            [(NodeId(2), 5, NodeId(0), 7), (NodeId(2), 6, NodeId(3), 9)]
        );
        assert_eq!(env.runs().len(), 1, "consecutive sends share one run");
    }

    #[test]
    fn outbox_files_each_send_in_its_destination_shards_lane() {
        // 7 nodes in shards of 3 ids: lanes 0..=2, the last one short.
        let mut seq = 0u64;
        let mut env: Lanes<u8> = Lanes::new(3, 3);
        let mut arena = arena(7);
        let mut out = Outbox::new(NodeId(4), 7, &mut seq, &mut env, &mut arena);
        for dst in [0, 6, 2, 3, 5, 1] {
            out.send(NodeId(dst), dst as u8);
        }
        let filed = |lane: &EnvBatch<u8>| -> Vec<_> {
            lane.iter().map(|(_, seq, dst, _)| (seq, dst.0)).collect()
        };
        let lanes = env.batches();
        assert_eq!(filed(&lanes[0]), [(0, 0), (2, 2), (5, 1)]);
        assert_eq!(filed(&lanes[1]), [(3, 3), (4, 5)]);
        assert_eq!(filed(&lanes[2]), [(1, 6)]);
        // Sends that alternated between lanes head their own runs.
        assert_eq!(lanes[0].runs().len(), 3);
        assert_eq!(lanes[1].runs().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn outbox_rejects_bad_destination() {
        let mut seq = 0u64;
        let mut env: Lanes<u8> = Lanes::new(1, 2);
        let mut arena = arena(2);
        let mut out = Outbox::new(NodeId(0), 2, &mut seq, &mut env, &mut arena);
        out.send(NodeId(2), 1);
    }

    #[test]
    fn outbox_stash_lanes_are_per_sender() {
        let mut seq = 0u64;
        let mut env: Lanes<u8> = Lanes::new(1, 4);
        let mut arena = arena(4);
        {
            let mut out = Outbox::new(NodeId(1), 4, &mut seq, &mut env, &mut arena);
            out.stash(STASH_OFFERS, NodeId(3));
            out.stash(STASH_OFFERS, NodeId(2));
            out.stash(STASH_REQUESTS, NodeId(0));
            assert_eq!(out.stash_len(STASH_OFFERS), 2);
            assert_eq!(out.stash_len(STASH_REQUESTS), 1);
            assert_eq!(out.stash_at(STASH_OFFERS, 1), NodeId(2));
        }
        let out = Outbox::new(NodeId(0), 4, &mut seq, &mut env, &mut arena);
        assert_eq!(out.stash_len(STASH_OFFERS), 0, "stash follows the sender");
    }

    #[test]
    fn provided_slice_methods_are_the_streaming_fold() {
        use crate::exec::testproto::{PingNode, RandomPing};
        // No executor exposes a node slice, so build one.
        let nodes: Vec<PingNode> = (0..40)
            .map(|i| PingNode {
                received: i * 3 % 7,
                sent: i,
            })
            .collect();
        // One threshold the slice reaches (halt), one it does not.
        for target_total in [60, 1_000] {
            let mut by_slice = RandomPing {
                n: 40,
                target_total,
            };
            let mut by_obs = RandomPing {
                n: 40,
                target_total,
            };
            assert!(by_slice.streams());
            for round in [0, 5] {
                let obs = observe_nodes(&by_obs, 0, &nodes, round);
                let digest = by_obs.digest_obs(&obs, round);
                assert_eq!(by_slice.digest(&nodes, round), digest);
                let verdict = by_obs.finalize_obs(&obs, round);
                assert_eq!(by_slice.finalize(&nodes, round), verdict);
            }
        }
    }

    #[test]
    fn round_obs_merge_is_commutative_and_associative() {
        let mk = |count: u64, digest: u64, lanes: &[u64]| {
            let mut o = RoundObs {
                count,
                digest,
                lanes: Vec::new(),
            };
            for (i, &v) in lanes.iter().enumerate() {
                o.lane_add(i, v);
            }
            o
        };
        let a = mk(1, 0x10, &[5]);
        let b = mk(2, 0x01, &[7, 9]);
        let c = mk(4, 0xf0, &[]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");

        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab, ba, "commutative");

        assert_eq!(ab_c.count, 7);
        assert_eq!(ab_c.digest, 0xe1);
        assert_eq!(ab_c.lane(0), 12);
        assert_eq!(ab_c.lane(1), 9);
        assert_eq!(ab_c.lane(2), 0, "missing lanes read as zero");
    }

    #[test]
    fn retract_inverts_merge() {
        let mut total = RoundObs {
            count: 10,
            digest: 0xdead,
            lanes: vec![4, 9],
        };
        let snapshot = total.clone();
        let part = RoundObs {
            count: 3,
            digest: 0xbeef,
            lanes: vec![1, 2, 5],
        };
        total.merge(&part);
        total.retract(&part);
        assert_eq!(total.count, snapshot.count);
        assert_eq!(total.digest, snapshot.digest);
        for lane in 0..3 {
            assert_eq!(total.lane(lane), snapshot.lane(lane));
        }

        // Retract-then-merge round-trips too, even through wrap-around.
        let mut small = RoundObs::default();
        small.retract(&part);
        small.merge(&part);
        assert_eq!(small.count, 0);
        assert_eq!(small.digest, 0);
        assert_eq!(small.lane(2), 0);
    }
}
