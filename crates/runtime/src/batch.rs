//! The cache-resident message plane: SoA envelope batches with
//! run-length source headers, the emission lanes that route a message as
//! it is sent, and the delivery kernel every round executor is built on;
//! for the event executor, the parking a message is moved into as it is
//! sent and taken out of when its destination wakes.
//!
//! An [`EnvBatch`] replaces `Vec<Envelope<M>>` on the hot path. Instead
//! of one 24-byte-plus-payload AoS record per message, it keeps two flat
//! arrays — `dst: Vec<NodeId>` and `msg: Vec<M>` — plus a run-length
//! header list ([`SrcRun`]): `(src, first_seq, len)` for each maximal
//! stretch of consecutive messages that share a sender. `src` and `seq`
//! are stored once per run instead of once per message, which is ~16
//! bytes/message saved on the workloads that matter (small `Copy`
//! payloads, runs of a node's whole phase emission). A dating message
//! costs 4 (`dst`) + 8 (`DatingMsg` / `DatingSpreadMsg`, one word — the
//! partner of an answer is a 4-byte `rendez_sim::Partner`) + its share of
//! a 16-byte header — 14.3 bytes where a header covers seven sends, the
//! benchmark's `batch.bytes_per_msg` on `hetero-dating-seq` — and 4 + 8
//! again in the delivery scratch (`srcs` + `msgs`).
//!
//! # Batch invariants
//!
//! 1. **Exact sequence numbers.** Every batch is filled through
//!    [`EnvBatch::push`] — by [`Outbox::send`](crate::Outbox::send) —
//!    and never rewritten: message `k` of a run has sequence number
//!    `first_seq + k`, because [`push`](EnvBatch::push) extends a run
//!    only with the sender's next sequence number and starts a new one
//!    otherwise. A shard emits into several lanes (`Lanes`), so a
//!    sender's consecutive sends may alternate between them: within a
//!    lane its runs sit next to each other, each with its own
//!    `first_seq`, and need not be seq-contiguous with one another (with
//!    one lane a phase's sends form one run). The batch's `(src, dst,
//!    seq, msg)` stream is recoverable bit-for-bit
//!    ([`EnvBatch::to_envelopes`], property-tested in
//!    `tests/batch_roundtrip.rs`).
//! 2. **A lane is a routed bucket.** Where a message goes is decided
//!    where it is sent: `Lanes::push` files it in the lane of its
//!    destination's shard and — when the channel loses messages or
//!    spreads latencies — of the delivery slot its fate
//!    ([`FateRun::fate`], a pure function of `(seed, src, seq)`) assigns,
//!    and sets a lost message aside to be counted. Routing a round's
//!    sends is then a tally and a move of each lane; no message is
//!    copied, filtered or regrouped between the send and
//!    `order_deliveries`.
//! 3. **Order.** Senders emit in ascending id order within a phase of a
//!    round, each in seq order, so a lane is a sequence of src-ascending
//!    *stretches* — one per phase that sent into it, its headers stepping
//!    back where a later phase begins (the batch tracks whether any do as
//!    it is pushed to) — and a sender's later messages lie in the same or
//!    a later stretch. A delivery bucket lists such segments in send
//!    order (round by round, shard by shard within a round), so the same
//!    holds across segments. Merging the stretches' run *headers* by
//!    `(src, stretch position)` therefore yields the bucket's `(src,
//!    seq)` order, and one stable counting pass by destination over the
//!    runs in that order (`order_deliveries`) the canonical `(dst, src,
//!    seq)` order — no comparison sort over messages, whatever the
//!    latency distribution. Stretches that continue ascending across a
//!    segment boundary (contiguous shards of one round) form one stream:
//!    a single-round, single-phase bucket is plain concatenation.
//!
//! lint: deterministic

use crate::conditions::{Conditions, FateRun};
use crate::exec::{link, NIL};
use crate::proto::Envelope;
use rendez_sim::NodeId;

/// Run-length header of an [`EnvBatch`]: `len` consecutive messages
/// sent by `src`, message `k` of the run carrying sequence number
/// `first_seq + k` (batch invariant 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRun {
    /// Sequence number of the run's first message.
    pub first_seq: u64,
    /// The sender of every message in the run.
    pub src: NodeId,
    /// Number of messages in the run.
    pub len: u32,
}

/// A compact SoA batch of queued messages: flat destination and payload
/// arrays plus run-length [`SrcRun`] headers. See the [module
/// docs](self) for the invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvBatch<M> {
    dst: Vec<NodeId>,
    msg: Vec<M>,
    runs: Vec<SrcRun>,
    /// Whether `runs` is src-ascending (no header steps back below its
    /// predecessor's sender) — kept by `push`, one compare per new run,
    /// so `merge_runs` knows in O(1) that the batch is one stretch.
    ascending: bool,
}

impl<M> Default for EnvBatch<M> {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl<M> EnvBatch<M> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `msgs` messages in `runs` runs.
    pub fn with_capacity(msgs: usize, runs: usize) -> Self {
        Self {
            dst: Vec::with_capacity(msgs),
            msg: Vec::with_capacity(msgs),
            runs: Vec::with_capacity(runs),
            ascending: true,
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// Whether the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Drop all messages, keeping the allocations.
    pub fn clear(&mut self) {
        self.dst.clear();
        self.msg.clear();
        self.runs.clear();
        self.ascending = true;
    }

    /// Whether any of the backing arrays holds reusable capacity —
    /// the executors' buffer pools only keep such batches.
    pub(crate) fn has_capacity(&self) -> bool {
        self.dst.capacity() > 0 || self.msg.capacity() > 0 || self.runs.capacity() > 0
    }

    /// Capacities of the destination, payload and header arrays.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.dst.capacity(),
            self.msg.capacity(),
            self.runs.capacity(),
        ]
    }

    /// The run headers, in storage order.
    pub fn runs(&self) -> &[SrcRun] {
        &self.runs
    }

    /// The payloads, in storage order.
    pub(crate) fn msgs(&self) -> &[M] {
        &self.msg
    }

    /// Queue one emission: `src`'s send number `seq` to `dst`. Extends
    /// the last run when `src` matches and `seq` is contiguous with it
    /// (batch invariant 1), otherwise starts a new run.
    #[inline]
    pub fn push(&mut self, src: NodeId, seq: u64, dst: NodeId, msg: M) {
        match self.runs.last_mut() {
            Some(run) if run.src == src && run.first_seq + run.len as u64 == seq => run.len += 1,
            last => {
                self.ascending &= last.is_none_or(|run| run.src <= src);
                self.runs.push(SrcRun {
                    first_seq: seq,
                    src,
                    len: 1,
                });
            }
        }
        self.dst.push(dst);
        self.msg.push(msg);
    }

    /// Visit every run with its destination and payload slices, in
    /// storage order.
    pub fn for_each_run(&self, mut f: impl FnMut(&SrcRun, &[NodeId], &[M])) {
        let mut start = 0usize;
        for run in &self.runs {
            let end = start + run.len as usize;
            f(run, &self.dst[start..end], &self.msg[start..end]);
            start = end;
        }
    }

    /// Iterate the batch as `(src, seq, dst, &msg)` tuples in storage
    /// order, sequence numbers reconstructed from the run headers
    /// (batch invariant 1).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64, NodeId, &M)> + '_ {
        self.runs
            .iter()
            .scan(0usize, |start, run| {
                let s = *start;
                *start += run.len as usize;
                Some((run, s))
            })
            .flat_map(move |(run, s)| {
                (0..run.len as usize).map(move |k| {
                    (
                        run.src,
                        run.first_seq + k as u64,
                        self.dst[s + k],
                        &self.msg[s + k],
                    )
                })
            })
    }
}

impl<M: Clone> EnvBatch<M> {
    /// Reconstruct the legacy AoS stream (batch invariant 1); the
    /// round-trip with [`from_envelopes`](Self::from_envelopes) is
    /// property-tested.
    pub fn to_envelopes(&self) -> Vec<Envelope<M>> {
        self.iter()
            .map(|(src, seq, dst, msg)| Envelope {
                src,
                dst,
                seq,
                msg: msg.clone(),
            })
            .collect()
    }

    /// Build a batch from a legacy AoS stream, merging runs exactly as
    /// the emission path would.
    pub fn from_envelopes(envs: &[Envelope<M>]) -> Self {
        let mut batch = Self::new();
        for e in envs {
            batch.push(e.src, e.seq, e.dst, e.msg.clone());
        }
        batch
    }
}

/// Which emission lane — destination shard — a message belongs in:
/// `dst / chunk` for shards of `chunk` ids, without the division.
///
/// The quotient is the high half of one 64×64-bit product with the
/// per-layout reciprocal `⌊(2⁶⁴ − 1) / chunk⌋`, taken at `dst + 1`: the
/// round-down form of multiply-by-reciprocal division, exact for every
/// 32-bit `dst` and every `chunk` in `1..=u32::MAX` (`chunk == 1`
/// included, which the round-up form's reciprocal `2⁶⁴` does not fit).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneOf {
    recip: u64,
}

impl LaneOf {
    /// The lane map of a layout whose shards hold `chunk ≥ 1` ids each.
    pub(crate) fn new(chunk: usize) -> Self {
        Self {
            recip: u64::MAX / chunk as u64,
        }
    }

    /// `dst.index() / chunk`.
    #[inline]
    pub(crate) fn lane(self, dst: NodeId) -> usize {
        ((u128::from(self.recip) * u128::from(u64::from(dst.0) + 1)) >> 64) as usize
    }
}

/// An executor's emission, filled through [`push`](Self::push) in one of
/// four layouts fixed when the run starts: a round shard's [`EnvBatch`]
/// lanes, each one routed bucket (batch invariant 2), or the event
/// executor's parking.
#[derive(Debug)]
pub(crate) enum Lanes<M> {
    /// One shard: the one lane, held inline so that a push reaches it
    /// exactly as it reached the single emission batch there used to be.
    One(EnvBatch<M>),
    /// A lane per destination shard, and which one a destination is in.
    Several(Vec<EnvBatch<M>>, LaneOf),
    /// A channel that loses messages or spreads latencies: fate is
    /// decided at the send.
    Fated(Fated<M>),
    /// The event executor: no lane at all, every message is parked at
    /// its destination as it is sent.
    Parked(Parking<M>),
}

/// One parked message: a cell of the [`Parking`] slab. `msg` is `None`
/// while the cell sits on the free list.
#[derive(Debug)]
struct Parked<M> {
    next: u32,
    from: NodeId,
    msg: Option<M>,
}

/// The [`Lanes::Parked`] layout: messages waiting for their destination
/// to collect them (manul-style caching of messages for activations that
/// have not started yet). They live in one slab; each destination heads
/// an intrusive list through it, newest first, and the heads are one
/// dense array, so a send writes a cell and `heads[dst]` and touches
/// nothing else of the destination's. Collected cells go back on the
/// free list, so the slab grows to the high-water mark of messages in
/// flight and steady-state sends allocate nothing.
#[derive(Debug)]
pub(crate) struct Parking<M> {
    cells: Vec<Parked<M>>,
    /// Per destination, its most recently parked cell ([`NIL`] when
    /// none).
    heads: Vec<u32>,
    free: u32,
}

impl<M> Parking<M> {
    /// Nothing parked, for destinations `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            cells: Vec::new(),
            heads: vec![NIL; n],
            free: NIL,
        }
    }

    /// Park `msg` from `from` at `dst`, moving it into a free cell.
    #[inline]
    pub(crate) fn park(&mut self, dst: NodeId, from: NodeId, msg: M) {
        if self.free == NIL {
            self.grow();
        }
        let at = self.free;
        let head = &mut self.heads[dst.index()];
        let cell = &mut self.cells[at as usize];
        self.free = cell.next;
        *cell = Parked {
            next: *head,
            from,
            msg: Some(msg),
        };
        *head = at;
    }

    /// Put one new cell on the free list. Cold and out of line: `park`
    /// is inlined into [`Lanes::push`], which every round executor's
    /// send calls too, and with the growth path inline there the
    /// one-lane sends of `spread-ideal-seq` ran at 0.97 of their speed
    /// (2-vCPU x86-64 host).
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.free = link(self.cells.len());
        self.cells.push(Parked {
            next: NIL,
            from: NodeId(0),
            msg: None,
        });
    }

    /// Detach `dst`'s list and reverse it into arrival order; returns its
    /// first cell ([`NIL`] when nothing is parked).
    #[inline]
    pub(crate) fn detach(&mut self, dst: NodeId) -> u32 {
        let mut at = std::mem::replace(&mut self.heads[dst.index()], NIL);
        let mut first = NIL;
        while at != NIL {
            let next = std::mem::replace(&mut self.cells[at as usize].next, first);
            first = at;
            at = next;
        }
        first
    }

    /// Take the message out of cell `at` of a detached list and recycle
    /// the cell; returns `(sender, message, next cell)`.
    #[inline]
    pub(crate) fn take(&mut self, at: u32) -> (NodeId, M, u32) {
        let cell = &mut self.cells[at as usize];
        let msg = cell.msg.take().expect("a listed cell holds a message");
        let next = std::mem::replace(&mut cell.next, self.free);
        self.free = at;
        (cell.from, msg, next)
    }

    /// The messages still parked, in slab order.
    pub(crate) fn parked(&self) -> impl Iterator<Item = &M> {
        self.cells.iter().filter_map(|cell| cell.msg.as_ref())
    }
}

/// The [`Lanes::Fated`] layout: lanes indexed `[latency − min_latency]
/// [destination shard]`, and the messages fate lost.
#[derive(Debug)]
pub(crate) struct Fated<M> {
    lanes: Vec<EnvBatch<M>>,
    /// Lost messages, kept until the round is tallied: `bytes_sent`
    /// wants the protocol's `msg_bytes`, which a send site does not have.
    lost: Vec<M>,
    lane_of: LaneOf,
    dests: usize,
    min_latency: u64,
    seed: u64,
    /// The fate kernel of the sender that sent last; re-keyed when
    /// another sends (one `derive_seed` per sender and phase).
    fate: (NodeId, FateRun),
}

/// How many latencies `cond` can assign: the lanes a shard emits into
/// per destination shard, one for each of the delivery slots
/// `min_latency − 1 .. latency_slots()`.
pub(crate) fn slot_rows(cond: &Conditions) -> usize {
    (cond.latency.max_latency() - cond.latency.min_latency()) as usize + 1
}

impl<M> Fated<M> {
    /// [`Lanes::push`] where fate is decided: file the message under the
    /// latency [`FateRun::fate`] gives it, or with the lost. A call of
    /// its own, so the other layouts keep a plain [`EnvBatch::push`]'s frame.
    #[inline(never)]
    fn push(&mut self, src: NodeId, seq: u64, dst: NodeId, msg: M) {
        if self.fate.0 != src {
            self.fate = (src, self.fate.1.for_src(self.seed, src));
        }
        let Some(latency) = self.fate.1.fate(seq) else {
            self.lost.push(msg);
            return;
        };
        let row = (latency - self.min_latency) as usize;
        self.lanes[row * self.dests + self.lane_of.lane(dst)].push(src, seq, dst, msg);
    }
}

impl<M> Lanes<M> {
    /// `lanes ≥ 1` empty lanes for destination shards of `chunk ≥ 1` ids,
    /// on a channel that neither loses nor spreads.
    pub(crate) fn new(lanes: usize, chunk: usize) -> Self {
        if lanes == 1 {
            Lanes::One(EnvBatch::new())
        } else {
            let empty = (0..lanes).map(|_| EnvBatch::new()).collect();
            Lanes::Several(empty, LaneOf::new(chunk))
        }
    }

    /// Empty lanes for `dests ≥ 1` destination shards of `chunk ≥ 1` ids
    /// in the run keyed by `seed` under `cond`: one row of them per
    /// latency the channel can assign ([`slot_rows`]). Lossless fixed
    /// latency needs no fate and gets the layouts of [`new`](Self::new).
    pub(crate) fn conditioned(dests: usize, chunk: usize, seed: u64, cond: &Conditions) -> Self {
        let rows = slot_rows(cond);
        if cond.drop_prob <= 0.0 && rows == 1 {
            return Self::new(dests, chunk);
        }
        Lanes::Fated(Fated {
            lanes: (0..rows * dests).map(|_| EnvBatch::new()).collect(),
            lost: Vec::new(),
            lane_of: LaneOf::new(chunk),
            dests,
            min_latency: cond.latency.min_latency(),
            seed,
            fate: (NodeId(0), cond.fate_run(seed, NodeId(0))),
        })
    }

    /// The lanes, slot row by slot row, each row indexed by destination
    /// shard; none on the parked layout.
    pub(crate) fn batches(&mut self) -> &mut [EnvBatch<M>] {
        match self {
            Lanes::One(only) => std::slice::from_mut(only),
            Lanes::Several(lanes, _) => lanes,
            Lanes::Fated(fated) => &mut fated.lanes,
            Lanes::Parked(_) => &mut [],
        }
    }

    /// The messages fate lost since they were last cleared, if this
    /// layout decides fate.
    pub(crate) fn lost(&mut self) -> Option<&mut Vec<M>> {
        match self {
            Lanes::Fated(fated) => Some(&mut fated.lost),
            _ => None,
        }
    }

    /// The parking, if this is the parked layout.
    pub(crate) fn parking(&mut self) -> Option<&mut Parking<M>> {
        match self {
            Lanes::Parked(parking) => Some(parking),
            _ => None,
        }
    }

    /// Queue one emission ([`EnvBatch::push`]) in the lane of `dst`'s
    /// shard and, where fate is decided, of its delivery slot; with one
    /// lane there is no lane arithmetic. On the parked layout, park it at
    /// `dst` instead. Kept out of line and behind one pointer: a send
    /// site then holds the same values and makes the same one call as
    /// when it pushed into a single batch.
    #[inline(never)]
    pub(crate) fn push(&mut self, src: NodeId, seq: u64, dst: NodeId, msg: M) {
        let lane = match self {
            Lanes::One(only) => only,
            Lanes::Several(lanes, lane_of) => &mut lanes[lane_of.lane(dst)],
            Lanes::Fated(fated) => return fated.push(src, seq, dst, msg),
            Lanes::Parked(parking) => return parking.park(dst, src, msg),
        };
        lane.push(src, seq, dst, msg);
    }
}

/// Scratch and output of [`order_deliveries`]: one round's deliveries
/// for a contiguous destination range, in canonical `(dst, src, seq)`
/// order as two parallel arrays plus per-destination group offsets.
#[derive(Debug)]
pub struct DeliverScratch<M> {
    /// Senders, delivery-ordered (expanded from the run headers).
    pub srcs: Vec<NodeId>,
    /// Payloads, delivery-ordered.
    pub msgs: Vec<M>,
    /// `width + 1` exclusive prefix offsets: destination offset `k`'s
    /// group is `srcs[starts[k]..starts[k + 1]]` (same for `msgs`).
    /// Only valid when the last [`order_deliveries`] returned > 0.
    pub starts: Vec<u32>,
    counts: Vec<u32>,
    cursors: Vec<Cursor>,
}

impl<M> Default for DeliverScratch<M> {
    fn default() -> Self {
        Self {
            srcs: Vec::new(),
            msgs: Vec::new(),
            starts: Vec::new(),
            counts: Vec::new(),
            cursors: Vec::new(),
        }
    }
}

/// Read position of one merge stream: from run `run` of segment `seg`,
/// whose first message sits at offset `off`, through whole segments up
/// to run `stop` (exclusive) of segment `last`. `key` is the head run's
/// `(src, stream index)` packed into a `u64`, `MAX` once exhausted.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    key: u64,
    seg: usize,
    run: usize,
    off: usize,
    last: usize,
    stop: usize,
}

impl Cursor {
    /// Hand the stream's runs to `emit` while their key is below `bound`.
    fn drain_below<M>(
        &mut self,
        bound: u64,
        segments: &[EnvBatch<M>],
        emit: &mut impl FnMut(NodeId, &[NodeId], &[M]),
    ) {
        let stream = self.key & u64::from(u32::MAX);
        loop {
            let seg = &segments[self.seg];
            let ending = self.seg == self.last;
            let runs = if ending {
                &seg.runs[..self.stop]
            } else {
                &seg.runs[..]
            };
            while let Some(run) = runs.get(self.run) {
                self.key = u64::from(run.src.0) << 32 | stream;
                if self.key >= bound {
                    return;
                }
                let end = self.off + run.len as usize;
                emit(run.src, &seg.dst[self.off..end], &seg.msg[self.off..end]);
                (self.run, self.off) = (self.run + 1, end);
            }
            if ending {
                break;
            }
            (self.seg, self.run, self.off) = (self.seg + 1, 0, 0);
        }
        self.key = u64::MAX;
    }
}

/// Hand every run of `segments` to `emit` exactly once, in the bucket's
/// `(src, seq)` order (batch invariant 3): a k-way merge of run headers
/// over the src-ascending streams the segment list splits into — one
/// per stretch, except that a stretch which opens a segment without
/// stepping back below the previous segment's last sender continues that
/// stream (next shard, same round). k is at most 1 + the header descents
/// in the bucket per send round — 1 per send round when every round
/// sends from one phase, so at most the latency spread: scan it.
fn merge_runs<M>(
    segments: &[EnvBatch<M>],
    cursors: &mut Vec<Cursor>,
    mut emit: impl FnMut(NodeId, &[NodeId], &[M]),
) {
    cursors.clear();
    let mut last_src = None;
    for (i, seg) in segments.iter().enumerate() {
        let (Some(first), Some(last)) = (seg.runs.first(), seg.runs.last()) else {
            continue;
        };
        let open = |cursors: &mut Vec<Cursor>, run: usize, off: usize, src: NodeId| {
            cursors.push(Cursor {
                key: u64::from(src.0) << 32 | cursors.len() as u64,
                seg: i,
                run,
                off,
                last: i,
                stop: seg.runs.len(),
            })
        };
        match cursors.last_mut() {
            Some(c) if last_src <= Some(first.src) => (c.last, c.stop) = (i, seg.runs.len()),
            _ => open(cursors, 0, 0, first.src),
        }
        if !seg.ascending {
            // Sends from several phases: end the stream at each header
            // that steps back and open the next one there.
            let mut off = 0;
            for (r, pair) in seg.runs.windows(2).enumerate() {
                off += pair[0].len as usize;
                if pair[1].src < pair[0].src {
                    cursors.last_mut().expect("one is open").stop = r + 1;
                    open(cursors, r + 1, off, pair[1].src);
                }
            }
        }
        last_src = Some(last.src);
    }
    loop {
        // Drain the smallest head until it passes the runner-up; keys
        // are distinct (stream index), so each step emits a run.
        let (mut best, mut best_key, mut bound) = (0, u64::MAX, u64::MAX);
        for (i, c) in cursors.iter().enumerate() {
            if c.key < best_key {
                (best, bound, best_key) = (i, best_key, c.key);
            } else if c.key < bound {
                bound = c.key;
            }
        }
        if best_key == u64::MAX {
            return;
        }
        cursors[best].drain_below(bound, segments, &mut emit);
    }
}

/// Order one round's due segments into canonical `(dst, src, seq)`
/// delivery order, draining them. Returns the number of deliveries;
/// destinations are `base..base + width`.
///
/// Segments must be in send order (batch invariant 3). No messages are
/// compared: the run headers are merged into `(src, seq)` order
/// (`merge_runs`) and each run's messages go through one stable counting
/// pass by destination — per message one histogram bump and one
/// 4-byte-plus-payload scatter write, whatever the latency distribution.
pub fn order_deliveries<M: Clone>(
    segments: &mut [EnvBatch<M>],
    base: usize,
    width: usize,
    ds: &mut DeliverScratch<M>,
) -> usize {
    let total: usize = segments.iter().map(EnvBatch::len).sum();
    ds.srcs.clear();
    ds.msgs.clear();
    if total == 0 {
        return 0;
    }
    ds.counts.clear();
    ds.counts.resize(width, 0);
    for seg in segments.iter() {
        for dst in &seg.dst {
            ds.counts[dst.index() - base] += 1;
        }
    }
    // Exclusive prefix sums: `starts` keeps them (plus the total as a
    // sentinel), `counts` becomes each group's write cursor.
    ds.starts.clear();
    let mut acc = 0u32;
    for c in ds.counts.iter_mut() {
        ds.starts.push(acc);
        let here = *c;
        *c = acc;
        acc += here;
    }
    debug_assert_eq!(acc as usize, total);
    ds.starts.push(acc);
    ds.srcs.reserve(total);
    ds.msgs.reserve(total);
    // SAFETY: `merge_runs` hands every run of every segment to the
    // closure exactly once, so the write positions `counts[dst
    // offset]++` enumerate each destination group's slots in arrival
    // order; the exclusive prefix sums were exact over the same
    // messages, so the positions are a permutation of `0..total` —
    // every reserved slot is initialized exactly once before `set_len`,
    // and no message is dropped or duplicated.
    let sp = ds.srcs.as_mut_ptr();
    let mp = ds.msgs.as_mut_ptr();
    let counts = &mut ds.counts;
    merge_runs(segments, &mut ds.cursors, |src, dsts, msgs| {
        for (dst, m) in dsts.iter().zip(msgs) {
            let k = dst.index() - base;
            let pos = counts[k] as usize;
            counts[k] += 1;
            unsafe {
                sp.add(pos).write(src);
                mp.add(pos).write(m.clone());
            }
        }
    });
    unsafe {
        ds.srcs.set_len(total);
        ds.msgs.set_len(total);
    }
    for seg in segments {
        seg.clear();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::LatencyDist;
    use crate::report::NetStats;

    fn env(src: u32, dst: u32, seq: u64) -> Envelope<u32> {
        Envelope {
            src: NodeId(src),
            dst: NodeId(dst),
            seq,
            msg: src * 1000 + seq as u32,
        }
    }

    #[test]
    fn push_merges_contiguous_runs_only() {
        let mut b = EnvBatch::new();
        b.push(NodeId(1), 0, NodeId(9), 'a');
        b.push(NodeId(1), 1, NodeId(8), 'b');
        b.push(NodeId(2), 0, NodeId(7), 'c');
        b.push(NodeId(1), 2, NodeId(6), 'd'); // same src, interleaved: new run
        b.push(NodeId(1), 5, NodeId(5), 'e'); // seq gap: new run
        assert_eq!(b.len(), 5);
        assert_eq!(b.runs().len(), 4);
        assert_eq!(b.runs()[0].len, 2);
        assert_eq!(b.runs()[3].first_seq, 5);
    }

    #[test]
    fn envelope_round_trip_is_exact() {
        let envs = vec![env(0, 3, 0), env(0, 1, 1), env(2, 0, 4), env(0, 2, 2)];
        let batch = EnvBatch::from_envelopes(&envs);
        assert_eq!(batch.to_envelopes(), envs);
        // iter() agrees with the reconstruction.
        let via_iter: Vec<_> = batch
            .iter()
            .map(|(src, seq, dst, &msg)| Envelope { src, dst, seq, msg })
            .collect();
        assert_eq!(via_iter, envs);
    }

    const SRCS: u32 = 6;
    const DSTS: usize = 8;

    /// One round's emission: in each phase senders emit in ascending id
    /// order (the engine's id-order hooks), seq counters carrying over.
    fn emission(phases: &[Vec<(u32, u32)>]) -> Vec<Envelope<u32>> {
        let mut seqs = [0u64; SRCS as usize];
        let mut envs = Vec::new();
        for phase in phases {
            let mut phase = phase.clone();
            phase.sort_by_key(|&(src, _)| src);
            for (src, dst) in phase {
                envs.push(env(src, dst, seqs[src as usize]));
                seqs[src as usize] += 1;
            }
        }
        envs
    }

    /// What destinations `base..base + width` receive from `bucket`, in
    /// delivery order, as `(dst, src, msg)`.
    fn delivered(bucket: EnvBatch<u32>, base: usize, width: usize) -> Vec<(usize, NodeId, u32)> {
        let mut ds = DeliverScratch::default();
        let mut out = Vec::new();
        if order_deliveries(&mut [bucket], base, width, &mut ds) > 0 {
            for off in 0..width {
                for i in ds.starts[off] as usize..ds.starts[off + 1] as usize {
                    out.push((base + off, ds.srcs[i], ds.msgs[i]));
                }
            }
        }
        out
    }

    proptest::proptest! {
        /// Filing at the send ≡ per-envelope fate plus a `(dst, src, seq)`
        /// sort, per delivery slot and destination shard, deliveries and
        /// `NetStats` alike. One phase gives src-ascending lanes; two or
        /// three usually lanes whose headers step back.
        #[test]
        fn lanes_filed_at_the_send_equal_the_per_envelope_reference(
            phases in proptest::collection::vec(
                proptest::collection::vec((0u32..SRCS, 0u32..DSTS as u32), 0..12),
                1..4,
            ),
            pick in 0usize..4,
            sharded in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cond = [
                Conditions::ideal(),
                Conditions::with_loss(0.4),
                Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 3 }),
                Conditions { drop_prob: 0.4, latency: LatencyDist::Fixed(2) },
            ][pick];
            let dests = if sharded { 3 } else { 1 };
            let chunk = DSTS.div_ceil(dests);
            let rows = slot_rows(&cond);
            let first_slot = cond.latency_slots() - rows;
            let envs = emission(&phases);

            let mut want_stats = NetStats::default();
            let mut due: Vec<Vec<&Envelope<u32>>> = vec![Vec::new(); rows * dests];
            for e in &envs {
                want_stats.sent += 1;
                want_stats.bytes_sent += 1;
                match cond.fate(seed, e) {
                    None => want_stats.dropped += 1,
                    Some(l) => {
                        let row = l as usize - 1 - first_slot;
                        due[row * dests + e.dst.index() / chunk].push(e);
                    }
                }
            }
            let want: Vec<Vec<_>> = due
                .into_iter()
                .map(|mut lane| {
                    lane.sort_by_key(|e| (e.dst, e.src, e.seq));
                    lane.iter().map(|e| (e.dst.index(), e.src, e.msg)).collect()
                })
                .collect();

            let mut lanes = Lanes::conditioned(dests, chunk, seed, &cond);
            proptest::prop_assert_eq!(
                matches!(lanes, Lanes::Fated(_)),
                !cond.is_ideal(),
                "fate is computed exactly where the channel needs it"
            );
            for e in &envs {
                lanes.push(e.src, e.seq, e.dst, e.msg);
            }
            // The round engine's tally: every message filed or lost.
            let lost = lanes.lost().map_or(0, |lost| std::mem::take(lost).len()) as u64;
            let filed: u64 = lanes.batches().iter().map(|lane| lane.len() as u64).sum();
            let stats = NetStats {
                sent: filed + lost,
                bytes_sent: filed + lost,
                dropped: lost,
                ..NetStats::default()
            };
            proptest::prop_assert_eq!(&stats, &want_stats);
            proptest::prop_assert_eq!(lanes.batches().len(), rows * dests);
            let got: Vec<_> = lanes
                .batches()
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| {
                    let ascending = lane.runs().windows(2).all(|w| w[0].src <= w[1].src);
                    assert_eq!(lane.ascending, ascending);
                    let base = i % dests * chunk;
                    delivered(std::mem::take(lane), base, chunk.min(DSTS - base))
                })
                .collect();
            proptest::prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn parking_is_fifo_per_list_and_recycles_cells() {
        // Three senders, each sending to destinations 0, 1, 2 in turn.
        let mut lanes: Lanes<u32> = Lanes::Parked(Parking::new(3));
        for src in 0..3u32 {
            for dst in 0..3u32 {
                lanes.push(NodeId(src), u64::from(dst), NodeId(dst), 10 * dst + src);
            }
        }
        assert!(lanes.batches().is_empty(), "the parked layout has no lane");
        assert!(lanes.lost().is_none(), "nor does it decide fate");
        let drain = |lanes: &mut Lanes<u32>, dst: u32| {
            let parking = lanes.parking().expect("the parked layout");
            let mut got = Vec::new();
            let mut at = parking.detach(NodeId(dst));
            while at != NIL {
                let (from, msg, next) = parking.take(at);
                got.push((from.0, msg));
                at = next;
            }
            got
        };
        let cells = |lanes: &mut Lanes<u32>| lanes.parking().map(|p| p.cells.len());
        assert_eq!(drain(&mut lanes, 1), [(0, 10), (1, 11), (2, 12)]);
        // The three freed cells are reused before the slab grows.
        for src in [9, 8, 7] {
            lanes.push(NodeId(src), 3, NodeId(1), 90 + src);
            assert_eq!(cells(&mut lanes), Some(9));
        }
        lanes.push(NodeId(6), 3, NodeId(1), 96);
        assert_eq!(cells(&mut lanes), Some(10));
        let mut left: Vec<u32> = lanes.parking().expect("parked").parked().copied().collect();
        left.sort_unstable();
        assert_eq!(left, [0, 1, 2, 20, 21, 22, 96, 97, 98, 99]);
        assert_eq!(drain(&mut lanes, 2), [(0, 20), (1, 21), (2, 22)]);
        assert_eq!(drain(&mut lanes, 0), [(0, 0), (1, 1), (2, 2)]);
        assert_eq!(drain(&mut lanes, 1), [(9, 99), (8, 98), (7, 97), (6, 96)]);
        assert_eq!(drain(&mut lanes, 1), []);
        assert_eq!(lanes.parking().expect("parked").parked().count(), 0);
    }

    proptest::proptest! {
        /// The reciprocal lane is the quotient, for every 32-bit
        /// destination and chunk — the ends of both ranges included.
        #[test]
        fn lane_of_equals_division(
            dst in proptest::prelude::any::<u32>(),
            chunk in 1u32..=u32::MAX,
            edge in 0usize..9,
        ) {
            let (dst, chunk) = match edge {
                0 => (dst, 1),
                1 => (u32::MAX, chunk),
                2 => (u32::MAX, 1),
                3 => (dst, u32::MAX),
                // Around a multiple of the chunk, where a reciprocal
                // rounded the wrong way shows.
                4 => ((dst / chunk * chunk).wrapping_sub(1), chunk),
                5 => (dst / chunk * chunk, chunk),
                _ => (dst, chunk),
            };
            proptest::prop_assert_eq!(
                LaneOf::new(chunk as usize).lane(NodeId(dst)),
                (dst / chunk) as usize
            );
        }
    }

    /// Run the kernel over `segments` (destinations `0..width`) and
    /// compare with the reference `(dst, src, seq)` sort.
    fn assert_orders_like_sort(mut segments: Vec<EnvBatch<u32>>, width: usize) {
        let mut expect: Vec<_> = segments.iter().flat_map(EnvBatch::to_envelopes).collect();
        expect.sort_by_key(|e| (e.dst, e.src, e.seq));
        let mut ds = DeliverScratch::default();
        assert_eq!(
            order_deliveries(&mut segments, 0, width, &mut ds),
            expect.len()
        );
        let got: Vec<_> = ds
            .srcs
            .iter()
            .copied()
            .zip(ds.msgs.iter().copied())
            .collect();
        let want: Vec<_> = expect.iter().map(|e| (e.src, e.msg)).collect();
        assert_eq!(got, want);
        // Group offsets address each destination's slice.
        for off in 0..width {
            let (s, e) = (ds.starts[off] as usize, ds.starts[off + 1] as usize);
            assert!(expect[s..e].iter().all(|env| env.dst.index() == off));
        }
        assert!(segments.iter().all(EnvBatch::is_empty), "segments drained");
    }

    #[test]
    fn order_deliveries_counting_matches_sort() {
        // Two (src, seq)-sorted segments from contiguous shards.
        let a = EnvBatch::from_envelopes(&[env(0, 2, 0), env(0, 1, 1), env(1, 2, 0)]);
        let b = EnvBatch::from_envelopes(&[env(3, 0, 0), env(3, 2, 1), env(4, 1, 2)]);
        assert_orders_like_sort(vec![a, b], 5);
    }

    #[test]
    fn order_deliveries_mixed_is_stable_across_rounds() {
        // Senders contributing to one bucket from two send rounds, each
        // round's segment src-ascending: the header merge must interleave
        // the rounds by sender and keep round order per (dst, src).
        let round0 = EnvBatch::from_envelopes(&[env(1, 0, 0), env(2, 0, 0), env(2, 1, 1)]);
        let round1 = EnvBatch::from_envelopes(&[env(0, 0, 3), env(1, 0, 7), env(2, 1, 2)]);
        assert_orders_like_sort(vec![round0, round1], 3);
    }

    #[test]
    fn order_deliveries_splits_a_segment_at_its_descents() {
        // Two shards' lanes of a round that sent from two phases — each
        // steps back once, and shard 1's first stretch continues the
        // stream shard 0's second one opened — then the next round's.
        let shard0 = EnvBatch::from_envelopes(&[
            env(0, 1, 0),
            env(1, 0, 0),
            env(2, 1, 0),
            env(0, 1, 1),
            env(2, 1, 1),
        ]);
        let shard1 = EnvBatch::from_envelopes(&[
            env(3, 1, 0),
            env(4, 0, 0),
            env(5, 1, 0),
            env(3, 1, 1),
            env(3, 0, 2),
            env(5, 1, 1),
        ]);
        let later = EnvBatch::from_envelopes(&[env(0, 1, 2), env(2, 0, 2), env(3, 1, 3)]);
        assert!(!shard0.ascending && !shard1.ascending && later.ascending);
        assert_orders_like_sort(vec![shard0, shard1, later], 2);
    }

    #[test]
    fn order_deliveries_handles_empty_input() {
        let mut segments: Vec<EnvBatch<u32>> = vec![EnvBatch::new(), EnvBatch::new()];
        let mut ds = DeliverScratch::default();
        ds.srcs.push(NodeId(0)); // stale scratch must be cleared
        assert_eq!(order_deliveries(&mut segments, 0, 4, &mut ds), 0);
        assert!(ds.srcs.is_empty());
    }
}
