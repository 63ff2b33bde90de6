//! The cache-resident message plane: SoA envelope batches with
//! run-length source headers, plus the shared route/deliver kernels
//! every round executor is built on.
//!
//! An [`EnvBatch`] replaces `Vec<Envelope<M>>` on the hot path. Instead
//! of one 24-byte-plus-payload AoS record per message, it keeps two flat
//! arrays — `dst: Vec<NodeId>` and `msg: Vec<M>` — plus a run-length
//! header list ([`SrcRun`]): `(src, first_seq, len)` for each maximal
//! stretch of consecutive messages that share a sender. `src` and `seq`
//! are stored once per run instead of once per message, which is ~16
//! bytes/message saved on the workloads that matter (small `Copy`
//! payloads, runs of a node's whole phase emission).
//!
//! # Batch invariants
//!
//! 1. **Emission lanes** (filled through [`EnvBatch::push`], i.e. by
//!    [`Outbox::send`](crate::Outbox::send)) are exact: message `k` of a
//!    run has sequence number `first_seq + k`, because
//!    [`push`](EnvBatch::push) extends a run only with the sender's next
//!    sequence number and starts a new one otherwise. A shard emits into
//!    one lane per destination shard (`Lanes`), so a sender's
//!    consecutive sends may alternate between lanes: within a lane its
//!    runs sit next to each other, each with its own `first_seq`, and
//!    need not be seq-contiguous with one another. (With one lane — the
//!    sequential and the event executor — a sender's `seq` counter only
//!    advances when that sender emits, so a phase's sends form one run.)
//!    The lane's `(src, dst, seq, msg)` stream is recoverable bit-for-bit
//!    ([`EnvBatch::to_envelopes`], property-tested in
//!    `tests/batch_roundtrip.rs`) — until the lane is routed.
//! 2. **Routed batches** carry no per-message sequence numbers: fate
//!    already ran, delivery order within a destination only needs the
//!    *relative* order the batch stores (invariant 3), and nobody reads
//!    `first_seq` again. They come about in two ways. `route_sends`
//!    copies survivors out through [`EnvBatch::push_grouped`], which
//!    merges runs on sender identity alone (`first_seq` reads 0).
//!    `route_whole` turns an emission lane into a routed batch where it
//!    stands: the messages fate loses are compacted out in place, runs
//!    shrink to their survivors and keep a `first_seq` that no longer
//!    describes them — so [`iter`](EnvBatch::iter) and
//!    [`to_envelopes`](EnvBatch::to_envelopes) are exact on such a batch
//!    only if nothing was lost (ideal conditions).
//! 3. **Order.** A routed batch is `(src, seq)`-sorted, i.e. its run
//!    headers are src-ascending (a sender may head several adjacent
//!    runs) and a sender's messages sit in seq order: `route_sends`
//!    walks senders in ascending id order and each sender's messages in
//!    seq order, and `route_whole` only takes a lane whose headers are
//!    ascending as emitted (every round that sends from one phase — the
//!    batch tracks this as it is pushed to). A delivery bucket lists
//!    such segments in send order (round by round, shard by shard within
//!    a round), so a sender's later messages sit in later segments.
//!    Merging the segments' run *headers* by `(src, segment position)`
//!    therefore yields the bucket's `(src, seq)` order, and one stable
//!    counting pass by destination over the runs in that order
//!    (`order_deliveries`) the canonical `(dst, src, seq)` order — no
//!    comparison sort over messages, whatever the latency distribution.
//!    Segments that continue ascending (contiguous shards of one round)
//!    form one stream: a single-round bucket is plain concatenation.
//!
//! lint: deterministic

use crate::conditions::{Conditions, FateRun, LatencyDist};
use crate::proto::Envelope;
use crate::report::NetStats;
use rendez_sim::NodeId;

/// Run-length header of an [`EnvBatch`]: `len` consecutive messages
/// sent by `src`. For emission batches message `k` of the run carries
/// sequence number `first_seq + k` (batch invariant 1); for routed
/// batches `first_seq` is not meaningful (invariant 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRun {
    /// Sequence number of the run's first message (emission batches).
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
    /// predecessor's sender) — kept by the push methods, one compare per
    /// new run, so the route kernels know in O(1) that storage order is
    /// already `(src, seq)` order.
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

    /// Queue one emission: `src`'s send number `seq` to `dst`. Extends
    /// the last run when `src` matches and `seq` is contiguous with it
    /// (batch invariant 1), otherwise starts a new run.
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

    /// Queue one routed message from `src` to `dst`, merging runs on
    /// sender identity alone (batch invariant 2 — `first_seq` reads 0).
    pub fn push_grouped(&mut self, src: NodeId, dst: NodeId, msg: M) {
        match self.runs.last_mut() {
            Some(run) if run.src == src => run.len += 1,
            last => {
                self.ascending &= last.is_none_or(|run| run.src <= src);
                self.runs.push(SrcRun {
                    first_seq: 0,
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
    /// order. Sequence numbers are reconstructed from the run headers,
    /// so this is only exact for emission batches (batch invariant 1).
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
    /// Reconstruct the legacy AoS stream. Exact for emission batches
    /// (batch invariant 1); the round-trip with
    /// [`from_envelopes`](Self::from_envelopes) is property-tested.
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

/// A shard's emission: one [`EnvBatch`] lane per destination shard,
/// filled through [`push`](Self::push) — i.e. by
/// [`Outbox::send`](crate::Outbox::send) — and routed lane by lane.
#[derive(Debug)]
pub(crate) enum Lanes<M> {
    /// One shard, or the event executor: the one lane, held inline so
    /// that a push reaches it exactly as it reached the single emission
    /// batch there used to be.
    One(EnvBatch<M>),
    /// A lane per destination shard, and which one a destination is in.
    Several(Vec<EnvBatch<M>>, LaneOf),
}

impl<M> Lanes<M> {
    /// `lanes ≥ 1` empty lanes for destination shards of `chunk ≥ 1` ids.
    pub(crate) fn new(lanes: usize, chunk: usize) -> Self {
        if lanes == 1 {
            Lanes::One(EnvBatch::new())
        } else {
            let empty = (0..lanes).map(|_| EnvBatch::new()).collect();
            Lanes::Several(empty, LaneOf::new(chunk))
        }
    }

    /// The lanes, indexed by destination shard.
    pub(crate) fn batches(&mut self) -> &mut [EnvBatch<M>] {
        match self {
            Lanes::One(only) => std::slice::from_mut(only),
            Lanes::Several(lanes, _) => lanes,
        }
    }

    /// Queue one emission ([`EnvBatch::push`]) in the lane of `dst`'s
    /// shard; with one lane there is no lane arithmetic. Kept out of
    /// line and behind one pointer: a send site then holds the same
    /// values and makes the same one call as when it pushed into a
    /// single batch.
    #[inline(never)]
    pub(crate) fn push(&mut self, src: NodeId, seq: u64, dst: NodeId, msg: M) {
        let lane = match self {
            Lanes::One(only) => only,
            Lanes::Several(lanes, lane_of) => &mut lanes[lane_of.lane(dst)],
        };
        lane.push(src, seq, dst, msg);
    }
}

/// Route a fresh emission lane **without copying it**, when the whole
/// lane is one routed bucket: a lane holds one destination shard's
/// messages by construction ([`Lanes`]), so what is left to ask is that
/// the latency is [`Fixed`](LatencyDist::Fixed) — one delivery slot for
/// every survivor — and that the run headers are already src-ascending,
/// i.e. storage order is `(src, seq)` order (batch invariant 3).
///
/// Tallies `sent`/`bytes_sent`, compacts the messages lost to
/// `cond.drop_prob` out in place (nothing to do without loss) and
/// returns the slot `latency − 1` the lane is due in: `fresh` now *is*
/// the routed bucket, for the caller to move into the ring. Returns
/// `None` with `fresh` untouched when the lane does not qualify —
/// [`route_sends`] takes it from there — and with `fresh` accounted for
/// and empty when no message survived.
pub(crate) fn route_whole<M>(
    fresh: &mut EnvBatch<M>,
    seed: u64,
    cond: &Conditions,
    stats: &mut NetStats,
    mut msg_bytes: impl FnMut(&M) -> usize,
) -> Option<usize> {
    let LatencyDist::Fixed(latency) = cond.latency else {
        return None;
    };
    if !fresh.ascending {
        return None;
    }
    stats.sent += fresh.len() as u64;
    for m in &fresh.msg {
        stats.bytes_sent += msg_bytes(m) as u64;
    }
    if cond.drop_prob > 0.0 {
        stats.dropped += fresh.drop_lost(seed, cond);
    }
    (!fresh.is_empty()).then_some((latency - 1) as usize)
}

impl<M> EnvBatch<M> {
    /// Remove, in place, every message of this emission batch that
    /// `cond` loses, keeping the survivors' order; returns how many went.
    /// Runs shrink to their survivors (their `first_seq` is spent — batch
    /// invariant 2) and emptied runs go, so the batch stays src-ascending
    /// if it was.
    fn drop_lost(&mut self, seed: u64, cond: &Conditions) -> u64 {
        let (mut read, mut write, mut kept_runs) = (0usize, 0usize, 0usize);
        let mut fate: Option<FateRun> = None;
        for i in 0..self.runs.len() {
            let run = self.runs[i];
            // Re-key the kernel per sender, keeping its loss threshold.
            let fr = match fate {
                Some(fr) => fr.for_src(seed, run.src),
                None => cond.fate_run(seed, run.src),
            };
            fate = Some(fr);
            let before = write;
            for seq in run.first_seq..run.first_seq + u64::from(run.len) {
                if fr.fate(seq).is_some() {
                    if write != read {
                        self.dst[write] = self.dst[read];
                        self.msg.swap(write, read);
                    }
                    write += 1;
                }
                read += 1;
            }
            if write > before {
                self.runs[kept_runs] = SrcRun {
                    len: (write - before) as u32,
                    ..run
                };
                kept_runs += 1;
            }
        }
        self.runs.truncate(kept_runs);
        self.dst.truncate(write);
        self.msg.truncate(write);
        (read - write) as u64
    }
}

/// Scratch for [`route_sends`]: the counting pass that orders a fresh
/// emission batch's runs by sender when they are not already.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    counts: Vec<u32>,
    run_starts: Vec<u32>,
    run_order: Vec<u32>,
}

/// Decide the fate of every message in `fresh` (senders
/// `base..base + width`) and hand survivors to `file(slot, src, dst,
/// msg)` in `(src, seq)` order, draining the batch.
///
/// This is the hoisted fate kernel of the round engine: runs are walked
/// grouped by sender — in storage order when the headers are already
/// src-ascending (every round whose sends come from one phase), else
/// through a stable counting pass over the run *headers* — so
/// per-message work is one bucket push, the per-sender fate stream seed
/// is derived once per sender ([`Conditions::fate_run`]), and ideal
/// conditions skip fate hashing entirely. `stats` absorbs the
/// sent/bytes/dropped accounting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_sends<M: Clone>(
    fresh: &mut EnvBatch<M>,
    seed: u64,
    cond: &Conditions,
    base: usize,
    width: usize,
    rs: &mut RouteScratch,
    stats: &mut NetStats,
    mut msg_bytes: impl FnMut(&M) -> usize,
    mut file: impl FnMut(usize, NodeId, NodeId, M),
) {
    let RouteScratch {
        counts,
        run_starts,
        run_order,
    } = rs;
    let in_order = fresh.ascending;
    if !in_order {
        // Group run indices by sender offset: counting pass over headers.
        // Per-sender emission is seq-ascending across the whole round
        // (sequence counters only advance on sends), so walking each
        // sender's runs in arrival order yields its messages in seq order.
        counts.clear();
        counts.resize(width, 0);
        run_starts.clear();
        run_starts.reserve(fresh.runs.len());
        let mut start = 0u32;
        for run in &fresh.runs {
            counts[run.src.index() - base] += 1;
            run_starts.push(start);
            start += run.len;
        }
        let mut acc = 0u32;
        for c in counts.iter_mut() {
            let here = *c;
            *c = acc;
            acc += here;
        }
        run_order.clear();
        run_order.resize(fresh.runs.len(), 0);
        for (idx, run) in fresh.runs.iter().enumerate() {
            let k = run.src.index() - base;
            run_order[counts[k] as usize] = idx as u32;
            counts[k] += 1;
        }
    }

    let ideal = cond.is_ideal();
    // One fate stream per sender, shared by that sender's consecutive
    // runs (derive_seed once per sender, not once per message).
    let mut fate: Option<(NodeId, FateRun)> = None;
    let mut next_start = 0usize;
    for (i, &run) in fresh.runs.iter().enumerate() {
        // The `i`-th run in sender order: the `i`-th stored when the
        // headers are already src-ascending.
        let (run, s) = if in_order {
            let s = next_start;
            next_start += run.len as usize;
            (run, s)
        } else {
            let ri = run_order[i] as usize;
            (fresh.runs[ri], run_starts[ri] as usize)
        };
        let e = s + run.len as usize;
        let dsts = &fresh.dst[s..e];
        let msgs = &fresh.msg[s..e];
        stats.sent += run.len as u64;
        for m in msgs {
            stats.bytes_sent += msg_bytes(m) as u64;
        }
        if ideal {
            // Fast path: no fate hashing, every message lands next
            // round (slot 0).
            for (dst, m) in dsts.iter().zip(msgs) {
                file(0, run.src, *dst, m.clone());
            }
            continue;
        }
        let fr = match fate {
            Some((src, fr)) if src == run.src => fr,
            // Next sender: re-key the kernel, keeping its loss threshold.
            Some((_, fr)) => fr.for_src(seed, run.src),
            None => cond.fate_run(seed, run.src),
        };
        fate = Some((run.src, fr));
        for (k, (dst, m)) in dsts.iter().zip(msgs).enumerate() {
            match fr.fate(run.first_seq + k as u64) {
                None => stats.dropped += 1,
                Some(latency) => file((latency - 1) as usize, run.src, *dst, m.clone()),
            }
        }
    }
    fresh.clear();
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

/// Read position of one merge stream: segments `seg..end`, at run `run`
/// of `seg`, whose first message sits at offset `off`. `key` is the head
/// run's `(src, stream index)` packed into a `u64`, `MAX` once exhausted.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    key: u64,
    seg: usize,
    end: usize,
    run: usize,
    off: usize,
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
        while self.seg < self.end {
            let seg = &segments[self.seg];
            while let Some(run) = seg.runs.get(self.run) {
                self.key = u64::from(run.src.0) << 32 | stream;
                if self.key >= bound {
                    return;
                }
                let end = self.off + run.len as usize;
                emit(run.src, &seg.dst[self.off..end], &seg.msg[self.off..end]);
                (self.run, self.off) = (self.run + 1, end);
            }
            (self.seg, self.run, self.off) = (self.seg + 1, 0, 0);
        }
        self.key = u64::MAX;
    }
}

/// Hand every run of `segments` to `emit` exactly once, in the bucket's
/// `(src, seq)` order (batch invariant 3): a k-way merge of run headers
/// over the src-ascending streams the segment list splits into. k, the
/// send rounds in the bucket, is at most the latency spread: scan it.
fn merge_runs<M>(
    segments: &[EnvBatch<M>],
    cursors: &mut Vec<Cursor>,
    mut emit: impl FnMut(NodeId, &[NodeId], &[M]),
) {
    cursors.clear();
    let mut last_src = None;
    for (i, seg) in segments.iter().enumerate() {
        debug_assert!(
            seg.runs.windows(2).all(|w| w[0].src <= w[1].src),
            "segment {i} is not src-ascending (batch invariant 3)"
        );
        let (Some(first), Some(last)) = (seg.runs.first(), seg.runs.last()) else {
            continue;
        };
        // A segment that does not step back below its predecessor's
        // last sender continues that stream (next shard, same round).
        match cursors.last_mut() {
            Some(c) if last_src <= Some(first.src) => c.end = i + 1,
            _ => cursors.push(Cursor {
                key: u64::from(first.src.0) << 32 | cursors.len() as u64,
                seg: i,
                end: i + 1,
                run: 0,
                off: 0,
            }),
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
/// Segments must satisfy batch invariant 3. No messages are compared:
/// the run headers are merged into `(src, seq)` order (`merge_runs`)
/// and each run's messages go through one stable counting pass by
/// destination — per message one histogram bump and one
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
    fn push_grouped_merges_on_src_alone() {
        let mut b = EnvBatch::new();
        b.push_grouped(NodeId(3), NodeId(0), 'x');
        b.push_grouped(NodeId(3), NodeId(1), 'y'); // seq-free merge
        b.push_grouped(NodeId(4), NodeId(2), 'z');
        assert_eq!(b.runs().len(), 2);
        assert_eq!(b.runs()[0].len, 2);
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

    /// Reference model for route_sends: legacy per-envelope fate.
    fn route_reference(
        envs: &[Envelope<u32>],
        seed: u64,
        cond: &Conditions,
    ) -> (Vec<(usize, NodeId, NodeId, u32)>, NetStats) {
        let mut sorted = envs.to_vec();
        sorted.sort_by_key(|e| (e.src, e.seq));
        let mut out = Vec::new();
        let mut stats = NetStats::default();
        for e in &sorted {
            stats.sent += 1;
            stats.bytes_sent += 1;
            match cond.fate(seed, e) {
                None => stats.dropped += 1,
                Some(l) => out.push(((l - 1) as usize, e.src, e.dst, e.msg)),
            }
        }
        (out, stats)
    }

    #[test]
    fn route_sends_matches_per_envelope_fate() {
        for cond in [
            Conditions::ideal(),
            Conditions::with_loss(0.4),
            Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 5 }),
        ] {
            // Interleaved emission: two sources alternating, one idle.
            let envs = vec![
                env(1, 0, 0),
                env(1, 2, 1),
                env(3, 1, 0),
                env(1, 3, 2),
                env(3, 0, 1),
            ];
            let mut fresh = EnvBatch::from_envelopes(&envs);
            let mut rs = RouteScratch::default();
            let mut stats = NetStats::default();
            let mut got = Vec::new();
            route_sends(
                &mut fresh,
                9,
                &cond,
                0,
                4,
                &mut rs,
                &mut stats,
                |_| 1,
                |slot, src, dst, msg| got.push((slot, src, dst, msg)),
            );
            let (want, want_stats) = route_reference(&envs, 9, &cond);
            assert_eq!(got, want, "cond={cond:?}");
            assert_eq!(stats, want_stats, "cond={cond:?}");
            assert!(fresh.is_empty(), "fresh is drained");
        }
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

    /// What destinations `0..DSTS` receive from `bucket`, in delivery
    /// order, as `(dst, src, msg)`.
    fn delivered(bucket: EnvBatch<u32>) -> Vec<(usize, NodeId, u32)> {
        let mut ds = DeliverScratch::default();
        let mut out = Vec::new();
        if order_deliveries(&mut [bucket], 0, DSTS, &mut ds) > 0 {
            for dst in 0..DSTS {
                for i in ds.starts[dst] as usize..ds.starts[dst + 1] as usize {
                    out.push((dst, ds.srcs[i], ds.msgs[i]));
                }
            }
        }
        out
    }

    proptest::proptest! {
        /// In-place route ≡ copy route ≡ per-envelope fate plus a
        /// `(dst, src, seq)` sort, deliveries and `NetStats` alike. One
        /// phase gives src-ascending headers; two or three usually do
        /// not, and then the in-place kernel must leave the batch alone.
        #[test]
        fn in_place_route_equals_copy_route_equals_reference(
            phases in proptest::collection::vec(
                proptest::collection::vec((0u32..SRCS, 0u32..DSTS as u32), 0..12),
                1..4,
            ),
            pick in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cond = [
                Conditions::ideal(),
                Conditions::with_loss(0.4),
                Conditions::with_latency(LatencyDist::Uniform { min: 1, max: 3 }),
                Conditions { drop_prob: 0.4, latency: LatencyDist::Fixed(2) },
            ][pick];
            let slots = cond.latency_slots();
            let envs = emission(&phases);

            let mut want_stats = NetStats::default();
            let mut due: Vec<Vec<&Envelope<u32>>> = vec![Vec::new(); slots];
            for e in &envs {
                want_stats.sent += 1;
                want_stats.bytes_sent += 1;
                match cond.fate(seed, e) {
                    None => want_stats.dropped += 1,
                    Some(l) => due[(l - 1) as usize].push(e),
                }
            }
            let want: Vec<Vec<_>> = due
                .into_iter()
                .map(|mut slot| {
                    slot.sort_by_key(|e| (e.dst, e.src, e.seq));
                    slot.iter().map(|e| (e.dst.index(), e.src, e.msg)).collect()
                })
                .collect();

            let fresh = EnvBatch::from_envelopes(&envs);
            let ascending = fresh.runs().windows(2).all(|w| w[0].src <= w[1].src);
            proptest::prop_assert_eq!(fresh.ascending, ascending);

            let mut copied = fresh.clone();
            let mut buckets: Vec<EnvBatch<u32>> = (0..slots).map(|_| EnvBatch::new()).collect();
            let mut stats = NetStats::default();
            route_sends(
                &mut copied,
                seed,
                &cond,
                0,
                SRCS as usize,
                &mut RouteScratch::default(),
                &mut stats,
                |_| 1,
                |slot, src, dst, msg| buckets[slot].push_grouped(src, dst, msg),
            );
            proptest::prop_assert_eq!(&stats, &want_stats);
            let got: Vec<_> = buckets.into_iter().map(delivered).collect();
            proptest::prop_assert_eq!(&got, &want);

            let mut moved = fresh.clone();
            let mut stats = NetStats::default();
            let slot = route_whole(&mut moved, seed, &cond, &mut stats, |_| 1);
            if ascending && matches!(cond.latency, LatencyDist::Fixed(_)) {
                proptest::prop_assert_eq!(&stats, &want_stats);
                let survivors = (want_stats.sent - want_stats.dropped) as usize;
                proptest::prop_assert_eq!(moved.len(), survivors);
                proptest::prop_assert_eq!(slot, (survivors > 0).then_some(slots - 1));
                proptest::prop_assert_eq!(&delivered(moved), &want[slots - 1]);
            } else {
                proptest::prop_assert_eq!(slot, None);
                proptest::prop_assert_eq!(&moved, &fresh);
                proptest::prop_assert_eq!(&stats, &NetStats::default());
            }
        }
    }

    #[test]
    fn in_place_loss_can_empty_a_run_or_the_whole_batch() {
        let cond = Conditions::with_loss(0.9);
        let envs = [
            env(0, 1, 0),
            env(0, 2, 1),
            env(1, 0, 0),
            env(1, 2, 1),
            env(2, 0, 0),
            env(2, 1, 1),
        ];
        let (mut emptied_run, mut emptied_batch) = (false, false);
        for seed in 0..200 {
            let mut batch = EnvBatch::from_envelopes(&envs);
            let mut stats = NetStats::default();
            let slot = route_whole(&mut batch, seed, &cond, &mut stats, |_| 1);

            let mut want = Vec::new();
            let mut want_runs: Vec<(NodeId, u32)> = Vec::new();
            for e in envs.iter().filter(|e| cond.fate(seed, e).is_some()) {
                want.push((e.src, e.dst, e.msg));
                match want_runs.last_mut() {
                    Some((src, len)) if *src == e.src => *len += 1,
                    _ => want_runs.push((e.src, 1)),
                }
            }
            let mut got = Vec::new();
            batch.for_each_run(|run, dsts, msgs| {
                got.extend(dsts.iter().zip(msgs).map(|(d, m)| (run.src, *d, *m)));
            });
            assert_eq!(got, want, "seed={seed}");
            let got_runs: Vec<_> = batch.runs().iter().map(|r| (r.src, r.len)).collect();
            assert_eq!(got_runs, want_runs, "no emptied run keeps a header");
            assert_eq!(stats.sent, 6);
            assert_eq!(stats.dropped as usize, 6 - want.len());
            assert_eq!(slot, (!want.is_empty()).then_some(0));
            emptied_run |= (1..3).contains(&want_runs.len());
            emptied_batch |= want.is_empty();
        }
        assert!(
            emptied_run && emptied_batch,
            "both cases occur in 200 seeds"
        );
    }

    #[test]
    fn in_place_loss_is_exact_on_a_lane_of_seq_discontiguous_runs() {
        // Three senders whose consecutive sends alternate between two
        // lanes, as `Outbox::send` files them: every message of a lane
        // heads its own run, and fate must key on that run's `first_seq`,
        // not on the position within the sender's stretch.
        let cond = Conditions::with_loss(0.5);
        let envs: Vec<_> = (0..3u32)
            .flat_map(|src| (0..8u64).map(move |seq| env(src, (seq % 2) as u32 * 4, seq)))
            .collect();
        for seed in 0..50 {
            for parity in 0..2u64 {
                let lane: Vec<_> = envs
                    .iter()
                    .filter(|e| e.seq % 2 == parity)
                    .cloned()
                    .collect();
                let mut batch = EnvBatch::from_envelopes(&lane);
                assert_eq!(batch.runs().len(), lane.len(), "one run per message");
                assert!(batch.ascending);
                let mut stats = NetStats::default();
                let slot = route_whole(&mut batch, seed, &cond, &mut stats, |_| 1);
                let want: Vec<_> = lane
                    .iter()
                    .filter(|e| cond.fate(seed, e).is_some())
                    .map(|e| (e.src, e.dst, e.msg))
                    .collect();
                let mut got = Vec::new();
                batch.for_each_run(|run, dsts, msgs| {
                    got.extend(dsts.iter().zip(msgs).map(|(d, m)| (run.src, *d, *m)));
                });
                assert_eq!(got, want, "seed={seed} parity={parity}");
                assert_eq!(stats.sent as usize, lane.len());
                assert_eq!(stats.dropped as usize, lane.len() - want.len());
                assert_eq!(slot, (!want.is_empty()).then_some(0));
            }
        }
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not src-ascending")]
    fn order_deliveries_rejects_src_descending_segment() {
        let mut segments = vec![EnvBatch::from_envelopes(&[env(1, 0, 0), env(0, 0, 0)])];
        order_deliveries(&mut segments, 0, 1, &mut DeliverScratch::default());
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
