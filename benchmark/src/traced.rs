//! Phase tracing from outside the runtime.
//!
//! The runtime contains no clock (its modules are `lint: deterministic`),
//! so the per-layer view is taken from the one place a clock may live:
//! a wrapper around the protocol adapter. [`Traced`] implements
//! [`RoundProtocol`] by forwarding **every** trait method to the wrapped
//! public adapter and is handed to the public executors directly.
//!
//! The executors run strictly phased rounds — all `on_round_start`
//! calls, then all `on_receive_run` calls, then all `on_round_end`
//! calls, then the observation fold and the verdict — each in ascending
//! id order over a thread's contiguous shard. Two timestamps per phase
//! and thread are therefore enough:
//!
//! * one when a thread's callback *kind* changes (a phase begins), and
//! * one when the thread's last node ids finish a phase (it ends).
//!
//! Only the first and last few ids of each shard ([`EDGE`]) can be either, so
//! every other per-node callback pays one range compare per shard and
//! nothing else;
//! the window (rather than exactly the first and last id) keeps a
//! churned-down node from hiding a phase boundary. Deliveries go to
//! arbitrary ids, so `on_receive_run` alone checks the thread's current
//! phase on every call.
//!
//! Time inside a phase is the adapter's; the gaps between phases belong
//! to the runtime and are named by what the executor does there
//! (`order_deliveries` before deliveries, `route_sends` + fate before the
//! observation/verdict, `begin_round` + churn mask before the next
//! round) — see [`analyse`].
//!
//! [`TracedAsync`] does the same for [`AsyncProtocol`] under the event
//! executor, timing one event in [`EVENT_SAMPLING`].

use crate::host::now_ns;
use rand::rngs::SmallRng;
use rendez_runtime::{AsyncProtocol, Outbox, RoundObs, RoundProtocol, Verdict};
use rendez_sim::NodeId;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// At most this many ids at either end of a shard take part in phase
/// detection (fewer on small shards: a thirty-second of the shard, at
/// least two).
const EDGE: usize = 16;

/// `TracedAsync` times one event in this many. A sampled event costs
/// ten clock reads (≈ 0.35 µs against ≈ 0.27 µs for a whole event), so
/// one in 16 would cost more than the 10 % the async trace may; one in
/// 64 still samples thousands of events per run.
pub const EVENT_SAMPLING: u64 = 64;

/// A callback kind, i.e. a phase of the round schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// `on_round_start` for every node.
    Emit = 1,
    /// `on_receive_run` for every destination with mail.
    Deliver = 2,
    /// `on_round_end` for every node.
    RoundEnd = 3,
    /// `observe_node` for every node.
    Observe = 4,
    /// `digest_obs` + `finalize_obs` on the coordinating thread.
    Verdict = 5,
    /// Async: `on_wake`.
    Wake = 6,
    /// Async: `on_message`.
    Message = 7,
}

impl Phase {
    fn from_bits(bits: u64) -> Phase {
        match bits {
            1 => Phase::Emit,
            2 => Phase::Deliver,
            3 => Phase::RoundEnd,
            4 => Phase::Observe,
            5 => Phase::Verdict,
            6 => Phase::Wake,
            _ => Phase::Message,
        }
    }

    /// Span name in the trace file: layer, then phase.
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::Emit => "adapters.emit",
            Phase::Deliver => "adapters.deliver",
            Phase::RoundEnd => "adapters.round_end",
            Phase::Observe => "adapters.observe",
            Phase::Verdict => "adapters.verdict",
            Phase::Wake => "adapters.wake",
            Phase::Message => "adapters.message",
        }
    }
}

/// One closed phase on one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which callback kind.
    pub phase: Phase,
    /// Round (event index for async spans).
    pub round: u64,
    /// Ordinal of the thread that ran it (0 = first thread traced).
    pub thread: u32,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

// Tag layout: run id above RUN_SHIFT, round in the middle, phase in the
// low 4 bits. Tag 0 means "no phase open on this thread".
const RUN_SHIFT: u32 = 44;
const ROUND_MASK: u64 = (1 << (RUN_SHIFT - 4)) - 1;

/// Per-thread phase state: no destructor, const-initialised, so each
/// access is a plain thread-pointer-relative load.
struct Hot {
    tag: Cell<u64>,
    phase_start: Cell<u64>,
    /// End of the last edge callback of the open phase (0 = none yet).
    last_end: Cell<u64>,
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            tag: Cell::new(0),
            phase_start: Cell::new(0),
            last_end: Cell::new(0),
        }
    };
    /// This thread's span buffer for the run it is currently serving.
    static LOG: RefCell<Option<ThreadLog>> = const { RefCell::new(None) };
}

struct ThreadLog {
    run: u64,
    thread: u32,
    spans: Arc<Mutex<Vec<Span>>>,
}

static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// The span store of one traced run over `SHARDS` shards: every thread
/// that serves the run registers its own buffer here on its first phase
/// change, so writers never contend. The shard count is a type parameter
/// because the per-callback test is one compare per shard: adapters
/// whose callbacks do next to nothing (an uninformed PUSH node) would
/// feel even one compare too many.
struct Store<const SHARDS: usize> {
    run: u64,
    /// `(first, count)` of each shard's *inner* ids — all but its first
    /// and last few (see [`EDGE`]).
    inner: [(u32, u32); SHARDS],
    logs: Mutex<Vec<Arc<Mutex<Vec<Span>>>>>,
}

impl<const SHARDS: usize> Store<SHARDS> {
    /// Store for a run over `n` nodes in `SHARDS` contiguous shards of
    /// `n.div_ceil(SHARDS)` ids (the sharded executor's documented
    /// layout; 1 for the sequential executor).
    fn new(n: usize) -> Self {
        let chunk = n.div_ceil(SHARDS).max(1);
        let mut inner = [(0, 0); SHARDS];
        for (slot, base) in inner.iter_mut().zip((0..n).step_by(chunk)) {
            let len = chunk.min(n - base);
            let edge = (len / 32).clamp(2, EDGE);
            *slot = ((base + edge) as u32, len.saturating_sub(2 * edge) as u32);
        }
        Store {
            run: NEXT_RUN.fetch_add(1, Ordering::Relaxed),
            inner,
            logs: Mutex::new(Vec::new()),
        }
    }

    #[inline(always)]
    fn is_edge(&self, id: NodeId) -> bool {
        !self
            .inner
            .iter()
            .any(|&(first, count)| id.0.wrapping_sub(first) < count)
    }

    fn tag(&self, phase: Phase, round: u64) -> u64 {
        self.run << RUN_SHIFT | (round & ROUND_MASK) << 4 | phase as u64
    }

    /// Append `span` to the calling thread's buffer for this run.
    fn push(&self, mut span: Span) {
        LOG.with(|log| {
            let mut log = log.borrow_mut();
            if log.as_ref().map(|l| l.run) != Some(self.run) {
                let spans = Arc::new(Mutex::new(Vec::new()));
                self.logs
                    .lock()
                    .expect("span registry poisoned")
                    .push(Arc::clone(&spans));
                let thread = log
                    .as_ref()
                    .map(|l| l.thread)
                    .unwrap_or_else(|| NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
                *log = Some(ThreadLog {
                    run: self.run,
                    thread,
                    spans,
                });
            }
            let log = log.as_ref().expect("log just installed");
            span.thread = log.thread;
            log.spans.lock().expect("span buffer poisoned").push(span);
        });
    }

    /// A callback of `phase` begins on this thread: if that is a phase
    /// change, close the previous phase and open this one.
    #[inline]
    fn enter(&self, phase: Phase, round: u64) {
        let tag = self.tag(phase, round);
        HOT.with(|h| {
            if h.tag.get() != tag {
                self.switch(h, tag);
            }
        });
    }

    #[cold]
    #[inline(never)]
    fn switch(&self, h: &Hot, tag: u64) {
        let now = now_ns();
        // A pool thread may carry an open phase of an earlier run;
        // that run is over and its store drained, so drop it.
        if h.tag.get() >> RUN_SHIFT == self.run {
            self.close(h, now);
        }
        h.tag.set(tag);
        h.phase_start.set(now);
        h.last_end.set(0);
    }

    /// Push the open phase as a span ending at its last edge callback
    /// (`now` if it has seen none — deliveries never do: that phase ends
    /// where the next one begins).
    fn close(&self, h: &Hot, now: u64) {
        let tag = h.tag.get();
        self.push(Span {
            phase: Phase::from_bits(tag & 0xf),
            round: (tag >> 4) & ROUND_MASK,
            thread: 0,
            start_ns: h.phase_start.get(),
            end_ns: match h.last_end.get() {
                0 => now,
                t => t,
            },
        });
        h.tag.set(0);
    }

    /// Run `f` as node `id`'s callback of `phase`: a bit test for inner
    /// ids, phase bookkeeping around edge ids.
    #[inline(always)]
    fn per_node<R>(&self, phase: Phase, round: u64, id: NodeId, f: impl FnOnce() -> R) -> R {
        if !self.is_edge(id) {
            return f();
        }
        self.enter(phase, round);
        let out = f();
        mark_end();
        out
    }

    /// Close the calling thread's open phase (the run is over) and drain
    /// every thread's spans, sorted by start.
    fn finish(&self) -> Vec<Span> {
        HOT.with(|h| {
            if h.tag.get() >> RUN_SHIFT == self.run {
                self.close(h, now_ns());
            }
        });
        let mut all = Vec::new();
        for log in self.logs.lock().expect("span registry poisoned").iter() {
            all.append(&mut log.lock().expect("span buffer poisoned"));
        }
        all.sort_by_key(|s| (s.start_ns, s.thread));
        all
    }
}

/// An edge callback of the calling thread's open phase just returned.
#[inline]
fn mark_end() {
    HOT.with(|h| h.last_end.set(now_ns()));
}

/// A [`RoundProtocol`] that forwards every method to `inner` and records
/// when each thread's callback kind changes, for a run on an executor
/// with `SHARDS` shards (1 = sequential).
pub struct Traced<P, const SHARDS: usize> {
    inner: P,
    store: Store<SHARDS>,
    /// Per-envelope `on_message` calls seen. The executors dispatch
    /// through `on_receive_run` only, so this stays 0 unless a forward
    /// is missing and the trait's per-envelope default kicked in.
    on_message_calls: AtomicU64,
}

impl<P: RoundProtocol, const SHARDS: usize> Traced<P, SHARDS> {
    /// Wrap `inner` for one run over `n` nodes.
    pub fn new(inner: P, n: usize) -> Self {
        Traced {
            inner,
            store: Store::new(n),
            on_message_calls: AtomicU64::new(0),
        }
    }

    /// The run is over: this run's spans (all threads, sorted by start)
    /// and the number of per-envelope `on_message` calls that reached the
    /// wrapper.
    pub fn finish(self) -> (Vec<Span>, u64) {
        let calls = self.on_message_calls.load(Ordering::Relaxed);
        (self.store.finish(), calls)
    }
}

impl<P: RoundProtocol, const SHARDS: usize> RoundProtocol for Traced<P, SHARDS> {
    type Node = P::Node;
    type Msg = P::Msg;
    type Output = P::Output;

    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> Self::Node {
        self.inner.init_node(id, rng)
    }

    #[inline]
    fn on_round_start(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.store.per_node(Phase::Emit, round, id, || {
            self.inner.on_round_start(node, id, round, rng, out)
        })
    }

    fn on_message(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        from: NodeId,
        msg: Self::Msg,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.on_message_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.on_message(node, id, from, msg, round, rng, out);
    }

    #[inline]
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
        self.store.enter(Phase::Deliver, round);
        self.inner
            .on_receive_run(node, id, srcs, msgs, round, rng, out);
    }

    #[inline]
    fn on_round_end(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        round: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.store.per_node(Phase::RoundEnd, round, id, || {
            self.inner.on_round_end(node, id, round, rng, out)
        })
    }

    fn finalize(&mut self, nodes: &[Self::Node], round: u64) -> Verdict<Self::Output> {
        self.store.enter(Phase::Verdict, round);
        let verdict = self.inner.finalize(nodes, round);
        mark_end();
        verdict
    }

    fn digest(&self, nodes: &[Self::Node], round: u64) -> u64 {
        self.store.enter(Phase::Verdict, round);
        self.inner.digest(nodes, round)
    }

    #[inline]
    fn msg_bytes(&self, msg: &Self::Msg) -> usize {
        self.inner.msg_bytes(msg)
    }

    fn streams(&self) -> bool {
        self.inner.streams()
    }

    #[inline]
    fn observe_node(&self, node: &Self::Node, id: NodeId, round: u64, obs: &mut RoundObs) {
        self.store.per_node(Phase::Observe, round, id, || {
            self.inner.observe_node(node, id, round, obs)
        })
    }

    fn finalize_obs(&mut self, obs: &RoundObs, round: u64) -> Verdict<Self::Output> {
        self.store.enter(Phase::Verdict, round);
        let verdict = self.inner.finalize_obs(obs, round);
        mark_end();
        verdict
    }

    fn digest_obs(&self, obs: &RoundObs, round: u64) -> u64 {
        self.store.enter(Phase::Verdict, round);
        self.inner.digest_obs(obs, round)
    }

    fn node_mem_bytes(&self, node: &Self::Node) -> usize {
        self.inner.node_mem_bytes(node)
    }
}

/// Timestamps of one sampled event, ns since the process epoch: its
/// extent (previous verdict's end → this verdict's end) and the callbacks
/// inside it. The `&self` callbacks fill it through relaxed atomics (the
/// event loop is single-threaded; the atomics only satisfy `Sync`).
#[derive(Default)]
struct EventStamps {
    /// `observe_node` before the event (the retract fold).
    retract: [AtomicU64; 2],
    /// First `on_message` start, last `on_message` end (0 = no mail).
    message: [AtomicU64; 2],
    /// `on_wake`.
    wake: [AtomicU64; 2],
    /// `observe_node` after the event (the merge fold).
    merge: [AtomicU64; 2],
}

/// One sampled event, closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventTrace {
    /// Index of the event in the run.
    pub event: u64,
    /// Previous verdict's end → this verdict's end.
    pub extent: (u64, u64),
    /// `(phase, start, end)` of each callback group inside it.
    pub callbacks: [(Phase, u64, u64); 5],
}

/// An [`AsyncProtocol`] that forwards every method to `inner` and, for
/// one event in [`EVENT_SAMPLING`], records when each callback ran plus
/// the event's own extent (previous verdict → this verdict), so the
/// event loop's share — heap pop/push and message parking — is the
/// extent minus the callbacks.
pub struct TracedAsync<P> {
    inner: P,
    /// Whether the event now being processed is a sampled one. Written
    /// in `finalize` (`&mut self`), read by the `&self` callbacks.
    sampling: bool,
    /// End of the previous event's verdict (set when the next event is
    /// sampled).
    prev_end_ns: u64,
    event: u64,
    stamps: EventStamps,
    traces: Vec<EventTrace>,
}

impl<P: AsyncProtocol> TracedAsync<P> {
    /// Wrap `inner` for one run.
    pub fn new(inner: P) -> Self {
        TracedAsync {
            inner,
            sampling: false,
            prev_end_ns: 0,
            event: 0,
            stamps: EventStamps::default(),
            traces: Vec::new(),
        }
    }

    /// The sampled events.
    pub fn finish(self) -> Vec<EventTrace> {
        self.traces
    }

    /// Run `f`; on a sampled event stamp its start (first call only when
    /// `first_start`) and end into `slot`.
    #[inline]
    fn timed<R>(&self, slot: &[AtomicU64; 2], first_start: bool, f: impl FnOnce() -> R) -> R {
        if !self.sampling {
            return f();
        }
        let start = now_ns();
        let out = f();
        if !first_start || slot[0].load(Ordering::Relaxed) == 0 {
            slot[0].store(start, Ordering::Relaxed);
        }
        slot[1].store(now_ns(), Ordering::Relaxed);
        out
    }
}

impl<P: AsyncProtocol> AsyncProtocol for TracedAsync<P> {
    type Node = P::Node;
    type Msg = P::Msg;
    type Output = P::Output;

    fn init_node(&self, id: NodeId, rng: &mut SmallRng) -> Self::Node {
        self.inner.init_node(id, rng)
    }

    #[inline]
    fn on_wake(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.timed(&self.stamps.wake, false, || {
            self.inner.on_wake(node, id, now_ticks, rng, out)
        })
    }

    #[inline]
    fn on_message(
        &self,
        node: &mut Self::Node,
        id: NodeId,
        from: NodeId,
        msg: Self::Msg,
        now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, Self::Msg>,
    ) {
        self.timed(&self.stamps.message, true, || {
            self.inner
                .on_message(node, id, from, msg, now_ticks, rng, out)
        })
    }

    #[inline]
    fn observe_node(&self, node: &Self::Node, id: NodeId, obs: &mut RoundObs) {
        // Before the wake it is the retract fold, after it the merge.
        let woke = self.stamps.wake[1].load(Ordering::Relaxed) != 0;
        let slot = if woke {
            &self.stamps.merge
        } else {
            &self.stamps.retract
        };
        self.timed(slot, false, || self.inner.observe_node(node, id, obs))
    }

    fn finalize(&mut self, obs: &RoundObs, now_ticks: u64, events: u64) -> Verdict<Self::Output> {
        let start_ns = if self.sampling { now_ns() } else { 0 };
        let verdict = self.inner.finalize(obs, now_ticks, events);
        if self.sampling {
            let end_ns = now_ns();
            let take = |slot: &mut [AtomicU64; 2]| {
                (
                    std::mem::take(slot[0].get_mut()),
                    std::mem::take(slot[1].get_mut()),
                )
            };
            let s = &mut self.stamps;
            let (retract, message, wake, merge) = (
                take(&mut s.retract),
                take(&mut s.message),
                take(&mut s.wake),
                take(&mut s.merge),
            );
            self.traces.push(EventTrace {
                event: self.event,
                extent: (self.prev_end_ns, end_ns),
                callbacks: [
                    (Phase::Observe, retract.0, retract.1),
                    (Phase::Message, message.0, message.1),
                    (Phase::Wake, wake.0, wake.1),
                    (Phase::Observe, merge.0, merge.1),
                    (Phase::Verdict, start_ns, end_ns),
                ],
            });
        }
        // `events` counts the event just finished, so it is the index of
        // the next one.
        self.event = events;
        self.sampling = events.is_multiple_of(EVENT_SAMPLING);
        if self.sampling {
            self.prev_end_ns = now_ns();
        }
        verdict
    }

    #[inline]
    fn digest_obs(&self, obs: &RoundObs) -> u64 {
        self.inner.digest_obs(obs)
    }

    #[inline]
    fn msg_bytes(&self, msg: &Self::Msg) -> usize {
        self.inner.msg_bytes(msg)
    }

    fn node_mem_bytes(&self, node: &Self::Node) -> usize {
        self.inner.node_mem_bytes(node)
    }
}

/// Where one traced round-based run's wall time went, in seconds.
/// `adapters` + `order` + `route` + `wait` + `round_gap` + `init` +
/// `teardown` add up to `wall` on every worker's timeline by
/// construction (phases and gaps tile it); with several workers each
/// figure is the mean over workers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// The run's wall time.
    pub wall_s: f64,
    /// `on_round_start` phases.
    pub emit_s: f64,
    /// `on_receive_run` phases.
    pub deliver_s: f64,
    /// `on_round_end` phases.
    pub round_end_s: f64,
    /// `observe_node` phases plus `digest_obs`/`finalize_obs`.
    pub observe_s: f64,
    /// Gap before deliveries (or before round-end hooks when a round has
    /// none): `order_deliveries`.
    pub order_s: f64,
    /// Gap before the observation fold or the verdict: `route_sends` and
    /// message fate; on the sharded executor also result hand-off and the
    /// coordinator's splice, up to the last shard's arrival.
    pub route_s: f64,
    /// Sharded only: time a worker's finished round waited for the
    /// slowest shard.
    pub wait_s: f64,
    /// Gap before the next round's first hook: `begin_round`, the churn
    /// mask, task dispatch on the sharded executor.
    pub round_gap_s: f64,
    /// Run start → first hook of round 0: RNG streams, node state,
    /// buffers, worker start-up.
    pub init_s: f64,
    /// Last verdict → run returned: node-bytes tally, buffer drops,
    /// worker shutdown.
    pub teardown_s: f64,
    /// Rounds traced.
    pub rounds: u64,
    /// Wall time of each round (first hook → next round's first hook).
    pub round_ns: Vec<f64>,
    /// Sharded only: Σ (slowest − fastest worker's busy time) over
    /// Σ slowest, per round.
    pub busy_skew: f64,
}

impl Breakdown {
    /// Time inside adapter callbacks.
    pub fn adapters_s(&self) -> f64 {
        self.emit_s + self.deliver_s + self.round_end_s + self.observe_s
    }

    /// Add `other`'s times and rounds into `self` (per-round samples and
    /// the sharded-only skew are left alone) — the sum over the many
    /// short runs of a sweep.
    pub fn add(&mut self, other: &Breakdown) {
        self.wall_s += other.wall_s;
        self.emit_s += other.emit_s;
        self.deliver_s += other.deliver_s;
        self.round_end_s += other.round_end_s;
        self.observe_s += other.observe_s;
        self.order_s += other.order_s;
        self.route_s += other.route_s;
        self.wait_s += other.wait_s;
        self.round_gap_s += other.round_gap_s;
        self.init_s += other.init_s;
        self.teardown_s += other.teardown_s;
        self.rounds += other.rounds;
    }

    /// Time in the runtime between callbacks.
    pub fn exec_s(&self) -> f64 {
        self.order_s + self.route_s + self.wait_s + self.round_gap_s + self.init_s + self.teardown_s
    }
}

/// A named runtime gap between two adapter phases, for the trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// `exec.order`, `exec.route`, `exec.round_gap`, `exec.init` or
    /// `exec.teardown`.
    pub name: &'static str,
    /// Round the gap belongs to.
    pub round: u64,
    /// Thread whose timeline it lies on.
    pub thread: u32,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// End, ns since the process epoch.
    pub end_ns: u64,
}

/// Attribute one run's wall time `[run_start_ns, run_end_ns]` to adapter
/// phases and named runtime gaps, given the spans [`Traced::finish`]
/// returned.
///
/// Worker threads are those that ran `on_round_start`; the verdict spans
/// (coordinating thread) are merged into every worker's timeline, so a
/// sequential run is simply the one-worker case.
pub fn analyse(spans: &[Span], run_start_ns: u64, run_end_ns: u64) -> (Breakdown, Vec<Gap>) {
    let mut workers: Vec<u32> = spans
        .iter()
        .filter(|s| s.phase == Phase::Emit)
        .map(|s| s.thread)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    let k = workers.len().max(1) as f64;
    let secs = |ns: u64| ns as f64 * 1e-9;

    let mut b = Breakdown {
        wall_s: secs(run_end_ns - run_start_ns),
        ..Breakdown::default()
    };
    let mut gaps = Vec::new();
    let verdicts: Vec<Span> = spans
        .iter()
        .filter(|s| s.phase == Phase::Verdict)
        .copied()
        .collect();
    b.rounds = verdicts.len() as u64;

    // Per round and worker: when it finished its last hook, and how long
    // it was busy.
    let rounds = verdicts.len();
    let mut finish = vec![vec![0u64; workers.len()]; rounds];
    let mut busy = vec![vec![0.0f64; workers.len()]; rounds];

    for (wi, &w) in workers.iter().enumerate() {
        let mut line: Vec<Span> = spans
            .iter()
            .filter(|s| s.thread == w && s.phase != Phase::Verdict)
            .chain(verdicts.iter())
            .copied()
            .collect();
        line.sort_by_key(|s| s.start_ns);
        let mut cursor = run_start_ns;
        let mut name = "exec.init";
        for s in &line {
            let gap = secs(s.start_ns.saturating_sub(cursor)) / k;
            match name {
                "exec.init" => b.init_s += gap,
                "exec.order" => b.order_s += gap,
                "exec.route" => b.route_s += gap,
                _ => b.round_gap_s += gap,
            }
            if s.start_ns > cursor {
                gaps.push(Gap {
                    name,
                    round: s.round,
                    thread: w,
                    start_ns: cursor,
                    end_ns: s.start_ns,
                });
            }
            let d = s.secs() / k;
            match s.phase {
                Phase::Emit => b.emit_s += d,
                Phase::Deliver => b.deliver_s += d,
                Phase::RoundEnd => b.round_end_s += d,
                _ => b.observe_s += d,
            }
            if s.phase != Phase::Verdict && (s.round as usize) < rounds {
                busy[s.round as usize][wi] += s.secs();
                finish[s.round as usize][wi] = s.end_ns;
            }
            cursor = s.end_ns.max(cursor);
            // What the executor does after this phase, before the next.
            name = match s.phase {
                Phase::Emit | Phase::Deliver => "exec.order",
                Phase::RoundEnd | Phase::Observe => "exec.route",
                _ => "exec.round_gap",
            };
        }
        b.teardown_s += secs(run_end_ns.saturating_sub(cursor)) / k;
        if run_end_ns > cursor {
            gaps.push(Gap {
                name: "exec.teardown",
                round: b.rounds.saturating_sub(1),
                thread: w,
                start_ns: cursor,
                end_ns: run_end_ns,
            });
        }
    }

    // Barrier wait: how much earlier than the slowest shard each worker
    // finished, moved out of the route gap it was counted in.
    let (mut skew_num, mut skew_den) = (0.0, 0.0);
    for (ends, busy) in finish.iter().zip(&busy) {
        if ends.len() < 2 || ends.contains(&0) {
            continue;
        }
        let last = *ends.iter().max().expect("non-empty");
        b.wait_s += ends.iter().map(|&e| secs(last - e)).sum::<f64>() / k;
        let (lo, hi) = busy.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        skew_num += hi - lo;
        skew_den += hi;
    }
    b.route_s -= b.wait_s;
    b.busy_skew = if skew_den > 0.0 {
        skew_num / skew_den
    } else {
        0.0
    };

    // Per-round wall: first Emit start of a round to the next round's.
    let mut starts: Vec<u64> = Vec::new();
    for s in spans.iter().filter(|s| s.phase == Phase::Emit) {
        let r = s.round as usize;
        if starts.len() <= r {
            starts.resize(r + 1, u64::MAX);
        }
        starts[r] = starts[r].min(s.start_ns);
    }
    b.round_ns = starts
        .windows(2)
        .filter(|w| w[0] != u64::MAX && w[1] != u64::MAX)
        .map(|w| (w[1] - w[0]) as f64)
        .collect();
    (b, gaps)
}

/// Where one traced event-driven run's wall time went. Callback times
/// are sums over the sampled events scaled by `events / sampled`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBreakdown {
    /// Events the run processed.
    pub events: u64,
    /// Events that were timed.
    pub sampled: u64,
    /// `on_wake` time, scaled to the whole run.
    pub wake_s: f64,
    /// `on_message` time, scaled.
    pub message_s: f64,
    /// Share of a sampled event's extent spent outside callbacks: heap
    /// pop/push, wake-time hashing, message parking.
    pub queue_share: f64,
}

/// Reduce a [`TracedAsync`] run's sampled events.
pub fn analyse_events(traces: &[EventTrace], events: u64) -> EventBreakdown {
    let scale = if traces.is_empty() {
        0.0
    } else {
        events as f64 / traces.len() as f64
    };
    let sum = |phases: &[Phase]| {
        traces
            .iter()
            .flat_map(|t| t.callbacks)
            .filter(|(phase, _, _)| phases.contains(phase))
            .map(|(_, start, end)| (end - start) as f64 * 1e-9)
            .sum::<f64>()
    };
    let extent: f64 = traces
        .iter()
        .map(|t| (t.extent.1 - t.extent.0) as f64 * 1e-9)
        .sum();
    let callbacks = sum(&[Phase::Wake, Phase::Message, Phase::Observe, Phase::Verdict]);
    EventBreakdown {
        events,
        sampled: traces.len() as u64,
        wake_s: sum(&[Phase::Wake]) * scale,
        message_s: sum(&[Phase::Message]) * scale,
        queue_share: if extent > 0.0 {
            (extent - callbacks) / extent
        } else {
            0.0
        },
    }
}

/// The callback spans of sampled events, for the trace file (`round` =
/// event index; callbacks that did not run are skipped).
pub fn event_spans(traces: &[EventTrace]) -> Vec<Span> {
    traces
        .iter()
        .flat_map(|t| {
            t.callbacks
                .into_iter()
                .filter(|&(_, start, _)| start != 0)
                .map(|(phase, start_ns, end_ns)| Span {
                    phase,
                    round: t.event,
                    thread: 0,
                    start_ns,
                    end_ns,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: Phase, round: u64, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            phase,
            round,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn a_sequential_timeline_tiles_into_phases_and_named_gaps() {
        // Two rounds on one thread; ns chosen so every figure is distinct.
        let spans = [
            span(Phase::Emit, 0, 0, 100, 200),
            span(Phase::RoundEnd, 0, 0, 230, 300),
            span(Phase::Observe, 0, 0, 350, 360),
            span(Phase::Verdict, 0, 0, 360, 365),
            span(Phase::Emit, 1, 0, 370, 470),
            span(Phase::Deliver, 1, 0, 490, 600),
            span(Phase::RoundEnd, 1, 0, 600, 700),
            span(Phase::Observe, 1, 0, 740, 750),
            span(Phase::Verdict, 1, 0, 750, 755),
        ];
        let (b, gaps) = analyse(&spans, 0, 800);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(b.wall_s), 800);
        assert_eq!(ns(b.init_s), 100);
        assert_eq!(ns(b.emit_s), 200);
        assert_eq!(ns(b.deliver_s), 110);
        assert_eq!(ns(b.round_end_s), 170);
        assert_eq!(ns(b.observe_s), 30);
        assert_eq!(ns(b.order_s), 30 + 20);
        assert_eq!(ns(b.route_s), 50 + 40);
        assert_eq!(ns(b.round_gap_s), 5);
        assert_eq!(ns(b.teardown_s), 45);
        assert_eq!(ns(b.wait_s), 0);
        assert_eq!(b.rounds, 2);
        assert_eq!(b.round_ns, vec![270.0]);
        assert_eq!(ns(b.adapters_s() + b.exec_s()), 800);
        let names: Vec<&str> = gaps.iter().map(|g| g.name).collect();
        assert_eq!(
            names,
            [
                "exec.init",
                "exec.order",
                "exec.route",
                "exec.round_gap",
                "exec.order",
                "exec.route",
                "exec.teardown"
            ]
        );
    }

    #[test]
    fn a_sharded_timeline_separates_barrier_wait_from_routing() {
        // One round, two workers (threads 1 and 2), verdict on thread 0.
        // Worker 1 finishes its fold at 500, worker 2 at 560; the
        // coordinator's verdict starts at 600.
        let spans = [
            span(Phase::Emit, 0, 1, 100, 300),
            span(Phase::RoundEnd, 0, 1, 300, 480),
            span(Phase::Observe, 0, 1, 480, 500),
            span(Phase::Emit, 0, 2, 100, 320),
            span(Phase::RoundEnd, 0, 2, 320, 540),
            span(Phase::Observe, 0, 2, 540, 560),
            span(Phase::Verdict, 0, 0, 600, 610),
        ];
        let (b, _) = analyse(&spans, 0, 650);
        let ns = |s: f64| (s * 1e9).round() as u64;
        // Worker 1 waited 60 ns for worker 2; mean over two workers.
        assert_eq!(ns(b.wait_s), 30);
        // Route gap: (100 + 40) / 2 before the verdict, minus the wait.
        assert_eq!(ns(b.route_s), 70 - 30);
        assert_eq!(ns(b.emit_s), 210);
        assert_eq!(ns(b.adapters_s() + b.exec_s()), 650);
        // Busy 400 vs 460 ns.
        assert!((b.busy_skew - 60.0 / 460.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_events_scale_to_the_whole_run() {
        let trace = |event, base: u64| EventTrace {
            event,
            extent: (base, base + 100),
            callbacks: [
                (Phase::Observe, base + 10, base + 15),
                (Phase::Message, 0, 0),
                (Phase::Wake, base + 30, base + 50),
                (Phase::Observe, base + 60, base + 65),
                (Phase::Verdict, base + 90, base + 100),
            ],
        };
        let traces = [trace(64, 1_000), trace(128, 5_000)];
        let b = analyse_events(&traces, 640);
        assert_eq!((b.events, b.sampled), (640, 2));
        assert!((b.wake_s - 40e-9 * 320.0).abs() < 1e-12);
        assert_eq!(b.message_s, 0.0);
        assert!((b.queue_share - 0.6).abs() < 1e-9);
        // The callback that did not run leaves no span.
        assert_eq!(event_spans(&traces).len(), 8);
    }

    #[test]
    fn only_a_shards_first_and_last_ids_are_edges() {
        let store = Store::<2>::new(1_000);
        let edges: Vec<u32> = (0..1_000).filter(|&i| store.is_edge(NodeId(i))).collect();
        // 500-id shards, 500 / 32 = 15 ids at either end of each.
        assert_eq!(edges.len(), 4 * 15);
        assert!(edges.contains(&0) && edges.contains(&14) && !edges.contains(&15));
        assert!(edges.contains(&485) && edges.contains(&499));
        assert!(edges.contains(&500) && edges.contains(&999));
        // A shard too small to have an inner range is all edge.
        let tiny = Store::<1>::new(3);
        assert!((0..3).all(|i| tiny.is_edge(NodeId(i))));
    }
}
