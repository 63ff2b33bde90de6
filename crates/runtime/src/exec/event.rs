//! The continuous-time event-driven executor.
//!
//! Synchronous rounds are a modelling choice, not a law: in the
//! asynchronous rumor-spreading setting (Patsonakis & Roussopoulos'
//! evaluation of asynchronous PUSH&PULL) every node wakes on its own
//! exponential clock and acts immediately. [`EventExecutor`] hosts that
//! setting for [`AsyncProtocol`] state machines while keeping the
//! workspace determinism contract:
//!
//! * **Hashed wake clocks.** Node `i`'s `k`-th inter-arrival is the
//!   exponential inversion of a unit uniform hashed from
//!   `(seed, node, seq)` — never drawn from a shared RNG — so the whole
//!   event schedule is a pure function of the seed, exactly like message
//!   fate and churn liveness in the round executors.
//! * **Integer simulated time.** Wake times are `u64` nanosecond ticks
//!   ([`TICKS_PER_SEC`]); event order is the total order on
//!   `(ticks, node)` with no float comparisons anywhere, so traces
//!   cannot drift across platforms or queue layouts.
//! * **Calendar dispatch.** Every node has exactly one outstanding wake,
//!   and its next one lies after the current time, so the wake queue is
//!   a calendar ([`WakeQueue`]) rather than a heap: buckets are disjoint,
//!   ordered tick ranges, only the bucket being drained is kept sorted
//!   by `(ticks, node)`, and a wake landing in that bucket is
//!   sorted-inserted. Every wake of an earlier bucket precedes every
//!   wake of a later one, hence the pop sequence is exactly the total
//!   order above — the one a binary heap pops, which
//!   `tests/event_exec.rs` checks against a reference heap and pins with
//!   digests recorded from the heap-based executor. Bucket width and
//!   ring length derive from `n` and the wake rate and influence cost
//!   only, never order.
//! * **One slot per node.** Wake time, calendar link, RNG, send and wake
//!   counters and protocol state of a node sit side by side in one
//!   `Slot`, so an event touches the waking node's slot and, per send,
//!   one parking cell and the destination's list head.
//! * **Parked at the send.** There is no "current round" for a message
//!   to land in: the executor's one emission layout is
//!   [`Lanes::Parked`], so [`Outbox::send`] moves each message straight
//!   into the destination's parking list (manul-style caching of
//!   messages for activations that have not started yet), and it is
//!   delivered, in arrival order, when the destination next wakes.
//!   Parked messages live in one recycled slab; a dense array of
//!   per-node heads starts an intrusive last-in-first-out list through
//!   it for each node, which delivery reverses, so per-destination order
//!   is FIFO and a message a node sends to itself waits for its next
//!   wake. No message is copied: `sent` is the waking node's send count
//!   per event, and `bytes_sent` is added up as a message is taken for
//!   delivery and, for what is still parked when the run ends, in one
//!   sweep of the slab.
//! * **Incremental observation.** The executor maintains one global
//!   [`RoundObs`]: before a node's event it retracts the node's old
//!   contribution ([`RoundObs::retract`]), after the callbacks it merges
//!   the new one — O(1) per event, the event-driven analogue of the
//!   sharded executor's streaming finalize.
//!
//! Unlike the round executors, event processing is inherently serial
//! (each event observes the state left by every earlier one), so the
//! executor runs on the calling thread.
//!
//! lint: deterministic

use super::calendar::{link, WakeQueue, WakeTimer, NIL};
use crate::arena::NodeArena;
use crate::batch::{Lanes, Parking};
use crate::conditions::to_unit;
use crate::proto::{AsyncProtocol, Outbox, RoundObs, Verdict};
use crate::report::{NetStats, RunConfig, RunReport, TimeAxis};
use rand::rngs::SmallRng;
use rendez_sim::{derive_seed, small_rng_for, NodeId, SplitMix64};

/// Simulated-time resolution: one tick is a nanosecond, so `u64` holds
/// ~584 years of simulated time and every comparison is integral.
pub const TICKS_PER_SEC: u64 = 1_000_000_000;

/// Stream salt separating wake-clock hashes from every other hash family
/// derived from the run seed (message fate, churn liveness, node RNGs).
const WAKE_SALT: u64 = 0xA57C_C10C;

/// Everything the executor keeps for one node, side by side, so a wake
/// reads and writes one record (a cache line or two).
struct Slot<N> {
    /// The node's one outstanding wake, in ticks.
    wake_at: u64,
    /// The node's wake-clock stream ([`EventExecutor::wake_stream`]),
    /// derived once instead of once per wake.
    wake_stream: u64,
    /// Wakes taken so far — the index of the next inter-arrival.
    wake_seq: u64,
    /// The node's send counter ([`Outbox`] sequence numbers).
    seq: u64,
    /// Next node in this node's calendar bucket.
    timer_next: u32,
    rng: SmallRng,
    node: N,
}

impl<N> WakeTimer for Slot<N> {
    #[inline]
    fn wake_at(&self) -> u64 {
        self.wake_at
    }
    #[inline]
    fn timer_next(&self) -> u32 {
        self.timer_next
    }
    #[inline]
    fn set_timer_next(&mut self, next: u32) {
        self.timer_next = next;
    }
}

/// The executor's one emission layout, [`Lanes::Parked`].
#[inline]
fn parking<M>(fresh: &mut Lanes<M>) -> &mut Parking<M> {
    fresh
        .parking()
        .expect("the event executor parks at the send")
}

/// Fold `node` alone into `scratch`, replacing whatever it held.
fn observe_alone<P: AsyncProtocol>(proto: &P, node: &P::Node, id: NodeId, scratch: &mut RoundObs) {
    scratch.count = 0;
    scratch.digest = 0;
    scratch.lanes.clear();
    proto.observe_node(node, id, scratch);
}

/// Drives an [`AsyncProtocol`] in continuous time: a deterministic
/// event-queue executor with exponential per-node wake clocks.
///
/// `max_rounds` in the [`RunConfig`] is reinterpreted as a cap on the
/// *mean wakes per node*: the run stops (with `completed = false`) after
/// `max_rounds × n` events.
///
/// The executor models ideal channels only — `run` panics on lossy /
/// latency-conditioned or churned configs ([`Scenario`](crate::Scenario)
/// rejects those combinations with a typed error up front).
#[derive(Debug, Clone, Copy)]
pub struct EventExecutor {
    rate: f64,
}

impl EventExecutor {
    /// An executor whose nodes wake `rate` times per simulated second on
    /// average.
    pub fn new(rate: f64) -> Self {
        Self { rate }
    }

    /// Mean wakes per node per simulated second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Human-readable name for experiment tables.
    pub fn name(&self) -> String {
        "event".to_string()
    }

    /// Node `node`'s wake-clock stream: the part of the wake hash that
    /// does not depend on the wake index, derived once per node.
    fn wake_stream(seed: u64, node: u64) -> u64 {
        derive_seed(seed ^ WAKE_SALT, node)
    }

    /// The `seq`-th exponential inter-arrival of the node whose
    /// [`wake_stream`](Self::wake_stream) is `stream`, in ticks ≥ 1.
    /// A pure function of `(seed, node, seq)` — the async leg of the
    /// determinism contract.
    #[inline]
    fn wake_dt(&self, stream: u64, seq: u64) -> u64 {
        let u = to_unit(derive_seed(stream, seq));
        let dt = -(1.0 - u).ln() / self.rate * TICKS_PER_SEC as f64;
        (dt as u64).max(1)
    }

    /// Drive `proto` over `n` nodes until it halts or `max_rounds × n`
    /// wake events have been processed.
    pub fn run<P: AsyncProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        assert!(n > 0, "a run needs at least one node");
        assert!(
            self.rate.is_finite() && self.rate > 0.0,
            "wake rate must be finite and positive, got {}",
            self.rate
        );
        assert!(
            cfg.conditions.is_ideal(),
            "EventExecutor models ideal channels; conditioning is a rounds-model feature"
        );
        assert!(
            cfg.churn.is_none(),
            "EventExecutor does not support churn yet"
        );
        let max_events = cfg.max_rounds.saturating_mul(n as u64);

        // The global observation, kept incrementally via retract/merge.
        let mut obs = RoundObs::default();
        let mut slots: Vec<Slot<P::Node>> = (0..n)
            .map(|i| {
                let id = NodeId(link(i));
                let mut rng = small_rng_for(cfg.seed, i as u64);
                let node = proto.init_node(id, &mut rng);
                proto.observe_node(&node, id, &mut obs);
                let wake_stream = Self::wake_stream(cfg.seed, i as u64);
                Slot {
                    wake_at: self.wake_dt(wake_stream, 0),
                    wake_stream,
                    wake_seq: 0,
                    seq: 0,
                    timer_next: NIL,
                    rng,
                    node,
                }
            })
            .collect();
        let mut queue = WakeQueue::new(n, self.rate);
        for i in 0..n {
            queue.push(&mut slots, link(i));
        }

        let mut fresh = Lanes::Parked(Parking::new(n));
        let mut arena = NodeArena::new(0, n);
        let mut stats = NetStats::default();
        let mut digests = Vec::new();
        let mut scratch = RoundObs::default();
        let mut chain = 0u64;
        let mut now = 0u64;
        let mut events = 0u64;
        let mut output = None;

        while events < max_events {
            let (t, woken) = queue
                .pop(&slots)
                .expect("every node always has one scheduled wake");
            now = t;
            events += 1;
            let i = woken as usize;
            let id = NodeId(woken);
            let slot = &mut slots[i];
            let first_seq = slot.seq;

            // Retract the waking node's old contribution, run its event,
            // merge the new one — obs stays the exact whole-slice fold.
            observe_alone(proto, &slot.node, id, &mut scratch);
            obs.retract(&scratch);

            // One node per event, so the arena epoch doubles as the
            // node's per-activation scratch (request stashes etc.).
            arena.begin_round();
            // The inbox is detached first: whatever this event sends to
            // its own node is parked for the node's next wake.
            let mut parked = parking(&mut fresh).detach(id);
            while parked != NIL {
                let (from, msg, next) = parking(&mut fresh).take(parked);
                parked = next;
                stats.delivered += 1;
                stats.bytes_sent += proto.msg_bytes(&msg) as u64;
                let mut out = Outbox::new(id, n, &mut slot.seq, &mut fresh, &mut arena);
                proto.on_message(&mut slot.node, id, from, msg, now, &mut slot.rng, &mut out);
            }
            {
                let mut out = Outbox::new(id, n, &mut slot.seq, &mut fresh, &mut arena);
                proto.on_wake(&mut slot.node, id, now, &mut slot.rng, &mut out);
            }
            // The callbacks parked every send on the way.
            stats.sent += slot.seq - first_seq;

            observe_alone(proto, &slot.node, id, &mut scratch);
            obs.merge(&scratch);

            // The per-event trace entry is a *chained* hash — order
            // sensitivity is the point here (this is the executor's own
            // record of the event sequence, not a shard-merged partial),
            // so any reordering anywhere shows up as a digest mismatch.
            chain =
                SplitMix64::mix(chain ^ now ^ SplitMix64::mix(i as u64) ^ proto.digest_obs(&obs));
            digests.push(chain);

            slot.wake_seq += 1;
            slot.wake_at = now.saturating_add(self.wake_dt(slot.wake_stream, slot.wake_seq));
            queue.push(&mut slots, woken);

            if let Verdict::Halt(halted) = proto.finalize(&obs, now, events) {
                output = Some(halted);
                break;
            }
        }
        // Delivered messages were weighed as they were taken; weigh the
        // rest, so `bytes_sent` covers every send.
        for msg in parking(&mut fresh).parked() {
            stats.bytes_sent += proto.msg_bytes(msg) as u64;
        }

        RunReport {
            rounds: events,
            time: TimeAxis::SimSeconds {
                seconds: now as f64 / TICKS_PER_SEC as f64,
                events,
            },
            completed: output.is_some(),
            output,
            digests,
            stats,
            node_bytes: slots
                .iter()
                .map(|s| proto.node_mem_bytes(&s.node) as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every wake sends one ping to a random peer; pings are counted at
    /// delivery; halt once `target_total` pings have landed.
    struct AsyncPing {
        n: usize,
        target_total: u64,
    }

    #[derive(Default)]
    struct PingNode {
        received: u64,
        sent: u64,
    }

    impl AsyncProtocol for AsyncPing {
        type Node = PingNode;
        type Msg = u8;
        type Output = u64;

        fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> PingNode {
            PingNode::default()
        }

        fn on_wake(
            &self,
            node: &mut PingNode,
            _id: NodeId,
            _now_ticks: u64,
            rng: &mut SmallRng,
            out: &mut Outbox<'_, u8>,
        ) {
            let dst = NodeId(rng.gen_range(0..self.n as u32));
            out.send(dst, 1);
            node.sent += 1;
        }

        fn on_message(
            &self,
            node: &mut PingNode,
            _id: NodeId,
            _from: NodeId,
            msg: u8,
            _now_ticks: u64,
            _rng: &mut SmallRng,
            _out: &mut Outbox<'_, u8>,
        ) {
            node.received += msg as u64;
        }

        fn observe_node(&self, node: &PingNode, id: NodeId, obs: &mut RoundObs) {
            obs.count = obs.count.wrapping_add(node.received);
            let local = (node.received << 16) ^ node.sent;
            obs.digest ^= SplitMix64::mix(local ^ SplitMix64::mix(id.index() as u64));
        }

        fn finalize(&mut self, obs: &RoundObs, _now_ticks: u64, _events: u64) -> Verdict<u64> {
            if obs.count >= self.target_total {
                Verdict::Halt(obs.count)
            } else {
                Verdict::Continue
            }
        }
    }

    fn run_ping(n: usize, seed: u64) -> RunReport<u64> {
        let mut p = AsyncPing {
            n,
            target_total: 4 * n as u64,
        };
        EventExecutor::new(1.0).run(&mut p, n, &RunConfig::seeded(seed).max_rounds(64))
    }

    #[test]
    fn completes_and_accounts() {
        let r = run_ping(60, 3);
        assert!(r.completed);
        let (seconds, events) = match r.time {
            TimeAxis::SimSeconds { seconds, events } => (seconds, events),
            other => panic!("continuous run reported {other:?}"),
        };
        assert_eq!(events, r.rounds, "rounds aliases the event count");
        assert!(seconds > 0.0);
        // One send per wake event; deliveries lag only by what is parked.
        assert_eq!(r.stats.sent, events);
        assert!(r.stats.delivered >= 4 * 60);
        assert!(r.stats.delivered <= r.stats.sent);
        assert_eq!(r.stats.dropped, 0);
        assert_eq!(r.digests.len() as u64, events);
    }

    #[test]
    fn a_run_is_a_pure_function_of_the_seed() {
        let base = run_ping(97, 9);
        let again = run_ping(97, 9);
        assert_eq!(base.digests, again.digests);
        assert_eq!(base.stats, again.stats);
        assert_eq!(base.output, again.output);
        assert_eq!(base.time, again.time);
        assert_ne!(base.digests, run_ping(97, 10).digests, "seeds matter");
    }

    #[test]
    fn single_node_runs_talk_to_themselves() {
        // n = 1: every ping is a self-send, parked until the next wake.
        let r = run_ping(1, 5);
        assert!(r.completed);
        assert_eq!(r.output, Some(4));
        assert_eq!(r.rounds, 5, "the k-th wake delivers the (k-1)-th ping");
        assert_eq!(r.stats.sent, 5);
        assert_eq!(r.stats.delivered, 4);
    }

    #[test]
    fn event_cap_reports_incomplete() {
        let mut p = AsyncPing {
            n: 10,
            target_total: u64::MAX,
        };
        let r = EventExecutor::new(1.0).run(&mut p, 10, &RunConfig::seeded(1).max_rounds(7));
        assert!(!r.completed);
        assert_eq!(r.rounds, 7 * 10, "cap is max_rounds × n events");
        assert!(r.output.is_none());
    }

    #[test]
    fn wake_schedule_matches_the_rate() {
        // Mean inter-arrival over many hashed draws ≈ 1/rate seconds.
        let exec = EventExecutor::new(4.0);
        let stream = EventExecutor::wake_stream(99, 7);
        let draws = 20_000u64;
        let total: u64 = (0..draws).map(|s| exec.wake_dt(stream, s)).sum();
        let mean_s = total as f64 / draws as f64 / TICKS_PER_SEC as f64;
        assert!(
            (mean_s - 0.25).abs() < 0.01,
            "mean inter-arrival {mean_s} ≉ 0.25s"
        );
    }

    #[test]
    fn hoisted_wake_stream_equals_the_per_wake_hash() {
        // The wake clock as specified: both hashes taken on every wake.
        let unhoisted = |rate: f64, seed: u64, node: u64, seq: u64| {
            let u = to_unit(derive_seed(derive_seed(seed ^ WAKE_SALT, node), seq));
            let dt = -(1.0 - u).ln() / rate * TICKS_PER_SEC as f64;
            (dt as u64).max(1)
        };
        for (rate, seed) in [(1.0, 0u64), (0.37, 0xBEEF), (250.0, u64::MAX)] {
            let exec = EventExecutor::new(rate);
            for node in (0..100u64).map(|k| k * k * 977) {
                let stream = EventExecutor::wake_stream(seed, node);
                for seq in (0..100u64).map(|k| k * 31) {
                    assert_eq!(
                        exec.wake_dt(stream, seq),
                        unhoisted(rate, seed, node, seq),
                        "rate {rate} seed {seed} node {node} seq {seq}"
                    );
                }
            }
        }
    }

    /// A payload without `Clone`: the executor only ever moves messages.
    struct Weighed(u8);

    /// Every wake sends one to three messages of random declared size to
    /// random peers, and every even-sized message is answered; the
    /// protocol records what it sends and receives. Halts after `events`
    /// events, with messages still parked.
    struct Weighing {
        n: usize,
        events: u64,
        sends: AtomicU64,
        sent_bytes: AtomicU64,
        received: AtomicU64,
        received_bytes: AtomicU64,
    }

    impl Weighing {
        fn send(&self, out: &mut Outbox<'_, Weighed>, dst: NodeId, size: u8) {
            let msg = Weighed(size);
            self.sends.fetch_add(1, Ordering::Relaxed);
            self.sent_bytes
                .fetch_add(self.msg_bytes(&msg) as u64, Ordering::Relaxed);
            out.send(dst, msg);
        }
    }

    impl AsyncProtocol for Weighing {
        type Node = ();
        type Msg = Weighed;
        type Output = u64;

        fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) {}

        fn on_wake(
            &self,
            _node: &mut (),
            _id: NodeId,
            _now_ticks: u64,
            rng: &mut SmallRng,
            out: &mut Outbox<'_, Weighed>,
        ) {
            for _ in 0..rng.gen_range(1..4) {
                let dst = NodeId(rng.gen_range(0..self.n as u32));
                self.send(out, dst, rng.gen_range(1..=200));
            }
        }

        fn on_message(
            &self,
            _node: &mut (),
            _id: NodeId,
            from: NodeId,
            msg: Weighed,
            _now_ticks: u64,
            _rng: &mut SmallRng,
            out: &mut Outbox<'_, Weighed>,
        ) {
            self.received.fetch_add(1, Ordering::Relaxed);
            self.received_bytes
                .fetch_add(self.msg_bytes(&msg) as u64, Ordering::Relaxed);
            if msg.0.is_multiple_of(2) {
                self.send(out, from, msg.0 / 2 + 1);
            }
        }

        fn observe_node(&self, _node: &(), _id: NodeId, _obs: &mut RoundObs) {}

        fn finalize(&mut self, _obs: &RoundObs, _now_ticks: u64, events: u64) -> Verdict<u64> {
            if events >= self.events {
                Verdict::Halt(events)
            } else {
                Verdict::Continue
            }
        }

        fn msg_bytes(&self, msg: &Weighed) -> usize {
            usize::from(msg.0)
        }
    }

    #[test]
    fn bytes_are_weighed_at_delivery_and_in_the_final_sweep() {
        let n = 50;
        let mut p = Weighing {
            n,
            events: 400,
            sends: AtomicU64::new(0),
            sent_bytes: AtomicU64::new(0),
            received: AtomicU64::new(0),
            received_bytes: AtomicU64::new(0),
        };
        let r = EventExecutor::new(1.0).run(&mut p, n, &RunConfig::seeded(4).max_rounds(64));
        assert_eq!(r.output, Some(400));
        let sends = p.sends.into_inner();
        let received = p.received.into_inner();
        let still_parked = sends - received;
        assert!(still_parked > 0, "the run halts with messages parked");
        let sent_bytes = p.sent_bytes.into_inner();
        assert!(sent_bytes > p.received_bytes.into_inner() + still_parked);
        assert_eq!(r.stats.bytes_sent, sent_bytes);
        assert_eq!(r.stats.sent, sends);
        assert_eq!(r.stats.delivered + still_parked, r.stats.sent);
    }

    #[test]
    #[should_panic(expected = "ideal channels")]
    fn conditioned_configs_are_rejected() {
        let mut p = AsyncPing {
            n: 4,
            target_total: 1,
        };
        let cfg = RunConfig::seeded(0).conditions(crate::conditions::Conditions::with_loss(0.5));
        let _ = EventExecutor::new(1.0).run(&mut p, 4, &cfg);
    }
}
