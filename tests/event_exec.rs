//! Integration tests for the event-driven continuous-time executor:
//! the event trace pinned to what the heap-based executor produced, the
//! calendar wake queue against a reference binary heap, agreement
//! between the `Scenario` front door and a hand-driven
//! [`EventExecutor`], the completion-time distribution of asynchronous
//! PUSH&PULL against its synchronous counterpart, and a property test
//! that message parking never reorders same-destination messages.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use rendezvous::prelude::*;
use rendezvous::runtime::{Outbox, RoundObs, RunReport, Verdict, WakeQueue, TICKS_PER_SEC};
use rendezvous::sim::SplitMix64;
use rendezvous::stats::ks_two_sample;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One of `xs`, uniformly.
fn pick<T: Copy + 'static>(xs: &'static [T]) -> impl Strategy<Value = T> {
    (0..xs.len()).prop_map(move |i| xs[i])
}

fn async_run(spreader: Spreader, n: usize, seed: u64) -> RunReport<AsyncSpreadSummary> {
    let mut proto = AsyncSpread::new(n, NodeId(0), spreader);
    EventExecutor::new(1.0).run(&mut proto, n, &RunConfig::seeded(seed))
}

// ---------------------------------------------------------------------
// Trace pins: the event trace is a pure function of the seed, and it is
// the trace the executor produced when its wake queue was a binary heap
// and its mailboxes were one `Vec` per node. Recorded from that
// executor (commit e91a798) at n = 300, rate 1/s; a wake popped out of
// `(ticks, node)` order or a message delivered out of arrival order
// anywhere in a run changes the chained digest.

/// Order-sensitive fold of a `u64` sequence.
fn fold(xs: &[u64]) -> u64 {
    xs.iter().fold(0u64, |h, &x| SplitMix64::mix(h ^ x))
}

/// `(workload, seed, events, sent, bytes_sent, delivered,
/// fold(digests), completion ticks, fold(informed_history))`.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const HEAP_EXECUTOR_PINS: [(Spreader, u64, u64, u64, u64, u64, u64, u64, u64); 10] = [
    (Spreader::Push, 0x1, 4087, 2288, 2288, 1992, 0xe6eecc09a52e2c78, 13349420821, 0x0ea07c066076b878),
    (Spreader::Push, 0xBEEF, 5129, 2899, 2899, 2590, 0x54f8672320823bd4, 17040233983, 0x441c08847d94416a),
    (Spreader::Pull, 0x1, 5955, 3224, 3224, 3224, 0xf46286d39ba88cd8, 19478717217, 0x3c26b2a3069fa9f0),
    (Spreader::Pull, 0xBEEF, 5680, 3529, 3529, 3525, 0xc9dc33f448ee46e4, 18824721612, 0xe06f650e51d119c7),
    (Spreader::PushPull, 0x1, 3556, 3740, 3740, 3437, 0xe330f116cf46fd46, 11648024232, 0x4b1c2693ef8854c2),
    (Spreader::PushPull, 0xBEEF, 3873, 4082, 4082, 3795, 0x81146a6e734975c0, 13036215143, 0x545a0dd589dddf25),
    (Spreader::FairPull, 0x1, 6573, 4006, 4006, 4005, 0x2eed7ec23f71daf2, 21462261593, 0x090a5eb85819faf8),
    (Spreader::FairPull, 0xBEEF, 7198, 4902, 4902, 4897, 0xabe53d56d774d963, 23909304137, 0xa188e3cce56207ff),
    (Spreader::FairPushPull, 0x1, 3556, 3771, 3771, 3446, 0x1c4720f0e6a4c3d4, 11648024232, 0x939dbc21d84bd39b),
    (Spreader::FairPushPull, 0xBEEF, 3771, 3992, 3992, 3710, 0x2531c792a3e9c6c0, 12604415000, 0xa9e6662379fc355c),
];

#[test]
fn event_traces_match_the_heap_executor_pins() {
    for (spreader, seed, events, sent, bytes_sent, delivered, digests, ticks, history) in
        HEAP_EXECUTOR_PINS
    {
        let run = async_run(spreader, 300, seed);
        let what = format!("{spreader} seed {seed:#x}");
        assert!(run.completed, "{what}");
        assert_eq!(run.rounds, events, "{what}: event count");
        assert_eq!(
            run.digests.len() as u64,
            events,
            "{what}: one digest per event"
        );
        assert_eq!(fold(&run.digests), digests, "{what}: event trace");
        let stats = run.stats;
        assert_eq!(
            (stats.sent, stats.bytes_sent, stats.delivered),
            (sent, bytes_sent, delivered),
            "{what}: net stats"
        );
        assert_eq!((stats.dropped, stats.churn_lost), (0, 0), "{what}");
        assert_eq!(
            run.time,
            TimeAxis::SimSeconds {
                seconds: ticks as f64 / TICKS_PER_SEC as f64,
                events
            },
            "{what}: time axis"
        );
        let out = run.expect_output();
        assert_eq!((out.ticks, out.events), (ticks, events), "{what}: output");
        assert_eq!(fold(&out.informed_history), history, "{what}: history");
    }
}

// ---------------------------------------------------------------------
// The calendar wake queue against a reference binary heap, under the
// executor's hold model: pop the minimum, push the same node back at a
// later (or, at saturation, the same) time.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn calendar_pops_what_a_binary_heap_pops(
        seed in 0u64..1_000_000,
        // 1, powers of two and everything between.
        n in 1usize..70,
        rate in pick(&[0.01f64, 1.0, 7.5, 1e10]),
        // Inter-arrivals are multiples of this, so equal ticks on
        // different nodes are common when it is coarse.
        quantum in pick(&[1u64, 1 << 20, TICKS_PER_SEC / 4]),
        // Start this far below `u64::MAX` (0 = start at time zero), so
        // some runs end saturated.
        headroom_s in pick(&[0u64, 3, 40]),
    ) {
        let mean = ((TICKS_PER_SEC as f64 / rate) as u64).max(1);
        let base = match headroom_s {
            0 => 0,
            s => u64::MAX - s * mean,
        };
        let mut draws = SplitMix64::new(seed);
        // A step's inter-arrival: mostly around the mean, sometimes
        // inside the bucket being drained (down to 0), sometimes far
        // beyond the ring's horizon.
        let mut dt = move || {
            let r = draws.next_u64();
            let span = match r % 16 {
                0..=2 => mean / (8 * n as u64) + 1,
                3 => 64 * mean + 1,
                _ => 2 * mean + 1,
            };
            ((r >> 8) % span) / quantum * quantum
        };

        let mut timers: Vec<(u64, u32)> = (0..n)
            .map(|_| (base.saturating_add(dt()), u32::MAX))
            .collect();
        let mut queue = WakeQueue::new(n, rate);
        let mut heap = BinaryHeap::new();
        for (node, timer) in (0u32..).zip(&timers) {
            heap.push(Reverse((timer.0, node)));
        }
        for node in 0..n as u32 {
            queue.push(&mut timers, node);
        }

        let mut ties = 0u32;
        let mut last = None;
        for step in 0..60 * n {
            let Reverse(want) = heap.pop().expect("n wakes are always queued");
            let got = queue.pop(&timers);
            prop_assert_eq!(got, Some(want), "step {} of n = {}", step, n);
            prop_assert_eq!(queue.len(), n - 1);
            ties += u32::from(last.map(|(t, _)| t) == Some(want.0));
            last = Some(want);
            let (now, node) = want;
            timers[node as usize].0 = now.saturating_add(dt());
            heap.push(Reverse((timers[node as usize].0, node)));
            queue.push(&mut timers, node);
        }
        if quantum == TICKS_PER_SEC / 4 && rate == 1.0 && n >= 8 {
            prop_assert!(ties > 0, "coarse times must collide");
        }
        if headroom_s == 3 && quantum < mean {
            prop_assert_eq!(last.map(|(t, _)| t), Some(u64::MAX), "run must saturate");
        }
    }
}

#[test]
fn scenario_continuous_agrees_with_hand_driven_executor() {
    let n = 300;
    let seed = 0xDA7E;
    let scenario = Scenario::new(n)
        .protocol(Spreader::PushPull)
        .time_model(TimeModel::Continuous { rate: 1.0 });
    let via_scenario = scenario.run(seed).expect("valid scenario");
    let direct = async_run(Spreader::PushPull, n, seed);
    assert_eq!(via_scenario.digests, direct.digests);
    assert_eq!(via_scenario.rounds, direct.rounds);
    assert_eq!(via_scenario.stats, direct.stats);
    assert_eq!(
        via_scenario.output.as_ref().and_then(|o| o.async_spread()),
        direct.output.as_ref()
    );
    match via_scenario.time {
        TimeAxis::SimSeconds { seconds, events } => {
            assert!(seconds > 0.0);
            assert_eq!(events, via_scenario.rounds);
        }
        TimeAxis::Rounds(_) => panic!("continuous run must report simulated time"),
    }
}

// ---------------------------------------------------------------------
// Completion-time distribution: asynchronous PUSH&PULL against
// synchronous PUSH&PULL at matched expected rates (one wake per node
// per unit of simulated time vs one round per unit time). The sync
// sample's support is a handful of integers (rounds) while the async
// sample is continuous, so a direct two-sample KS between them is
// inconsistent by construction — its D statistic is dominated by the
// discrete CDF jumps, not by any real disagreement. The comparison is
// therefore split: calibrated mean/dispersion bands pin async against
// sync, and the KS shape check pins the async distribution itself via
// the exponential clock's time-rescaling law (doubling every wake rate
// must exactly halve completion time, in distribution).

const KS_N: usize = 200;
const KS_TRIALS: u64 = 100;

fn async_samples(rate_scale: u64, seed: u64) -> Vec<f64> {
    (0..KS_TRIALS)
        .map(|t| {
            let mut proto = AsyncSpread::new(KS_N, NodeId(0), Spreader::PushPull);
            let r = EventExecutor::new(rate_scale as f64).run(
                &mut proto,
                KS_N,
                &RunConfig::seeded(seed ^ (t << 8)),
            );
            assert!(r.completed);
            r.output.as_ref().expect("output").seconds() * rate_scale as f64
        })
        .collect()
}

#[test]
fn async_push_pull_completion_time_tracks_sync_at_matched_rates() {
    let sync_scenario = Scenario::new(KS_N).protocol(Spreader::PushPull);
    let sync: Vec<f64> = (0..KS_TRIALS)
        .map(|t| {
            let r = sync_scenario.run(0x5EED ^ (t << 8)).expect("valid");
            assert!(r.completed);
            r.expect_output().spread().expect("spread").cycles as f64
        })
        .collect();
    let asynch = async_samples(1, 0x5EED);
    // Matched rates: both means are Θ(log n) time units; asynchrony
    // costs a bounded constant factor (independent exponential wakes
    // instead of a lockstep barrier), and stays concentrated — the
    // relative spread remains small at n = 200.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sd = |v: &[f64]| {
        let m = mean(v);
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0)).sqrt()
    };
    let ratio = mean(&asynch) / mean(&sync);
    assert!(
        (1.0..4.0).contains(&ratio),
        "async/sync completion-time ratio {ratio:.2} out of the expected constant band"
    );
    let cv = sd(&asynch) / mean(&asynch);
    assert!(
        cv < 0.25,
        "async completion time not concentrated: cv = {cv:.3}"
    );
}

#[test]
fn async_completion_distribution_obeys_time_rescaling() {
    // The distributional pin: completion seconds at wake rate 2/s,
    // rescaled by 2, must be KS-indistinguishable from completion
    // seconds at rate 1/s (independent seeds, so the samples are
    // independent draws from what must be one distribution).
    let base = async_samples(1, 0xAB1E);
    let doubled = async_samples(2, 0xC0FFEE);
    let r = ks_two_sample(&base, &doubled);
    assert!(
        r.accepts(0.001),
        "rate-rescaled async completion times diverge: D={:.4} p={:.5}",
        r.statistic,
        r.p_value,
    );
}

// ---------------------------------------------------------------------
// FIFO parking property: messages from one source to one destination
// are delivered in send order, whatever the wake interleaving, and
// never in the event that sent them.

/// A probe protocol: every wake sends 1–3 messages (some of them to the
/// waking node itself) and every fourth delivery is acknowledged, each
/// message carrying a strictly increasing per-`(src, dst)` counter and
/// its send time. Every delivery checks that the counter from that
/// source increased and that the message was sent at an earlier event.
/// Any reordering, duplication or same-event delivery in the parking
/// shows up as a violation.
struct OrderProbe {
    n: usize,
    max_events: u64,
    /// Percentage of wake-time sends a node addresses to itself.
    self_pct: u32,
}

struct ProbeNode {
    sent: Vec<u64>,
    seen: Vec<u64>,
    wakes: u64,
    violations: u64,
}

impl ProbeNode {
    fn post(&mut self, dst: NodeId, now_ticks: u64, out: &mut Outbox<'_, (u64, u64)>) {
        self.sent[dst.index()] += 1;
        out.send(dst, (self.sent[dst.index()], now_ticks));
    }
}

/// Nodes that have woken at least three times, so every inbox was
/// filled, emptied and refilled from recycled cells.
const LANE_SEASONED: usize = 0;

impl AsyncProtocol for OrderProbe {
    type Node = ProbeNode;
    type Msg = (u64, u64);
    type Output = u64;

    fn init_node(&self, _id: NodeId, _rng: &mut SmallRng) -> ProbeNode {
        ProbeNode {
            sent: vec![0; self.n],
            seen: vec![0; self.n],
            wakes: 0,
            violations: 0,
        }
    }

    fn on_wake(
        &self,
        node: &mut ProbeNode,
        id: NodeId,
        now_ticks: u64,
        rng: &mut SmallRng,
        out: &mut Outbox<'_, (u64, u64)>,
    ) {
        node.wakes += 1;
        for _ in 0..rng.gen_range(1..4u32) {
            let dst = if rng.gen_range(0..100) < self.self_pct {
                id
            } else {
                NodeId(rng.gen_range(0..self.n as u32))
            };
            node.post(dst, now_ticks, out);
        }
    }

    fn on_message(
        &self,
        node: &mut ProbeNode,
        _id: NodeId,
        from: NodeId,
        (counter, sent_at): (u64, u64),
        now_ticks: u64,
        _rng: &mut SmallRng,
        out: &mut Outbox<'_, (u64, u64)>,
    ) {
        // A node's wake times strictly increase, so a message delivered
        // at its own send time was delivered within the sending event.
        if counter <= node.seen[from.index()] || sent_at >= now_ticks {
            node.violations += 1;
        } else {
            node.seen[from.index()] = counter;
        }
        // Park while the detached inbox is still being delivered.
        if counter % 4 == 0 {
            node.post(from, now_ticks, out);
        }
    }

    fn observe_node(&self, node: &ProbeNode, _id: NodeId, obs: &mut RoundObs) {
        obs.count += node.violations;
        obs.digest ^= node.violations.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        obs.lane_add(LANE_SEASONED, u64::from(node.wakes >= 3));
    }

    fn finalize(&mut self, obs: &RoundObs, _now_ticks: u64, events: u64) -> Verdict<u64> {
        if events >= self.max_events && obs.lane(LANE_SEASONED) == self.n as u64 {
            Verdict::Halt(obs.count)
        } else {
            Verdict::Continue
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn parked_messages_are_never_reordered(
        seed in 0u64..1_000_000,
        n in 1usize..48,
        self_pct in pick(&[0u32, 10, 60, 100]),
    ) {
        let cfg = RunConfig::seeded(seed).max_rounds(200);
        let probe = || OrderProbe { n, max_events: 25 * n as u64, self_pct };
        let report = EventExecutor::new(1.0).run(&mut probe(), n, &cfg);
        prop_assert!(report.completed, "every node wakes three times well within the cap");
        prop_assert_eq!(report.output, Some(0), "same-destination messages reordered");
        prop_assert!(report.stats.delivered <= report.stats.sent);
        prop_assert!(report.stats.delivered > 0);

        // And the trace is a function of the seed alone.
        let again = EventExecutor::new(1.0).run(&mut probe(), n, &cfg);
        prop_assert_eq!(again.digests, report.digests);
    }
}
