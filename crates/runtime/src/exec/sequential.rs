//! The single-threaded reference executor.
//!
//! Determinism guarantee: the trace is a pure function of
//! `(protocol, n, seed, conditions)` — this executor *defines* the
//! canonical digest trace that every other executor must reproduce
//! bit-for-bit at any shard or pool count.
//!
//! It runs on the same message-plane kernels as the sharded workers
//! ([`route_sends`] / [`order_deliveries`] over [`EnvBatch`] lanes), so
//! the reference semantics and the parallel hot path cannot drift apart:
//! a message's journey is batch → hoisted fate → slot row → run-header
//! merge + one stable counting pass →
//! [`on_receive_run`](RoundProtocol::on_receive_run), whichever executor
//! drives it and whatever the latency distribution.
//!
//! lint: deterministic

use super::{tally_node_bytes, validate_run, Executor};
use crate::arena::NodeArena;
use crate::batch::{order_deliveries, route_sends, DeliverScratch, EnvBatch, RouteScratch};
use crate::proto::{observe_nodes, Outbox, RoundProtocol, Verdict};
use crate::report::{NetStats, RunConfig, RunReport, TimeAxis};
use rand::rngs::SmallRng;
use rendez_sim::{small_rng_for, NodeId};
use std::collections::VecDeque;

/// Runs every node on the calling thread, in id order.
///
/// This is the executable specification of the runtime's semantics: the
/// sharded executor (and anything added later) must reproduce its digest
/// traces bit-for-bit. Keep it boring.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> String {
        "sequential".to_string()
    }

    fn run<P: RoundProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        validate_run(n, cfg);
        let mut rngs: Vec<SmallRng> = (0..n).map(|i| small_rng_for(cfg.seed, i as u64)).collect();
        let mut seqs: Vec<u64> = vec![0; n];
        let mut nodes: Vec<P::Node> = (0..n)
            .map(|i| proto.init_node(NodeId::from_index(i), &mut rngs[i]))
            .collect();

        // `buckets[k]` holds the messages due `k` rounds after the
        // current pop, one src-ascending segment per send round that
        // filed into it (batch invariant 3): a ring of `latency_slots()`
        // rows, popped at the front and pushed back empty once per
        // round, so filing never grows it. `opened[k]`: this round's
        // segment exists in row `k`. Segments cycle through `seg_pool`
        // and the emission batch starts with room for one message and
        // one run per node, so warm rounds do not allocate and cold
        // ones do not grow buffers from zero.
        let slots = cfg.conditions.latency_slots();
        let mut buckets: VecDeque<Vec<EnvBatch<P::Msg>>> = (0..slots).map(|_| Vec::new()).collect();
        let mut opened = vec![false; slots];
        let mut seg_pool: Vec<EnvBatch<P::Msg>> = Vec::new();
        let mut fresh: EnvBatch<P::Msg> = EnvBatch::with_capacity(n, n);
        let mut rs = RouteScratch::default();
        let mut ds = DeliverScratch::default();
        let mut arena = NodeArena::new(0, n);
        let mut stats = NetStats::default();
        let mut digests = Vec::new();
        let churn = cfg.churn.cache(cfg.seed, 0, n);
        let churned = !churn.is_none();
        let mut live = vec![true; if churned { n } else { 0 }];

        for round in 0..cfg.max_rounds {
            arena.begin_round();
            if churned {
                churn.fill_live_mask(round, &mut live);
            }
            let up = |i: usize| !churned || live[i];

            // Phase 1: round-start hooks, id order; down nodes are not
            // dispatched (their RNG streams do not advance).
            for i in 0..n {
                if !up(i) {
                    continue;
                }
                let id = NodeId::from_index(i);
                let mut out = Outbox::new(id, n, &mut seqs[i], &mut fresh, &mut arena);
                proto.on_round_start(&mut nodes[i], id, round, &mut rngs[i], &mut out);
            }

            // Phase 2: deliveries due this round. The counting pass puts
            // them in canonical (dst, src, seq) order; a down destination
            // loses its whole run.
            let mut row = buckets.pop_front().expect("ring holds `slots` rows");
            let total = order_deliveries(&mut row, 0, n, &mut ds);
            for seg in row.drain(..) {
                if seg.has_capacity() {
                    seg_pool.push(seg);
                }
            }
            buckets.push_back(row);
            if total > 0 {
                for i in 0..n {
                    let (s, e) = (ds.starts[i] as usize, ds.starts[i + 1] as usize);
                    if s == e {
                        continue;
                    }
                    if !up(i) {
                        stats.churn_lost += (e - s) as u64;
                        continue;
                    }
                    stats.delivered += (e - s) as u64;
                    let id = NodeId::from_index(i);
                    let mut out = Outbox::new(id, n, &mut seqs[i], &mut fresh, &mut arena);
                    proto.on_receive_run(
                        &mut nodes[i],
                        id,
                        &ds.srcs[s..e],
                        &ds.msgs[s..e],
                        round,
                        &mut rngs[i],
                        &mut out,
                    );
                }
            }

            // Phase 3: round-end hooks, id order (down nodes skipped).
            for i in 0..n {
                if !up(i) {
                    continue;
                }
                let id = NodeId::from_index(i);
                let mut out = Outbox::new(id, n, &mut seqs[i], &mut fresh, &mut arena);
                proto.on_round_end(&mut nodes[i], id, round, &mut rngs[i], &mut out);
            }

            // File this round's sends through the hoisted fate kernel.
            // A segment the pool cannot supply starts with room for
            // its share of this round's emission instead of growing
            // from zero.
            let seg_msgs = fresh.len().div_ceil(slots);
            let seg_runs = fresh.runs().len().min(seg_msgs);
            let cold_seg = move || EnvBatch::with_capacity(seg_msgs, seg_runs);
            opened.fill(false);
            route_sends(
                &mut fresh,
                cfg.seed,
                &cfg.conditions,
                0,
                n,
                &mut rs,
                &mut stats,
                |m| proto.msg_bytes(m),
                |slot, src, dst, msg| {
                    let row = &mut buckets[slot];
                    if !std::mem::replace(&mut opened[slot], true) {
                        row.push(seg_pool.pop().unwrap_or_else(cold_seg));
                    }
                    row.last_mut()
                        .expect("opened rows end in this round's segment")
                        .push_grouped(src, dst, msg);
                },
            );
            // Observation: the streaming path folds the node slice into
            // one RoundObs (exactly what the sharded workers do per
            // shard); the legacy path hands the whole slice over.
            let verdict = if proto.streams() {
                let obs = observe_nodes(&*proto, 0, &nodes, round);
                digests.push(proto.digest_obs(&obs, round));
                proto.finalize_obs(&obs, round)
            } else {
                digests.push(proto.digest(&nodes, round));
                proto.finalize(&nodes, round)
            };
            if let Verdict::Halt(output) = verdict {
                return RunReport {
                    rounds: round + 1,
                    time: TimeAxis::Rounds(round + 1),
                    completed: true,
                    output: Some(output),
                    digests,
                    stats,
                    node_bytes: tally_node_bytes(proto, &nodes),
                };
            }
        }

        RunReport {
            rounds: cfg.max_rounds,
            time: TimeAxis::Rounds(cfg.max_rounds),
            completed: false,
            output: None,
            digests,
            stats,
            node_bytes: tally_node_bytes(proto, &nodes),
        }
    }
}
