//! The shard-parallel executor: persistent workers, shard-local routing,
//! a coordinator that touches only pointers.
//!
//! Nodes are partitioned into contiguous shards. One **persistent worker
//! thread per shard** lives for the whole run (spawned once, not once per
//! round), parked on a channel between rounds. Within a round every
//! worker runs the full phase schedule (round-start → deliveries →
//! round-end) for its own nodes, then — still on the worker — decides
//! every sent message's fate (loss, latency) and buckets survivors by
//! `[latency_slot][destination_shard]`. The coordinator's merge is a
//! splice: it moves whole bucket `Vec`s into the global delivery queue in
//! shard order and sums five shard-local counters per shard
//! ([`NetStats::absorb`]). No per-envelope work happens on the
//! coordinating thread.
//!
//! For **streaming** protocols ([`RoundProtocol::streams`]) the round
//! verdict is streamed too: each worker folds its own nodes into a
//! [`RoundObs`] partial during the round-end pass, and the coordinator
//! merges the partials in shard order — so between-round coordinator
//! work is O(shards), independent of `n`. Only legacy (non-streaming)
//! protocols still trigger the coordinator's whole-slice
//! `digest`/`finalize` scan.
//!
//! # Determinism
//!
//! Traces are bit-identical to
//! [`SequentialExecutor`](super::SequentialExecutor) — same digests,
//! output, round count and statistics for every shard count. The
//! invariants, in dependency order:
//!
//! 1. **Node isolation.** Callbacks touch exactly one node's state and
//!    private RNG stream, so running disjoint node ranges concurrently
//!    cannot interleave state.
//! 2. **Fate purity.** A message's loss/latency is a pure function of
//!    `(seed, src, seq)` ([`Conditions::fate`](crate::Conditions::fate)),
//!    and its `(src, seq)` identity is assigned by protocol behaviour
//!    alone. Moving the fate decision from the coordinator into the
//!    sending shard therefore cannot change any outcome — only *where*
//!    the same hash is computed.
//! 3. **Splice order = sequential emission order.** Shards are contiguous
//!    id ranges processed in shard order by the coordinator's merge, and
//!    each shard's routed buckets are `(src, seq)`-sorted
//!    ([`route_sends`] walks sources in ascending id order).
//!    Concatenating shard buckets in shard order therefore yields
//!    exactly the sequential executor's per-bucket content and order.
//! 4. **Delivery order.** Messages due in a round are consumed in
//!    `(dst, src, seq)` order. A lane holds src-ascending segments in
//!    (send round, shard) order; [`order_deliveries`] merges their run
//!    *headers* into `(src, seq)` order — one stream per send round, so
//!    a lane filled by one round (always, under fixed latency such as
//!    the paper's synchronous model) is plain concatenation — and one
//!    stable counting pass by destination completes the sort in
//!    `O(m + shard_width)`, with no comparison sort over messages.
//!
//! # Memory discipline
//!
//! Messages travel in compact SoA [`EnvBatch`] lanes (flat `dst`/`msg`
//! arrays, run-length source headers — see the
//! [`batch`](crate::batch) module), and batches cycle rather than
//! churn: a worker's routed batch is moved (pointer-level) into the
//! coordinator's queue, later handed to the destination shard as a
//! delivery segment, drained there, and kept in that worker's free pool
//! to back its next routed batches. Steady state rounds perform no
//! envelope-buffer allocation.
//!
//! # Safety model
//!
//! Workers access their chunk of the per-node state (`nodes`, `rngs`,
//! `seqs`, `live`) and the shared protocol object through raw pointers
//! ([`ShardHandle`]), because the coordinator must also be able to view
//! all node state between rounds (legacy `digest`/`finalize` take
//! `&[Node]`; the end-of-run `node_mem_bytes` tally always does) — a
//! shape the borrow checker cannot express across persistent threads. The
//! aliasing discipline is temporal and enforced by the round protocol:
//!
//! * a worker materializes `&mut` slices **only** between receiving a
//!   round task and sending its result;
//! * the coordinator materializes views **only** after receiving every
//!   shard's result for the round (all workers are then parked on
//!   channel `recv`, which provides the happens-before edges).
//!
//! Chunks are disjoint by construction (`base..base + len` with
//! non-overlapping ranges), every pointer derives from the single
//! original allocation, and the owning vectors outlive the worker scope.
//!
//! Every `unsafe` site in this file (and in `pool.rs` and `batch.rs`)
//! is enumerated in
//! the workspace-root `UNSAFE_LEDGER.toml`, keyed by the hash of its
//! covering `// SAFETY:` comment; `rendez-lint --workspace` (the CI
//! `lint` job) fails on any unsafe block this ledger does not bless, so
//! adding or re-justifying unsafe code is always a reviewed diff.
//!
//! lint: deterministic

use super::pool::{PoolScope, WorkerPool};
use super::{tally_node_bytes, validate_run, Executor};
use crate::arena::NodeArena;
use crate::batch::{order_deliveries, route_sends, DeliverScratch, EnvBatch, RouteScratch};
use crate::churn::ChurnCache;
use crate::proto::{observe_nodes, Outbox, RoundObs, RoundProtocol, Verdict};
use crate::report::{NetStats, RunConfig, RunReport, TimeAxis};
use rand::rngs::SmallRng;
use rendez_sim::{small_rng_for, NodeId};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

/// Where a run's shard workers execute: fresh scoped threads
/// ([`std::thread::scope`]) or parked threads borrowed from a
/// [`WorkerPool`]. Both guarantee every worker has exited before the
/// spawning construct returns, which is what the raw-pointer safety
/// model requires.
trait ShardSpawner<'env> {
    /// Start one shard worker loop.
    fn spawn_worker<F: FnOnce() + Send + 'env>(&self, f: F);
}

impl<'scope, 'env> ShardSpawner<'env> for &'scope std::thread::Scope<'scope, 'env> {
    fn spawn_worker<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.spawn(f);
    }
}

impl<'pool, 'env> ShardSpawner<'env> for PoolScope<'pool, 'env> {
    fn spawn_worker<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.spawn(f);
    }
}

/// Executes rounds over a persistent pool of shard worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor {
    shards: usize,
}

impl ShardedExecutor {
    /// Executor with a fixed shard count (0 = one shard per core).
    pub fn new(shards: usize) -> Self {
        let shards = if shards == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            shards
        };
        Self { shards }
    }

    /// One shard per available core.
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

/// Cap on a worker's free pool of recycled envelope batches.
const POOL_CAP: usize = 64;

/// A shard's routed sends for one round: `routed[slot][dest_shard]`,
/// each inner batch `(src, seq)`-sorted. Slot `k` is due `k + 1`
/// rounds after the current one.
type Routed<M> = Vec<Vec<EnvBatch<M>>>;

/// Work order for one shard round.
struct Task<M> {
    round: u64,
    /// Delivery segments due this round for this shard, in splice order.
    due: Vec<EnvBatch<M>>,
    /// The routed structure this shard returned last round, hollowed by
    /// the coordinator's splice — ping-ponged back so the skeleton's
    /// allocations (outer slot `Vec`, per-slot lane `Vec`s) are reused
    /// instead of rebuilt every round. Empty on the first round.
    skeleton: Routed<M>,
}

/// One shard's round result.
struct RoundOut<M> {
    routed: Routed<M>,
    tally: NetStats,
    /// The shard's fold of its own nodes (streaming protocols only);
    /// the coordinator merges these in shard order instead of scanning
    /// the whole node slice.
    obs: Option<RoundObs>,
}

/// Raw, `Send`-able handle to one shard's disjoint chunk of the run
/// state plus the shared protocol object. See the module-level safety
/// model for the access protocol that makes dereferencing sound.
struct ShardHandle<P: RoundProtocol> {
    base: usize,
    len: usize,
    nodes: *mut P::Node,
    rngs: *mut SmallRng,
    seqs: *mut u64,
    /// Null iff churn is off (no liveness mask is kept then).
    live: *mut bool,
    proto: *const P,
}

// SAFETY: the handle is a bundle of raw pointers into vectors owned by
// the coordinating thread for longer than the worker scope. `P::Node`,
// `SmallRng`, `u64` and `bool` are `Send`, `P: Sync` (trait bound), and
// the round protocol (module docs) guarantees exclusive, synchronized
// access.
unsafe impl<P: RoundProtocol> Send for ShardHandle<P> {}

/// Worker-persistent scratch: the emission batch, the routing and
/// delivery kernels' counting scratch, the free pool of recycled
/// envelope batches, the shard's precomputed churn streams, and the
/// shard's node arena (constructed on the worker thread, so its backing
/// pages are first-touched by the thread that uses them).
struct Scratch<M> {
    fresh: EnvBatch<M>,
    rs: RouteScratch,
    ds: DeliverScratch<M>,
    pool: Vec<EnvBatch<M>>,
    churn: ChurnCache,
    arena: NodeArena,
}

impl<M> Scratch<M> {
    fn new(base: usize, len: usize, cfg: &RunConfig) -> Self {
        Self {
            fresh: EnvBatch::new(),
            rs: RouteScratch::default(),
            ds: DeliverScratch::default(),
            pool: Vec::new(),
            churn: cfg.churn.cache(cfg.seed, base, len),
            arena: NodeArena::new(base, len),
        }
    }
}

/// Keep a drained batch in `pool` for reuse (bounded, so a bursty
/// round cannot pin memory forever).
fn recycle<M>(pool: &mut Vec<EnvBatch<M>>, mut b: EnvBatch<M>) {
    if pool.len() < POOL_CAP && b.has_capacity() {
        b.clear();
        pool.push(b);
    }
}

/// One shard's full round: the three phase hooks for the nodes in
/// `[base, base + len)`, then fate + routing of the shard's own sends.
/// Runs entirely on the shard's worker thread.
#[allow(clippy::too_many_arguments)]
fn run_shard_round<P: RoundProtocol>(
    h: &ShardHandle<P>,
    cfg: &RunConfig,
    n: usize,
    chunk: usize,
    shards: usize,
    slots: usize,
    task: Task<P::Msg>,
    scratch: &mut Scratch<P::Msg>,
) -> RoundOut<P::Msg> {
    let Task {
        round,
        mut due,
        skeleton,
    } = task;
    // SAFETY: exclusive access during the round per the module's safety
    // model; the chunks are disjoint and derived from live allocations.
    let proto: &P = unsafe { &*h.proto };
    let nodes = unsafe { std::slice::from_raw_parts_mut(h.nodes, h.len) };
    let rngs = unsafe { std::slice::from_raw_parts_mut(h.rngs, h.len) };
    let seqs = unsafe { std::slice::from_raw_parts_mut(h.seqs, h.len) };
    let live = if h.live.is_null() {
        &mut [][..]
    } else {
        unsafe { std::slice::from_raw_parts_mut(h.live, h.len) }
    };

    let mut tally = NetStats::default();
    let Scratch {
        fresh,
        rs,
        ds,
        pool,
        churn,
        arena,
    } = scratch;
    if !live.is_empty() {
        churn.fill_live_mask(round, live);
    }
    let up = |off: usize| live.is_empty() || live[off];

    fresh.clear();
    arena.begin_round();

    // Phase 1: round-start hooks, id order.
    for (off, node) in nodes.iter_mut().enumerate() {
        if !up(off) {
            continue;
        }
        let id = NodeId::from_index(h.base + off);
        let mut out = Outbox::new(id, n, &mut seqs[off], fresh, arena);
        proto.on_round_start(node, id, round, &mut rngs[off], &mut out);
    }

    // Phase 2: deliveries in (dst, src, seq) order — run-header merge
    // plus one stable counting pass, then one `on_receive_run` dispatch
    // per destination.
    let total = order_deliveries(&mut due, h.base, h.len, ds);
    for seg in due {
        recycle(pool, seg);
    }
    if total > 0 {
        for off in 0..h.len {
            let (s, e) = (ds.starts[off] as usize, ds.starts[off + 1] as usize);
            if s == e {
                continue;
            }
            if !up(off) {
                tally.churn_lost += (e - s) as u64;
                continue;
            }
            tally.delivered += (e - s) as u64;
            let id = NodeId::from_index(h.base + off);
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
        let id = NodeId::from_index(h.base + off);
        let mut out = Outbox::new(id, n, &mut seqs[off], fresh, arena);
        proto.on_round_end(node, id, round, &mut rngs[off], &mut out);
    }

    // Streaming observation: fold this shard's nodes into one RoundObs
    // partial, still on the worker thread. The coordinator merges the
    // partials in shard order — O(shards) between-round work — instead
    // of scanning all n nodes.
    let obs = proto
        .streams()
        .then(|| observe_nodes(proto, h.base, nodes, round));

    // Routing: the hoisted fate kernel walks this shard's emissions
    // grouped by source (a counting pass over the run *headers*; per-
    // source emission is already seq-ascending), derives the fate seed
    // once per source, and buckets survivors by
    // [latency_slot][destination_shard]. Downstream splices preserve
    // the (src, seq) order, which is what makes delivery-side counting
    // exact.
    //
    // Reuse last round's hollowed skeleton when its shape is right
    // (always, except the first round); its spliced-out batches were
    // replaced by empty ones, which the pool re-backs on first push.
    let mut routed: Routed<P::Msg> = skeleton;
    if routed.len() != slots {
        routed = (0..slots)
            .map(|_| (0..shards).map(|_| EnvBatch::new()).collect())
            .collect();
    }
    route_sends(
        fresh,
        cfg.seed,
        &cfg.conditions,
        h.base,
        h.len,
        rs,
        &mut tally,
        |m| proto.msg_bytes(m),
        |slot, src, dst, msg| {
            let bucket = &mut routed[slot][dst.index() / chunk];
            if !bucket.has_capacity() {
                if let Some(pooled) = pool.pop() {
                    *bucket = pooled;
                }
            }
            bucket.push_grouped(src, dst, msg);
        },
    );

    RoundOut { routed, tally, obs }
}

/// A worker thread's lifetime: serve round tasks until the coordinator
/// hangs up (run over), keeping all scratch and pooled buffers local.
#[allow(clippy::too_many_arguments)]
fn worker_loop<P: RoundProtocol>(
    h: ShardHandle<P>,
    cfg: &RunConfig,
    n: usize,
    chunk: usize,
    shards: usize,
    slots: usize,
    tasks: Receiver<Task<P::Msg>>,
    results: Sender<RoundOut<P::Msg>>,
) {
    let mut scratch = Scratch::new(h.base, h.len, cfg);
    while let Ok(task) = tasks.recv() {
        let out = run_shard_round(&h, cfg, n, chunk, shards, slots, task, &mut scratch);
        if results.send(out).is_err() {
            break;
        }
    }
}

/// One delivery round's worth of queued messages: `row[dest_shard]` =
/// spliced segments, in arrival (= emission) order.
type Row<M> = Vec<Vec<EnvBatch<M>>>;

impl Executor for ShardedExecutor {
    fn name(&self) -> String {
        format!("sharded({})", self.shards)
    }

    fn run<P: RoundProtocol>(
        &self,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        validate_run(n, cfg);
        drive(self.shards, proto, n, cfg, None)
    }
}

impl ShardedExecutor {
    /// Like [`run`](Executor::run), but the shard workers execute on
    /// parked threads borrowed from `pool` instead of freshly spawned
    /// ones — back-to-back runs then pay thread spawn cost once, for the
    /// pool's lifetime, instead of once per run.
    ///
    /// The report is bit-identical to [`run`](Executor::run)'s (and to
    /// [`SequentialExecutor`](super::SequentialExecutor)'s) — the
    /// determinism contract is executor- and shard-count-independent. To
    /// respect the pool's deadlock discipline (each shard worker parks a
    /// long-lived loop on one pool thread), the effective shard count is
    /// capped at `pool.size()`, which by that same contract cannot
    /// change the report.
    pub fn run_in<P: RoundProtocol>(
        &self,
        pool: &WorkerPool,
        proto: &mut P,
        n: usize,
        cfg: &RunConfig,
    ) -> RunReport<P::Output> {
        validate_run(n, cfg);
        drive(
            self.shards.min(pool.size()).max(1),
            proto,
            n,
            cfg,
            Some(pool),
        )
    }
}

/// Shared entry point for both spawning strategies: allocate the run
/// state, raw-view it for the workers, then run the coordinator inside
/// whichever scoped construct was requested.
fn drive<P: RoundProtocol>(
    shards_requested: usize,
    proto: &mut P,
    n: usize,
    cfg: &RunConfig,
    pool: Option<&WorkerPool>,
) -> RunReport<P::Output> {
    let chunk = n.div_ceil(shards_requested.max(1));
    let shards = n.div_ceil(chunk);
    let slots = cfg.conditions.latency_slots();

    let mut rngs: Vec<SmallRng> = (0..n).map(|i| small_rng_for(cfg.seed, i as u64)).collect();
    let mut seqs: Vec<u64> = vec![0; n];
    let mut nodes: Vec<P::Node> = (0..n)
        .map(|i| proto.init_node(NodeId::from_index(i), &mut rngs[i]))
        .collect();
    let mut live = vec![true; if cfg.churn.is_none() { 0 } else { n }];

    // Raw views handed to the workers; every access after this point
    // (worker chunks AND the coordinator's digest/finalize views)
    // derives from these pointers, under the module's safety model.
    let geo = Geometry {
        n,
        chunk,
        shards,
        slots,
    };
    let ptrs = StatePtrs::<P> {
        nodes: nodes.as_mut_ptr(),
        rngs: rngs.as_mut_ptr(),
        seqs: seqs.as_mut_ptr(),
        live: if live.is_empty() {
            std::ptr::null_mut()
        } else {
            live.as_mut_ptr()
        },
        proto,
    };

    // Both constructs guarantee every worker exited before they return,
    // so the state vectors above outlive all raw accesses.
    match pool {
        None => std::thread::scope(|scope| coordinate(&scope, geo, ptrs, cfg)),
        Some(pool) => pool.scope(|ps| coordinate(ps, geo, ptrs, cfg)),
    }
}

/// Shard layout of one run.
#[derive(Clone, Copy)]
struct Geometry {
    n: usize,
    chunk: usize,
    shards: usize,
    slots: usize,
}

/// Raw views of the run state (see the module-level safety model).
struct StatePtrs<P: RoundProtocol> {
    nodes: *mut P::Node,
    rngs: *mut SmallRng,
    seqs: *mut u64,
    live: *mut bool,
    proto: *mut P,
}

/// The coordinator: spawn one worker loop per shard on `spawner`, then
/// run the fan-out / splice-merge round loop until the protocol halts.
fn coordinate<'env, S, P>(
    spawner: &S,
    geo: Geometry,
    ptrs: StatePtrs<P>,
    cfg: &'env RunConfig,
) -> RunReport<P::Output>
where
    S: ShardSpawner<'env>,
    P: RoundProtocol + 'env,
    P::Node: 'env,
    P::Msg: 'env,
{
    let Geometry {
        n,
        chunk,
        shards,
        slots,
    } = geo;
    let nodes_ptr = ptrs.nodes;
    let proto_ptr = ptrs.proto;
    let mut task_txs: Vec<Sender<Task<P::Msg>>> = Vec::with_capacity(shards);
    let mut result_rxs: Vec<Receiver<RoundOut<P::Msg>>> = Vec::with_capacity(shards);
    for s in 0..shards {
        let base = s * chunk;
        let len = chunk.min(n - base);
        // SAFETY: `base + len <= n`, ranges are disjoint across
        // shards, and the vectors outlive the spawning construct.
        let handle = ShardHandle::<P> {
            base,
            len,
            nodes: unsafe { ptrs.nodes.add(base) },
            rngs: unsafe { ptrs.rngs.add(base) },
            seqs: unsafe { ptrs.seqs.add(base) },
            live: if ptrs.live.is_null() {
                ptrs.live
            } else {
                unsafe { ptrs.live.add(base) }
            },
            proto: ptrs.proto,
        };
        let (task_tx, task_rx) = channel();
        let (result_tx, result_rx) = channel();
        task_txs.push(task_tx);
        result_rxs.push(result_rx);
        spawner.spawn_worker(move || {
            worker_loop(handle, cfg, n, chunk, shards, slots, task_rx, result_tx)
        });
    }

    // `buckets[k]` is due `k` rounds after the current pop: a ring of
    // `slots` rows, popped at the front and pushed back hollow once per
    // round (the per-dest segment lists move into tasks and are tiny).
    // Each shard's hollowed routed skeleton returns with its next task.
    let mut buckets: VecDeque<Row<P::Msg>> = (0..slots)
        .map(|_| (0..shards).map(|_| Vec::new()).collect())
        .collect();
    let mut skeletons: Vec<Routed<P::Msg>> = (0..shards).map(|_| Routed::default()).collect();
    let mut stats = NetStats::default();
    let mut digests = Vec::new();

    for round in 0..cfg.max_rounds {
        // Fan out: hand each worker its due segments. Lane `Vec`s
        // move wholesale — no envelope is touched here.
        let mut row = buckets.pop_front().expect("ring holds `slots` rows");
        for (s, tx) in task_txs.iter().enumerate() {
            tx.send(Task {
                round,
                due: std::mem::take(&mut row[s]),
                skeleton: std::mem::take(&mut skeletons[s]),
            })
            .expect("shard worker exited early");
        }
        buckets.push_back(row);

        // Collect in shard order and splice: shard s's bucket for
        // (slot, dest) is appended after shards 0..s's, so each
        // lane's concatenation equals the sequential emission
        // order (module docs, invariant 3).
        let mut merged: Option<RoundObs> = None;
        for (s, rx) in result_rxs.iter().enumerate() {
            let mut out = rx.recv().expect("shard worker panicked");
            stats.absorb(&out.tally);
            // Shard-order merge of the streaming partials: RoundObs
            // merge is commutative-associative, so this equals the
            // sequential executor's single whole-slice fold.
            if let Some(obs) = out.obs.take() {
                match &mut merged {
                    None => merged = Some(obs),
                    Some(m) => m.merge(&obs),
                }
            }
            for (slot, lanes) in out.routed.iter_mut().enumerate() {
                let row = &mut buckets[slot];
                for (dest, seg) in lanes.iter_mut().enumerate() {
                    if !seg.is_empty() {
                        row[dest].push(std::mem::take(seg));
                    }
                }
            }
            // The hollowed structure goes back to shard s as the
            // next round's skeleton.
            skeletons[s] = out.routed;
        }

        // SAFETY: every worker has delivered its result and is
        // parked on `recv`; the channel handshakes order those
        // accesses before these views (module safety model).
        let proto_mut: &mut P = unsafe { &mut *proto_ptr };
        let verdict = match &merged {
            // Streaming path: the verdict comes from the merged
            // per-shard partials — the coordinator never touches the
            // node slice, so between-round work is O(shards), not O(n).
            Some(obs) => {
                digests.push(proto_mut.digest_obs(obs, round));
                proto_mut.finalize_obs(obs, round)
            }
            None => {
                // Legacy path: whole-slice scan on the coordinator.
                // SAFETY: same parked-worker window as the `proto_ptr`
                // view above — every worker is blocked on `recv`, so no
                // shard write aliases this read of the node slice.
                let nodes_view: &[P::Node] = unsafe { std::slice::from_raw_parts(nodes_ptr, n) };
                digests.push(proto_mut.digest(nodes_view, round));
                proto_mut.finalize(nodes_view, round)
            }
        };
        if let Verdict::Halt(output) = verdict {
            // SAFETY: same parked-worker window as above.
            let nodes_view: &[P::Node] = unsafe { std::slice::from_raw_parts(nodes_ptr, n) };
            return RunReport {
                rounds: round + 1,
                time: TimeAxis::Rounds(round + 1),
                completed: true,
                output: Some(output),
                digests,
                stats,
                node_bytes: tally_node_bytes(unsafe { &*proto_ptr }, nodes_view),
            };
        }
    }

    // SAFETY: the round loop has fully drained; every worker is parked
    // on `recv` (same window as the between-round views above).
    let nodes_view: &[P::Node] = unsafe { std::slice::from_raw_parts(nodes_ptr, n) };
    RunReport {
        rounds: cfg.max_rounds,
        time: TimeAxis::Rounds(cfg.max_rounds),
        completed: false,
        output: None,
        digests,
        stats,
        node_bytes: tally_node_bytes(unsafe { &*proto_ptr }, nodes_view),
    }
    // Returning drops the task senders; workers see the hangup, drain
    // out, and are joined by the enclosing scope/pool construct before
    // the state vectors drop.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_run_matches_scoped_run_bit_for_bit() {
        use super::super::testproto::RandomPing;
        use crate::report::RunConfig;

        let run_scoped = |shards: usize| {
            let mut p = RandomPing {
                n: 193,
                target_total: 5 * 193,
            };
            ShardedExecutor::new(shards).run(&mut p, 193, &RunConfig::seeded(7).max_rounds(100))
        };
        let reference = run_scoped(3);
        let pool = WorkerPool::new(3);
        // Back-to-back pooled runs on ONE pool: same parked threads, and
        // every report identical to the freshly-spawned-threads one.
        for _ in 0..3 {
            let mut p = RandomPing {
                n: 193,
                target_total: 5 * 193,
            };
            let pooled = ShardedExecutor::new(3).run_in(
                &pool,
                &mut p,
                193,
                &RunConfig::seeded(7).max_rounds(100),
            );
            assert_eq!(reference.digests, pooled.digests);
            assert_eq!(reference.stats, pooled.stats);
            assert_eq!(reference.output, pooled.output);
        }
    }

    #[test]
    fn pooled_run_caps_shards_at_pool_size() {
        use super::super::testproto::RandomPing;
        use crate::report::RunConfig;

        // 8 requested shards on a 2-thread pool must not deadlock, and
        // by the determinism contract the report is unchanged.
        let pool = WorkerPool::new(2);
        let mut p = RandomPing {
            n: 50,
            target_total: 100,
        };
        let pooled =
            ShardedExecutor::new(8).run_in(&pool, &mut p, 50, &RunConfig::seeded(3).max_rounds(60));
        let mut p = RandomPing {
            n: 50,
            target_total: 100,
        };
        let scoped = ShardedExecutor::new(8).run(&mut p, 50, &RunConfig::seeded(3).max_rounds(60));
        assert_eq!(scoped.digests, pooled.digests);
        assert_eq!(scoped.stats, pooled.stats);
    }

    #[test]
    fn recycle_pool_is_bounded() {
        let mut pool: Vec<EnvBatch<u32>> = Vec::new();
        for _ in 0..(POOL_CAP + 10) {
            let mut b = EnvBatch::new();
            b.push(NodeId(0), 0, NodeId(0), 1); // give it capacity
            recycle(&mut pool, b);
        }
        assert_eq!(pool.len(), POOL_CAP);
        assert!(pool.iter().all(EnvBatch::is_empty), "recycled cleared");
        // Zero-capacity batches are not worth pooling.
        recycle(&mut pool, EnvBatch::new());
        assert_eq!(pool.len(), POOL_CAP);
    }
}
