//! Property tests: [`EnvBatch`] keeps the pushed `(src, dst, msg)`
//! stream bit-identically and in send order (invariant 1 in
//! `rendez_runtime::batch`) under random emission patterns, sources that
//! never emit, and emission spliced across multiple batches with
//! carried-over seq counters — and `order_deliveries` turns any list of
//! src-ascending segments (batch invariant 3) into the `(dst, src, seq)`
//! order a sort would give.

use proptest::prelude::*;
use rendez_runtime::batch::{order_deliveries, DeliverScratch};
use rendez_runtime::EnvBatch;
use rendez_sim::NodeId;

const SRCS: u32 = 8;
const DSTS: u32 = 16;

/// One pushed message: `(src, seq, dst, msg)`.
type Sent = (NodeId, u64, NodeId, u8);

/// One message as [`EnvBatch::iter`] yields it: `(src, dst, msg)`.
type Kept = (NodeId, NodeId, u8);

/// Replay `events` through Outbox-style emission: per-source contiguous
/// seq counters, arbitrary interleaving across sources. Returns the batch
/// and the stream that was pushed into it.
fn emit(events: &[(u32, u32, u8)], seqs: &mut [u64]) -> (EnvBatch<u8>, Vec<Sent>) {
    let mut batch = EnvBatch::new();
    let mut sent = Vec::new();
    for &(src, dst, msg) in events {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let seq = seqs[src.index()];
        seqs[src.index()] += 1;
        batch.push(src, seq, dst, msg);
        sent.push((src, seq, dst, msg));
    }
    (batch, sent)
}

/// The batch's stream, read back through [`EnvBatch::iter`].
fn stream(batch: &EnvBatch<u8>) -> Vec<Kept> {
    batch
        .iter()
        .map(|(src, dst, &msg)| (src, dst, msg))
        .collect()
}

/// What a batch keeps of a pushed stream: everything but `seq`.
fn kept(sent: &[Sent]) -> Vec<Kept> {
    sent.iter()
        .map(|&(src, _, dst, msg)| (src, dst, msg))
        .collect()
}

/// The memory-plane claim in EXPERIMENTS.md, pinned: a batched message
/// costs `4 (dst) + 4 (src) + size_of::<M>()` bytes — three flat arrays,
/// one sender word per message, no run header and no `seq`.
#[test]
fn batch_layout_is_compact() {
    use rendez_runtime::adapters::{DatingSpreadMsg, GossipMsg};
    use std::mem::{size_of, size_of_val};
    assert_eq!(size_of::<NodeId>(), 4);
    assert_eq!(
        size_of::<EnvBatch<u8>>(),
        3 * size_of::<Vec<u8>>() + size_of::<usize>(),
        "three arrays, the ascending flag and the last sender"
    );
    let (batch, sent) = emit(&[(1, 2, 3), (1, 4, 5), (0, 6, 7)], &mut [0; 2]);
    assert_eq!(size_of_val(batch.runs()), sent.len() * size_of::<NodeId>());
    // The dating workloads' message enum (tag + 4-byte `Partner`, one
    // word): 16 bytes batched per message.
    assert_eq!(size_of::<DatingSpreadMsg>(), 8);
    // Unit-variant gossip messages: 9 bytes batched.
    assert_eq!(size_of::<GossipMsg>(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random emission (most sources silent in short streams): iteration
    /// order, senders, destinations and payloads are bit-identical to the
    /// pushed stream, and every message carries its sender.
    #[test]
    fn batch_round_trips_random_emission(
        events in prop::collection::vec((0u32..SRCS, 0u32..DSTS, any::<u8>()), 0..200),
    ) {
        let mut seqs = vec![0u64; SRCS as usize];
        let (batch, sent) = emit(&events, &mut seqs);
        prop_assert_eq!(batch.len(), sent.len());
        prop_assert_eq!(batch.is_empty(), sent.is_empty());
        prop_assert_eq!(stream(&batch), kept(&sent));
        prop_assert_eq!(batch.runs().len(), sent.len());
        // `for_each_run` covers every message once, in maximal
        // one-sender stretches.
        let mut runs = Vec::new();
        batch.for_each_run(|run, _, _| runs.push(*run));
        prop_assert!(runs.windows(2).all(|w| w[0].src != w[1].src));
        let total: u64 = runs.iter().map(|r| u64::from(r.len)).sum();
        prop_assert_eq!(total, sent.len() as u64);
    }

    /// Multi-run splices: emission split across several batches (rounds),
    /// with per-source seq counters carrying over, concatenates to exactly
    /// the single-stream emission — the property the executors rely on
    /// when a latency slot accumulates segments from several send rounds.
    #[test]
    fn spliced_batches_concatenate_exactly(
        rounds in prop::collection::vec(
            prop::collection::vec((0u32..SRCS, 0u32..DSTS, any::<u8>()), 0..40),
            0..6,
        ),
    ) {
        let mut seqs = vec![0u64; SRCS as usize];
        let mut spliced = Vec::new();
        let mut whole = Vec::new();
        for events in &rounds {
            let (batch, sent) = emit(events, &mut seqs);
            spliced.extend(stream(&batch));
            whole.extend(kept(&sent));
        }
        prop_assert_eq!(spliced, whole);
    }

    /// The sort-free delivery kernel against the reference sort: 1–8
    /// segments (send rounds), each src-ascending with carried-over seq
    /// counters, senders repeating across segments, some segments empty,
    /// each round cut into two contiguous "shard" segments at `cut`,
    /// destinations in a window that starts at `base > 0`. The scratch is
    /// reused across two calls, as the executors do.
    #[test]
    fn order_deliveries_matches_reference_sort(
        rounds in prop::collection::vec(
            prop::collection::vec((0u32..SRCS, 0u32..DSTS, any::<u8>()), 0..30),
            1..9,
        ),
        base in 0u32..1000,
        cut in 0usize..30,
    ) {
        let mut seqs = vec![0u64; SRCS as usize];
        let mut ds = DeliverScratch::default();
        for _ in 0..2 {
            let mut segments = Vec::new();
            let mut expect = Vec::new();
            for events in &rounds {
                // One send round: every sender's burst, senders ascending
                // (what a single-phase round files into a slot row).
                let mut events: Vec<_> =
                    events.iter().map(|&(s, d, m)| (s, d + base, m)).collect();
                events.sort_by_key(|&(src, _, _)| src);
                let (lo, hi) = events.split_at(cut.min(events.len()));
                for shard in [lo, hi] {
                    let (batch, sent) = emit(shard, &mut seqs);
                    segments.push(batch);
                    expect.extend(sent);
                }
            }
            expect.sort_by_key(|&(src, seq, dst, _)| (dst, src, seq));

            let total = order_deliveries(&mut segments, base as usize, DSTS as usize, &mut ds);
            prop_assert_eq!(total, expect.len());
            prop_assert!(segments.iter().all(EnvBatch::is_empty), "segments drained");
            let got: Vec<_> = ds.srcs.iter().copied().zip(ds.msgs.iter().copied()).collect();
            let want: Vec<_> = expect.iter().map(|&(src, _, _, msg)| (src, msg)).collect();
            prop_assert_eq!(got, want);
            if total > 0 {
                for (k, w) in ds.starts.windows(2).enumerate() {
                    let group = &expect[w[0] as usize..w[1] as usize];
                    prop_assert!(group.iter().all(|e| e.2 == NodeId(base + k as u32)));
                }
            }
        }
    }
}
