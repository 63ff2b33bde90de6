//! Property tests: [`EnvBatch`] round-trips the legacy [`Envelope`]
//! stream bit-identically (invariant 1 in `rendez_runtime::batch`) under
//! random emission patterns, sources that never emit, and emission
//! spliced across multiple batches with carried-over seq counters — and
//! `order_deliveries` turns any list of src-ascending segments (batch
//! invariant 3) into the `(dst, src, seq)` order a sort would give.

use proptest::prelude::*;
use rendez_runtime::batch::{order_deliveries, DeliverScratch};
use rendez_runtime::{EnvBatch, Envelope};
use rendez_sim::NodeId;

const SRCS: u32 = 8;
const DSTS: u32 = 16;

/// Replay `events` through Outbox-style emission: per-source contiguous
/// seq counters, arbitrary interleaving across sources.
fn emit(events: &[(u32, u32, u8)], seqs: &mut [u64]) -> (EnvBatch<u8>, Vec<Envelope<u8>>) {
    let mut batch = EnvBatch::new();
    let mut legacy = Vec::new();
    for &(src, dst, msg) in events {
        let (src, dst) = (NodeId(src), NodeId(dst));
        let seq = seqs[src.index()];
        seqs[src.index()] += 1;
        batch.push(src, seq, dst, msg);
        legacy.push(Envelope { src, dst, seq, msg });
    }
    (batch, legacy)
}

/// The memory-plane claim in EXPERIMENTS.md, pinned: a batched message
/// costs `4 + size_of::<M>()` bytes plus one 16-byte run header
/// amortized over its burst, where the AoS `Envelope` record pays
/// another 16 bytes of per-message `src`/`seq` (plus padding).
#[test]
fn batch_layout_is_compact() {
    use rendez_runtime::adapters::{DatingSpreadMsg, GossipMsg};
    use rendez_runtime::SrcRun;
    assert_eq!(std::mem::size_of::<SrcRun>(), 16);
    // The dating workloads' message enum (tag + 4-byte `Partner`, one
    // word): 24-byte envelope vs 12 bytes batched per message.
    assert_eq!(std::mem::size_of::<DatingSpreadMsg>(), 8);
    assert_eq!(std::mem::size_of::<Envelope<DatingSpreadMsg>>(), 24);
    // Unit-variant gossip messages: 24-byte envelope (padding-bound)
    // vs 5 bytes batched.
    assert_eq!(std::mem::size_of::<GossipMsg>(), 1);
    assert_eq!(std::mem::size_of::<Envelope<GossipMsg>>(), 24);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random emission (most sources silent in short streams): iteration
    /// order, reconstructed seqs, and envelope conversion are all
    /// bit-identical to the legacy stream.
    #[test]
    fn batch_round_trips_random_emission(
        events in prop::collection::vec((0u32..SRCS, 0u32..DSTS, any::<u8>()), 0..200),
    ) {
        let mut seqs = vec![0u64; SRCS as usize];
        let (batch, legacy) = emit(&events, &mut seqs);
        prop_assert_eq!(batch.len(), legacy.len());
        prop_assert_eq!(batch.is_empty(), legacy.is_empty());
        let items: Vec<_> = batch.iter().map(|(s, q, d, m)| (s, q, d, *m)).collect();
        let want: Vec<_> = legacy.iter().map(|e| (e.src, e.seq, e.dst, e.msg)).collect();
        prop_assert_eq!(items, want);
        prop_assert_eq!(batch.to_envelopes(), legacy.clone());
        // Run headers account for every message exactly once.
        let total: u64 = batch.runs().iter().map(|r| u64::from(r.len)).sum();
        prop_assert_eq!(total, legacy.len() as u64);
    }

    /// `from_envelopes` is a right inverse of `to_envelopes` and re-splits
    /// the stream into maximal seq-contiguous runs: a new run starts only
    /// on a source change or a seq discontinuity.
    #[test]
    fn from_envelopes_round_trips(
        events in prop::collection::vec((0u32..SRCS, 0u32..DSTS, any::<u8>()), 0..200),
    ) {
        let mut seqs = vec![0u64; SRCS as usize];
        let (_, legacy) = emit(&events, &mut seqs);
        let batch = EnvBatch::from_envelopes(&legacy);
        prop_assert_eq!(batch.to_envelopes(), legacy.clone());
        let mut boundaries = 0usize;
        let mut prev: Option<&Envelope<u8>> = None;
        for e in &legacy {
            if !prev.is_some_and(|p| p.src == e.src && p.seq + 1 == e.seq) {
                boundaries += 1;
            }
            prev = Some(e);
        }
        prop_assert_eq!(batch.runs().len(), boundaries);
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
            let (batch, legacy) = emit(events, &mut seqs);
            spliced.extend(batch.to_envelopes());
            whole.extend(legacy);
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
                    let (batch, legacy) = emit(shard, &mut seqs);
                    segments.push(batch);
                    expect.extend(legacy);
                }
            }
            expect.sort_by_key(|e| (e.dst, e.src, e.seq));

            let total = order_deliveries(&mut segments, base as usize, DSTS as usize, &mut ds);
            prop_assert_eq!(total, expect.len());
            prop_assert!(segments.iter().all(EnvBatch::is_empty), "segments drained");
            let got: Vec<_> = ds.srcs.iter().copied().zip(ds.msgs.iter().copied()).collect();
            let want: Vec<_> = expect.iter().map(|e| (e.src, e.msg)).collect();
            prop_assert_eq!(got, want);
            if total > 0 {
                for (k, w) in ds.starts.windows(2).enumerate() {
                    let group = &expect[w[0] as usize..w[1] as usize];
                    prop_assert!(group.iter().all(|e| e.dst == NodeId(base + k as u32)));
                }
            }
        }
    }
}
