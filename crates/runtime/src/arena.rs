//! Shard-owned arena storage for per-node inbox scratch.
//!
//! Before this module every stash-and-drain protocol (the dating
//! service's offer/request inboxes, the fair spreaders' request queues)
//! kept a heap `Vec` **per node** — at `n = 10⁷` that is tens of
//! millions of small allocations and a pointer chase per delivery. A
//! [`NodeArena`] replaces them with two flat, shard-owned buffers plus
//! per-node ranges:
//!
//! * **flat storage** — all stashed entries of a shard's nodes live in
//!   one contiguous `Vec<NodeId>` per lane, appended in delivery order;
//! * **per-node ranges** — node `i`'s entries are `data[start..start+len]`,
//!   tracked by a small `(start, len, epoch)` record;
//! * **reset per round** — [`begin_round`](NodeArena::begin_round) bumps
//!   an epoch counter and truncates the flat buffers; ranges stamped
//!   with an older epoch simply read as empty. No per-node clearing
//!   loop, no freeing — steady-state rounds allocate nothing;
//! * **first-touch on a worker** — an arena is part of its shard and
//!   allocates nothing until the first stash, so the backing pages are
//!   faulted in by the thread that runs the shard's first round, not by
//!   the coordinator that built it.
//!
//! # Contiguity
//!
//! Per-node ranges only work if a node's entries are consecutive in the
//! flat buffer. Deliveries are processed in `(dst, src, seq)` order, so
//! stashes from [`Outbox::stash`](crate::Outbox::stash) during the
//! delivery phase are naturally contiguous per destination. If a
//! protocol stashes for the same node from two different phases of one
//! round, the arena relocates the node's existing entries to the tail
//! before appending — correctness never depends on the access pattern,
//! only performance does.
//!
//! # Round-scratch semantics
//!
//! Stashed entries **do not survive the round boundary**: whatever a
//! node has not consumed by the end of its `on_round_end` hook is gone
//! next round. This is exactly the lifetime the phase-cycle adapters
//! need (inboxes fill during the delivery phase and drain at round end
//! of the same engine round). Under latency distributions that displace
//! a control message off its phase, the message is counted as delivered
//! but its stash entry expires unread — deterministically, on every
//! executor.
//!
//! lint: deterministic

use rand::rngs::SmallRng;
use rendez_core::matching::partial_shuffle;
use rendez_sim::NodeId;

/// Stash lane for dating-style *offer* inboxes.
pub const STASH_OFFERS: usize = 0;
/// Stash lane for dating-style *request* inboxes.
pub const STASH_REQUESTS: usize = 1;
/// Number of stash lanes an arena carries.
pub const STASH_LANES: usize = 2;
// The dating adapters compute a message's lane as "offers, plus one if
// it is a request".
const _: () = assert!(STASH_REQUESTS == STASH_OFFERS + 1);

/// One node's slice of a lane's flat buffer, valid for one epoch.
#[derive(Debug, Clone, Copy, Default)]
struct Range {
    start: u32,
    len: u32,
    epoch: u32,
}

/// One lane: a flat entry buffer plus per-node ranges. The `ranges`
/// vector is allocated lazily on first stash, so protocols that never
/// stash into a lane pay nothing for it.
#[derive(Debug, Default)]
struct Lane {
    data: Vec<NodeId>,
    ranges: Vec<Range>,
}

/// Arena-backed inbox scratch for one executor shard (nodes
/// `base..base + len`). See the [module docs](self) for layout,
/// lifetime, and contiguity rules.
#[derive(Debug)]
pub struct NodeArena {
    base: usize,
    len: usize,
    epoch: u32,
    lanes: [Lane; STASH_LANES],
}

impl NodeArena {
    /// Arena for nodes `base..base + len`. Allocation-free: the lanes
    /// are sized on first stash.
    pub fn new(base: usize, len: usize) -> Self {
        Self {
            base,
            len,
            epoch: 0,
            lanes: [Lane::default(), Lane::default()],
        }
    }

    /// Start a new round: all stashed entries of the previous round
    /// expire (epoch bump + O(1) buffer truncation — no per-node loop).
    pub fn begin_round(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        for lane in &mut self.lanes {
            lane.data.clear();
        }
    }

    fn off(&self, id: NodeId) -> usize {
        let off = id.index() - self.base;
        debug_assert!(off < self.len, "node {id} outside arena shard");
        off
    }

    /// Append `v` to `id`'s stash in `lane`.
    pub fn push(&mut self, id: NodeId, lane: usize, v: NodeId) {
        let off = self.off(id);
        let epoch = self.epoch;
        let lane = &mut self.lanes[lane];
        if lane.ranges.is_empty() {
            lane.ranges = vec![Range::default(); self.len];
        }
        let r = &mut lane.ranges[off];
        if r.epoch != epoch {
            *r = Range {
                start: lane.data.len() as u32,
                len: 0,
                epoch,
            };
        } else if (r.start + r.len) as usize != lane.data.len() {
            // Entries from an earlier phase of this round are no longer
            // at the tail: relocate them so the range stays contiguous.
            let (s, l) = (r.start as usize, r.len as usize);
            r.start = lane.data.len() as u32;
            lane.data.extend_from_within(s..s + l);
        }
        lane.data.push(v);
        r.len += 1;
    }

    /// Number of entries stashed for `id` in `lane` this round.
    pub fn len_of(&self, id: NodeId, lane: usize) -> usize {
        let off = self.off(id);
        let lane = &self.lanes[lane];
        match lane.ranges.get(off) {
            Some(r) if r.epoch == self.epoch => r.len as usize,
            _ => 0,
        }
    }

    /// `id`'s `j`-th stashed entry in `lane` (arrival order, possibly
    /// permuted by [`shuffle`](Self::shuffle)).
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn get(&self, id: NodeId, lane: usize, j: usize) -> NodeId {
        self.slice(id, lane)[j]
    }

    /// `id`'s stashed entries in `lane`, in arrival order.
    pub fn slice(&self, id: NodeId, lane: usize) -> &[NodeId] {
        let off = self.off(id);
        let lane = &self.lanes[lane];
        match lane.ranges.get(off) {
            Some(r) if r.epoch == self.epoch => {
                &lane.data[r.start as usize..(r.start + r.len) as usize]
            }
            _ => &[],
        }
    }

    /// `id`'s stashed entries in every lane at once, mutable — what a
    /// matchmaker shuffles and pairs in place (same entries, same order
    /// as [`slice`](Self::slice); a lane never stashed into reads empty).
    pub(crate) fn slices_mut(&mut self, id: NodeId) -> [&mut [NodeId]; STASH_LANES] {
        let (off, epoch) = (self.off(id), self.epoch);
        self.lanes
            .each_mut()
            .map(|lane| match lane.ranges.get(off) {
                Some(r) if r.epoch == epoch => {
                    &mut lane.data[r.start as usize..(r.start + r.len) as usize]
                }
                _ => &mut [],
            })
    }

    /// Partial Fisher–Yates over `id`'s stash in `lane`: afterwards the
    /// first `q` entries are a uniform random `q`-subset in uniform
    /// random order — same draws, in the same order, as
    /// [`partial_shuffle`] on an equivalent `Vec`, so distribution pins
    /// against the legacy per-node-`Vec` adapters carry over exactly.
    ///
    /// # Panics
    /// Panics if `q` exceeds the stash length.
    pub fn shuffle(&mut self, id: NodeId, lane: usize, q: usize, rng: &mut SmallRng) {
        let off = self.off(id);
        let epoch = self.epoch;
        let lane = &mut self.lanes[lane];
        match lane.ranges.get(off) {
            Some(r) if r.epoch == epoch => {
                let (s, l) = (r.start as usize, r.len as usize);
                partial_shuffle(&mut lane.data[s..s + l], q, rng);
            }
            _ => assert!(q == 0, "cannot choose {q} of 0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ids(arena: &NodeArena, node: u32, lane: usize) -> Vec<u32> {
        arena
            .slice(NodeId(node), lane)
            .iter()
            .map(|v| v.0)
            .collect()
    }

    #[test]
    fn stash_rounds_are_isolated() {
        let mut a = NodeArena::new(0, 4);
        a.begin_round();
        a.push(NodeId(1), STASH_OFFERS, NodeId(9));
        a.push(NodeId(1), STASH_OFFERS, NodeId(8));
        a.push(NodeId(2), STASH_OFFERS, NodeId(7));
        assert_eq!(ids(&a, 1, STASH_OFFERS), vec![9, 8]);
        assert_eq!(ids(&a, 2, STASH_OFFERS), vec![7]);
        assert_eq!(a.len_of(NodeId(0), STASH_OFFERS), 0);
        // Next round: everything expires without any per-node clearing.
        a.begin_round();
        assert_eq!(a.len_of(NodeId(1), STASH_OFFERS), 0);
        assert!(a.slice(NodeId(2), STASH_OFFERS).is_empty());
    }

    #[test]
    fn lanes_are_independent_and_lazy() {
        let mut a = NodeArena::new(0, 3);
        a.begin_round();
        a.push(NodeId(0), STASH_REQUESTS, NodeId(2));
        // Offers lane never stashed: its ranges vector stays empty.
        assert_eq!(a.len_of(NodeId(0), STASH_OFFERS), 0);
        assert_eq!(ids(&a, 0, STASH_REQUESTS), vec![2]);
        assert!(a.lanes[STASH_OFFERS].ranges.is_empty());
    }

    #[test]
    fn interleaved_pushes_relocate_to_stay_contiguous() {
        let mut a = NodeArena::new(0, 3);
        a.begin_round();
        a.push(NodeId(0), STASH_OFFERS, NodeId(10));
        a.push(NodeId(1), STASH_OFFERS, NodeId(11));
        // Node 0 stashes again after node 1 started: its first entry
        // must be relocated so the range stays contiguous.
        a.push(NodeId(0), STASH_OFFERS, NodeId(12));
        assert_eq!(ids(&a, 0, STASH_OFFERS), vec![10, 12]);
        assert_eq!(ids(&a, 1, STASH_OFFERS), vec![11]);
    }

    #[test]
    fn sharded_base_offsets_map_correctly() {
        let mut a = NodeArena::new(100, 5);
        a.begin_round();
        a.push(NodeId(103), STASH_REQUESTS, NodeId(1));
        assert_eq!(a.len_of(NodeId(103), STASH_REQUESTS), 1);
        assert_eq!(a.get(NodeId(103), STASH_REQUESTS, 0), NodeId(1));
    }

    #[test]
    fn shuffle_matches_vec_partial_shuffle() {
        let entries: Vec<u32> = (0..7).map(|i| 50 + i).collect();
        let mut arena = NodeArena::new(0, 2);
        arena.begin_round();
        for &e in &entries {
            arena.push(NodeId(1), STASH_OFFERS, NodeId(e));
        }
        let mut vec: Vec<NodeId> = entries.iter().map(|&e| NodeId(e)).collect();
        let mut r1 = SmallRng::seed_from_u64(77);
        let mut r2 = SmallRng::seed_from_u64(77);
        arena.shuffle(NodeId(1), STASH_OFFERS, 4, &mut r1);
        partial_shuffle(&mut vec, 4, &mut r2);
        assert_eq!(
            arena.slice(NodeId(1), STASH_OFFERS),
            &vec[..],
            "arena shuffle must consume the RNG exactly like the Vec path"
        );
    }

    #[test]
    fn empty_shuffle_is_a_no_op() {
        let mut a = NodeArena::new(0, 1);
        a.begin_round();
        let mut rng = SmallRng::seed_from_u64(1);
        a.shuffle(NodeId(0), STASH_OFFERS, 0, &mut rng);
        assert_eq!(a.len_of(NodeId(0), STASH_OFFERS), 0);
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn oversized_shuffle_panics() {
        let mut a = NodeArena::new(0, 1);
        a.begin_round();
        let mut rng = SmallRng::seed_from_u64(1);
        a.shuffle(NodeId(0), STASH_OFFERS, 1, &mut rng);
    }
}
