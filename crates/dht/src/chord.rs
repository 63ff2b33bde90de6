//! Chord-style finger routing over the ring.
//!
//! §4 notes that "routing in DHTs takes time Θ(log n) or close and since
//! we use it in each round, it would mean that each round takes such
//! time" — the observation that motivates the paper's pipelining remark.
//! This module supplies the routing substrate those hop counts come from:
//! classic Chord fingers (`finger[k] = successor(pos + 2ᵏ)`) with greedy
//! closest-preceding routing toward the *owner* (predecessor-style, per
//! the paper's arc ownership) of a key.
//!
//! Joins keep successors exact and compute the joining node's fingers
//! eagerly; other nodes' fingers refresh lazily via
//! [`ChordNet::fix_fingers_round`] (Chord's correctness-with-stale-fingers
//! property: routing stays correct, only slower, while fingers heal).

use crate::ring::Ring;
use rendez_sim::NodeId;

/// Number of finger entries (the full `u64` keyspace).
pub const FINGER_BITS: usize = 64;

/// Outcome of one routed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteResult {
    /// The node owning the key.
    pub owner: NodeId,
    /// Overlay hops taken from the source to the owner.
    pub hops: u32,
}

/// A Chord-style network over a [`Ring`].
#[derive(Debug, Clone)]
pub struct ChordNet {
    ring: Ring,
    /// `fingers[id][k]` = node id of `successor(pos(id) + 2^k)`.
    fingers: Vec<Vec<u32>>,
    /// Next finger index each node will refresh (for lazy repair).
    fix_cursor: Vec<u8>,
}

impl ChordNet {
    /// Build the network with exact fingers for every node.
    pub fn build(ring: Ring) -> Self {
        let n_ids = ring
            .ids_in_ring_order()
            .iter()
            .map(|id| id.index())
            .max()
            .expect("ring non-empty")
            + 1;
        let mut fingers = vec![Vec::new(); n_ids];
        for &id in ring.ids_in_ring_order() {
            fingers[id.index()] = Self::exact_fingers(&ring, id);
        }
        Self {
            ring,
            fingers,
            fix_cursor: vec![0; n_ids],
        }
    }

    fn exact_fingers(ring: &Ring, id: NodeId) -> Vec<u32> {
        let p = ring.position(id);
        (0..FINGER_BITS)
            .map(|k| ring.successor_of_key(p.wrapping_add(1u64 << k)).0)
            .collect()
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// Route from `from` to the owner of `key`, greedily moving to the
    /// closest preceding finger; falls back to the successor, which always
    /// makes progress, so lookups succeed even with stale fingers.
    ///
    /// # Panics
    /// Panics if routing exceeds an internal hop guard (would indicate a
    /// broken ring invariant, not a stale finger).
    pub fn route(&self, from: NodeId, key: u64) -> RouteResult {
        let owner = self.ring.owner(key);
        let mut cur = from;
        let mut hops = 0u32;
        let guard = 4 * FINGER_BITS as u32 + self.n() as u32;
        while cur != owner {
            let next = self.closest_preceding(cur, key);
            debug_assert_ne!(next, cur, "routing stalled at {cur}");
            cur = next;
            hops += 1;
            assert!(
                hops <= guard,
                "routing from {from} to key {key} exceeded {guard} hops"
            );
        }
        RouteResult { owner, hops }
    }

    /// Among `cur`'s fingers (and successor), the node whose position is
    /// furthest along the arc `(pos(cur), key]` — i.e. the best next hop
    /// toward the owner of `key`.
    pub(crate) fn closest_preceding(&self, cur: NodeId, key: u64) -> NodeId {
        let p = self.ring.position(cur);
        let target_dist = Ring::cw_distance(p, key);
        let mut best: Option<(u64, NodeId)> = None;
        for &fid in &self.fingers[cur.index()] {
            let f = NodeId(fid);
            if f == cur {
                continue;
            }
            let d = Ring::cw_distance(p, self.ring.position(f));
            if d > 0 && d <= target_dist && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, f));
            }
        }
        match best {
            Some((_, f)) => f,
            // If the key is not the current node's responsibility and no
            // finger precedes it, the immediate successor must (its
            // distance is minimal positive).
            None => self.ring.successor(cur),
        }
    }

    /// Mean and max hops over `samples` random lookups (seeded), from
    /// random sources to random keys.
    pub fn lookup_hops(&self, samples: usize, seed: u64) -> (f64, u32) {
        use rendez_sim::rng::SplitMix64;
        let mut h = SplitMix64::new(seed);
        let ids = self.ring.ids_in_ring_order();
        let mut total = 0u64;
        let mut max = 0u32;
        for _ in 0..samples {
            let src = ids[(h.next_u64() % ids.len() as u64) as usize];
            let key = h.next_u64();
            let r = self.route(src, key);
            total += r.hops as u64;
            max = max.max(r.hops);
        }
        (total as f64 / samples as f64, max)
    }

    /// A node joins at `position`: successors become exact immediately
    /// (the ring is re-derived), the joining node computes its fingers
    /// eagerly, and everyone else keeps possibly-stale fingers until
    /// [`Self::fix_fingers_round`] refreshes them.
    pub fn join(&mut self, id: NodeId, position: u64) {
        self.ring = self.ring.with_node(id, position);
        if self.fingers.len() <= id.index() {
            self.fingers.resize(id.index() + 1, Vec::new());
            self.fix_cursor.resize(id.index() + 1, 0);
        }
        self.fingers[id.index()] = Self::exact_fingers(&self.ring, id);
    }

    /// A node leaves: fingers pointing at it are redirected to its
    /// successor (the live node now owning its arc).
    pub fn leave(&mut self, id: NodeId) {
        let heir = self.ring.successor(id);
        self.ring = self.ring.without_node(id);
        let gone = id.0;
        for &v in self.ring.ids_in_ring_order() {
            for f in &mut self.fingers[v.index()] {
                if *f == gone {
                    *f = heir.0;
                }
            }
        }
        self.fingers[id.index()].clear();
    }

    /// One maintenance round: every node refreshes one finger entry
    /// (cycling through indices). Chord's `fix_fingers`.
    pub fn fix_fingers_round(&mut self) {
        let ids: Vec<NodeId> = self.ring.ids_in_ring_order().to_vec();
        for id in ids {
            let k = self.fix_cursor[id.index()] as usize % FINGER_BITS;
            let p = self.ring.position(id);
            let f = self.ring.successor_of_key(p.wrapping_add(1u64 << k));
            self.fingers[id.index()][k] = f.0;
            self.fix_cursor[id.index()] = ((k + 1) % FINGER_BITS) as u8;
        }
    }

    /// Recompute every finger exactly (full stabilization).
    pub fn stabilize_all(&mut self) {
        for &id in self.ring.ids_in_ring_order() {
            self.fingers[id.index()] = Self::exact_fingers(&self.ring, id);
        }
    }

    /// Fraction of finger entries that differ from the exact table — a
    /// staleness gauge for churn experiments.
    pub fn finger_staleness(&self) -> f64 {
        let mut stale = 0usize;
        let mut total = 0usize;
        for &id in self.ring.ids_in_ring_order() {
            let exact = Self::exact_fingers(&self.ring, id);
            for (have, want) in self.fingers[id.index()].iter().zip(exact.iter()) {
                total += 1;
                if have != want {
                    stale += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            stale as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendez_sim::rng::SplitMix64;

    fn net(n: usize, seed: u64) -> ChordNet {
        ChordNet::build(Ring::random(n, seed))
    }

    #[test]
    fn routing_reaches_owner_from_everywhere() {
        let c = net(64, 1);
        let mut h = SplitMix64::new(2);
        for _ in 0..300 {
            let key = h.next_u64();
            let src = NodeId((h.next_u64() % 64) as u32);
            let r = c.route(src, key);
            assert_eq!(r.owner, c.ring().owner(key));
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        for n in [100usize, 1000] {
            let c = net(n, 3);
            let (mean, max) = c.lookup_hops(500, 4);
            let log2n = (n as f64).log2();
            assert!(
                mean <= log2n + 1.0,
                "n={n}: mean hops {mean} vs log2 n {log2n}"
            );
            assert!(
                (max as f64) <= 3.0 * log2n,
                "n={n}: max hops {max} vs 3·log2 n"
            );
        }
    }

    #[test]
    fn self_lookup_is_free() {
        let c = net(32, 5);
        for &id in c.ring().ids_in_ring_order() {
            let key = c.ring().position(id);
            let r = c.route(id, key);
            assert_eq!(r.owner, id);
            assert_eq!(r.hops, 0);
        }
    }

    #[test]
    fn join_keeps_routing_correct_before_stabilization() {
        let mut c = net(40, 6);
        c.join(NodeId(40), 0x8000_0000_0000_0001);
        let mut h = SplitMix64::new(7);
        for _ in 0..200 {
            let key = h.next_u64();
            let src = NodeId((h.next_u64() % 41) as u32);
            let r = c.route(src, key);
            assert_eq!(r.owner, c.ring().owner(key));
        }
        assert!(
            c.finger_staleness() > 0.0,
            "join should leave stale fingers"
        );
    }

    #[test]
    fn fix_fingers_heals_staleness() {
        let mut c = net(30, 8);
        c.join(NodeId(30), 0x4000_0000_0000_0003);
        let before = c.finger_staleness();
        for _ in 0..FINGER_BITS {
            c.fix_fingers_round();
        }
        let after = c.finger_staleness();
        assert!(after <= before);
        assert_eq!(after, 0.0, "a full fix cycle must heal all fingers");
    }

    #[test]
    fn leave_redirects_and_stays_correct() {
        let mut c = net(25, 9);
        let victim = NodeId(7);
        c.leave(victim);
        let mut h = SplitMix64::new(10);
        for _ in 0..200 {
            let key = h.next_u64();
            let src_idx = loop {
                let v = (h.next_u64() % 25) as u32;
                if v != 7 {
                    break v;
                }
            };
            let r = c.route(NodeId(src_idx), key);
            assert_eq!(r.owner, c.ring().owner(key));
            assert_ne!(r.owner, victim);
        }
    }

    #[test]
    fn stabilize_all_restores_exactness() {
        let mut c = net(20, 11);
        c.join(NodeId(20), 42);
        c.join(NodeId(21), 43);
        c.leave(NodeId(3));
        c.stabilize_all();
        assert_eq!(c.finger_staleness(), 0.0);
    }
}
