//! Node identifiers.

/// Dense node identifier: index into every per-node array in the workspace.
///
/// The simulator addresses the `n` participants as `0..n`; `u32` keeps
/// per-message envelopes small (the paper's control messages carry "one IP
/// address", and our `NodeId` plays that role in the simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The usize index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a usize index.
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX` (4 billion nodes is far beyond any
    /// experiment in the paper).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }

    /// Iterate all node ids `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n).map(NodeId::from_index)
    }
}

/// An optional [`NodeId`] in the four bytes of one: the partner field of
/// the dating service's answers ("the partner's address, or no date").
///
/// `Option<NodeId>` is eight bytes and would make every dating message
/// twelve; with this they are eight, one machine word. `u32::MAX` encodes
/// `None` — no node carries that id (`NodeId::all(n)` stops below it and
/// the runtime's `MAX_NODES` is `u32::MAX − 1`), and [`new`](Self::new)
/// refuses it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Partner(u32);

impl Partner {
    /// Encode `partner`.
    ///
    /// # Panics
    /// Panics on `Some(NodeId(u32::MAX))`, the value that encodes `None`.
    #[inline]
    pub fn new(partner: Option<NodeId>) -> Self {
        match partner {
            Some(id) => {
                assert!(id.0 != u32::MAX, "node id u32::MAX encodes \"no date\"");
                Partner(id.0)
            }
            None => Partner(u32::MAX),
        }
    }

    /// The partner, if there is a date.
    #[inline]
    pub fn get(self) -> Option<NodeId> {
        (self.0 != u32::MAX).then_some(NodeId(self.0))
    }
}

impl std::fmt::Debug for Partner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn index_round_trip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id, NodeId(42));
    }

    #[test]
    fn all_enumerates_in_order() {
        let ids: Vec<NodeId> = NodeId::all(4).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn display_compact() {
        assert_eq!(NodeId(7).to_string(), "n7");
    }

    #[test]
    fn partner_round_trips_the_edges() {
        // The runtime's `MAX_NODES` is `u32::MAX - 1`, so the largest id
        // a scenario can hold is `u32::MAX - 2`.
        let largest = NodeId(u32::MAX - 2);
        for p in [None, Some(NodeId(0)), Some(largest)] {
            assert_eq!(Partner::new(p).get(), p);
        }
        assert_eq!(std::mem::size_of::<Partner>(), 4);
        assert_eq!(
            format!("{:?}", Partner::new(Some(NodeId(7)))),
            "Some(NodeId(7))"
        );
        assert_eq!(format!("{:?}", Partner::new(None)), "None");
    }

    #[test]
    #[should_panic(expected = "no date")]
    fn partner_refuses_the_sentinel_id() {
        let _ = Partner::new(Some(NodeId(u32::MAX)));
    }

    proptest! {
        #[test]
        fn partner_round_trips_any_id(id in 0u32..u32::MAX) {
            prop_assert_eq!(Partner::new(Some(NodeId(id))).get(), Some(NodeId(id)));
        }
    }

    #[test]
    fn ordering_matches_indices() {
        assert!(NodeId(1) < NodeId(2));
    }
}
