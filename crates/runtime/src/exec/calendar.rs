//! The event executor's wake queue: a calendar keyed by simulated time.
//!
//! [`WakeQueue`] is a priority queue over `(ticks, node)` specialised to
//! the hold model the [`EventExecutor`](super::EventExecutor) runs:
//! every node has exactly one outstanding wake, and a popped node is
//! pushed back at a time no earlier than the one it was popped at.
//! Under that model a binary heap pays a `log n`-level pop and push per
//! event; the calendar pays a ring probe and a link write.
//!
//! * **Buckets are disjoint ordered tick ranges.** A wake at `ticks`
//!   belongs to bucket `ticks >> shift`. The bucket width is a power of
//!   two sized from `n` and the wake rate so that a bucket holds a
//!   handful of wakes on average; the ring has one `u32` head per bucket
//!   for the next `ring.len()` buckets, and each bucket's members are
//!   chained through the nodes' own [`WakeTimer`] link (an index, never
//!   a pointer).
//! * **One bucket is sorted at a time.** Advancing the cursor drains the
//!   next non-empty bucket into a small vector sorted by `(ticks, node)`;
//!   pops come off that vector. A wake pushed into the bucket being
//!   drained is sorted-inserted into it. Every wake in an earlier bucket
//!   precedes every wake in a later one, so the pop order is the total
//!   order on `(ticks, node)` — the sequence a binary heap over the same
//!   keys pops, which `tests/event_exec.rs` checks by property test.
//! * **The far future waits in a heap.** A wake beyond the ring's
//!   horizon (probability below e⁻⁴ per exponential draw, by the sizing
//!   in [`WakeQueue::new`]) goes to a small overflow heap and joins its
//!   bucket when the cursor reaches it.
//!
//! Determinism: the queue holds no clock, no randomness and no hashed
//! container; its pop sequence is a pure function of the pushed keys.
//!
//! lint: deterministic

use super::event::TICKS_PER_SEC;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The nil link: ends a bucket chain, marks an empty ring head.
pub(crate) const NIL: u32 = u32::MAX;

/// Ring heads per node (rounded up to a power of two).
const RING_PER_NODE: usize = 2;

/// Bucket width as a power-of-two multiple of the mean gap between
/// consecutive wakes of the whole system, `TICKS_PER_SEC / (rate · n)`
/// rounded down to a power of two: 2² = 4 gaps, so a bucket holds two
/// to four wakes on average and the horizon is at least
/// `RING_PER_NODE · n · 4 / 2 = 4n` gaps, i.e. four mean inter-arrivals
/// of one node.
const WIDTH_SHIFT: u32 = 2;

/// Per-node state the [`WakeQueue`] threads its buckets through: the
/// time the queue is keyed on and one intrusive link.
pub trait WakeTimer {
    /// The node's scheduled wake time, in ticks.
    fn wake_at(&self) -> u64;
    /// The next node in this node's bucket chain.
    fn timer_next(&self) -> u32;
    /// Set the next node in this node's bucket chain.
    fn set_timer_next(&mut self, next: u32);
}

/// The minimal timer: a bare `(wake time, link)` pair.
impl WakeTimer for (u64, u32) {
    fn wake_at(&self) -> u64 {
        self.0
    }
    fn timer_next(&self) -> u32 {
        self.1
    }
    fn set_timer_next(&mut self, next: u32) {
        self.1 = next;
    }
}

/// `i` as a `u32` link; panics if it would collide with [`NIL`].
#[inline]
pub(crate) fn link(i: usize) -> u32 {
    match u32::try_from(i) {
        Ok(l) if l != NIL => l,
        _ => panic!("index {i} does not fit a u32 link"),
    }
}

/// A calendar queue of per-node wakes, popped in `(ticks, node)` order
/// — the sequence a binary heap over the same keys pops — for clients
/// that push a popped node back no earlier than it was popped.
///
/// Wakes are bucketed by `ticks >> shift`; a ring holds one chain head
/// per upcoming bucket, only the bucket being drained is kept sorted,
/// and wakes beyond the ring wait in a small overflow heap. The queue
/// stores node indices only: the wake times and bucket links live in
/// the caller's per-node slice (anything implementing [`WakeTimer`]),
/// which every call borrows.
#[derive(Debug, Clone)]
pub struct WakeQueue {
    /// `ticks >> shift` is a wake's bucket.
    shift: u32,
    /// `ring.len() - 1`; the ring length is a power of two.
    mask: u64,
    /// Chain heads of buckets `cursor + 1 ..= cursor + mask`, indexed by
    /// `bucket & mask`.
    ring: Vec<u32>,
    /// The bucket being drained.
    cursor: u64,
    /// Bucket `cursor`'s remaining wakes, sorted descending so the next
    /// one pops off the end.
    current: Vec<(u64, u32)>,
    /// Wakes more than `mask` buckets ahead of the cursor when pushed.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Number of wakes chained in `ring`.
    in_ring: usize,
}

impl WakeQueue {
    /// An empty queue sized for `n` nodes that each wake `rate` times
    /// per simulated second on average. Both the bucket width and the
    /// ring length follow from `n` and `rate`; any sizing pops the same
    /// sequence, only at a different cost.
    ///
    /// # Panics
    /// Panics if `n` is zero or `rate` is not finite and positive.
    pub fn new(n: usize, rate: f64) -> Self {
        assert!(n > 0, "a wake queue needs at least one node");
        assert!(
            rate.is_finite() && rate > 0.0,
            "wake rate must be finite and positive, got {rate}"
        );
        // Float-to-int `as` saturates, so a vanishing rate caps at the
        // widest bucket instead of wrapping.
        let gap = (TICKS_PER_SEC as f64 / (rate * n as f64)) as u64;
        let shift = (gap.max(1).ilog2() + WIDTH_SHIFT).min(63);
        let buckets = n.saturating_mul(RING_PER_NODE).next_power_of_two();
        Self {
            shift,
            mask: buckets as u64 - 1,
            ring: vec![NIL; buckets],
            cursor: 0,
            current: Vec::new(),
            overflow: BinaryHeap::new(),
            in_ring: 0,
        }
    }

    /// Number of queued wakes.
    pub fn len(&self) -> usize {
        self.current.len() + self.in_ring + self.overflow.len()
    }

    /// Whether no wake is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `node`'s wake at `timers[node].wake_at()`.
    ///
    /// # Panics
    /// Panics if the wake lies in a bucket the cursor has already left —
    /// wakes must not precede the last popped time.
    #[inline]
    pub fn push<T: WakeTimer>(&mut self, timers: &mut [T], node: u32) {
        let timer = &mut timers[node as usize];
        let at = timer.wake_at();
        let bucket = at >> self.shift;
        assert!(
            bucket >= self.cursor,
            "wake at {at} precedes the bucket being drained"
        );
        let ahead = bucket - self.cursor;
        if ahead == 0 {
            let key = (at, node);
            let pos = self.current.partition_point(|&queued| queued > key);
            self.current.insert(pos, key);
        } else if ahead <= self.mask {
            let head = &mut self.ring[(bucket & self.mask) as usize];
            timer.set_timer_next(*head);
            *head = node;
            self.in_ring += 1;
        } else {
            self.overflow.push(Reverse((at, node)));
        }
    }

    /// Remove and return the minimal `(ticks, node)`, or `None` when the
    /// queue is empty.
    #[inline]
    pub fn pop<T: WakeTimer>(&mut self, timers: &[T]) -> Option<(u64, u32)> {
        if self.current.is_empty() && !self.advance(timers) {
            return None;
        }
        self.current.pop()
    }

    /// Move the cursor to the next non-empty bucket and drain it into
    /// `current`. Returns `false` when nothing is queued.
    fn advance<T: WakeTimer>(&mut self, timers: &[T]) -> bool {
        // Overflow wakes sit in buckets past the cursor (they were more
        // than a ring ahead of an earlier cursor and the cursor stops at
        // every non-empty bucket), so the next bucket is the nearer of
        // the overflow's first and the first occupied ring head.
        let far = self
            .overflow
            .peek()
            .map(|&Reverse((at, _))| at >> self.shift);
        if self.in_ring == 0 {
            match far {
                Some(bucket) => self.cursor = bucket,
                None => return false,
            }
        } else {
            loop {
                self.cursor += 1;
                if self.ring[(self.cursor & self.mask) as usize] != NIL || far == Some(self.cursor)
                {
                    break;
                }
            }
        }
        let head = &mut self.ring[(self.cursor & self.mask) as usize];
        let mut node = std::mem::replace(head, NIL);
        while node != NIL {
            let timer = &timers[node as usize];
            self.current.push((timer.wake_at(), node));
            self.in_ring -= 1;
            node = timer.timer_next();
        }
        while let Some(&Reverse((at, node))) = self.overflow.peek() {
            if at >> self.shift != self.cursor {
                break;
            }
            self.overflow.pop();
            self.current.push((at, node));
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue_of(times: &[u64], rate: f64) -> (WakeQueue, Vec<(u64, u32)>) {
        let mut timers: Vec<(u64, u32)> = times.iter().map(|&at| (at, NIL)).collect();
        let mut q = WakeQueue::new(times.len(), rate);
        for node in 0..times.len() {
            q.push(&mut timers, link(node));
        }
        (q, timers)
    }

    #[test]
    fn pops_in_time_then_node_order() {
        let far = 40 * TICKS_PER_SEC;
        let times = [500, 7, far, 7, 3 * TICKS_PER_SEC, 0, u64::MAX, 500];
        let (mut q, timers) = queue_of(&times, 1.0);
        assert_eq!(q.len(), times.len());
        assert!(!q.overflow.is_empty(), "40 s is past an 8-node horizon");
        let mut popped = Vec::new();
        while let Some(key) = q.pop(&timers) {
            popped.push(key);
        }
        let mut want: Vec<(u64, u32)> = times.iter().copied().zip(0u32..).collect();
        want.sort_unstable();
        assert_eq!(popped, want);
        assert!(q.is_empty());
    }

    #[test]
    fn a_wake_in_the_draining_bucket_is_sorted_in() {
        let (mut q, mut timers) = queue_of(&[10, 30, 20], 1.0);
        assert_eq!(q.pop(&timers), Some((10, 0)));
        timers[0].0 = 25;
        q.push(&mut timers, 0);
        assert_eq!(q.pop(&timers), Some((20, 2)));
        assert_eq!(q.pop(&timers), Some((25, 0)));
        assert_eq!(q.pop(&timers), Some((30, 1)));
        assert_eq!(q.pop(&timers), None);
    }

    #[test]
    fn sizing_follows_n_and_rate() {
        // 10⁹ / (1 · 1000) = 10⁶ ≥ 2¹⁹; four gaps per bucket → 2²¹.
        let q = WakeQueue::new(1000, 1.0);
        assert_eq!(q.shift, 21);
        assert_eq!(q.ring.len(), 2048);
        // A vanishing rate saturates at the widest bucket; a huge one
        // bottoms out at four ticks.
        assert_eq!(WakeQueue::new(1, 1e-300).shift, 63);
        assert_eq!(WakeQueue::new(1000, 1e12).shift, WIDTH_SHIFT);
    }

    #[test]
    #[should_panic(expected = "precedes the bucket being drained")]
    fn a_wake_behind_the_cursor_is_refused() {
        let (mut q, mut timers) = queue_of(&[10 * TICKS_PER_SEC, 20 * TICKS_PER_SEC], 1.0);
        assert_eq!(q.pop(&timers), Some((10 * TICKS_PER_SEC, 0)));
        timers[0].0 = 0;
        q.push(&mut timers, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit a u32 link")]
    fn the_nil_index_is_not_a_link() {
        link(NIL as usize);
    }
}
