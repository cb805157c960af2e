//! The central event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with deterministic FIFO
//! tie-breaking: two events scheduled for the same instant pop in the order
//! they were pushed. Determinism is essential for the reproducibility of the
//! fault-injection experiments — a given (configuration, seed) pair must
//! always produce bit-identical results.
//!
//! # Two-level structure
//!
//! Nearly all events in a running machine are scheduled a handful of
//! nanoseconds ahead (link hops, directory occupancies, zero-delay
//! follow-ups), so the queue is split into two levels:
//!
//! * a **near-horizon ring** of [`RING_BUCKETS`] per-tick FIFO buckets
//!   covering the window `[base_tick, base_tick + RING_BUCKETS)`, where
//!   `base_tick` is the instant of the last pop — the simulation's `now`.
//!   Every pop moves the window there: a ring pop to the popped bucket's
//!   tick, an overflow pop to `max(base_tick, popped time)`. So every push
//!   of a running machine that lands less than the window width after `now`
//!   goes to the ring, whatever else is pending. A push inside the window is
//!   an O(1) append to its tick's bucket, and a two-level occupancy bitmap
//!   (per-bucket bits plus a summary bit per bitmap word) makes finding the
//!   next non-empty bucket a handful of word operations even when the
//!   pending set is sparse. Bucket order is push order, so same-instant
//!   FIFO tie-breaking is free. The buckets own no storage: each is a
//!   (head, tail) pair of indices into one slab of slots shared by the
//!   whole ring, linked through each slot's `next` index, and freed slots
//!   go on a LIFO free list, so a push reuses the most recently popped
//!   (still cache-warm) slot and the slab never outgrows the peak number
//!   of pending ring events;
//! * a **far-horizon overflow** `BinaryHeap` holding every push outside the
//!   window (memory-op timeouts, watchdogs, fault arming, and the rare
//!   past-relative push). These are a small fraction of total traffic, so
//!   heap churn is off the hot path. An overflow entry stays in the heap
//!   when the window later slides over its time.
//!
//! `pop` compares the ring head and the heap top by `(time, seq)`, so the
//! pop sequence is bit-for-bit identical to the seed repository's single
//! `BinaryHeap` implementation — which is kept below as a `#[cfg(test)]`
//! differential-testing oracle — wherever each event was stored.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of the near-horizon window in ticks (power of two): 2^13 ns ≈ 8.2µs.
/// Chosen empirically: wide enough for hop/occupancy/retry traffic, small
/// enough that the bucket heads (8 bytes each, 64 KiB in all) and the
/// bitmaps stay cache-resident. Widening it to cover the 50–100µs
/// memory-op timeouts thrashes the cache for no measurable gain — those
/// pushes are rare and land in the overflow heap.
const RING_BUCKETS: usize = 1 << 13;
const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const OCC_WORDS: usize = RING_BUCKETS / 64;
const SUM_WORDS: usize = OCC_WORDS.div_ceil(64);
/// Null slot index: the end of a bucket's chain or of the free list.
const NIL: u32 = u32::MAX;

/// Low `n` bits set (`n` ≤ 64).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// One ring entry in the slab. A pending slot holds its event and links to
/// the next entry of its bucket; a free slot holds `None` and links to the
/// next free slot.
#[derive(Clone)]
struct Slot<E> {
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// An entry in the overflow heap: ordered by time, then insertion sequence.
#[derive(Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic, time-ordered event queue.
///
/// # Examples
///
/// ```
/// use flash_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_nanos(), ev), (10, "early"));
/// ```
///
/// Cloning an `EventQueue` (for checkpoint/fork) preserves the pending
/// set, insertion sequence numbers and window position exactly, so a
/// clone pops the same `(time, event)` sequence as the original.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Near-horizon buckets, indexed by `tick & RING_MASK`: the (head,
    /// tail) slot indices of each bucket's FIFO chain, `(NIL, NIL)` when
    /// empty. Within the active window each tick maps to a distinct bucket.
    heads: Vec<(u32, u32)>,
    /// The slab holding every ring entry, pending or free.
    slots: Vec<Slot<E>>,
    /// Head of the LIFO free list threaded through `slots`.
    free: u32,
    /// Occupancy bitmap over `heads` (bit set ⇔ bucket non-empty).
    occ: Vec<u64>,
    /// Summary bitmap over `occ` (bit set ⇔ bitmap word non-zero).
    summary: Vec<u64>,
    /// Events currently stored in the ring.
    ring_len: usize,
    /// First tick of the ring window: the last popped instant (0 before
    /// the first pop). No ring entry precedes it.
    base_tick: u64,
    /// Tick of the earliest non-empty bucket; valid while `ring_len > 0`.
    scan_tick: u64,
    /// Events outside the ring window.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: vec![(NIL, NIL); RING_BUCKETS],
            slots: Vec::new(),
            free: NIL,
            occ: vec![0; OCC_WORDS],
            summary: vec![0; SUM_WORDS],
            ring_len: 0,
            base_tick: 0,
            scan_tick: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
        }
    }

    #[inline]
    fn in_window(&self, tick: u64) -> bool {
        tick >= self.base_tick && tick - self.base_tick < RING_BUCKETS as u64
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let tick = time.as_nanos();
        if self.in_window(tick) {
            self.insert_ring(tick, seq, event);
        } else {
            self.overflow.push(Entry { time, seq, event });
        }
    }

    /// Inserts into the ring; `tick` must lie within the active window.
    #[inline]
    fn insert_ring(&mut self, tick: u64, seq: u64, event: E) {
        debug_assert!(self.in_window(tick));
        let idx = (tick & RING_MASK) as usize;
        let new = Slot {
            seq,
            next: NIL,
            event: Some(event),
        };
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = std::mem::replace(&mut self.slots[s as usize], new).next;
            s
        } else {
            let s = u32::try_from(self.slots.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("ring slab full");
            self.slots.push(new);
            s
        };
        let (head, tail) = &mut self.heads[idx];
        if *head == NIL {
            *head = slot;
        } else {
            self.slots[*tail as usize].next = slot;
        }
        *tail = slot;
        self.occ[idx >> 6] |= 1 << (idx & 63);
        self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        self.ring_len += 1;
        if self.ring_len == 1 || tick < self.scan_tick {
            self.scan_tick = tick;
        }
    }

    /// The `(tick, seq)` key of the ring head, if the ring is non-empty.
    #[inline]
    fn ring_head_key(&self) -> Option<(u64, u64)> {
        if self.ring_len == 0 {
            return None;
        }
        let head = self.heads[(self.scan_tick & RING_MASK) as usize].0;
        Some((self.scan_tick, self.slots[head as usize].seq))
    }

    /// Whether the next pop should come from the ring rather than the
    /// overflow heap; `None` when the queue is empty.
    #[inline]
    fn ring_pops_next(&self) -> Option<bool> {
        match (self.ring_head_key(), self.overflow.peek()) {
            (None, None) => None,
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (Some(rk), Some(top)) => Some(rk < (top.time.as_nanos(), top.seq)),
        }
    }

    /// Pops the ring head, moving the window to its tick and advancing
    /// `scan_tick` when its bucket empties.
    fn pop_ring(&mut self) -> (SimTime, E) {
        let idx = (self.scan_tick & RING_MASK) as usize;
        let head = self.heads[idx].0;
        let slot = &mut self.slots[head as usize];
        let event = slot.event.take().expect("scan bucket empty");
        let next = std::mem::replace(&mut slot.next, self.free);
        self.free = head;
        self.ring_len -= 1;
        // No ring entry precedes the popped tick, so the window may start
        // there: it reaches a full window width beyond `now`.
        self.base_tick = self.scan_tick;
        let time = SimTime::from_nanos(self.scan_tick);
        if next != NIL {
            self.heads[idx].0 = next;
        } else {
            self.heads[idx] = (NIL, NIL);
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            if self.occ[idx >> 6] == 0 {
                self.summary[idx >> 12] &= !(1 << ((idx >> 6) & 63));
            }
            if self.ring_len > 0 {
                self.scan_tick = self.next_occupied(self.scan_tick + 1);
            }
        }
        (time, event)
    }

    /// Pops the overflow top. The ring head, if any, is later than it, so
    /// the window may move up to its time (never back, for a past-relative
    /// entry).
    fn pop_overflow(&mut self) -> (SimTime, E) {
        let e = self.overflow.pop().expect("peeked entry vanished");
        self.base_tick = self.base_tick.max(e.time.as_nanos());
        (e.time, e.event)
    }

    /// Finds the first occupied bucket at tick `from` or later (two-level
    /// bitmap scan: the summary word skips 4096 empty buckets at a time).
    /// Requires `ring_len > 0`.
    fn next_occupied(&self, from: u64) -> u64 {
        debug_assert!(self.ring_len > 0);
        let start = (from & RING_MASK) as usize;
        let len = RING_BUCKETS - (from - self.base_tick) as usize;
        // The physical scan wraps at most once; split it into two linear
        // segments.
        let seg1 = (RING_BUCKETS - start).min(len);
        if let Some(off) = self.scan_segment(start, seg1) {
            return from + off as u64;
        }
        if len > seg1 {
            if let Some(off) = self.scan_segment(0, len - seg1) {
                return from + (seg1 + off) as u64;
            }
        }
        unreachable!("ring_len > 0 but no occupied bucket in the window")
    }

    /// Scans `count` buckets from physical index `start` (no wrap) and
    /// returns the offset of the first occupied one.
    fn scan_segment(&self, start: usize, count: usize) -> Option<usize> {
        let end = start + count;
        let mut idx = start;
        // Partial head word.
        let bit = idx & 63;
        if bit != 0 {
            let take = (64 - bit).min(end - idx);
            let bits = (self.occ[idx >> 6] >> bit) & low_mask(take);
            if bits != 0 {
                return Some(idx + bits.trailing_zeros() as usize - start);
            }
            idx += take;
        }
        // Word-aligned body: consult the summary to skip runs of empty
        // bitmap words.
        while idx < end {
            let wi = idx >> 6;
            let sbits = self.summary[wi >> 6] >> (wi & 63);
            if sbits == 0 {
                // No occupied word in the rest of this summary word: jump to
                // the next summary boundary.
                idx = ((wi >> 6) + 1) << 12;
                continue;
            }
            let wj = wi + sbits.trailing_zeros() as usize;
            let widx = wj << 6;
            if widx >= end {
                return None;
            }
            idx = widx;
            let take = (end - idx).min(64);
            let bits = self.occ[wj] & low_mask(take);
            if bits != 0 {
                return Some(idx + bits.trailing_zeros() as usize - start);
            }
            // The only set bits in this word lie beyond `end` (final,
            // partial word): done with this segment.
            idx += take;
        }
        None
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties pop in insertion order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_ring = self.ring_pops_next()?;
        self.popped += 1;
        if from_ring {
            Some(self.pop_ring())
        } else {
            Some(self.pop_overflow())
        }
    }

    /// Removes and returns the next event only if it is scheduled exactly at
    /// `at`; used by `Engine::run` to drain same-instant events
    /// without re-running the full scheduling loop per event.
    pub fn pop_if_at(&mut self, at: SimTime) -> Option<E> {
        match self.ring_pops_next()? {
            true if self.scan_tick == at.as_nanos() => {
                self.popped += 1;
                Some(self.pop_ring().1)
            }
            false if self.overflow.peek().expect("peeked entry vanished").time == at => {
                self.popped += 1;
                Some(self.pop_overflow().1)
            }
            _ => None,
        }
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let ring = self.ring_head_key();
        let heap = self.overflow.peek().map(|e| (e.time.as_nanos(), e.seq));
        let key = match (ring, heap) {
            (None, None) => return None,
            (Some(k), None) | (None, Some(k)) => k,
            (Some(a), Some(b)) => a.min(b),
        };
        Some(SimTime::from_nanos(key.0))
    }

    /// Number of pending events held in the overflow heap.
    #[cfg(test)]
    fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events ever popped.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heads.fill((NIL, NIL));
        self.slots.clear();
        self.free = NIL;
        self.occ.fill(0);
        self.summary.fill(0);
        self.ring_len = 0;
        self.overflow.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("ring", &self.ring_len)
            .field("overflow", &self.overflow.len())
            .field("pushed", &self.pushed)
            .field("popped", &self.popped)
            .finish()
    }
}

/// The seed repository's single-`BinaryHeap` queue, kept verbatim as a
/// differential-testing oracle for the two-level queue above.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Entry, SimTime};
    use std::collections::BinaryHeap;

    /// Reference implementation: one max-heap over inverted `(time, seq)`.
    pub(crate) struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> HeapQueue<E> {
        pub(crate) fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        pub(crate) fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        pub(crate) fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::HeapQueue;
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(7)));
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.peek_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_nanos(7), "c");
        q.push(SimTime::from_nanos(12), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn far_pushes_take_the_overflow_path() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32);
        // Far beyond the ring window.
        q.push(SimTime::from_nanos(1_000_000), 2);
        q.push(SimTime::from_nanos(3), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1_000_000)));
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn same_instant_fifo_spans_ring_and_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0u32); // in the window at tick 0 → ring
        q.push(SimTime::from_nanos(200_000), 1); // outside the window → overflow
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_nanos(150_000), 2); // still outside → overflow
        assert_eq!(q.pop().unwrap().1, 2); // window moves to t=150000
        q.push(SimTime::from_nanos(200_000), 3); // still outside → overflow
        q.push(SimTime::from_nanos(150_100), 4); // in the window → ring
        q.push(SimTime::from_nanos(150_100), 5);
        assert_eq!(q.overflow_len(), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(150_100), 4));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(150_100), 5));
        // Seq order at t=200000 must hold across the two levels: 1, 3 and 6
        // wait in the heap, 7 lands in the ring once the window reaches it.
        q.push(SimTime::from_nanos(200_000), 6);
        assert_eq!(q.overflow_len(), 3);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (200_000, 1));
        q.push(SimTime::from_nanos(200_000), 7); // window at 200000 → ring
        assert_eq!(q.overflow_len(), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(200_000), 3));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(200_000), 6));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(200_000), 7));
        assert!(q.pop().is_none());
    }

    /// The window follows `now`, not the earliest pending event: after a
    /// far push and an earlier pop, a push just after the popped instant
    /// goes to the ring rather than the overflow heap.
    #[test]
    fn window_is_anchored_at_the_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5_000), 'a');
        q.push(SimTime::from_nanos(100), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 'b')));
        q.push(SimTime::from_nanos(150), 'c');
        assert_eq!(q.overflow_len(), 0, "a near push fell back to the heap");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), 'c')));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5_000), 'a')));
        // A far push with the ring empty must not strand the window: the
        // next near push still lands in the ring.
        q.push(SimTime::from_nanos(1_000_000), 'd');
        q.push(SimTime::from_nanos(5_010), 'e');
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5_010), 'e')));
        // Popping the far entry moves the window out to it.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1_000_000), 'd')));
        q.push(SimTime::from_nanos(1_000_003), 'f');
        assert_eq!(q.overflow_len(), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1_000_003), 'f')));
    }

    #[test]
    fn pop_if_at_only_takes_exact_matches() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 'a');
        q.push(SimTime::from_nanos(5), 'b');
        q.push(SimTime::from_nanos(6), 'c');
        assert_eq!(q.pop_if_at(SimTime::from_nanos(4)), None);
        assert_eq!(q.pop_if_at(SimTime::from_nanos(5)), Some('a'));
        assert_eq!(q.pop_if_at(SimTime::from_nanos(5)), Some('b'));
        assert_eq!(q.pop_if_at(SimTime::from_nanos(5)), None);
        assert_eq!(q.pop_if_at(SimTime::from_nanos(6)), Some('c'));
        assert_eq!(q.total_popped(), 3);
    }

    /// Drives the two-level queue and the heap oracle through the same
    /// random push/pop interleaving and asserts identical pop sequences.
    fn differential_run(seed: u64, ops: usize) {
        let mut q = EventQueue::new();
        let mut o = HeapQueue::new();
        let mut rng = DetRng::new(seed);
        let mut now = 0u64;
        let mut tag = 0u64;
        for _ in 0..ops {
            match rng.below(10) {
                // Push: mixture of near deltas, far deltas, same-instant
                // bursts, and the occasional past-relative time.
                0..=5 => {
                    let t = match rng.below(8) {
                        0 => now + rng.below(4), // same instant or just ahead
                        1..=4 => now + rng.below(64),
                        5 => now + rng.below(1_000_000), // far horizon
                        6 => now.saturating_sub(rng.below(32)), // in the past
                        _ => now + (RING_BUCKETS as u64 - 32) + rng.below(64), // window edge
                    };
                    let burst = if rng.below(5) == 0 { 4 } else { 1 };
                    for _ in 0..burst {
                        q.push(SimTime::from_nanos(t), tag);
                        o.push(SimTime::from_nanos(t), tag);
                        tag += 1;
                    }
                }
                // Pop from both and compare.
                _ => {
                    assert_eq!(q.peek_time(), o.peek_time(), "peek diverged");
                    let got = q.pop();
                    let want = o.pop();
                    assert_eq!(got, want, "pop diverged (seed {seed})");
                    if let Some((t, _)) = got {
                        now = t.as_nanos();
                    }
                }
            }
            assert_eq!(q.len(), o.len());
        }
        // Drain both completely.
        loop {
            let got = q.pop();
            let want = o.pop();
            assert_eq!(got, want, "drain diverged (seed {seed})");
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_vs_heap_oracle() {
        for seed in 0..32 {
            differential_run(0xA11CE ^ seed, 4_000);
        }
    }

    /// A sparse pattern: short bursts of near events, each followed by a
    /// far timeout, so the ring empties again and again while the heap
    /// still holds timeouts — some of which the window later slides over.
    fn sparse_differential_run(seed: u64, rounds: usize) {
        let mut q = EventQueue::new();
        let mut o = HeapQueue::new();
        let mut rng = DetRng::new(seed);
        let mut now = 0u64;
        let mut tag = 0u64;
        let mut push = |q: &mut EventQueue<u64>, o: &mut HeapQueue<u64>, t: u64| {
            q.push(SimTime::from_nanos(t), tag);
            o.push(SimTime::from_nanos(t), tag);
            tag += 1;
        };
        for _ in 0..rounds {
            for _ in 0..1 + rng.below(6) {
                push(&mut q, &mut o, now + rng.below(200));
            }
            let timeout = 50_000 + rng.below(60_000);
            push(&mut q, &mut o, now + timeout);
            if rng.below(8) == 0 {
                push(&mut q, &mut o, now + timeout); // same-instant timeout
            }
            // Drain until the ring is empty (and sometimes further, into
            // the timeouts), comparing every pop.
            let pops = q.len() - q.overflow_len() + rng.below(3) as usize;
            for _ in 0..pops {
                assert_eq!(q.peek_time(), o.peek_time(), "peek diverged");
                let got = q.pop();
                assert_eq!(got, o.pop(), "pop diverged (seed {seed})");
                if let Some((t, _)) = got {
                    now = t.as_nanos();
                }
            }
            assert_eq!(q.len(), o.len());
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), o.pop(), "drain diverged (seed {seed})");
        }
        assert_eq!(o.pop(), None);
    }

    #[test]
    fn sparse_differential_vs_heap_oracle() {
        for seed in 0..16 {
            sparse_differential_run(0x5BA25E ^ seed, 2_000);
        }
    }

    /// Steady churn of `K` pending near events: every pop is followed by a
    /// push a few ticks ahead, so freed slots must be reused rather than
    /// the slab growing with the number of operations.
    #[test]
    fn slab_stays_at_peak_ring_population() {
        const K: u64 = 300;
        let mut q = EventQueue::new();
        let mut rng = DetRng::new(0x51AB);
        for i in 0..K {
            q.push(SimTime::from_nanos(rng.below(64)), i);
        }
        let mut peak = q.len() - q.overflow_len();
        for i in K..K + 100_000 {
            let (t, _) = q.pop().unwrap();
            q.push(SimTime::from_nanos(t.as_nanos() + rng.below(64)), i);
            peak = peak.max(q.len() - q.overflow_len());
        }
        assert_eq!(q.overflow_len(), 0);
        assert!(
            q.slots.len() <= peak,
            "slab grew to {} slots for a peak of {peak} ring events",
            q.slots.len()
        );
    }

    /// Pushes a mix of near, same-instant and far events, then pops a
    /// third of them, so the queue holds ring entries, overflow entries and
    /// same-instant FIFO runs.
    fn mid_run_queue(seed: u64) -> EventQueue<u64> {
        let mut q = EventQueue::new();
        let mut rng = DetRng::new(seed);
        let mut now = 0u64;
        for tag in 0..3_000u64 {
            let t = match rng.below(6) {
                0 => now,                          // same instant
                1 => now + 200_000 + rng.below(9), // far, often tied
                _ => now + rng.below(128),
            };
            q.push(SimTime::from_nanos(t), tag);
            if tag % 3 == 0 {
                now = q.pop().unwrap().0.as_nanos();
            }
        }
        q
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn clone_mid_run_pops_identically() {
        let mut q = mid_run_queue(0xC10E);
        assert!(q.overflow_len() > 0 && q.len() > q.overflow_len());
        let mut c = q.clone();
        // Both keep running: the same pushes after the fork.
        for q in [&mut q, &mut c] {
            let (t, _) = q.pop().unwrap();
            for tag in 0..8 {
                q.push(t, 10_000 + tag);
            }
        }
        assert_eq!(drain(&mut c), drain(&mut q));
    }

    #[test]
    fn clear_then_reuse_matches_a_fresh_queue() {
        let mut q = mid_run_queue(0xC1EA);
        q.clear();
        assert!(q.is_empty() && q.peek_time().is_none());
        let mut fresh = EventQueue::new();
        for q in [&mut q, &mut fresh] {
            let mut rng = DetRng::new(0xF2E5);
            for tag in 0..500u64 {
                q.push(SimTime::from_nanos(rng.below(20_000)), tag);
            }
        }
        assert_eq!(drain(&mut q), drain(&mut fresh));
    }

    #[test]
    fn differential_vs_heap_oracle_pop_if_at() {
        // Same oracle comparison, but draining through pop_if_at batches the
        // way Engine::run does.
        let mut q = EventQueue::new();
        let mut o = HeapQueue::new();
        let mut rng = DetRng::new(0xD1FF);
        for i in 0..2_000u64 {
            let t = SimTime::from_nanos(rng.below(512));
            q.push(t, i);
            o.push(t, i);
        }
        while let Some((t, ev)) = q.pop() {
            assert_eq!(o.pop(), Some((t, ev)));
            while let Some(ev) = q.pop_if_at(t) {
                assert_eq!(o.pop(), Some((t, ev)), "batched drain diverged");
            }
        }
        assert_eq!(o.pop(), None);
    }
}
