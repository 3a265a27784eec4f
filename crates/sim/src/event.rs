//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue over (time, sequence) pairs: events
//! fire in nondecreasing time order, and events scheduled for the same
//! instant fire in the order they were scheduled (stable FIFO
//! tie-breaking). Stability is what makes whole-simulation determinism
//! possible, so it is load-bearing, tested, and guaranteed.
//!
//! # Design: inline-payload slab behind a two-tier key index
//!
//! Payloads live in a `Vec` slab with a free list; keys carry the
//! payload's slot index and a per-slot generation counter, so every
//! operation on the hot path is allocation- and hash-free.
//!
//! Keys live in one of two tiers, each ordered by `(at, seq)`:
//!
//! - the **near tier**, a `Vec` sorted descending so the smallest key
//!   sits at the tail, where [`EventQueue::pop`] takes it in O(1);
//! - the **far tier**, a binary heap holding everything else.
//!
//! A simulator schedules almost every event just after "now" (the next
//! CPU step, a submit's retirement, an engine completion), into an
//! order that is already nearly sorted. A heap pays O(log n) sift
//! levels for each of those; the near tier pays a short scan from its
//! tail instead. Which tier a key lands in affects only cost, never
//! order: `pop` and `peek_time` take the smaller `(at, seq)` of the two
//! tiers' tops, and `seq` is unique, so the pop order is exactly the
//! heap's.
//!
//! - **schedule** writes one slab slot, then first compares the new key
//!   with the key `W` places from the near tier's tail (`W` = 8). A
//!   larger key goes to the heap — amortized O(log n). A smaller one is
//!   inserted by a scan from the tail. The early check bounds the
//!   worst case at `W` comparisons and `W - 1` shifted keys, however
//!   deep either tier is.
//! - **cancel** is O(1): bump the slot's generation and reclaim it. The
//!   stale key, in either tier, is tombstoned implicitly — its
//!   generation no longer matches — and is discarded when it surfaces.
//! - **pop** drains stale tombstone keys lazily as they reach either
//!   top.
//! - **peek_time** drains stale tops of both tiers the same way, making
//!   it O(1) when both tops are live and amortized O(log n) overall.
//!
//! Cancellation tokens encode `(generation << 32) | slot`; a token
//! becomes stale the moment its event fires or is cancelled, and a
//! stale token can only be confused with a live one after a single slot
//! is reused 2^32 times — unreachable in practice.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event together with its scheduled firing time and a cancellation
/// handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotonic sequence number; total order tie-breaker and
    /// cancellation token.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Queue key: ordered by `(at, seq)` — `seq` is unique, so the slot and
/// generation fields never influence the order; they exist to find and
/// validate the payload without a lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

/// How far from the near tier's tail a new key may land: `schedule`
/// compares against the key this many places from the tail, and a key
/// that sorts after it goes to the heap. Small on purpose: the scan
/// and the shift are linear in it, and the events a simulator
/// schedules just after "now" land within the last few places.
const NEAR_WINDOW: usize = 8;

/// One slab slot. A slot is *live* while a key carrying its current
/// generation exists in either tier; vacating the slot (pop or cancel)
/// bumps the generation, which simultaneously invalidates the old key
/// and any outstanding cancellation token.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    payload: Option<(SimTime, E)>,
}

/// A deterministic discrete-event queue.
///
/// # Example
///
/// ```
/// use neon_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_micros(10);
/// q.schedule(t, 'a');
/// q.schedule(t, 'b'); // same instant: FIFO order preserved
/// assert_eq!(q.pop().map(|(_, e)| e), Some('a'));
/// assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near tier, sorted descending: the smallest key is at the tail.
    near: Vec<Key>,
    /// Far tier.
    heap: BinaryHeap<Reverse<Key>>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: Vec::new(),
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at instant `at`, returning a token that
    /// can be passed to [`EventQueue::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the most recently popped event's
    /// time: the simulator may not schedule into its own past.
    pub fn schedule(&mut self, at: SimTime, event: E) -> u64 {
        assert!(
            at >= self.last_popped,
            "cannot schedule into the past: {} < {}",
            at,
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].payload = Some((at, event));
                slot
            }
            None => {
                // lint: allow(unchecked-unwrap) — 2^32 concurrently-live
                // events cannot fit in memory; truncating the slot id would
                // corrupt cancellation tokens
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 live events");
                self.slots.push(Slot {
                    gen: 0,
                    payload: Some((at, event)),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.insert_key(Key { at, seq, slot, gen });
        self.live += 1;
        ((gen as u64) << 32) | slot as u64
    }

    /// Files `key` in the near tier if it sorts within [`NEAR_WINDOW`]
    /// places of the tail, else in the heap: at most `NEAR_WINDOW`
    /// comparisons and at most `NEAR_WINDOW - 1` keys shifted.
    fn insert_key(&mut self, key: Key) {
        let n = self.near.len();
        // The key lands at or above `lo`; below it the tier is known to
        // sort after `key`.
        let mut lo = 0;
        if n >= NEAR_WINDOW {
            lo = n + 1 - NEAR_WINDOW;
            if key > self.near[lo - 1] {
                self.heap.push(Reverse(key));
                return;
            }
        }
        let mut at = n;
        while at > lo && self.near[at - 1] < key {
            at -= 1;
        }
        self.near.insert(at, key);
    }

    /// Removes the smaller of the two tiers' top keys, live or stale.
    fn take_min(&mut self) -> Option<Key> {
        match (self.near.last(), self.heap.peek()) {
            (Some(near), Some(Reverse(far))) if far < near => self.heap.pop().map(|r| r.0),
            (Some(_), _) => self.near.pop(),
            (None, _) => self.heap.pop().map(|r| r.0),
        }
    }

    /// Cancels a previously scheduled event. Returns the payload if the
    /// event had not yet fired or been cancelled. O(1): neither tier is
    /// touched; the stale key is discarded lazily when it surfaces.
    pub fn cancel(&mut self, token: u64) -> Option<E> {
        let slot = (token & u32::MAX as u64) as usize;
        // lint: allow(narrowing-cast) — deliberate upper-half bit extraction
        // from the packed (gen, slot) token
        let gen = (token >> 32) as u32;
        match self.slots.get_mut(slot) {
            Some(s) if s.gen == gen => {
                // lint: allow(unchecked-unwrap) — the generation match above
                // proves the slot is live
                let (_, event) = s.payload.take().expect("live slot must hold a payload");
                s.gen = s.gen.wrapping_add(1);
                // lint: allow(narrowing-cast) — slot was masked to the low 32
                // bits of the token above
                self.free.push(slot as u32);
                self.live -= 1;
                Some(event)
            }
            _ => None,
        }
    }

    /// Removes and returns the next event in (time, schedule-order).
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(key) = self.take_min() {
            let slot = &mut self.slots[key.slot as usize];
            if slot.gen != key.gen {
                continue; // cancelled: discard the stale key
            }
            // lint: allow(unchecked-unwrap) — the generation match above
            // proves the slot is live
            let (at, event) = slot.payload.take().expect("live slot must hold a payload");
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(key.slot);
            self.live -= 1;
            debug_assert_eq!(at, key.at);
            self.last_popped = at;
            return Some((at, event));
        }
        None
    }

    /// The firing time of the next live event, if any. Stale
    /// (cancelled) keys sitting atop either tier are drained as a side
    /// effect, so repeated peeks stay cheap even after mass
    /// cancellation — each stale key is paid for exactly once, here or
    /// in [`EventQueue::pop`].
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(key) = self.near.last() {
            if self.slots[key.slot as usize].gen == key.gen {
                break;
            }
            self.near.pop();
        }
        while let Some(Reverse(key)) = self.heap.peek() {
            if self.slots[key.slot as usize].gen == key.gen {
                break;
            }
            self.heap.pop();
        }
        match (self.near.last(), self.heap.peek()) {
            (Some(near), Some(Reverse(far))) => Some(near.min(far).at),
            (Some(near), None) => Some(near.at),
            (None, far) => far.map(|r| r.0.at),
        }
    }

    /// Number of live (not cancelled, not yet fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Empties the queue while keeping the slab, free list, and both
    /// tiers' allocations, so a long-lived queue can be recycled across
    /// simulation runs without touching the allocator.
    ///
    /// A cleared queue is observationally identical to a fresh one:
    /// sequence numbers restart at zero, "now" rewinds to
    /// [`SimTime::ZERO`], and the free list is rebuilt so slots are
    /// handed out in the same `0, 1, 2, …` order a new queue would use.
    /// (Slot generations keep advancing, but generations never
    /// influence event order — only `(at, seq)` does — so reuse cannot
    /// perturb determinism.) All outstanding cancellation tokens die.
    pub fn clear(&mut self) {
        self.near.clear();
        self.heap.clear();
        for slot in &mut self.slots {
            if slot.payload.take().is_some() {
                slot.gen = slot.gen.wrapping_add(1);
            }
        }
        self.free.clear();
        // lint: allow(narrowing-cast) — slots.len() stayed below 2^32,
        // enforced at allocation in schedule()
        self.free.extend((0..self.slots.len() as u32).rev());
        self.live = 0;
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let keep = q.schedule(t(1), "keep");
        let drop = q.schedule(t(2), "drop");
        assert_eq!(q.cancel(drop), Some("drop"));
        assert_eq!(q.cancel(drop), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(1), "keep")));
        assert!(q.pop().is_none());
        let _ = keep;
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), 7);
        assert!(q.pop().is_some());
        assert_eq!(q.cancel(tok), None);
    }

    #[test]
    fn stale_token_cannot_cancel_a_slot_reuse() {
        let mut q = EventQueue::new();
        let tok = q.schedule(t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        // 'b' reuses the slot that 'a' vacated, under a new generation.
        let _tok_b = q.schedule(t(2), 'b');
        assert_eq!(q.cancel(tok), None, "a fired token must stay dead");
        assert_eq!(q.pop(), Some((t(2), 'b')));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let first = q.schedule(t(1), 'x');
        q.schedule(t(5), 'y');
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(t(5)));
    }

    #[test]
    fn peek_time_stays_cheap_under_mass_cancellation() {
        // Regression for the O(n) full-heap scan: cancel a large prefix
        // of earliest-firing events, then peek. The first peek drains
        // the stale tops; subsequent peeks find a live top immediately.
        let mut q = EventQueue::new();
        let tokens: Vec<u64> = (0..10_000).map(|i| q.schedule(t(i), i)).collect();
        q.schedule(t(1_000_000), 42);
        for tok in tokens {
            assert!(q.cancel(tok).is_some());
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        // The stale keys were drained by the peek, not merely skipped:
        // the first NEAR_WINDOW keys filled the near tier and are gone,
        // and the heap holds exactly the one live entry, so further
        // peeks and the final pop are O(1).
        assert!(q.near.is_empty());
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.peek_time(), Some(t(1_000_000)));
        assert_eq!(q.pop(), Some((t(1_000_000), 42)));
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_files_keys_within_the_window_near_and_the_rest_far() {
        let mut q = EventQueue::new();
        // Descending times: every key is the new minimum and lands at
        // the near tier's tail, so the tier grows past the window.
        for i in (0..32u64).rev() {
            q.schedule(t(100 + i), i);
        }
        assert_eq!(q.near.len(), 32);
        assert!(q.heap.is_empty());
        let w = NEAR_WINDOW as u64;
        // Sorts after the key NEAR_WINDOW places from the tail (equal
        // time, later seq): the heap takes it.
        q.schedule(t(100 + w - 1), 100);
        assert_eq!((q.near.len(), q.heap.len()), (32, 1));
        // Sorts just before that key: the deepest near-tier slot a
        // schedule may reach, NEAR_WINDOW - 1 keys shifted.
        q.schedule(t(100 + w - 2), 101);
        assert_eq!((q.near.len(), q.heap.len()), (33, 1));
        assert_eq!(q.near[33 - NEAR_WINDOW].seq, 33);
        assert!(q.near.windows(2).all(|w| w[0] > w[1]), "near tier unsorted");
        // Both tiers drain as one (time, seq) order.
        let mut popped = Vec::new();
        while let Some((at, v)) = q.pop() {
            popped.push((at, v));
        }
        let mut expected: Vec<(SimTime, u64)> = (0..32).map(|i| (t(100 + i), i)).collect();
        expected.insert(w as usize - 1, (t(100 + w - 2), 101));
        expected.insert(w as usize + 1, (t(100 + w - 1), 100));
        assert_eq!(popped, expected);
    }

    #[test]
    fn peek_time_drains_stale_tops_of_both_tiers() {
        let mut q = EventQueue::new();
        let near: Vec<u64> = (0..NEAR_WINDOW as u64)
            .map(|i| q.schedule(t(i), i))
            .collect();
        let far: Vec<u64> = (0..16u64).map(|i| q.schedule(t(50 + i), i)).collect();
        q.schedule(t(1_000), 99);
        assert_eq!((q.near.len(), q.heap.len()), (NEAR_WINDOW, 17));
        for tok in near {
            q.cancel(tok);
        }
        assert_eq!(q.peek_time(), Some(t(50)), "near tier fully cancelled");
        assert!(q.near.is_empty());
        for tok in far {
            q.cancel(tok);
        }
        assert_eq!(q.peek_time(), Some(t(1_000)), "heap tops cancelled");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some((t(1_000), 99)));
    }

    #[test]
    fn slots_are_reused_not_leaked() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..10 {
                q.schedule(t(round * 10 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.slots.len() <= 10,
            "slab grew to {} slots for 10 concurrent events",
            q.slots.len()
        );
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), t(4));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn cleared_queue_behaves_like_a_fresh_one() {
        let mut fresh = EventQueue::new();
        let mut reused = EventQueue::new();
        // Dirty the reused queue: live events, cancellations, pops.
        let tok = reused.schedule(t(5), 100);
        reused.schedule(t(7), 101);
        reused.cancel(tok);
        reused.schedule(t(50), 102);
        reused.pop();
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.now(), SimTime::ZERO);
        // Same schedule program on both: identical pops and tokens
        // modulo generation bits (which never affect order).
        let mut toks = Vec::new();
        for q in [&mut fresh, &mut reused] {
            toks.push(vec![
                q.schedule(t(10), 1),
                q.schedule(t(10), 2),
                q.schedule(t(3), 3),
            ]);
        }
        for (a, b) in toks[0].iter().zip(&toks[1]) {
            assert_eq!(
                a & u32::MAX as u64,
                b & u32::MAX as u64,
                "slot order differs"
            );
        }
        loop {
            let (a, b) = (fresh.pop(), reused.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clear_kills_outstanding_tokens_and_keeps_capacity() {
        let mut q = EventQueue::new();
        let toks: Vec<u64> = (0..32).map(|i| q.schedule(t(i), i)).collect();
        let slots_before = q.slots.len();
        q.clear();
        for tok in toks {
            assert_eq!(q.cancel(tok), None, "pre-clear token must be dead");
        }
        assert_eq!(q.slots.len(), slots_before, "slab capacity retained");
        // And scheduling at ZERO works again (now rewound).
        q.schedule(SimTime::ZERO, 0);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        // Schedule something between now and the pending event.
        q.schedule(t(15), 3);
        assert_eq!(q.pop(), Some((t(15), 3)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        let _ = SimDuration::ZERO; // silence unused import in some cfgs
    }
}
