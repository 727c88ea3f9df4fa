//! The kernel's event queue: a hierarchical timer wheel with an exact
//! `(time, push-order)` contract.
//!
//! # Ordering contract
//!
//! [`EventQueue`] pops events in strictly increasing `(at, seq)` order,
//! where `seq` is the push sequence number the queue assigns internally:
//! earlier deadlines first, FIFO among events with the same deadline.
//! This is exactly the order the simulator's former
//! `BinaryHeap<Reverse<QueuedEvent>>` produced, so the wheel changes
//! *how* events are stored, never the order the kernel sees. The
//! differential tests in `netsim/tests/event_queue.rs` hold it to an
//! `(at, seq)`-ordered oracle of their own.
//!
//! # Wheel shape
//!
//! Eleven levels of 64 slots each (6 bits per level) cover the full
//! `u64` nanosecond range with no overflow list:
//!
//! * level 0: 64 slots × 1 ns — one slot per nanosecond,
//! * level 1: 64 slots × 64 ns,
//! * level k: 64 slots × 64ᵏ ns.
//!
//! An event is filed at the level of the highest bit in which its
//! deadline differs from the wheel's current time (`elapsed`): far
//! deadlines sit high, near deadlines sit low. As `elapsed` advances to
//! a higher-level slot's start, that slot *cascades*: its events are
//! re-filed relative to the new `elapsed`, landing at strictly lower
//! levels, until the next event is resolved to a level-0 slot. A level-0
//! slot spans exactly one nanosecond, so every event in it shares one
//! deadline and slot FIFO order *is* `seq` order (pushes only ever
//! append, and later pushes carry larger `seq`).
//!
//! Two invariants make the bottom-up slot scan exact (proved by the
//! placement rule, relied on by `resolve`):
//!
//! * occupied slots never sit behind a level's cursor — a deadline in
//!   the past of `elapsed` is never *placed* in the wheel (see below);
//! * at levels ≥ 1 the cursor slot itself is empty, so the first
//!   occupied slot of the lowest non-empty level is the global minimum.
//!
//! # Deadlines behind the wheel
//!
//! `elapsed` only advances toward the next stored event (slot starts
//! during a cascade, the popped deadline on a pop), never past it. A
//! *later* push can still carry an earlier deadline — e.g. a test
//! driving the kernel directly after a bounded `run_until` whose scan
//! cascaded ahead of `Kernel::now`. Rather than clamp (which would
//! reorder ties), such events go to a tiny side heap ordered by
//! `(at, seq)`, and every pop compares the side heap's head with the
//! wheel's. The side heap is empty in steady state — the kernel pushes
//! at or after the event being processed — so the hot path pays one
//! `is_empty` check.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const BITS: u32 = 6;
const SLOTS: usize = 1 << BITS; // 64
const LEVELS: usize = 11; // 11 × 6 bits ≥ 64 bits of nanoseconds
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// One stored event: deadline, push sequence, payload.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

/// An entry of the side heap of deadlines behind the wheel, compared
/// on `(at, seq)` only.
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.seq == other.0.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.at, self.0.seq).cmp(&(other.0.at, other.0.seq))
    }
}

/// A queue of `(deadline, payload)` events popped in `(at, seq)` order:
/// a hierarchical timer wheel. See the module docs for the shape and the
/// ordering argument.
pub struct EventQueue<T> {
    /// Current wheel time, in nanoseconds. Advances monotonically, and
    /// never past the earliest stored event.
    elapsed: u64,
    /// `slots[level][slot]`: FIFO of entries filed there.
    slots: Vec<Vec<VecDeque<Entry<T>>>>,
    /// Per-level occupancy bitmaps (bit `s` set ⇔ `slots[level][s]`
    /// non-empty).
    occupied: [u64; LEVELS],
    /// Events pushed with deadlines behind `elapsed` (rare; see module
    /// docs). Ordered by `(at, seq)` like everything else.
    past: BinaryHeap<Reverse<HeapEntry<T>>>,
    next_seq: u64,
    len: usize,
    /// Scratch for cascades: spare deques with retained capacity, so a
    /// steady-state wheel allocates nothing.
    spare: Vec<VecDeque<Entry<T>>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            elapsed: 0,
            slots: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| VecDeque::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            past: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// The level an event at `at` files under, relative to `elapsed`:
    /// the level of the highest differing bit.
    #[inline]
    fn level_for(elapsed: u64, at: u64) -> usize {
        let masked = at ^ elapsed;
        debug_assert!(masked != 0, "same-nanosecond events are level 0");
        ((63 - masked.leading_zeros()) / BITS) as usize
    }

    /// Schedule `item` at `at`. Events with equal `at` pop in push order.
    #[inline]
    pub fn push(&mut self, at: SimTime, item: T) {
        self.next_seq += 1;
        let e = Entry {
            at,
            seq: self.next_seq,
            item,
        };
        self.len += 1;
        if at.as_nanos() < self.elapsed {
            self.past.push(Reverse(HeapEntry(e)));
            return;
        }
        self.file(e);
    }

    /// File an entry at its level/slot relative to `elapsed`.
    /// Precondition: `at >= elapsed`.
    #[inline]
    fn file(&mut self, e: Entry<T>) {
        let at = e.at.as_nanos();
        debug_assert!(at >= self.elapsed);
        let (level, slot) = if at == self.elapsed {
            (0, (at & SLOT_MASK) as usize)
        } else {
            let level = Self::level_for(self.elapsed, at);
            (level, ((at >> (BITS * level as u32)) & SLOT_MASK) as usize)
        };
        self.slots[level][slot].push_back(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Resolve the earliest stored wheel event down to its level-0 slot,
    /// cascading higher-level slots as `elapsed` reaches them. Returns
    /// the slot index, or `None` when the wheel holds no events. Does
    /// not consider `past`.
    fn resolve(&mut self) -> Option<usize> {
        loop {
            let level = (0..LEVELS).find(|&l| self.occupied[l] != 0)?;
            let cursor = ((self.elapsed >> (BITS * level as u32)) & SLOT_MASK) as u32;
            let ahead = self.occupied[level] & (!0u64 << cursor);
            debug_assert!(
                ahead != 0,
                "occupied slot behind the level-{level} cursor (cursor {cursor}, bitmap {:#x})",
                self.occupied[level]
            );
            let slot = ahead.trailing_zeros() as usize;
            if level == 0 {
                // All entries in a level-0 slot share one nanosecond.
                return Some(slot);
            }
            // Cascade: advance to the slot's start and re-file its
            // entries relative to the new `elapsed`. Every entry lands
            // at a strictly lower level, and FIFO re-filing keeps equal
            // deadlines in seq order.
            let shift = BITS * (level as u32 + 1);
            let base = if shift >= 64 {
                0
            } else {
                (self.elapsed >> shift) << shift
            };
            let slot_start = base | ((slot as u64) << (BITS * level as u32));
            debug_assert!(slot_start >= self.elapsed);
            self.elapsed = slot_start;
            self.occupied[level] &= !(1 << slot);
            let mut moved = std::mem::replace(
                &mut self.slots[level][slot],
                self.spare.pop().unwrap_or_default(),
            );
            for e in moved.drain(..) {
                self.file(e);
            }
            self.spare.push(moved);
        }
    }

    /// Pop the earliest event, or `None` if empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_before(SimTime::MAX)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pop the earliest event only if its deadline is `<= deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let slot = self.resolve();
        // Earliest wheel candidate, as an `(at, seq)` key.
        let wheel_key = slot.map(|s| {
            let head = self.slots[0][s].front().expect("occupied level-0 slot");
            (head.at, head.seq)
        });
        let past_key = self.past.peek().map(|Reverse(HeapEntry(e))| (e.at, e.seq));
        let use_past = match (wheel_key, past_key) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(w), Some(p)) => p < w,
        };
        let e = if use_past {
            let (at, _) = past_key.expect("past candidate");
            if at > deadline {
                return None;
            }
            let Reverse(HeapEntry(e)) = self.past.pop().expect("peeked past entry");
            e
        } else {
            let s = slot.expect("wheel candidate");
            if self.slots[0][s].front().expect("occupied slot").at > deadline {
                return None;
            }
            let e = self.slots[0][s].pop_front().expect("occupied slot");
            if self.slots[0][s].is_empty() {
                self.occupied[0] &= !(1 << s);
            }
            // Advance to the popped deadline so same-nanosecond pushes
            // made while the caller processes this event file into the
            // same (still-front) slot, behind it in FIFO order.
            self.elapsed = e.at.as_nanos();
            e
        };
        self.len -= 1;
        Some((e.at, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn fifo_at_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(t(500), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(500), i)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn orders_across_levels() {
        let mut q = EventQueue::new();
        q.push(t(1_000_000_000), "far");
        q.push(t(3), "near");
        q.push(t(70_000), "mid");
        assert_eq!(q.pop(), Some((t(3), "near")));
        assert_eq!(q.pop(), Some((t(70_000), "mid")));
        assert_eq!(q.pop(), Some((t(1_000_000_000), "far")));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(100), 1);
        q.push(t(200), 2);
        assert_eq!(q.pop_before(t(150)), Some((t(100), 1)));
        assert_eq!(q.pop_before(t(150)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(t(200)), Some((t(200), 2)));
    }

    #[test]
    fn push_behind_elapsed_still_pops_in_heap_order() {
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 1);
        // Cascading a failed bounded pop may advance the wheel ahead of
        // the caller's clock.
        assert_eq!(q.pop_before(t(500_000)), None);
        q.push(t(10), 2);
        q.push(t(5), 3);
        assert_eq!(q.pop(), Some((t(5), 3)));
        assert_eq!(q.pop(), Some((t(10), 2)));
        assert_eq!(q.pop(), Some((t(1_000_000), 1)));
    }

    #[test]
    fn push_during_drain_of_same_nanosecond() {
        let mut q = EventQueue::new();
        q.push(t(64), 1);
        q.push(t(64), 2);
        assert_eq!(q.pop(), Some((t(64), 1)));
        // Pushed mid-drain at the nanosecond being drained: pops after
        // already-queued peers (it has the larger seq).
        q.push(t(64), 3);
        assert_eq!(q.pop(), Some((t(64), 2)));
        assert_eq!(q.pop(), Some((t(64), 3)));
    }

    #[test]
    fn heap_reference_same_order() {
        let mut w = EventQueue::new();
        let times = [5u64, 5, 900_000_000_000, 64, 65, 64, 0, 1 << 40, 5];
        for (i, &ns) in times.iter().enumerate() {
            w.push(t(ns), i);
        }
        // The reference order: by deadline, then push order (a stable
        // sort of the push indices).
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by_key(|&i| times[i]);
        for i in expected {
            assert_eq!(w.pop(), Some((t(times[i]), i)));
        }
        assert!(w.pop().is_none());
    }

    #[test]
    fn len_tracks_both_stores() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(1000), 1);
        let _ = q.pop_before(t(10));
        q.push(t(1), 2); // behind elapsed only if the wheel advanced
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
