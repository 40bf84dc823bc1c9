//! The pending-event set.
//!
//! Two interchangeable implementations sit behind the [`Scheduler`] trait:
//!
//! * [`EventQueue`] — a binary heap keyed on `(timestamp, sequence number)`,
//!   the reference implementation. Simple, allocation-light, `O(log n)` per
//!   operation.
//! * [`CalendarQueue`](crate::calendar::CalendarQueue) — a two-level
//!   calendar/timing-wheel scheduler with amortised `O(1)` scheduling for the
//!   near future, the default engine since the hot-path refactor.
//!
//! Both deliver events in strictly increasing `(time, EventId)` order. The
//! sequence number makes delivery of same-timestamp events FIFO with respect
//! to scheduling order, which is what keeps simulations deterministic when
//! many components react at the same instant (e.g. all mappers of a shuffle
//! start at t=0). The property test in `tests/scheduler_equivalence.rs`
//! checks the two implementations agree on arbitrary schedule/pop/peek
//! sequences.
//!
//! Scheduled events cannot be cancelled: no model needs it, so a push or a
//! pop hashes nothing and every stored entry is pending.

use crate::event::EventId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry. Shared with the calendar scheduler.
pub(crate) struct Entry<E> {
    pub(crate) at: SimTime,
    pub(crate) id: EventId,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
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
        // BinaryHeap is a max-heap; reverse so the earliest (time, id) pops first.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// The pending-event set interface the [`Simulator`](crate::engine::Simulator)
/// drives. Implementations must deliver events in strictly increasing
/// `(time, EventId)` order; ids pushed must be unique among pending events
/// (the engine's monotone sequence counter guarantees this).
pub trait Scheduler<E> {
    /// Inserts an event at `at` with identity `id`.
    fn push(&mut self, at: SimTime, id: EventId, event: E);
    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<(SimTime, EventId, E)>;
    /// Timestamp of the earliest pending event without removing it. Takes
    /// `&mut self` so implementations may reorganise their storage.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True if there are no pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Discards every pending event.
    fn clear(&mut self);
}

/// A timestamp-ordered binary-heap queue of pending events — the reference
/// [`Scheduler`] implementation.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Inserts an event at `at` with identity `id`.
    pub fn push(&mut self, at: SimTime, id: EventId, event: E) {
        self.heap.push(Entry { at, id, event });
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        self.heap
            .pop()
            .map(|entry| (entry.at, entry.id, entry.event))
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|head| head.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards every pending event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Scheduler<E> for EventQueue<E> {
    fn push(&mut self, at: SimTime, id: EventId, event: E) {
        EventQueue::push(self, at, id, event)
    }
    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        EventQueue::pop(self)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
    fn clear(&mut self) {
        EventQueue::clear(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), EventId(2), "c");
        q.push(t(10), EventId(0), "a");
        q.push(t(20), EventId(1), "b");
        assert_eq!(q.pop().unwrap().2, "a");
        assert_eq!(q.pop().unwrap().2, "b");
        assert_eq!(q.pop().unwrap().2, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_timestamps_are_fifo_by_id() {
        let mut q = EventQueue::new();
        q.push(t(5), EventId(7), "second");
        q.push(t(5), EventId(3), "first");
        q.push(t(5), EventId(9), "third");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "second");
        assert_eq!(q.pop().unwrap().2, "third");
    }

    #[test]
    fn peek_time_reports_the_head_without_removing_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(2), EventId(1), 2u32);
        q.push(t(1), EventId(0), 1u32);
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.len(), 2, "a peek removes nothing");
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..10u64 {
            q.push(t(i), EventId(i), i);
        }
        assert_eq!(q.len(), 10);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn large_interleaved_workload_stays_ordered() {
        let mut q = EventQueue::new();
        // Insert in a scrambled but deterministic order.
        let mut id = 0u64;
        for round in 0..100u64 {
            for k in [7u64, 3, 9, 1, 5] {
                q.push(t(round * 10 + k), EventId(id), round * 10 + k);
                id += 1;
            }
        }
        let mut last = 0u64;
        let mut count = 0;
        while let Some((at, _, v)) = q.pop() {
            assert_eq!(at, t(v));
            assert!(v >= last, "events must pop in non-decreasing time order");
            last = v;
            count += 1;
        }
        assert_eq!(count, 500);
    }
}
