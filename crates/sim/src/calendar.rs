//! A two-level calendar-queue scheduler.
//!
//! Discrete-event simulators spend a large share of their cycles in the
//! pending-event set; a binary heap pays `O(log n)` pointer-chasing per
//! operation. A calendar queue exploits the fact that most events are
//! scheduled a short, bounded distance into the future (serialization
//! delays, per-hop propagation, control epochs) and buckets them by arrival
//! window instead:
//!
//! * **Near level** — a power-of-two ring of buckets, each spanning a fixed
//!   window of simulated time (the *bucket width*). Scheduling into the ring
//!   is an index computation and a `Vec::push`: amortised `O(1)`.
//! * **Far level** — events beyond the ring's coverage go to an overflow
//!   binary heap and migrate into the ring as the cursor sweeps forward.
//!
//! The bucket currently being drained is sorted by `(time, EventId)` once,
//! when it becomes current, and then popped from the end of that sorted
//! **run**. Entries pushed into the window being drained after it was loaded
//! (zero-delay re-schedules, same-instant retries) go to a small **late**
//! heap beside the run, and each pop takes the earlier of the two heads. A
//! bucket can hold thousands of entries at one instant (e10's injector
//! retries), so one sort per bucket beats a heap pop per entry. Delivery
//! order is **identical** to [`EventQueue`](crate::queue::EventQueue):
//! strictly increasing `(time, id)` across the whole run. Ids are unique
//! among pending entries (checked in debug builds whenever a bucket is
//! sorted), so an unstable sort is exact. Determinism does not depend on the
//! geometry; bucket width and count only affect speed. The equivalence is
//! property-tested in `tests/scheduler_equivalence.rs`.
//!
//! Nothing is hashed per event: like the heap queue, the calendar offers no
//! cancellation, so every stored entry is pending.

use crate::event::EventId;
use crate::queue::{Entry, Scheduler};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// Default log2 of the bucket width in picoseconds: 2^16 ps ≈ 65.5 ns, a few
/// MTU serialization times at 100 Gb/s.
const DEFAULT_WIDTH_SHIFT: u32 = 16;
/// Default log2 of the bucket count: 2048 buckets ≈ 134 µs of coverage,
/// comfortably past the control-epoch and retry timescales of the fabric.
const DEFAULT_BUCKET_SHIFT: u32 = 11;

/// A two-level calendar/timing-wheel scheduler. See the module docs.
pub struct CalendarQueue<E> {
    /// Future near-level buckets; each holds one window's entries, unsorted.
    buckets: Vec<Vec<Entry<E>>>,
    /// The bucket currently being drained, sorted once when it was loaded.
    /// `Entry`'s order is reversed, so the earliest entry is last.
    run: Vec<Entry<E>>,
    /// Entries placed into the window being drained after it was loaded, as
    /// a `(time, id)` min-heap.
    late: BinaryHeap<Entry<E>>,
    /// Start (inclusive) of the current bucket's window, in picoseconds.
    cursor_start: u64,
    /// First instant (exclusive) covered by the ring; entries at or beyond
    /// it overflow into `far`.
    far_horizon: u64,
    /// Overflow heap for the far future.
    far: BinaryHeap<Entry<E>>,
    /// Entries sitting in `buckets` (excluding `run`, `late` and `far`).
    near_count: usize,
    /// log2 of the bucket width in picoseconds.
    width_shift: u32,
    /// `buckets.len() - 1`; bucket count is a power of two.
    index_mask: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates a calendar queue with the default geometry (65.5 ns buckets,
    /// 134 µs of near-level coverage).
    pub fn new() -> Self {
        Self::with_geometry(DEFAULT_WIDTH_SHIFT, DEFAULT_BUCKET_SHIFT)
    }

    /// Creates a calendar queue with `2^width_shift` picoseconds per bucket
    /// and `2^bucket_shift` buckets. Geometry affects speed only, never
    /// delivery order.
    pub fn with_geometry(width_shift: u32, bucket_shift: u32) -> Self {
        assert!(width_shift < 48, "bucket width out of range");
        assert!(
            (1..=20).contains(&bucket_shift),
            "bucket count out of range"
        );
        let count = 1usize << bucket_shift;
        let mut buckets = Vec::with_capacity(count);
        buckets.resize_with(count, Vec::new);
        CalendarQueue {
            buckets,
            run: Vec::new(),
            late: BinaryHeap::new(),
            cursor_start: 0,
            far_horizon: horizon_for(0, width_shift, count as u64),
            far: BinaryHeap::new(),
            near_count: 0,
            width_shift,
            index_mask: count as u64 - 1,
        }
    }

    /// True when nothing of the window being drained is left.
    #[inline]
    fn window_drained(&self) -> bool {
        self.run.is_empty() && self.late.is_empty()
    }

    /// True when the late heap, not the run, holds the window's earliest
    /// entry. `Entry`'s order is reversed: the greater entry is earlier.
    #[inline]
    fn late_first(&self) -> bool {
        match (self.run.last(), self.late.peek()) {
            (Some(run), Some(late)) => late > run,
            (run, _) => run.is_none(),
        }
    }

    /// Width of one bucket in picoseconds.
    #[inline]
    fn width(&self) -> u64 {
        1u64 << self.width_shift
    }

    /// End (exclusive) of the current bucket's window.
    #[inline]
    fn current_window_end(&self) -> u64 {
        self.cursor_start.saturating_add(self.width())
    }

    /// The ring slot owning instant `t` (valid only for `t < far_horizon`).
    #[inline]
    fn slot_of(&self, t: u64) -> usize {
        ((t >> self.width_shift) & self.index_mask) as usize
    }

    /// Stores an entry in whichever level owns its timestamp. Entries at or
    /// before the current window go to the late heap, which keeps
    /// out-of-order pushes (and same-instant re-schedules) correct.
    fn place(&mut self, entry: Entry<E>) {
        let t = entry.at.as_picos();
        if t < self.current_window_end() {
            self.late.push(entry);
        } else if t < self.far_horizon {
            let slot = self.slot_of(t);
            self.buckets[slot].push(entry);
            self.near_count += 1;
        } else {
            self.far.push(entry);
        }
    }

    /// Migrates far-heap entries whose time has come under the ring horizon.
    fn drain_far(&mut self) {
        while let Some(head) = self.far.peek() {
            if head.at.as_picos() >= self.far_horizon {
                break;
            }
            let entry = self.far.pop().expect("peeked entry must pop");
            self.place(entry);
        }
    }

    /// Advances to the next non-empty region, filling `run` or `late`.
    /// Returns false when nothing is stored anywhere. Does not deliver
    /// events, so it is safe to call from `peek_time`.
    fn advance(&mut self) -> bool {
        debug_assert!(self.window_drained());
        // The late heap outlives no window: a burst of same-instant pushes
        // (e10 starts 65,280 flows at t = 0) must not keep its buffer alive.
        self.late = BinaryHeap::new();
        loop {
            if self.near_count == 0 {
                // The ring is empty: jump the wheel straight to the earliest
                // far entry instead of sweeping empty buckets.
                let Some(head) = self.far.peek() else {
                    return false;
                };
                let base = head.at.as_picos() >> self.width_shift;
                self.cursor_start = base << self.width_shift;
                self.far_horizon =
                    horizon_for(self.cursor_start, self.width_shift, self.index_mask + 1);
                self.drain_far();
                if self.window_drained() {
                    // Pathological timestamps at or beyond the saturated
                    // horizon (e.g. SimTime::MAX) cannot be placed in the
                    // ring; drain them straight into the run.
                    let entry = self.far.pop().expect("far head exists");
                    self.run.push(entry);
                }
                return true;
            }
            // Sweep forward one bucket. The slot just vacated becomes the
            // ring's new farthest window, so pull any far entries that now
            // fit under the horizon.
            self.cursor_start = self.cursor_start.saturating_add(self.width());
            self.far_horizon = self.far_horizon.saturating_add(self.width());
            self.drain_far();
            let slot = self.slot_of(self.cursor_start);
            if !self.buckets[slot].is_empty() {
                let mut run = std::mem::take(&mut self.buckets[slot]);
                self.near_count -= run.len();
                run.sort_unstable();
                debug_assert!(
                    run.windows(2).all(|pair| pair[0] != pair[1]),
                    "two pending events share a (time, id)"
                );
                self.run = run;
                return true;
            }
        }
    }
}

fn horizon_for(start: u64, width_shift: u32, bucket_count: u64) -> u64 {
    (start >> width_shift)
        .saturating_add(bucket_count)
        .saturating_mul(1u64 << width_shift)
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn push(&mut self, at: SimTime, id: EventId, event: E) {
        self.place(Entry { at, id, event });
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        if self.window_drained() && !self.advance() {
            return None;
        }
        let entry = if self.late_first() {
            self.late.pop()
        } else {
            self.run.pop()
        }?;
        Some((entry.at, entry.id, entry.event))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.window_drained() && !self.advance() {
            return None;
        }
        let head = if self.late_first() {
            self.late.peek()
        } else {
            self.run.last()
        }?;
        Some(head.at)
    }

    fn len(&self) -> usize {
        self.near_count + self.run.len() + self.late.len() + self.far.len()
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.run.clear();
        self.late.clear();
        self.far.clear();
        self.near_count = 0;
        self.cursor_start = 0;
        self.far_horizon = horizon_for(0, self.width_shift, self.index_mask + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order_within_one_bucket() {
        let mut q = CalendarQueue::new();
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
        let mut q = CalendarQueue::new();
        q.push(t(5), EventId(7), "second");
        q.push(t(5), EventId(3), "first");
        q.push(t(5), EventId(9), "third");
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "second");
        assert_eq!(q.pop().unwrap().2, "third");
    }

    #[test]
    fn pushes_into_the_window_being_drained_merge_with_its_run() {
        let ps = SimTime::from_picos;
        let mut q = CalendarQueue::with_geometry(10, 3); // 1,024 ps buckets
        q.push(ps(2_500), EventId(2), "c");
        q.push(ps(2_100), EventId(0), "a");
        q.push(ps(2_300), EventId(1), "b");
        assert_eq!(q.pop().unwrap().2, "a", "the bucket loads as a sorted run");
        assert_eq!(q.run.len(), 2);
        // Both land in the window being drained: the late heap.
        q.push(ps(2_200), EventId(3), "late");
        q.push(ps(2_100), EventId(4), "same instant");
        assert_eq!(q.late.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, ["same instant", "late", "b", "c"]);
    }

    #[test]
    fn the_late_heap_keeps_no_buffer_past_its_window() {
        let mut q = CalendarQueue::with_geometry(10, 3);
        // A same-instant burst before the first pop lands in the window
        // being drained.
        for i in 0..1_000u64 {
            q.push(SimTime::ZERO, EventId(1_000 - i), i);
        }
        assert_eq!(q.late.len(), 1_000);
        for i in (0..1_000u64).rev() {
            assert_eq!(q.pop().unwrap().2, i);
        }
        q.push(t(5), EventId(0), 1_000);
        assert_eq!(q.pop().unwrap().2, 1_000);
        assert_eq!(
            q.late.capacity(),
            0,
            "the burst's buffer outlived its window"
        );
    }

    #[test]
    fn orders_across_buckets_and_far_overflow() {
        // Times span many bucket windows and far past the ring horizon.
        let mut q = CalendarQueue::with_geometry(10, 3); // 1 ns buckets, 8 of them
        let times = [5u64, 900, 3, 44_000, 7, 1_000_000, 2, 512, 100_000];
        for (i, &ns) in times.iter().enumerate() {
            q.push(t(ns), EventId(i as u64), ns);
        }
        let mut sorted = times;
        sorted.sort();
        for &expect in &sorted {
            let (at, _, v) = q.pop().unwrap();
            assert_eq!(v, expect);
            assert_eq!(at, t(expect));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_reports_the_head_across_buckets() {
        let mut q = CalendarQueue::with_geometry(10, 3);
        assert_eq!(q.peek_time(), None);
        q.push(t(10_000_000), EventId(1), "far");
        q.push(t(1), EventId(0), "now");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop().unwrap().2, "now");
        assert_eq!(q.peek_time(), Some(t(10_000_000)));
        assert_eq!(q.len(), 1, "a peek removes nothing");
        assert_eq!(q.pop().unwrap().2, "far");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = CalendarQueue::with_geometry(10, 3);
        for i in 0..100u64 {
            q.push(t(i * 1000), EventId(i), i);
        }
        assert_eq!(q.len(), 100);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        // Still usable after clear.
        q.push(t(5), EventId(1000), 7u64);
        assert_eq!(q.pop().unwrap().2, 7);
    }

    #[test]
    fn interleaved_push_pop_matches_heap_queue() {
        // A deterministic pseudo-random workload driven against both
        // schedulers must produce the same delivery sequence.
        let mut cal = CalendarQueue::with_geometry(12, 4);
        let mut heap = EventQueue::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut id = 0u64;
        let mut clock = 0u64;
        for _ in 0..2000 {
            match next(4) {
                0 | 1 => {
                    let at = t(clock + next(500_000));
                    cal.push(at, EventId(id), id);
                    heap.push(at, EventId(id), id);
                    id += 1;
                }
                2 => assert_eq!(cal.peek_time(), heap.peek_time()),
                _ => {
                    let a = cal.pop();
                    let b = heap.pop();
                    match (&a, &b) {
                        (Some((ta, ia, _)), Some((tb, ib, _))) => {
                            assert_eq!((ta, ia), (tb, ib));
                            clock = ta.as_picos() / 1000;
                        }
                        (None, None) => {}
                        _ => panic!("one scheduler drained before the other"),
                    }
                }
            }
            assert_eq!(cal.len(), heap.len());
        }
        loop {
            let a = cal.pop();
            let b = heap.pop();
            match (&a, &b) {
                (Some((ta, ia, _)), Some((tb, ib, _))) => assert_eq!((ta, ia), (tb, ib)),
                (None, None) => break,
                _ => panic!("one scheduler drained before the other"),
            }
        }
    }
}
