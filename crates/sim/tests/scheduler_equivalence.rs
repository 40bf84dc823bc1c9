//! Property test: the calendar-queue scheduler delivers exactly the same
//! `(time, EventId)` sequence as the reference binary-heap scheduler for
//! arbitrary schedule/pop/peek interleavings, across arbitrary queue
//! geometries. This is the invariant that lets the engine swap schedulers
//! without ever changing simulation results.

use proptest::prelude::*;
use rackfabric_sim::calendar::CalendarQueue;
use rackfabric_sim::event::EventId;
use rackfabric_sim::queue::{EventQueue, Scheduler};
use rackfabric_sim::time::SimTime;

/// One scripted operation against both schedulers.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + offset_ps`.
    Push(u64),
    /// Pop one event.
    Pop,
    /// Peek the next timestamp.
    Peek,
}

/// Drives the same operation script against both schedulers and asserts the
/// observable behaviour matches step for step. Returns the delivery trace.
fn run_script(ops: &[Op], width_shift: u32, bucket_shift: u32) -> Vec<(u64, u64)> {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_geometry(width_shift, bucket_shift);
    let mut next_id = 0u64;
    let mut clock = 0u64; // monotone like the engine's clock
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            Op::Push(offset) => {
                let at = SimTime::from_picos(clock.saturating_add(offset));
                let id = EventId(next_id);
                next_id += 1;
                heap.push(at, id, id.as_u64());
                cal.push(at, id, id.as_u64());
            }
            Op::Pop => {
                let a = heap.pop();
                let b = cal.pop();
                match (a, b) {
                    (Some((ta, ia, va)), Some((tb, ib, vb))) => {
                        assert_eq!((ta, ia, va), (tb, ib, vb), "pop order diverged");
                        assert!(ta.as_picos() >= clock, "time went backwards");
                        clock = ta.as_picos();
                        trace.push((ta.as_picos(), ia.as_u64()));
                    }
                    (None, None) => {}
                    (a, b) => panic!("one scheduler drained early: heap={a:?} cal={b:?}"),
                }
            }
            Op::Peek => {
                assert_eq!(heap.peek_time(), cal.peek_time(), "peek_time diverged");
            }
        }
        assert_eq!(heap.len(), cal.len(), "pending counts diverged");
        assert_eq!(heap.is_empty(), cal.is_empty());
    }
    // Drain both completely; the tails must agree too.
    loop {
        match (heap.pop(), cal.pop()) {
            (Some((ta, ia, _)), Some((tb, ib, _))) => {
                assert_eq!((ta, ia), (tb, ib), "drain order diverged");
                trace.push((ta.as_picos(), ia.as_u64()));
            }
            (None, None) => break,
            (a, b) => panic!("one scheduler drained early: heap={a:?} cal={b:?}"),
        }
    }
    trace
}

/// Decodes a deterministic operation script from a seed: a mix of pushes
/// (short, medium and far offsets), pops and peeks.
fn script_from_seed(seed: u64, len: usize) -> Vec<Op> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| match next() % 10 {
            0..=3 => {
                // Offsets spanning sub-bucket, multi-bucket and far-overflow
                // distances so every level of the calendar is exercised.
                let magnitude = match next() % 4 {
                    0 => next() % 1_000,              // within one bucket
                    1 => next() % 1_000_000,          // a few buckets
                    2 => next() % 1_000_000_000,      // across the ring
                    _ => next() % 50_000_000_000_000, // far overflow
                };
                Op::Push(magnitude)
            }
            4..=5 => Op::Peek,
            _ => Op::Pop,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random schedule/pop/peek scripts over random queue geometries
    /// must produce identical `(time, id)` delivery orders on both
    /// schedulers, pop for pop.
    #[test]
    fn calendar_matches_heap_on_random_scripts(
        seed in 0u64..1_000_000_000,
        len in 50usize..400,
        width_shift in 4u32..24,
        bucket_shift in 1u32..10,
    ) {
        let ops = script_from_seed(seed, len);
        let trace = run_script(&ops, width_shift, bucket_shift);
        // Sanity: the shared trace itself is monotone in (time, id).
        for pair in trace.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "delivery times must be monotone");
        }
    }

    /// Geometry never changes results: the same script delivers the same
    /// trace on very different calendar shapes.
    #[test]
    fn geometry_is_performance_only(seed in 0u64..1_000_000_000) {
        let ops = script_from_seed(seed, 200);
        let a = run_script(&ops, 4, 2);
        let b = run_script(&ops, 16, 11);
        let c = run_script(&ops, 22, 5);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }
}
