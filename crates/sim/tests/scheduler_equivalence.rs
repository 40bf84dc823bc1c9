//! Property test: the calendar-queue scheduler delivers exactly the same
//! `(time, EventId)` sequence as the reference binary-heap scheduler for
//! arbitrary schedule/pop/peek interleavings, across arbitrary queue
//! geometries. This is the invariant that lets the engine swap schedulers
//! without ever changing simulation results.
//!
//! Ids come either from a monotone counter, as the monolithic engine
//! allocates them, or as unique but unordered content keys, as the windowed
//! engine's models choose them. Burst scripts push hundreds to thousands of
//! events at one instant, as e10's injector retries do, and push into the
//! window being drained, which the calendar keeps beside its sorted run.

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
    /// Schedule `count` events, all at `now + offset_ps`.
    Burst(u64, usize),
    /// Pop up to this many events.
    Pop(usize),
    /// Peek the next timestamp.
    Peek,
}

/// How a script numbers its pushes.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// A monotone sequence counter, as the monolithic engine allocates.
    Sequence,
    /// Unique but not monotone, as the windowed engine's content keys are.
    Keyed,
}

impl Ids {
    /// The id of the `n`-th push.
    fn id(self, n: u64) -> EventId {
        match self {
            Ids::Sequence => EventId(n),
            // splitmix64's finaliser is a bijection on u64, so distinct
            // counters give distinct, scrambled ids.
            Ids::Keyed => {
                let mut z = n.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                EventId(z ^ (z >> 31))
            }
        }
    }
}

/// What one script did, as both schedulers agreed on it.
struct Trace {
    /// Every delivery, `(time in ps, id)`, in order.
    deliveries: Vec<(u64, u64)>,
    /// Pushes after the first pop that landed in the bucket window of the
    /// last delivered event: the window being drained.
    late_pushes: usize,
}

/// Drives the same operation script against both schedulers and asserts the
/// observable behaviour matches step for step.
fn run_script(ops: &[Op], ids: Ids, width_shift: u32, bucket_shift: u32) -> Trace {
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_geometry(width_shift, bucket_shift);
    let mut pushed = 0u64;
    let mut clock = 0u64; // monotone like the engine's clock
    let mut trace = Trace {
        deliveries: Vec::new(),
        late_pushes: 0,
    };
    for op in ops {
        match *op {
            Op::Push(offset) | Op::Burst(offset, _) => {
                let count = match *op {
                    Op::Burst(_, count) => count,
                    _ => 1,
                };
                let at = clock.saturating_add(offset);
                if !trace.deliveries.is_empty() && at >> width_shift == clock >> width_shift {
                    trace.late_pushes += count;
                }
                for _ in 0..count {
                    let id = ids.id(pushed);
                    pushed += 1;
                    heap.push(SimTime::from_picos(at), id, id.as_u64());
                    cal.push(SimTime::from_picos(at), id, id.as_u64());
                }
            }
            Op::Pop(count) => {
                for _ in 0..count {
                    let a = heap.pop();
                    let b = cal.pop();
                    match (a, b) {
                        (Some((ta, ia, va)), Some((tb, ib, vb))) => {
                            assert_eq!((ta, ia, va), (tb, ib, vb), "pop order diverged");
                            assert!(ta.as_picos() >= clock, "time went backwards");
                            clock = ta.as_picos();
                            trace.deliveries.push((ta.as_picos(), ia.as_u64()));
                        }
                        (None, None) => break,
                        (a, b) => panic!("one scheduler drained early: heap={a:?} cal={b:?}"),
                    }
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
                trace.deliveries.push((ta.as_picos(), ia.as_u64()));
            }
            (None, None) => break,
            (a, b) => panic!("one scheduler drained early: heap={a:?} cal={b:?}"),
        }
    }
    trace
}

/// A deterministic xorshift stream seeded from `seed`.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Decodes a deterministic operation script from a seed: a mix of pushes
/// (short, medium and far offsets), pops and peeks.
fn script_from_seed(seed: u64, len: usize) -> Vec<Op> {
    let mut next = stream(seed);
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
            _ => Op::Pop(1),
        })
        .collect()
}

/// Decodes a burst script from a seed: same-instant bursts of 100–2,999
/// events, partial drains of up to 499 pops, and single pushes at the
/// current instant, inside its bucket, or a few buckets out. It opens with a
/// burst at t = 0, a partial drain and a push at the instant just
/// delivered, so every script pushes into the window being drained.
fn burst_script_from_seed(seed: u64, len: usize) -> Vec<Op> {
    let mut next = stream(seed);
    let mut ops = vec![
        Op::Burst(0, 100 + (next() % 900) as usize),
        Op::Pop(7),
        Op::Push(0),
    ];
    ops.extend((0..len).map(|_| match next() % 16 {
        0 => {
            let offset = match next() % 3 {
                0 => 0,
                1 => next() % 1_000,
                _ => next() % 1_000_000,
            };
            Op::Burst(offset, 100 + (next() % 2_900) as usize)
        }
        1..=3 => Op::Pop(1 + (next() % 499) as usize),
        4..=5 => Op::Push(0),
        6..=8 => Op::Push(next() % 1_000),
        9..=10 => Op::Push(next() % 1_000_000),
        11 => Op::Peek,
        _ => Op::Pop(1),
    }));
    ops
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
        let trace = run_script(&ops, Ids::Sequence, width_shift, bucket_shift);
        // Sanity: the shared trace itself is monotone in (time, id).
        for pair in trace.deliveries.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "delivery times must be monotone");
        }
    }

    /// Content-keyed ids, same-instant bursts and pushes into the window
    /// being drained: the calendar's sorted run and late heap must together
    /// deliver the heap's `(time, id)` order, pop for pop.
    #[test]
    fn calendar_matches_heap_under_content_keys_and_bursts(
        seed in 0u64..1_000_000_000,
        len in 20usize..120,
        width_shift in 4u32..24,
        bucket_shift in 1u32..10,
    ) {
        let ops = burst_script_from_seed(seed, len);
        let trace = run_script(&ops, Ids::Keyed, width_shift, bucket_shift);
        prop_assert!(trace.late_pushes > 0, "no push landed in the window being drained");
        for pair in trace.deliveries.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "delivery times must be monotone");
        }
    }

    /// Geometry never changes results: the same script delivers the same
    /// trace on very different calendar shapes.
    #[test]
    fn geometry_is_performance_only(seed in 0u64..1_000_000_000) {
        let ops = script_from_seed(seed, 200);
        let a = run_script(&ops, Ids::Sequence, 4, 2).deliveries;
        let b = run_script(&ops, Ids::Sequence, 16, 11).deliveries;
        let c = run_script(&ops, Ids::Sequence, 22, 5).deliveries;
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }
}
