//! The model/event abstraction driven by the [`Simulator`](crate::engine::Simulator).
//!
//! A simulation is a single [`Model`] (usually a struct owning every switch,
//! link and controller in the rack) plus a typed event payload. The engine
//! owns the clock and the pending-event set; the model is handed a
//! [`Context`] through which it schedules future events, draws random
//! numbers, and requests an early stop.
//!
//! Keeping the model monolithic (instead of giving every component its own
//! mailbox) is a deliberate choice: it keeps the borrow structure simple,
//! keeps event delivery deterministic, and matches how the omnet++ model in
//! the paper was organised (modules compiled into one simulation image).

use crate::queue::Scheduler;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event: the tie-break between events due at the
/// same instant, which are delivered in ascending id order.
///
/// The engine allocates ids from a monotone sequence counter; the raw value
/// is public so standalone scheduler harnesses (benchmarks, the
/// cross-scheduler property tests) can drive the queues directly. Models
/// should treat ids as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

impl EventId {
    /// The raw sequence number of this event.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A simulation model: the state machine the engine drives.
pub trait Model {
    /// The event payload type delivered to [`Model::handle`].
    type Event;

    /// Called once before the first event is processed. The default does
    /// nothing; models typically seed their initial events here.
    fn init(&mut self, ctx: &mut Context<Self::Event>) {
        let _ = ctx;
    }

    /// Called for every event, in non-decreasing timestamp order. Events with
    /// equal timestamps are delivered in the order they were scheduled.
    fn handle(&mut self, ctx: &mut Context<Self::Event>, event: Self::Event);

    /// Called after the run finishes (horizon reached, queue drained, or
    /// stop requested). The default does nothing.
    fn finish(&mut self, ctx: &mut Context<Self::Event>) {
        let _ = ctx;
    }
}

/// The interface a [`Model`] uses to interact with the engine.
///
/// A `Context` is only valid for the duration of one callback. It schedules
/// straight into the engine's pending-event set, and a stop request takes
/// effect once the callback returns. The model cannot see the pending set,
/// so scheduling during the callback delivers exactly what scheduling after
/// it would.
pub struct Context<'a, E> {
    pub(crate) now: SimTime,
    pub(crate) next_id: &'a mut u64,
    pub(crate) queue: &'a mut dyn Scheduler<E>,
    pub(crate) stop: &'a mut bool,
    pub(crate) rng: &'a mut DetRng,
}

impl<'a, E> Context<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Access to the deterministic random number generator.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Schedules `event` to be delivered at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time: delivering events in
    /// the past would silently reorder causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (now={}, requested={})",
            self.now,
            at
        );
        let id = EventId(*self.next_id);
        *self.next_id += 1;
        self.queue.push(at, id, event);
        id
    }

    /// Schedules `event` to be delivered `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Schedules `event` for immediate delivery (same timestamp, after any
    /// events already pending at this timestamp).
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.schedule_at(self.now, event)
    }

    /// Requests that the simulation stop once the current callback returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;

    fn make_ctx<'a>(
        now: SimTime,
        next_id: &'a mut u64,
        queue: &'a mut EventQueue<u32>,
        stop: &'a mut bool,
        rng: &'a mut DetRng,
    ) -> Context<'a, u32> {
        Context {
            now,
            next_id,
            queue,
            stop,
            rng,
        }
    }

    #[test]
    fn schedule_produces_monotonic_ids() {
        let mut next = 0;
        let mut queue = EventQueue::new();
        let mut stop = false;
        let mut rng = DetRng::new(1);
        let mut ctx = make_ctx(
            SimTime::from_nanos(5),
            &mut next,
            &mut queue,
            &mut stop,
            &mut rng,
        );
        let a = ctx.schedule_in(SimDuration::from_nanos(1), 1);
        let b = ctx.schedule_now(2);
        let c = ctx.schedule_at(SimTime::from_nanos(100), 3);
        assert!(a < b && b < c);
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.pop(), Some((SimTime::from_nanos(5), b, 2)));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut next = 0;
        let mut queue = EventQueue::new();
        let mut stop = false;
        let mut rng = DetRng::new(1);
        let mut ctx = make_ctx(
            SimTime::from_nanos(5),
            &mut next,
            &mut queue,
            &mut stop,
            &mut rng,
        );
        ctx.schedule_at(SimTime::from_nanos(4), 9);
    }

    #[test]
    fn stop_is_recorded() {
        let mut next = 0;
        let mut queue = EventQueue::new();
        let mut stop = false;
        let mut rng = DetRng::new(1);
        let mut ctx = make_ctx(SimTime::ZERO, &mut next, &mut queue, &mut stop, &mut rng);
        ctx.schedule_now(7);
        ctx.stop();
        assert!(stop);
        assert_eq!(queue.len(), 1, "a stop request schedules nothing");
    }

    #[test]
    fn rng_is_reachable_through_context() {
        let mut next = 0;
        let mut queue = EventQueue::new();
        let mut stop = false;
        let mut rng = DetRng::new(42);
        let mut ctx = make_ctx(SimTime::ZERO, &mut next, &mut queue, &mut stop, &mut rng);
        let x = ctx.rng().next_u64();
        let y = ctx.rng().next_u64();
        assert_ne!(x, y);
    }
}
