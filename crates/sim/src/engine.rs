//! The simulation main loop.
//!
//! [`Simulator`] owns the clock, the pending-event set and the model, and
//! advances the model by repeatedly popping the earliest event and calling
//! [`Model::handle`]. The [`Context`] handed to each callback schedules
//! straight into the pending-event set, with ids from the simulator's one
//! sequence counter, and a stop request ends the run once the callback
//! returns.
//!
//! The pending-event set is pluggable through the
//! [`Scheduler`] trait: [`Simulator::new`] uses the
//! [`CalendarQueue`] (the fast default),
//! while [`Simulator::with_scheduler`] accepts any implementation — tests
//! pass the binary-heap [`EventQueue`](crate::queue::EventQueue) as the
//! reference the calendar queue is cross-checked against. Every scheduler
//! delivers events in the same `(time, EventId)` order, so the choice never
//! changes simulation results, only wall-clock speed.

use crate::calendar::CalendarQueue;
use crate::event::{Context, EventId, Model};
use crate::queue::Scheduler;
use crate::rng::DetRng;
use crate::time::SimTime;

/// Why a call to [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set became empty before the horizon.
    Drained,
    /// The horizon was reached; later events are still pending.
    HorizonReached,
    /// The model requested a stop via [`Context::stop`](crate::event::Context::stop).
    Stopped,
    /// The configured event budget was exhausted (guards against livelock).
    EventBudgetExhausted,
}

/// A deterministic discrete-event simulator driving a single [`Model`].
///
/// The second type parameter selects the pending-event set; it defaults to
/// the calendar-queue scheduler. All schedulers deliver identical event
/// orders, so results never depend on this choice.
pub struct Simulator<M: Model, S: Scheduler<M::Event> = CalendarQueue<<M as Model>::Event>> {
    model: M,
    queue: S,
    now: SimTime,
    next_id: u64,
    rng: DetRng,
    stop_requested: bool,
    events_processed: u64,
    event_budget: u64,
    initialized: bool,
}

impl<M: Model> Simulator<M, CalendarQueue<M::Event>> {
    /// Creates a simulator over `model`, seeding all randomness from `seed`,
    /// on the default calendar-queue scheduler.
    pub fn new(model: M, seed: u64) -> Self {
        Simulator::with_scheduler(model, seed, CalendarQueue::new())
    }
}

impl<M: Model, S: Scheduler<M::Event>> Simulator<M, S> {
    /// Creates a simulator over `model` driving events through an explicit
    /// scheduler implementation.
    pub fn with_scheduler(model: M, seed: u64, scheduler: S) -> Self {
        Simulator {
            model,
            queue: scheduler,
            now: SimTime::ZERO,
            next_id: 0,
            rng: DetRng::new(seed),
            stop_requested: false,
            events_processed: 0,
            event_budget: u64::MAX,
            initialized: false,
        }
    }

    /// Caps the total number of events that will ever be processed. Useful as
    /// a guard against accidental event storms in tests; the default is
    /// unlimited.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (e.g. to extract statistics between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules an event from outside the model (before or between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) -> EventId {
        assert!(at >= self.now, "cannot schedule in the past");
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.queue.push(at, id, event);
        id
    }

    /// Runs until the event queue drains, the model stops, or the event
    /// budget is exhausted.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `horizon` (inclusive of events scheduled exactly at it),
    /// the queue drains, the model stops, or the event budget is exhausted.
    ///
    /// The clock is left at the timestamp of the last processed event, or at
    /// `horizon` if the horizon was reached with events still pending (so a
    /// subsequent call resumes cleanly).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        if !self.initialized {
            self.initialized = true;
            let mut ctx = Context {
                now: self.now,
                next_id: &mut self.next_id,
                queue: &mut self.queue,
                stop: &mut self.stop_requested,
                rng: &mut self.rng,
            };
            self.model.init(&mut ctx);
        }

        let outcome = loop {
            if self.stop_requested {
                break RunOutcome::Stopped;
            }
            if self.events_processed >= self.event_budget {
                break RunOutcome::EventBudgetExhausted;
            }
            let next_time = match self.queue.peek_time() {
                None => break RunOutcome::Drained,
                Some(t) => t,
            };
            if next_time > horizon {
                self.now = horizon;
                break RunOutcome::HorizonReached;
            }
            let (at, _id, event) = self.queue.pop().expect("peeked event must pop");
            debug_assert!(at >= self.now, "event queue returned an event in the past");
            self.now = at;
            self.events_processed += 1;

            let mut ctx = Context {
                now: self.now,
                next_id: &mut self.next_id,
                queue: &mut self.queue,
                stop: &mut self.stop_requested,
                rng: &mut self.rng,
            };
            self.model.handle(&mut ctx, event);
        };

        // Give the model a chance to flush statistics.
        let mut ctx = Context {
            now: self.now,
            next_id: &mut self.next_id,
            queue: &mut self.queue,
            stop: &mut self.stop_requested,
            rng: &mut self.rng,
        };
        self.model.finish(&mut ctx);

        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::time::SimDuration;

    /// Records the order in which events were delivered.
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        stop_after: Option<usize>,
        finished: bool,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Context<u32>, event: u32) {
            self.seen.push((ctx.now(), event));
            if let Some(n) = self.stop_after {
                if self.seen.len() >= n {
                    ctx.stop();
                }
            }
        }
        fn finish(&mut self, _ctx: &mut Context<u32>) {
            self.finished = true;
        }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            stop_after: None,
            finished: false,
        }
    }

    #[test]
    fn delivers_events_in_time_order() {
        let mut sim = Simulator::new(recorder(), 0);
        sim.schedule_at(SimTime::from_nanos(30), 3);
        sim.schedule_at(SimTime::from_nanos(10), 1);
        sim.schedule_at(SimTime::from_nanos(20), 2);
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(
            sim.model().seen,
            vec![
                (SimTime::from_nanos(10), 1),
                (SimTime::from_nanos(20), 2),
                (SimTime::from_nanos(30), 3)
            ]
        );
        assert!(sim.model().finished);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn horizon_stops_and_resumes() {
        let mut sim = Simulator::new(recorder(), 0);
        sim.schedule_at(SimTime::from_nanos(10), 1);
        sim.schedule_at(SimTime::from_nanos(50), 2);
        let outcome = sim.run_until(SimTime::from_nanos(20));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.model().seen.len(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        // Resume and drain.
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Drained);
        assert_eq!(sim.model().seen.len(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn stop_request_is_honoured() {
        let mut sim = Simulator::new(
            Recorder {
                seen: Vec::new(),
                stop_after: Some(2),
                finished: false,
            },
            0,
        );
        for i in 0..10 {
            sim.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Stopped);
        assert_eq!(sim.model().seen.len(), 2);
        assert_eq!(sim.pending_events(), 8);
    }

    #[test]
    fn event_budget_prevents_livelock() {
        /// A model that perpetually schedules itself at the same instant.
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn init(&mut self, ctx: &mut Context<()>) {
                ctx.schedule_now(());
            }
            fn handle(&mut self, ctx: &mut Context<()>, _: ()) {
                ctx.schedule_now(());
            }
        }
        let mut sim = Simulator::new(Livelock, 0).with_event_budget(1000);
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcomeBudget());
        assert_eq!(sim.events_processed(), 1000);
    }

    // Small helper so the assert above reads naturally.
    #[allow(non_snake_case)]
    fn RunOutcomeBudget() -> RunOutcome {
        RunOutcome::EventBudgetExhausted
    }

    #[test]
    fn init_runs_exactly_once() {
        struct CountInit {
            inits: u32,
        }
        impl Model for CountInit {
            type Event = ();
            fn init(&mut self, ctx: &mut Context<()>) {
                self.inits += 1;
                ctx.schedule_in(SimDuration::from_nanos(1), ());
            }
            fn handle(&mut self, _ctx: &mut Context<()>, _: ()) {}
        }
        let mut sim = Simulator::new(CountInit { inits: 0 }, 0);
        sim.run_until(SimTime::from_nanos(10));
        sim.run_until(SimTime::from_nanos(20));
        sim.run();
        assert_eq!(sim.model().inits, 1);
    }

    #[test]
    fn same_seed_same_trace() {
        /// Schedules events at random offsets and records the delivery order.
        struct RandomWalk {
            remaining: u32,
            trace: Vec<u64>,
        }
        impl Model for RandomWalk {
            type Event = u64;
            fn init(&mut self, ctx: &mut Context<u64>) {
                let d = ctx.rng().range_u64(1..1000);
                ctx.schedule_in(SimDuration::from_nanos(d), d);
            }
            fn handle(&mut self, ctx: &mut Context<u64>, ev: u64) {
                self.trace.push(ev);
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let d = ctx.rng().range_u64(1..1000);
                    ctx.schedule_in(SimDuration::from_nanos(d), d);
                }
            }
        }
        let run = |seed| {
            let mut sim = Simulator::new(
                RandomWalk {
                    remaining: 200,
                    trace: Vec::new(),
                },
                seed,
            );
            sim.run();
            sim.into_model().trace
        };
        assert_eq!(run(7), run(7), "identical seeds must give identical traces");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn heap_and_calendar_schedulers_produce_identical_traces() {
        /// Schedules bursts of events at random offsets; the delivery trace
        /// must be scheduler-independent.
        struct Burst {
            remaining: u32,
            trace: Vec<(u64, u64)>,
        }
        impl Model for Burst {
            type Event = u64;
            fn init(&mut self, ctx: &mut Context<u64>) {
                for k in 0..8 {
                    ctx.schedule_in(SimDuration::from_nanos(10 * k + 1), k);
                }
            }
            fn handle(&mut self, ctx: &mut Context<u64>, ev: u64) {
                self.trace.push((ctx.now().as_picos(), ev));
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let d = ctx.rng().range_u64(1..2_000_000);
                    ctx.schedule_in(SimDuration::from_picos(d), d);
                }
            }
        }
        let model = || Burst {
            remaining: 500,
            trace: Vec::new(),
        };
        let mut heap_sim = Simulator::with_scheduler(model(), 11, EventQueue::new());
        heap_sim.run();
        let mut cal_sim = Simulator::new(model(), 11);
        cal_sim.run();
        assert_eq!(heap_sim.events_processed(), cal_sim.events_processed());
        assert_eq!(heap_sim.model().trace, cal_sim.model().trace);
    }
}
