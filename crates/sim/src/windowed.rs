//! Conservative time-window execution of a sharded model.
//!
//! The monolithic [`Simulator`](crate::engine::Simulator) drives one model on
//! one core. This module is the substrate for running a simulation split
//! into **shards**: each shard owns a disjoint slice of the model's state and
//! a private [`CalendarQueue`], and the [`WindowedSim`] driver advances all
//! shards through **windows** bounded by a conservative lookahead — the
//! synchronous-window variant of conservative parallel DES, executed by a
//! phase-counted protocol that lets unblocked workers run ahead instead of
//! rendezvousing at a central barrier. A shard may freely process every event
//! strictly before the window edge because the protocol guarantees no other
//! shard can still produce an event inside the window:
//!
//! * Cross-shard interactions travel as [`Envelope`]s through per-shard
//!   **outboxes**. During a window each shard appends to its own outbox with
//!   no locking or atomics; at the end of its round the owning worker flushes
//!   the outbox into the destination shards' **inboxes**, and every worker
//!   merges its shards' inboxes at the start of its next round.
//! * Every envelope must be timestamped at least one **lookahead** after the
//!   sending shard's current time (asserted at send). The window length never
//!   exceeds the lookahead, so an envelope handed over between rounds is
//!   always still in the receiver's future.
//!
//! ## The phase-counted round protocol
//!
//! Workers never meet at a barrier. Each worker `w` owns the shard cells
//! `w, w + workers, …` and publishes, per **round**, a small summary of its
//! cells (earliest pending event, cumulative event and stop counters) into
//! a parity-double-buffered slot, then advances a monotonic **seal**
//! counter. A worker enters round `r` as soon as every peer's seal has
//! reached `r - 1`; when that already holds on arrival the worker
//! **early-advances** without waiting. Every worker then runs the *same pure
//! planner* over the *same sealed summaries*, so all workers compute an
//! identical window/sync/stop decision without any coordinator thread — the
//! serial section and the two barrier crossings of the previous
//! sense-reversing design are gone. A window starts at the earliest pending
//! event `t` and ends before `min(t + lookahead, next sync, horizon + 1)`.
//! The parity buffer is safe because a peer cannot start round `r + 1` (and
//! overwrite the `r - 1` parity) before this worker seals round `r`, which
//! happens only after it finished reading the `r - 1` summaries.
//!
//! A full rendezvous happens only at [`SyncHook`] control points: all workers
//! seal the sync round, worker 0 waits for every seal, runs `on_sync` with
//! exclusive access to all shards, republishes the hook parameters
//! (lookahead, next sync, stop threshold) and every worker's summary, and
//! releases the peers through a sync generation counter. Sync points are
//! driver-level, not events, so they impose a total order against
//! surrounding events. The hook's `lookahead`/`next_sync`/`stop_threshold`
//! are sampled at run start and after each `on_sync` — they must only change
//! inside `on_sync`.
//!
//! ## Determinism: content-keyed event ordering
//!
//! The engine's schedulers deliver events in `(time, EventId)` order. The
//! monolithic simulator allocates ids from a sequence counter, which makes
//! same-instant ordering depend on *allocation order* — a property that
//! cannot be reproduced when the allocating work is distributed over shards.
//! The windowed driver therefore gives the **model** control of the id: every
//! scheduled event and envelope carries an explicit 64-bit `key`, and
//! same-instant events are delivered in ascending key order. A model that
//! derives keys from stable identities (flow ids, sequence numbers) gets an
//! event order that is a pure function of the simulation content — identical
//! for 1 shard and N shards, and identical no matter how rounds interleave
//! with local scheduling.
//!
//! One caveat follows from keyed ids: keys must be unique among events
//! pending at the same instant, or the tie-break between them is undefined.
//! Models derive them from identities that can be pending at most once, and
//! re-use a key only after its event was delivered.
//!
//! Worker threads are persistent for the whole run; with a single worker the
//! same code path runs inline with no synchronisation at all. Thread count
//! and early advance never affect results — only the shard *content* does,
//! and a well-keyed model makes even the shard count immaterial.

use crate::calendar::CalendarQueue;
use crate::engine::RunOutcome;
use crate::event::EventId;
use crate::queue::Scheduler;
use crate::time::{SimDuration, SimTime};
use rackfabric_obs::profile::WindowProfiler;
use rackfabric_obs::Observer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A cross-shard message: an event addressed to another shard at an absolute
/// instant, with the content-derived tie-break key.
#[derive(Debug)]
pub struct Envelope<E> {
    /// Destination shard index.
    pub to: usize,
    /// Absolute delivery instant (≥ sender's now + lookahead).
    pub at: SimTime,
    /// Content-derived tie-break key (see module docs).
    pub key: u64,
    /// The event payload delivered to the destination shard.
    pub event: E,
}

/// The scheduling interface handed to a shard while it processes one event.
pub struct WindowCtx<'a, E> {
    now: SimTime,
    shard: usize,
    window_end_ps: u64,
    queue: &'a mut CalendarQueue<E>,
    outbox: &'a mut Vec<Envelope<E>>,
}

impl<'a, E> WindowCtx<'a, E> {
    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The index of the shard processing this event.
    #[inline]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Schedules a local event on this shard at `at` with tie-break `key`.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule(&mut self, at: SimTime, key: u64, event: E) {
        assert!(
            at >= self.now,
            "shard {} scheduled an event in the past (now={}, at={})",
            self.shard,
            self.now,
            at
        );
        self.queue.push(at, EventId(key), event);
    }

    /// Sends an event to shard `to` (possibly this shard) at `at` with
    /// tie-break `key`. Self-sends short-circuit into the local queue —
    /// because delivery order is keyed, this is indistinguishable from a
    /// round hand-off, which is what keeps 1-shard and N-shard runs
    /// identical.
    ///
    /// # Panics
    /// Panics when a cross-shard send violates the conservative lookahead
    /// (`at` earlier than the current window's edge): such an envelope could
    /// land in a part of the window its receiver already processed.
    pub fn send(&mut self, to: usize, at: SimTime, key: u64, event: E) {
        if to == self.shard {
            self.schedule(at, key, event);
            return;
        }
        assert!(
            at.as_picos() >= self.window_end_ps,
            "shard {} sent an envelope below the conservative window edge \
             (at={}, window end={} ps): lookahead bound violated",
            self.shard,
            at,
            self.window_end_ps
        );
        self.outbox.push(Envelope { to, at, key, event });
    }
}

/// A model shard drivable by [`WindowedSim`].
pub trait ShardModel: Send {
    /// The event payload (local events and envelopes share the type).
    type Event: Send;

    /// Processes one event. All scheduling goes through the context.
    fn handle(&mut self, ctx: &mut WindowCtx<'_, Self::Event>, event: Self::Event);

    /// This shard's contribution towards the hook's
    /// [`stop_threshold`](SyncHook::stop_threshold) (e.g. completed flows).
    /// Must be non-decreasing over the run. Defaults to 0.
    fn stop_contribution(&self) -> u64 {
        0
    }
}

/// Exclusive access to every shard, handed to [`SyncHook`] callbacks at
/// sync points (models live behind per-shard locks during a parallel run).
pub struct ShardsView<'a, M: ShardModel> {
    guards: Vec<MutexGuard<'a, ShardCell<M>>>,
}

impl<'a, M: ShardModel> ShardsView<'a, M> {
    /// Number of shards.
    pub fn len(&self) -> usize {
        self.guards.len()
    }

    /// True when the view holds no shards (never the case in a run).
    pub fn is_empty(&self) -> bool {
        self.guards.is_empty()
    }

    /// Mutable access to shard `i`'s model.
    pub fn model(&mut self, i: usize) -> &mut M {
        &mut self.guards[i].model
    }

    /// Iterates over every shard's model.
    pub fn models_mut(&mut self) -> impl Iterator<Item = &mut M> + use<'_, 'a, M> {
        self.guards.iter_mut().map(|g| &mut g.model)
    }
}

/// Global-control callbacks of a windowed run.
///
/// `next_sync`, `lookahead`, and `stop_threshold` are sampled at run start
/// and re-sampled after every `on_sync` call — they must only change inside
/// `on_sync` (the workers plan rounds from the sampled values).
pub trait SyncHook<M: ShardModel> {
    /// Absolute time of the next synchronous control point
    /// ([`SimTime::MAX`] when there is none). Must be non-decreasing between
    /// `on_sync` calls.
    fn next_sync(&self) -> SimTime;

    /// Runs the control point at `at`. Every event strictly before `at` has
    /// been processed; no event at or after `at` has.
    fn on_sync(&mut self, at: SimTime, shards: &mut ShardsView<'_, M>);

    /// Stops the run (outcome [`RunOutcome::Stopped`]) at the first window
    /// edge where the sum of every shard's
    /// [`stop_contribution`](ShardModel::stop_contribution) reaches this
    /// threshold. [`u64::MAX`] (the default) never stops. Replaces the old
    /// per-window `keep_running` callback with a check each worker evaluates
    /// locally from published counters — no rendezvous needed.
    fn stop_threshold(&self) -> u64 {
        u64::MAX
    }

    /// The conservative lookahead for upcoming windows: a lower bound on the
    /// delay of every cross-shard envelope. Clamped to at least 1 ps by the
    /// driver. **Must not depend on the shard count** if runs with different
    /// shard counts are expected to produce identical results (the window
    /// sequence — and therefore where budget/stop checks land — derives from
    /// it).
    fn lookahead(&self) -> SimDuration;
}

pub(crate) struct ShardCell<M: ShardModel> {
    shard: usize,
    pub(crate) model: M,
    queue: CalendarQueue<M::Event>,
    outbox: Vec<Envelope<M::Event>>,
    /// Cumulative events processed by this cell.
    events: u64,
}

impl<M: ShardModel> ShardCell<M> {
    fn push(&mut self, at: SimTime, key: u64, event: M::Event) {
        self.queue.push(at, EventId(key), event);
    }

    /// Processes every pending event strictly before `end_ps`, in
    /// `(time, key)` order.
    fn drain(&mut self, end_ps: u64) {
        while self
            .queue
            .peek_time()
            .is_some_and(|t| t.as_picos() < end_ps)
        {
            let (now, _key, event) = self.queue.pop().expect("peeked event must pop");
            self.events += 1;
            let mut ctx = WindowCtx {
                now,
                shard: self.shard,
                window_end_ps: end_ps,
                queue: &mut self.queue,
                outbox: &mut self.outbox,
            };
            self.model.handle(&mut ctx, event);
        }
    }

    /// Earliest pending instant in picoseconds (`u64::MAX` when empty).
    fn min(&mut self) -> u64 {
        self.queue.peek_time().map_or(u64::MAX, |t| t.as_picos())
    }
}

/// What [`WindowedSim::run`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedOutcome {
    /// Why the run ended (same vocabulary as the monolithic engine).
    pub outcome: RunOutcome,
    /// The clock when the run ended.
    pub now: SimTime,
    /// Total events processed across all shards.
    pub events: u64,
    /// Number of conservative windows executed.
    pub windows: u64,
    /// Number of sync points executed.
    pub syncs: u64,
}

/// Seal value a worker stores when it unwinds: peers spinning on the seal
/// panic instead of deadlocking.
const POISONED: u64 = u64::MAX;

/// Per-round summary a worker publishes about its owned cells.
#[derive(Debug, Default)]
struct RoundData {
    /// Earliest pending event (ps) across owned cells and envelopes flushed
    /// this round.
    min: AtomicU64,
    /// Cumulative events processed by owned cells.
    events: AtomicU64,
    /// Sum of owned models' stop contributions.
    contrib: AtomicU64,
}

/// One worker's slot on the board: a monotonic seal plus a parity pair of
/// round summaries. Cache-line aligned so seal spinning stays local.
#[repr(align(128))]
struct PhaseSlot {
    /// Highest round this worker has sealed ([`POISONED`] on panic).
    seal: AtomicU64,
    rounds: [RoundData; 2],
}

impl PhaseSlot {
    fn new() -> Self {
        PhaseSlot {
            seal: AtomicU64::new(0),
            rounds: [RoundData::default(), RoundData::default()],
        }
    }

    /// Stores `totals` into the parity slot of `round` (plain stores — the
    /// Release is the subsequent seal update).
    fn store_round(&self, round: u64, totals: &WorkerTotals) {
        let slot = &self.rounds[(round % 2) as usize];
        slot.min.store(totals.min, Ordering::Relaxed);
        slot.events.store(totals.events, Ordering::Relaxed);
        slot.contrib.store(totals.contrib, Ordering::Relaxed);
    }

    /// Publishes `totals` for `round` and seals it.
    fn publish(&self, round: u64, totals: &WorkerTotals) {
        self.store_round(round, totals);
        self.seal.store(round, Ordering::Release);
    }
}

/// The shared coordination state of one run.
struct Board {
    phases: Vec<PhaseSlot>,
    /// Current conservative lookahead in ps (sampled from the hook).
    lookahead_ps: AtomicU64,
    /// Next sync instant in ps (`u64::MAX` = none; sampled from the hook).
    next_sync_ps: AtomicU64,
    /// Stop threshold over summed contributions (sampled from the hook).
    stop_threshold: AtomicU64,
    /// Completed sync count; peers park on this while worker 0 runs the hook.
    sync_gen: AtomicU64,
    /// More workers than hardware threads: a waiting worker's peer cannot
    /// be running concurrently, so spinning only steals the CPU the peer
    /// needs — yield immediately instead.
    oversubscribed: bool,
}

impl Board {
    fn new(workers: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Board {
            phases: (0..workers).map(|_| PhaseSlot::new()).collect(),
            lookahead_ps: AtomicU64::new(1),
            next_sync_ps: AtomicU64::new(u64::MAX),
            stop_threshold: AtomicU64::new(u64::MAX),
            sync_gen: AtomicU64::new(0),
            oversubscribed: workers > cores,
        }
    }

    /// Folds every worker's summary for `round` into one global snapshot.
    fn snapshot(&self, round: u64) -> Snapshot {
        let parity = (round % 2) as usize;
        let mut s = Snapshot {
            min: u64::MAX,
            events: 0,
            contrib: 0,
        };
        for phase in &self.phases {
            let r = &phase.rounds[parity];
            s.min = s.min.min(r.min.load(Ordering::Relaxed));
            s.events += r.events.load(Ordering::Relaxed);
            s.contrib += r.contrib.load(Ordering::Relaxed);
        }
        s
    }
}

/// The global pending/progress state all workers plan from: identical on
/// every worker because it derives only from sealed round summaries.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    min: u64,
    events: u64,
    contrib: u64,
}

/// Accumulator for one worker's owned cells within one round.
#[derive(Debug, Clone, Copy)]
struct WorkerTotals {
    min: u64,
    events: u64,
    contrib: u64,
}

impl WorkerTotals {
    fn new() -> Self {
        WorkerTotals {
            min: u64::MAX,
            events: 0,
            contrib: 0,
        }
    }

    fn absorb_cell<M: ShardModel>(&mut self, cell: &mut ShardCell<M>) {
        self.min = self.min.min(cell.min());
        self.events += cell.events;
        self.contrib += cell.model.stop_contribution();
    }
}

/// One step of the window planner.
enum Plan {
    /// Run the sync hook at this instant.
    Sync(SimTime),
    /// Drain all shards up to `end_ps`.
    Window { end_ps: u64 },
    /// Nothing left to do.
    Done(RunOutcome),
}

/// A planning decision plus the accounting of the window that just finished
/// (its length and event delta, for the profiler).
struct Decision {
    step: Plan,
    finished: Option<(u64, u64)>,
}

/// The replicated control state: every worker owns a `Planner` and feeds it
/// the same snapshots, so all copies stay in lockstep — the plan is a pure
/// function of sealed sim state, never of worker identity or wall clock.
#[derive(Debug, Clone)]
struct Planner {
    now: SimTime,
    horizon: SimTime,
    budget: u64,
    windows: u64,
    syncs: u64,
    prev_events: u64,
    /// The window planned last round, awaiting accounting.
    prev_window: Option<(u64, u64)>,
}

impl Planner {
    /// Accounts the previous round's window (budget/stop checks land here,
    /// in the same order as the serial engine) and plans the next step.
    fn plan(
        &mut self,
        snap: &Snapshot,
        lookahead_ps: u64,
        next_sync_ps: u64,
        stop_threshold: u64,
    ) -> Decision {
        let mut finished = None;
        if let Some((start, end)) = self.prev_window.take() {
            self.windows += 1;
            self.now = SimTime::from_picos(end.saturating_sub(1)).min(self.horizon);
            let delta = snap.events.saturating_sub(self.prev_events);
            self.prev_events = snap.events;
            finished = Some((end.saturating_sub(start), delta));
            if snap.events >= self.budget {
                return Decision {
                    step: Plan::Done(RunOutcome::EventBudgetExhausted),
                    finished,
                };
            }
            if snap.contrib >= stop_threshold {
                return Decision {
                    step: Plan::Done(RunOutcome::Stopped),
                    finished,
                };
            }
        }
        // `u64::MAX` means "no sync point" — it must never be stepped to,
        // even with an unbounded horizon.
        let has_sync = next_sync_ps < u64::MAX;
        let lookahead = lookahead_ps.max(1);
        let horizon_ps = self.horizon.as_picos();
        let t = snap.min;
        let step = if t == u64::MAX {
            if has_sync && next_sync_ps <= horizon_ps {
                Plan::Sync(SimTime::from_picos(next_sync_ps))
            } else {
                Plan::Done(RunOutcome::Drained)
            }
        } else if has_sync && next_sync_ps <= t.min(horizon_ps) {
            Plan::Sync(SimTime::from_picos(next_sync_ps))
        } else if t > horizon_ps {
            self.now = self.horizon;
            Plan::Done(RunOutcome::HorizonReached)
        } else {
            // Half-open [t, end): the window may not cross the next sync
            // point, and events exactly at the horizon still run.
            let end_ps = t
                .saturating_add(lookahead)
                .min(next_sync_ps)
                .min(horizon_ps.saturating_add(1));
            self.prev_window = Some((t, end_ps));
            Plan::Window { end_ps }
        };
        Decision { step, finished }
    }
}

/// Stores [`POISONED`] into the owner's seal on unwind so peers spinning on
/// it panic instead of deadlocking.
struct PoisonGuard<'a> {
    seal: &'a AtomicU64,
    armed: bool,
}

impl<'a> PoisonGuard<'a> {
    fn new(seal: &'a AtomicU64) -> Self {
        PoisonGuard { seal, armed: true }
    }

    fn defuse(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.seal.store(POISONED, Ordering::Release);
        }
    }
}

/// Deterministic wall-clock jitter for stress tests: occasionally sleeps or
/// yields based on a hash of `(seed, worker, round)`. Never touches sim
/// state, so results are unaffected by construction.
fn stagger_pause(seed: u64, worker: u64, round: u64) {
    let mut x = seed
        ^ worker.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    match x % 8 {
        0 => std::thread::sleep(std::time::Duration::from_micros((x >> 8) % 50)),
        1 | 2 => std::thread::yield_now(),
        _ => {}
    }
}

struct CellSlot<M: ShardModel> {
    cell: Mutex<ShardCell<M>>,
    /// Envelopes flushed to this cell by other workers, merged into the
    /// cell's calendars at the start of the owner's next round. Leaf lock:
    /// taken only while holding a cell lock (cell → inbox), never the
    /// reverse.
    inbox: Mutex<Vec<Envelope<M::Event>>>,
}

/// A sharded simulation advanced in conservative time windows.
pub struct WindowedSim<M: ShardModel> {
    cells: Vec<CellSlot<M>>,
    now: SimTime,
    events: u64,
    event_budget: u64,
    /// Worker threads used for window execution (0 = one per shard, capped
    /// at the machine's parallelism).
    workers: usize,
    /// Chaos seed for stress tests (see [`WindowedSim::with_stagger`]).
    stagger: Option<u64>,
    /// Shard/window profiler (barrier waits, drain times, window stats);
    /// `None` (the default) records nothing and reads no clocks.
    profiler: Option<Arc<WindowProfiler>>,
    /// Trace/metrics hook for span recording; disabled by default.
    observer: Observer,
}

impl<M: ShardModel> WindowedSim<M> {
    /// Creates a windowed simulation over one model per shard.
    pub fn new(models: Vec<M>) -> Self {
        assert!(
            !models.is_empty(),
            "a windowed sim needs at least one shard"
        );
        let cells = models
            .into_iter()
            .enumerate()
            .map(|(shard, model)| CellSlot {
                cell: Mutex::new(ShardCell {
                    shard,
                    model,
                    queue: CalendarQueue::new(),
                    outbox: Vec::new(),
                    events: 0,
                }),
                inbox: Mutex::new(Vec::new()),
            })
            .collect();
        WindowedSim {
            cells,
            now: SimTime::ZERO,
            events: 0,
            event_budget: u64::MAX,
            workers: 0,
            stagger: None,
            profiler: None,
            observer: Observer::off(),
        }
    }

    /// Caps the total number of events processed across all shards.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Sets the worker-thread count (0 = one per shard, capped at the
    /// machine's parallelism). Thread count never affects results.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Injects deterministic wall-clock jitter (sleeps/yields keyed off
    /// `seed`, the worker index, and the round number) into the worker loop.
    /// For stress-testing the round protocol: staggered workers must still
    /// produce identical results. Never affects sim state.
    pub fn with_stagger(mut self, seed: u64) -> Self {
        self.stagger = Some(seed);
        self
    }

    /// Attaches a shard/window profiler. The profiler records wall-clock
    /// barrier waits and drain times plus deterministic per-shard event and
    /// mailbox counts; it never influences the run. Its slot count must
    /// cover this sim's shards.
    pub fn with_profiler(mut self, profiler: Arc<WindowProfiler>) -> Self {
        assert!(
            profiler.shard_count() >= self.cells.len(),
            "profiler has {} shard slots but the sim has {} shards",
            profiler.shard_count(),
            self.cells.len()
        );
        self.profiler = Some(profiler);
        self
    }

    /// Attaches an observer (trace sink / metrics registry). Window, drain,
    /// and sync spans are recorded when the observer carries a trace sink;
    /// the default [`Observer::off`] records nothing.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The current simulated time (the low edge of planning).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Schedules an event on shard `shard` from outside the run (seeding).
    pub fn schedule(&mut self, shard: usize, at: SimTime, key: u64, event: M::Event) {
        self.cells[shard]
            .cell
            .get_mut()
            .expect("shard lock poisoned")
            .push(at, key, event);
    }

    /// Exclusive access to shard `shard`'s model between runs.
    pub fn model_mut(&mut self, shard: usize) -> &mut M {
        &mut self.cells[shard]
            .cell
            .get_mut()
            .expect("shard lock poisoned")
            .model
    }

    /// Iterates over every shard's model between runs.
    pub fn models_mut(&mut self) -> impl Iterator<Item = &mut M> + '_ {
        self.cells
            .iter_mut()
            .map(|c| &mut c.cell.get_mut().expect("shard lock poisoned").model)
    }

    /// Consumes the simulation, returning the shard models in order.
    pub fn into_models(self) -> Vec<M> {
        self.cells
            .into_iter()
            .map(|c| c.cell.into_inner().expect("shard lock poisoned").model)
            .collect()
    }

    /// Locks every shard (uncontended outside rounds) into a view.
    fn view(&self) -> ShardsView<'_, M> {
        ShardsView {
            guards: self
                .cells
                .iter()
                .map(|c| c.cell.lock().expect("shard lock poisoned"))
                .collect(),
        }
    }

    /// Waits until every peer has sealed at least `target`. Records the wait
    /// (0 ns on the no-wait fast path, which counts as an early advance).
    fn wait_seals(&self, board: &Board, me: usize, workers: usize, target: u64) {
        if workers == 1 {
            return;
        }
        let profiler = self.profiler.as_deref();
        let start = profiler.map(|_| Instant::now());
        let mut waited = false;
        for (w, phase) in board.phases.iter().enumerate() {
            if w == me {
                continue;
            }
            let mut spins = 0u32;
            loop {
                let s = phase.seal.load(Ordering::Acquire);
                if s == POISONED {
                    panic!("peer window worker panicked");
                }
                if s >= target {
                    break;
                }
                waited = true;
                spins += 1;
                if spins < 64 && !board.oversubscribed {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if let Some(p) = profiler {
            let nanos = if waited {
                start.expect("profiler wait start").elapsed().as_nanos() as u64
            } else {
                0
            };
            p.record_barrier_wait(me, nanos);
            if !waited && target >= 1 {
                p.record_early_advance(me);
            }
        }
    }

    /// Merges a cell's inbox into its calendar, drains it through the
    /// window, flushes its outbox into destination inboxes (covering the
    /// envelopes' instants in `totals`), and absorbs the cell's summary.
    fn process_cell(
        &self,
        idx: usize,
        end_ps: Option<u64>,
        totals: &mut WorkerTotals,
        profiler: Option<&WindowProfiler>,
    ) {
        let slot = &self.cells[idx];
        let mut cell = slot.cell.lock().expect("shard lock poisoned");
        {
            let mut inbox = slot.inbox.lock().expect("inbox lock poisoned");
            for env in inbox.drain(..) {
                cell.push(env.at, env.key, env.event);
            }
        }
        if let Some(end_ps) = end_ps {
            match profiler {
                Some(p) => {
                    let before = cell.events;
                    let start = Instant::now();
                    cell.drain(end_ps);
                    p.record_drain(
                        cell.shard,
                        start.elapsed().as_nanos() as u64,
                        cell.events - before,
                    );
                }
                None => cell.drain(end_ps),
            }
            for env in cell.outbox.drain(..) {
                if let Some(p) = profiler {
                    p.record_mailbox_in(env.to, 1);
                }
                totals.min = totals.min.min(env.at.as_picos());
                self.cells[env.to]
                    .inbox
                    .lock()
                    .expect("inbox lock poisoned")
                    .push(env);
            }
        }
        totals.absorb_cell(&mut cell);
    }

    /// The per-worker round loop. Worker 0 carries the hook (peers pass
    /// `None`) and is the only worker that runs sync callbacks and records
    /// profiler window/sync totals; every worker runs the identical planner.
    fn worker_loop<H: SyncHook<M>>(
        &self,
        board: &Board,
        mut hook: Option<&mut H>,
        worker: usize,
        workers: usize,
        mut planner: Planner,
    ) -> WindowedOutcome {
        let profiler = self.profiler.as_deref();
        let guard = PoisonGuard::new(&board.phases[worker].seal);
        let mut round: u64 = 1;
        let outcome = loop {
            if let Some(seed) = self.stagger {
                if workers > 1 {
                    stagger_pause(seed, worker as u64, round);
                }
            }
            self.wait_seals(board, worker, workers, round - 1);
            let snap = board.snapshot(round - 1);
            let decision = planner.plan(
                &snap,
                board.lookahead_ps.load(Ordering::Relaxed),
                board.next_sync_ps.load(Ordering::Relaxed),
                board.stop_threshold.load(Ordering::Relaxed),
            );
            if worker == 0 {
                if let (Some(p), Some((len_ps, events))) = (profiler, decision.finished) {
                    p.record_window(len_ps, events);
                }
            }
            match decision.step {
                Plan::Done(outcome) => break outcome,
                Plan::Sync(at) => {
                    let mut totals = WorkerTotals::new();
                    for idx in (worker..self.cells.len()).step_by(workers) {
                        self.process_cell(idx, None, &mut totals, profiler);
                    }
                    board.phases[worker].publish(round, &totals);
                    if worker == 0 {
                        self.wait_seals(board, worker, workers, round);
                        let hook = hook.as_mut().expect("worker 0 carries the sync hook");
                        {
                            let _span = self.observer.span(0, "sync", "windows");
                            let mut view = self.view();
                            hook.on_sync(at, &mut view);
                            // Republish every worker's summary from the
                            // post-hook state: `on_sync` may have mutated
                            // models or scheduled events.
                            for (w, phase) in board.phases.iter().enumerate() {
                                let mut t = WorkerTotals::new();
                                for idx in (w..self.cells.len()).step_by(workers) {
                                    t.absorb_cell(&mut view.guards[idx]);
                                }
                                phase.store_round(round, &t);
                            }
                        }
                        board
                            .lookahead_ps
                            .store(hook.lookahead().as_picos().max(1), Ordering::Relaxed);
                        board
                            .next_sync_ps
                            .store(hook.next_sync().as_picos(), Ordering::Relaxed);
                        board
                            .stop_threshold
                            .store(hook.stop_threshold(), Ordering::Relaxed);
                        if let Some(p) = profiler {
                            p.record_sync();
                        }
                        board.sync_gen.store(planner.syncs + 1, Ordering::Release);
                    } else {
                        let w0 = &board.phases[0].seal;
                        let mut spins = 0u32;
                        while board.sync_gen.load(Ordering::Acquire) <= planner.syncs {
                            if w0.load(Ordering::Acquire) == POISONED {
                                panic!("peer window worker panicked");
                            }
                            spins += 1;
                            if spins < 64 && !board.oversubscribed {
                                std::hint::spin_loop();
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                    planner.syncs += 1;
                    planner.now = at;
                }
                Plan::Window { end_ps } => {
                    let mut span = if worker == 0 {
                        self.observer.span(0, "window", "windows")
                    } else {
                        self.observer.span(worker as u64, "drain", "windows")
                    };
                    if worker == 0 && self.observer.is_enabled() {
                        span.arg_u64("end_ps", end_ps);
                    }
                    let mut totals = WorkerTotals::new();
                    for idx in (worker..self.cells.len()).step_by(workers) {
                        self.process_cell(idx, Some(end_ps), &mut totals, profiler);
                    }
                    drop(span);
                    board.phases[worker].publish(round, &totals);
                }
            }
            round += 1;
        };
        guard.defuse();
        WindowedOutcome {
            outcome,
            now: planner.now,
            events: planner.prev_events,
            windows: planner.windows,
            syncs: planner.syncs,
        }
    }

    /// Runs until `horizon` (inclusive), the queues drain, the hook's stop
    /// threshold is met, or the event budget is exhausted.
    pub fn run<H: SyncHook<M>>(&mut self, horizon: SimTime, hook: &mut H) -> WindowedOutcome {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(self.cells.len())
        } else {
            self.workers.min(self.cells.len())
        }
        .max(1);
        if let Some(sink) = self.observer.trace() {
            for w in 0..workers {
                sink.name_lane(w as u64, format!("worker {w}"));
            }
        }
        // Single-threaded prologue: merge any envelopes left in inboxes by a
        // previous budget/stop exit, then publish every worker's round-0
        // summary so the first round plans from complete coverage.
        let board = Board::new(workers);
        let mut prev_events = 0u64;
        for (w, phase) in board.phases.iter().enumerate() {
            let mut totals = WorkerTotals::new();
            for idx in (w..self.cells.len()).step_by(workers) {
                let slot = &mut self.cells[idx];
                let cell = slot.cell.get_mut().expect("shard lock poisoned");
                let inbox = slot.inbox.get_mut().expect("inbox lock poisoned");
                for env in inbox.drain(..) {
                    cell.push(env.at, env.key, env.event);
                }
                totals.absorb_cell(cell);
            }
            phase.store_round(0, &totals);
            prev_events += totals.events;
        }
        board
            .lookahead_ps
            .store(hook.lookahead().as_picos().max(1), Ordering::Relaxed);
        board
            .next_sync_ps
            .store(hook.next_sync().as_picos(), Ordering::Relaxed);
        board
            .stop_threshold
            .store(hook.stop_threshold(), Ordering::Relaxed);
        let planner = Planner {
            now: self.now,
            horizon,
            budget: self.event_budget,
            windows: 0,
            syncs: 0,
            prev_events,
            prev_window: None,
        };
        let result = if workers == 1 {
            self.worker_loop(&board, Some(hook), 0, 1, planner)
        } else {
            let this = &*self;
            let board = &board;
            std::thread::scope(|scope| {
                for w in 1..workers {
                    let peer_planner = planner.clone();
                    scope.spawn(move || {
                        this.worker_loop::<H>(board, None, w, workers, peer_planner);
                    });
                }
                this.worker_loop(board, Some(hook), 0, workers, planner)
            })
        };
        self.now = result.now;
        self.events = result.events;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of logical nodes passing a token: node `n` receives the token,
    /// records `(time, n, hops)`, and forwards it to `(n + 1) % nodes` with a
    /// fixed latency. Nodes are mapped onto shards round-robin, so different
    /// shard counts exercise both local sends and cross-shard envelopes.
    struct Ring {
        shard: usize,
        shards: usize,
        nodes: usize,
        latency: SimDuration,
        hops_left: u64,
        trace: Vec<(u64, usize, u64)>,
    }

    #[derive(Debug)]
    struct Token {
        node: usize,
        hops: u64,
    }

    impl ShardModel for Ring {
        type Event = Token;
        fn handle(&mut self, ctx: &mut WindowCtx<'_, Token>, token: Token) {
            assert_eq!(token.node % self.shards, self.shard);
            self.trace
                .push((ctx.now().as_picos(), token.node, token.hops));
            if token.hops >= self.hops_left {
                return;
            }
            let next = (token.node + 1) % self.nodes;
            ctx.send(
                next % self.shards,
                ctx.now() + self.latency,
                token.hops + 1,
                Token {
                    node: next,
                    hops: token.hops + 1,
                },
            );
        }

        fn stop_contribution(&self) -> u64 {
            self.trace.len() as u64
        }
    }

    struct NoSync {
        lookahead: SimDuration,
    }
    impl SyncHook<Ring> for NoSync {
        fn next_sync(&self) -> SimTime {
            SimTime::MAX
        }
        fn on_sync(&mut self, _: SimTime, _: &mut ShardsView<'_, Ring>) {}
        fn lookahead(&self) -> SimDuration {
            self.lookahead
        }
    }

    fn ring_models(shards: usize, hops: u64) -> Vec<Ring> {
        (0..shards)
            .map(|shard| Ring {
                shard,
                shards,
                nodes: 5,
                latency: SimDuration::from_nanos(7),
                hops_left: hops,
                trace: Vec::new(),
            })
            .collect()
    }

    fn collect_trace(sim: WindowedSim<Ring>) -> Vec<(u64, usize, u64)> {
        let mut trace: Vec<(u64, usize, u64)> = sim
            .into_models()
            .into_iter()
            .flat_map(|m| m.trace)
            .collect();
        trace.sort();
        trace
    }

    fn run_ring(shards: usize, workers: usize) -> Vec<(u64, usize, u64)> {
        let latency = SimDuration::from_nanos(7);
        let mut sim = WindowedSim::new(ring_models(shards, 200)).with_workers(workers);
        sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
        let out = sim.run(SimTime::MAX, &mut NoSync { lookahead: latency });
        assert_eq!(out.outcome, RunOutcome::Drained);
        assert_eq!(out.events, 201);
        collect_trace(sim)
    }

    /// An instrumented run produces the identical trace, and the profiler
    /// accounts every event, window, and cross-shard envelope.
    #[test]
    fn profiling_does_not_change_the_trace() {
        let baseline = run_ring(3, 2);
        let latency = SimDuration::from_nanos(7);
        let profiler = Arc::new(WindowProfiler::new(3));
        let mut sim = WindowedSim::new(ring_models(3, 200))
            .with_workers(2)
            .with_profiler(profiler.clone())
            .with_observer(Observer::enabled());
        sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
        let out = sim.run(SimTime::MAX, &mut NoSync { lookahead: latency });
        assert_eq!(out.outcome, RunOutcome::Drained);
        let trace = collect_trace(sim);
        assert_eq!(trace, baseline);
        let profile = profiler.snapshot();
        assert_eq!(profile.shard_events().iter().sum::<u64>(), out.events);
        assert_eq!(profile.windows, out.windows);
        // The ring crosses shards, so envelopes flowed through the mailbox.
        assert!(profile.shards.iter().map(|s| s.mailbox_in).sum::<u64>() > 0);
        // Two workers both recorded their round waits.
        assert!(profile.workers[0].barrier_waits > 0);
        assert!(profile.workers[1].barrier_waits > 0);
        assert_eq!(profile.events_per_window.sum, out.events);
    }

    #[test]
    fn shard_count_does_not_change_the_trace() {
        let one = run_ring(1, 1);
        assert_eq!(one.len(), 201);
        assert_eq!(one, run_ring(2, 1));
        assert_eq!(one, run_ring(5, 2));
        assert_eq!(one, run_ring(3, 3));
    }

    /// Deterministically staggered workers (injected sleeps/yields at round
    /// entry) still produce the identical trace: the round protocol never
    /// lets wall-clock skew reach sim state.
    #[test]
    fn staggered_workers_produce_identical_traces() {
        let baseline = run_ring(1, 1);
        for (shards, workers, seed) in [(5, 2, 11u64), (5, 3, 12), (3, 3, 99), (4, 2, 7)] {
            let latency = SimDuration::from_nanos(7);
            let mut sim = WindowedSim::new(ring_models(shards, 200))
                .with_workers(workers)
                .with_stagger(seed);
            sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
            let out = sim.run(SimTime::MAX, &mut NoSync { lookahead: latency });
            assert_eq!(out.outcome, RunOutcome::Drained);
            assert_eq!(out.events, 201);
            assert_eq!(
                collect_trace(sim),
                baseline,
                "stagger seed {seed} with {shards} shards / {workers} workers diverged"
            );
        }
    }

    #[test]
    fn event_budget_stops_the_run() {
        let models: Vec<Ring> = (0..2)
            .map(|shard| Ring {
                shard,
                shards: 2,
                nodes: 2,
                latency: SimDuration::from_nanos(1),
                hops_left: u64::MAX,
                trace: Vec::new(),
            })
            .collect();
        let mut sim = WindowedSim::new(models)
            .with_event_budget(100)
            .with_workers(1);
        sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
        let out = sim.run(
            SimTime::MAX,
            &mut NoSync {
                lookahead: SimDuration::from_nanos(1),
            },
        );
        assert_eq!(out.outcome, RunOutcome::EventBudgetExhausted);
        assert!(out.events >= 100);
    }

    /// The hook's stop threshold over summed shard contributions replaces
    /// the old per-window callback, and the stop lands on the same window
    /// edge for every shard and worker count.
    #[test]
    fn stop_threshold_is_shard_and_worker_invariant() {
        struct StopAt {
            lookahead: SimDuration,
            threshold: u64,
        }
        impl SyncHook<Ring> for StopAt {
            fn next_sync(&self) -> SimTime {
                SimTime::MAX
            }
            fn on_sync(&mut self, _: SimTime, _: &mut ShardsView<'_, Ring>) {}
            fn lookahead(&self) -> SimDuration {
                self.lookahead
            }
            fn stop_threshold(&self) -> u64 {
                self.threshold
            }
        }
        let run = |shards: usize, workers: usize| {
            let mut sim = WindowedSim::new(ring_models(shards, u64::MAX)).with_workers(workers);
            sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
            let out = sim.run(
                SimTime::MAX,
                &mut StopAt {
                    lookahead: SimDuration::from_nanos(7),
                    threshold: 50,
                },
            );
            assert_eq!(out.outcome, RunOutcome::Stopped);
            assert!(out.events >= 50);
            (out.now, out.events, collect_trace(sim))
        };
        let one = run(1, 1);
        assert_eq!(one, run(3, 2));
        assert_eq!(one, run(5, 3));
    }

    #[test]
    fn horizon_bounds_the_run() {
        let models: Vec<Ring> = vec![Ring {
            shard: 0,
            shards: 1,
            nodes: 1,
            latency: SimDuration::from_nanos(10),
            hops_left: u64::MAX,
            trace: Vec::new(),
        }];
        let mut sim = WindowedSim::new(models).with_workers(1);
        sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
        let out = sim.run(
            SimTime::from_nanos(100),
            &mut NoSync {
                lookahead: SimDuration::from_nanos(10),
            },
        );
        assert_eq!(out.outcome, RunOutcome::HorizonReached);
        // Tokens at 0, 10, ..., 100 ns inclusive.
        assert_eq!(out.events, 11);
        assert_eq!(out.now, SimTime::from_nanos(100));
    }

    /// Sync points interleave deterministically with events: everything
    /// strictly before the sync instant is processed first.
    #[test]
    fn sync_points_observe_a_consistent_cut() {
        struct EpochHook {
            next: SimTime,
            period: SimDuration,
            cuts: Vec<(u64, usize)>,
        }
        impl SyncHook<Ring> for EpochHook {
            fn next_sync(&self) -> SimTime {
                self.next
            }
            fn on_sync(&mut self, at: SimTime, shards: &mut ShardsView<'_, Ring>) {
                let seen: usize = (0..shards.len()).map(|i| shards.model(i).trace.len()).sum();
                self.cuts.push((at.as_picos(), seen));
                self.next = at + self.period;
            }
            fn lookahead(&self) -> SimDuration {
                SimDuration::from_nanos(7)
            }
        }
        let run = |shards: usize, workers: usize| {
            let models: Vec<Ring> = (0..shards)
                .map(|shard| Ring {
                    shard,
                    shards,
                    nodes: 4,
                    latency: SimDuration::from_nanos(7),
                    hops_left: 50,
                    trace: Vec::new(),
                })
                .collect();
            let mut sim = WindowedSim::new(models).with_workers(workers);
            sim.schedule(0, SimTime::ZERO, 0, Token { node: 0, hops: 0 });
            let mut hook = EpochHook {
                next: SimTime::from_nanos(20),
                period: SimDuration::from_nanos(20),
                cuts: Vec::new(),
            };
            let out = sim.run(SimTime::from_nanos(400), &mut hook);
            assert_eq!(out.outcome, RunOutcome::Drained);
            assert!(out.syncs > 0);
            hook.cuts
        };
        let one = run(1, 1);
        assert_eq!(one, run(4, 1));
        assert_eq!(one, run(4, 3));
    }

    #[test]
    #[should_panic(expected = "lookahead bound violated")]
    fn cross_shard_sends_below_the_window_edge_panic() {
        struct Bad {
            shard: usize,
        }
        impl ShardModel for Bad {
            type Event = ();
            fn handle(&mut self, ctx: &mut WindowCtx<'_, ()>, _: ()) {
                // Claims a 100 ns lookahead but sends 1 ns ahead.
                let to = 1 - self.shard;
                ctx.send(to, ctx.now() + SimDuration::from_nanos(1), 1, ());
            }
        }
        struct Hook;
        impl SyncHook<Bad> for Hook {
            fn next_sync(&self) -> SimTime {
                SimTime::MAX
            }
            fn on_sync(&mut self, _: SimTime, _: &mut ShardsView<'_, Bad>) {}
            fn lookahead(&self) -> SimDuration {
                SimDuration::from_nanos(100)
            }
        }
        let mut sim = WindowedSim::new(vec![Bad { shard: 0 }, Bad { shard: 1 }]).with_workers(1);
        sim.schedule(0, SimTime::from_nanos(50), 0, ());
        sim.run(SimTime::MAX, &mut Hook);
    }
}
