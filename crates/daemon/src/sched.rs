//! The job scheduler: a bounded priority queue with single-flight dedup,
//! cancellation and completion watching, shared between connection threads
//! (producers) and the worker pool (consumers).
//!
//! Everything lives behind one `Mutex` + `Condvar` pair. The lock covers
//! only bookkeeping — never an engine execution — so contention stays
//! proportional to request rate, not job cost.
//!
//! ## Single-flight dedup
//!
//! Two tenants submitting the **same** command concurrently must not burn
//! the engine twice: the store would deduplicate the persisted result
//! anyway, but both executions would still run. A job is *in flight*
//! while its id is in the run queue or the running list, and a submission
//! whose command equals an in-flight job's (`PartialEq`; the daemon
//! schedules a scenario with its spec's key preimage as its text, so equal
//! specs are equal commands) *attaches* to it — same job id, same events,
//! one execution. An ended job attaches nothing: the store answers a later
//! identical submission.
//!
//! ## Job lifecycle
//!
//! A job is queued, then running, then ended; its ended state records
//! whether it reached a worker. Every watcher therefore observes the same
//! phases however late it first looks: `Started` then `Ended`, or `Ended`
//! alone for a job cancelled while queued.
//!
//! A submit the store answers on its connection thread is a job that ends
//! as it is counted (`Scheduler::answered`): it takes an id and counts as
//! completed and as a warm hit, and the scheduler holds nothing for it. It
//! never queues, so the queue bound and priorities do not apply to it; it
//! never attaches to an in-flight job, and nothing attaches to it.
//!
//! A job is *held* (counted by [`StatusCounts::held`]) from its submission
//! until it has ended **and** its last watcher has seen the end, whichever
//! happens last. Its watchers are the submission that enqueued it plus
//! every submission that attached to it. Each watcher lets go exactly once:
//!
//! - when [`Scheduler::watch`] hands it the `Ended` phase — the last
//!   watcher receives the end by move, earlier ones a copy, and none can
//!   watch that end again;
//! - or when it gives up first (the daemon's connection threads do so when
//!   a watch times out or a write to their client fails).
//!
//! A job that ends with no watcher left is let go at once. An idle daemon
//! therefore holds no job, and its memory does not grow with the requests
//! it has served; the result itself stays in the store, so a resubmission
//! is a warm hit. A cancel or a watch of an id no longer held answers as
//! for an unknown id.
//!
//! A caller of [`Scheduler::submit`] is a watcher too: the scheduler holds
//! its job, end included, until the caller has watched that end. A job
//! that is submitted, run and completed but never watched stays held.
//!
//! ## Ordering
//!
//! Workers take the highest `priority` first, ties in arrival order. The
//! queue is bounded: past `max_queue` waiting jobs, submissions are
//! rejected immediately (backpressure beats unbounded latency).

use crate::proto::StatusCounts;
use rackfabric_cmd::command::Command;
use rackfabric_sim::json::JsonValue;
use rackfabric_sweep::cancel::CancelToken;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a job ended, with its payload when it produced one.
#[derive(Debug, Clone)]
pub enum JobEnd {
    /// Finished; `cached` is true when the store answered with zero
    /// executions, `result` is the canonical payload.
    Done {
        /// Zero engine executions.
        cached: bool,
        /// Canonical structured result.
        result: JsonValue,
    },
    /// Cancelled before or during execution.
    Cancelled,
    /// Failed with a reason.
    Failed(String),
}

/// Job lifecycle, advanced monotonically.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Ended {
        /// Whether the job reached a worker before it ended.
        started: bool,
        end: JobEnd,
    },
}

/// What a submission got.
#[derive(Debug, Clone)]
pub enum Submitted {
    /// Enqueued as a fresh job.
    Enqueued(u64),
    /// Attached to an identical in-flight job.
    Attached(u64),
    /// Refused (queue full or shutting down).
    Rejected(String),
}

impl Submitted {
    /// The job id, when the submission was accepted either way.
    pub fn job_id(&self) -> Option<u64> {
        match self {
            Submitted::Enqueued(id) | Submitted::Attached(id) => Some(*id),
            Submitted::Rejected(_) => None,
        }
    }
}

/// One phase observed by a completion watcher.
#[derive(Debug, Clone)]
pub enum Observed {
    /// The job reached a worker.
    Started,
    /// The job reached a terminal state.
    Ended(JobEnd),
}

struct JobEntry {
    priority: i64,
    tenant: String,
    command: Command,
    /// Watchers that have neither seen the end nor given up.
    watchers: u32,
    state: JobState,
    cancel: CancelToken,
    enqueued_at: Instant,
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<u64, JobEntry>,
    /// Queued job ids (selection scans for max priority / min id; queues
    /// are short — bounded — so a scan beats a fancier structure).
    queue: Vec<u64>,
    /// Ids of the jobs on a worker.
    running: Vec<u64>,
    next_id: u64,
    completed: u64,
    warm_hits: u64,
    rejected: u64,
    cancelled: u64,
    dedup_attached: u64,
    shutting_down: bool,
}

impl State {
    /// Ends a queued or running job: takes it out of flight, counts the
    /// end, and lets the entry go at once when no watcher is left to see
    /// the end. Returns the job's residence time (enqueue -> end), `None`
    /// when `id` is not held.
    fn end(&mut self, id: u64, end: JobEnd) -> Option<Duration> {
        let entry = self.jobs.get_mut(&id)?;
        let started = matches!(entry.state, JobState::Running);
        self.queue.retain(|&other| other != id);
        self.running.retain(|&other| other != id);
        self.completed += 1;
        match &end {
            JobEnd::Done { cached: true, .. } => self.warm_hits += 1,
            JobEnd::Cancelled => self.cancelled += 1,
            _ => {}
        }
        let residence = entry.enqueued_at.elapsed();
        if entry.watchers == 0 {
            self.jobs.remove(&id);
        } else {
            entry.state = JobState::Ended { started, end };
        }
        Some(residence)
    }

    /// One watcher of `id` lets go. Returns the job's end when it has one:
    /// moved out of the entry for the last watcher, whose release lets the
    /// entry go, and copied for the others.
    fn release(&mut self, id: u64) -> Option<JobEnd> {
        let entry = self.jobs.get_mut(&id)?;
        entry.watchers = entry.watchers.saturating_sub(1);
        match &entry.state {
            JobState::Ended { end, .. } if entry.watchers > 0 => Some(end.clone()),
            JobState::Ended { .. } => match self.jobs.remove(&id)?.state {
                JobState::Ended { end, .. } => Some(end),
                _ => None,
            },
            _ => None,
        }
    }
}

/// The shared scheduler. All methods are callable from any thread.
pub struct Scheduler {
    state: Mutex<State>,
    /// Signalled on every state change: workers waiting for jobs and
    /// watchers waiting for phases both park here.
    changed: Condvar,
    max_queue: usize,
}

impl Scheduler {
    /// A scheduler admitting at most `max_queue` waiting jobs.
    pub fn new(max_queue: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            max_queue: max_queue.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("scheduler lock poisoned")
    }

    /// Submits a command. Identical in-flight commands coalesce into one
    /// job; a full queue or a draining daemon rejects.
    pub fn submit(&self, tenant: &str, priority: i64, command: Command) -> Submitted {
        self.submit_with_token(tenant, priority, command, CancelToken::new())
    }

    /// [`Scheduler::submit`] with a caller-supplied cancel token — the
    /// embedding hook the determinism harness uses to interrupt a campaign
    /// after an exact number of jobs (`CancelToken::after_jobs`) instead of
    /// racing a cancel request against the worker.
    pub fn submit_with_token(
        &self,
        tenant: &str,
        priority: i64,
        command: Command,
        cancel: CancelToken,
    ) -> Submitted {
        let mut state = self.lock();
        if state.shutting_down {
            state.rejected += 1;
            return Submitted::Rejected("shutting down".to_string());
        }
        let in_flight = state
            .queue
            .iter()
            .chain(&state.running)
            .copied()
            .find(|id| state.jobs[id].command == command);
        if let Some(id) = in_flight {
            state.dedup_attached += 1;
            let entry = state.jobs.get_mut(&id).expect("an in-flight job is held");
            entry.watchers += 1;
            return Submitted::Attached(id);
        }
        if state.queue.len() >= self.max_queue {
            state.rejected += 1;
            return Submitted::Rejected("queue full".to_string());
        }
        state.next_id += 1;
        let id = state.next_id;
        state.jobs.insert(
            id,
            JobEntry {
                priority,
                tenant: tenant.to_string(),
                command,
                watchers: 1,
                state: JobState::Queued,
                cancel,
                enqueued_at: Instant::now(),
            },
        );
        state.queue.push(id);
        self.changed.notify_all();
        Submitted::Enqueued(id)
    }

    /// Counts a submit that the store answered on its connection thread: it
    /// takes the next job id and ends at once, completed and warm, with no
    /// entry, no queue slot, no worker and no wake-up. Once the daemon
    /// drains it is refused (and counted rejected), as
    /// [`Scheduler::submit`] would refuse it.
    pub(crate) fn answered(&self) -> Result<u64, String> {
        let mut state = self.lock();
        if state.shutting_down {
            state.rejected += 1;
            return Err("shutting down".to_string());
        }
        state.next_id += 1;
        state.completed += 1;
        state.warm_hits += 1;
        Ok(state.next_id)
    }

    /// Blocks until a job is available (returning it with its cancel token
    /// and tenant) or the daemon is draining with an empty queue (`None`).
    pub fn next_job(&self) -> Option<(u64, String, Command, CancelToken)> {
        let mut state = self.lock();
        loop {
            if let Some(pos) = best_queued(&state) {
                let id = state.queue.swap_remove(pos);
                let entry = state.jobs.get_mut(&id).expect("queued job exists");
                entry.state = JobState::Running;
                let picked = (
                    id,
                    entry.tenant.clone(),
                    entry.command.clone(),
                    entry.cancel.clone(),
                );
                state.running.push(id);
                self.changed.notify_all();
                return Some(picked);
            }
            if state.shutting_down {
                return None;
            }
            state = self.changed.wait(state).expect("scheduler lock poisoned");
        }
    }

    /// Marks a running job terminal and wakes its watchers; with none left,
    /// the job is let go at once. Returns the job's total residence time
    /// (enqueue -> completion), zero for an id not held.
    pub fn complete(&self, id: u64, end: JobEnd) -> Duration {
        self.complete_then(id, end, |_| {})
    }

    /// [`Scheduler::complete`], handing the residence time to `record`
    /// before any watcher can see the end, so a client that has its reply
    /// finds its job's sample already recorded.
    pub(crate) fn complete_then(
        &self,
        id: u64,
        end: JobEnd,
        record: impl FnOnce(Duration),
    ) -> Duration {
        let mut state = self.lock();
        let residence = state.end(id, end).unwrap_or_default();
        record(residence);
        self.changed.notify_all();
        residence
    }

    /// Cancels a job: queued jobs drop to `Cancelled` immediately; a
    /// running job's token trips (its campaign interrupts at the next job
    /// boundary and completes as cancelled). Returns false for jobs that
    /// are unknown, already terminal or no longer held.
    pub fn cancel(&self, id: u64) -> bool {
        let mut state = self.lock();
        let Some(entry) = state.jobs.get(&id) else {
            return false;
        };
        entry.cancel.cancel();
        match entry.state {
            JobState::Queued => {}
            JobState::Running => return true,
            JobState::Ended { .. } => return false,
        }
        state.end(id, JobEnd::Cancelled);
        self.changed.notify_all();
        true
    }

    /// Waits (bounded by `timeout`) for the job's next phase after
    /// `saw_started`: `Started` once a worker has picked it up, even when
    /// the job has ended since, then `Ended`. `None` on timeout, or for an
    /// id that is unknown or no longer held.
    ///
    /// The caller must be one of the job's watchers (see the module docs).
    /// Returning `Ended` lets that watcher go, so each watcher sees the end
    /// once.
    pub fn watch(&self, id: u64, saw_started: bool, timeout: Duration) -> Option<Observed> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            match state.jobs.get(&id).map(|entry| &entry.state) {
                None => return None,
                Some(JobState::Running | JobState::Ended { started: true, .. }) if !saw_started => {
                    return Some(Observed::Started)
                }
                Some(JobState::Ended { .. }) => return state.release(id).map(Observed::Ended),
                _ => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .changed
                .wait_timeout(state, deadline - now)
                .expect("scheduler lock poisoned")
                .0;
        }
    }

    /// A watcher of `id` gives up before seeing its end. An ended job with
    /// no watcher left is let go. A poisoned lock skips the release instead
    /// of panicking, so a `Drop` may call this.
    pub(crate) fn release(&self, id: u64) {
        if let Ok(mut state) = self.state.lock() {
            state.release(id);
        }
    }

    /// Begins draining: submissions reject, queued jobs cancel, running
    /// jobs' tokens trip, idle workers wake up and exit.
    pub fn shutdown(&self) {
        let mut state = self.lock();
        state.shutting_down = true;
        for entry in state.jobs.values() {
            if !matches!(entry.state, JobState::Ended { .. }) {
                entry.cancel.cancel();
            }
        }
        for id in std::mem::take(&mut state.queue) {
            state.end(id, JobEnd::Cancelled);
        }
        self.changed.notify_all();
    }

    /// True once [`Scheduler::shutdown`] ran.
    pub fn is_shutting_down(&self) -> bool {
        self.lock().shutting_down
    }

    /// Current counters (for `status` replies and diagnostics).
    pub fn counts(&self) -> StatusCounts {
        let state = self.lock();
        StatusCounts {
            queued: state.queue.len() as u64,
            active: state.running.len() as u64,
            completed: state.completed,
            warm_hits: state.warm_hits,
            rejected: state.rejected,
            cancelled: state.cancelled,
            dedup_attached: state.dedup_attached,
            held: state.jobs.len() as u64,
        }
    }

    /// Current queue depth (gauge feed).
    pub fn queue_depth(&self) -> u64 {
        self.lock().queue.len() as u64
    }

    /// Currently active jobs (gauge feed).
    pub fn active_jobs(&self) -> u64 {
        self.lock().running.len() as u64
    }
}

/// Index (into `state.queue`) of the best runnable job: max priority, ties
/// broken by arrival order.
fn best_queued(state: &State) -> Option<usize> {
    state
        .queue
        .iter()
        .enumerate()
        .max_by_key(|(_, &id)| (state.jobs[&id].priority, std::cmp::Reverse(id)))
        .map(|(pos, _)| pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sweep::key::JobKey;

    fn cmd(seed: u64) -> Command {
        Command::RunScenario {
            spec_json: format!("{{\"seed\":{seed}}}"),
        }
    }

    #[test]
    fn priorities_order_dispatch_and_ties_keep_arrival_order() {
        let sched = Scheduler::new(16);
        let low = sched.submit("a", 1, cmd(1)).job_id().unwrap();
        let high = sched.submit("b", 5, cmd(2)).job_id().unwrap();
        let mid_first = sched.submit("c", 3, cmd(3)).job_id().unwrap();
        let mid_second = sched.submit("c", 3, cmd(4)).job_id().unwrap();
        let order: Vec<u64> = (0..4).map(|_| sched.next_job().unwrap().0).collect();
        assert_eq!(order, vec![high, mid_first, mid_second, low]);
    }

    #[test]
    fn identical_inflight_submissions_attach_to_one_job() {
        let sched = Scheduler::new(16);
        let first = sched.submit("a", 0, cmd(7));
        let id = first.job_id().unwrap();
        assert!(matches!(first, Submitted::Enqueued(_)));
        // Same command, different tenant: attaches, no new job.
        let second = sched.submit("b", 0, cmd(7));
        assert!(matches!(second, Submitted::Attached(got) if got == id));
        // Different command: fresh job.
        assert!(matches!(
            sched.submit("b", 0, cmd(8)),
            Submitted::Enqueued(_)
        ));
        // The same spec text under another op is another command.
        let Command::RunScenario { spec_json } = cmd(7) else {
            unreachable!("cmd builds run-scenario commands")
        };
        let cell = Command::ExecuteCell {
            key: JobKey(7),
            spec_json,
        };
        assert!(matches!(sched.submit("c", 0, cell), Submitted::Enqueued(_)));
        assert_eq!(sched.counts().dedup_attached, 1);
        assert_eq!(sched.counts().queued, 3);

        // A submission that arrives while the job runs attaches too.
        let (picked, _, _, _) = sched.next_job().unwrap();
        assert_eq!(picked, id);
        assert!(matches!(
            sched.submit("d", 0, cmd(7)),
            Submitted::Attached(got) if got == id
        ));
        assert_eq!(sched.counts().dedup_attached, 2);

        // An ended job attaches nothing: a resubmission enqueues afresh.
        sched.complete(
            id,
            JobEnd::Done {
                cached: false,
                result: JsonValue::Null,
            },
        );
        assert!(matches!(
            sched.submit("a", 0, cmd(7)),
            Submitted::Enqueued(fresh) if fresh != id
        ));
    }

    #[test]
    fn a_watcher_sees_every_phase_the_job_went_through_however_late_it_looks() {
        let sched = Scheduler::new(16);
        // Run and completed before its watcher first looks.
        let id = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        assert_eq!(sched.next_job().unwrap().0, id);
        sched.complete(id, done("{}"));
        assert!(matches!(
            sched.watch(id, false, Duration::ZERO),
            Some(Observed::Started)
        ));
        assert!(matches!(
            sched.watch(id, true, Duration::ZERO),
            Some(Observed::Ended(JobEnd::Done { .. }))
        ));
        assert_eq!(sched.counts().held, 0);

        // Cancelled while queued: it never started.
        let queued = sched.submit("a", 0, cmd(2)).job_id().unwrap();
        assert!(sched.cancel(queued));
        assert!(matches!(
            sched.watch(queued, false, Duration::ZERO),
            Some(Observed::Ended(JobEnd::Cancelled))
        ));
        assert_eq!(sched.counts().held, 0);
    }

    fn done(result: &str) -> JobEnd {
        JobEnd::Done {
            cached: false,
            result: rackfabric_sim::json::parse(result).unwrap(),
        }
    }

    #[test]
    fn every_watcher_sees_the_end_once_and_the_last_one_lets_the_job_go() {
        const ATTACHED: usize = 3;
        let sched = Scheduler::new(16);
        let id = sched.submit("a", 0, cmd(7)).job_id().unwrap();
        for _ in 0..ATTACHED {
            assert!(matches!(
                sched.submit("b", 0, cmd(7)),
                Submitted::Attached(got) if got == id
            ));
        }
        let watchers = ATTACHED + 1;
        assert_eq!(sched.next_job().unwrap().0, id);
        // Seeing the start lets no watcher go.
        for _ in 0..watchers {
            assert!(matches!(
                sched.watch(id, false, Duration::ZERO),
                Some(Observed::Started)
            ));
        }
        sched.complete(id, done("{\"x\":[1,2]}"));
        for seen in 0..watchers {
            assert_eq!(sched.counts().held, 1, "held after {seen} of {watchers}");
            match sched.watch(id, true, Duration::ZERO) {
                Some(Observed::Ended(JobEnd::Done { cached, result })) => {
                    assert!(!cached);
                    assert_eq!(
                        result,
                        rackfabric_sim::json::parse("{\"x\":[1,2]}").unwrap()
                    );
                }
                other => panic!("watcher {seen}: expected the end, got {other:?}"),
            }
        }
        assert_eq!(sched.counts().held, 0, "the last watcher lets the job go");
        assert!(
            sched.watch(id, true, Duration::ZERO).is_none(),
            "no watcher returns to the end"
        );
        assert_eq!(sched.counts().completed, 1);
    }

    #[test]
    fn a_watcher_that_gives_up_early_leaves_the_job_to_its_worker() {
        let sched = Scheduler::new(16);
        let id = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        assert_eq!(sched.next_job().unwrap().0, id);
        sched.release(id);
        assert_eq!(sched.counts().held, 1, "an active job stays for its worker");
        // The worker completes a job nobody watches: it leaves at once.
        sched.complete(id, done("{}"));
        let counts = sched.counts();
        assert_eq!((counts.held, counts.active, counts.completed), (0, 0, 1));
        assert!(!sched.cancel(id), "an id no longer held is finished");
        assert!(sched.watch(id, true, Duration::ZERO).is_none());

        // A queued job whose watcher gave up ends and leaves on cancel.
        let queued = sched.submit("a", 0, cmd(2)).job_id().unwrap();
        sched.release(queued);
        assert!(sched.cancel(queued));
        assert_eq!(sched.counts().held, 0);
        assert!(!sched.cancel(queued), "cancelled and no longer held");
    }

    #[test]
    fn a_submission_that_is_never_watched_stays_held() {
        let sched = Scheduler::new(16);
        let id = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        assert_eq!(sched.next_job().unwrap().0, id);
        sched.complete(id, done("{}"));
        assert_eq!(sched.counts().held, 1, "the submitter has not seen the end");
        assert!(matches!(
            sched.watch(id, true, Duration::ZERO),
            Some(Observed::Ended(_))
        ));
        assert_eq!(sched.counts().held, 0);
    }

    #[test]
    fn giving_up_tolerates_a_poisoned_lock() {
        let sched = Scheduler::new(16);
        let id = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sched.state.lock().unwrap();
            panic!("poison the scheduler lock");
        }));
        assert!(poison.is_err() && sched.state.is_poisoned());
        sched.release(id);
    }

    #[test]
    fn a_store_answer_counts_as_a_warm_job_and_holds_nothing() {
        let sched = Scheduler::new(1);
        let queued = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        let before = sched.counts();
        // A full queue does not refuse it, and it attaches to nothing.
        let answered = sched.answered().unwrap();
        assert_eq!(answered, queued + 1);
        let after = sched.counts();
        assert_eq!(
            (after.completed, after.warm_hits),
            (before.completed + 1, before.warm_hits + 1)
        );
        assert_eq!(
            (after.queued, after.active, after.held, after.dedup_attached),
            (
                before.queued,
                before.active,
                before.held,
                before.dedup_attached
            )
        );
        assert!(!sched.cancel(answered), "nothing is held for it");
        sched.shutdown();
        assert_eq!(sched.answered(), Err("shutting down".to_string()));
        assert_eq!(sched.counts().rejected, 1);
    }

    #[test]
    fn backpressure_rejects_past_the_bound() {
        let sched = Scheduler::new(2);
        assert!(sched.submit("a", 0, cmd(1)).job_id().is_some());
        assert!(sched.submit("a", 0, cmd(2)).job_id().is_some());
        assert!(matches!(
            sched.submit("a", 0, cmd(3)),
            Submitted::Rejected(reason) if reason == "queue full"
        ));
        assert_eq!(sched.counts().rejected, 1);
    }

    #[test]
    fn cancel_drops_queued_jobs_and_trips_active_tokens() {
        let sched = Scheduler::new(16);
        let queued = sched.submit("a", 0, cmd(1)).job_id().unwrap();
        assert!(sched.cancel(queued));
        assert!(!sched.cancel(queued), "already terminal");
        match sched.watch(queued, true, Duration::from_secs(1)) {
            Some(Observed::Ended(JobEnd::Cancelled)) => {}
            other => panic!("expected cancelled, got {other:?}"),
        }

        let active = sched.submit("a", 0, cmd(2)).job_id().unwrap();
        let (id, _, _, token) = sched.next_job().unwrap();
        assert_eq!(id, active);
        assert!(!token.is_cancelled());
        assert!(sched.cancel(active));
        assert!(token.is_cancelled(), "active cancel trips the token");
    }

    #[test]
    fn shutdown_cancels_queued_and_wakes_workers() {
        let sched = std::sync::Arc::new(Scheduler::new(16));
        let waiter = {
            let sched = sched.clone();
            std::thread::spawn(move || sched.next_job())
        };
        // Give the worker a moment to park, then drain.
        std::thread::sleep(Duration::from_millis(20));
        let queued = sched.submit("a", 0, cmd(1)).job_id();
        sched.shutdown();
        // The parked worker either picked the job up before the drain or
        // returns None after it; both are clean exits.
        let _ = waiter.join().unwrap();
        assert!(sched.is_shutting_down());
        assert!(matches!(
            sched.submit("a", 0, cmd(2)),
            Submitted::Rejected(_)
        ));
        if let Some(id) = queued {
            // Drained-queue jobs are observable as cancelled (unless the
            // racing worker took the job first, in which case it is active).
            match sched.watch(id, true, Duration::from_millis(200)) {
                Some(Observed::Ended(JobEnd::Cancelled)) | None => {}
                other => panic!("unexpected phase {other:?}"),
            }
        }
    }
}
