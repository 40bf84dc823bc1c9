//! Cooperative campaign cancellation: the one way to stop a campaign.
//!
//! A [`CancelToken`] is a cheap, cloneable grant of fresh executions shared
//! between the party that wants a campaign stopped (a daemon scheduler, a
//! capped `sweep` run, a test) and the sweep dispatcher, which asks it for
//! each dispatch chunk. [`CancelToken::new`] grants any number until
//! [`CancelToken::cancel`] is called; [`CancelToken::after_jobs`] grants
//! exactly `n`, shared by every campaign it is attached to. A cancelled
//! token grants nothing.
//!
//! Stopping is **cooperative and batch-aligned**: jobs already handed to
//! the engine run to completion and are persisted, so an interrupted
//! campaign always leaves a clean prefix in the store (and, behind the
//! command layer, a clean write-ahead journal prefix). `Executor::recover`
//! or a plain warm re-run completes it to byte-identical output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a token that was given no allowance grants: any number of jobs.
const UNLIMITED: u64 = u64::MAX;

/// A shared grant of fresh executions; clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancelToken {
    /// Fresh executions left to grant, or [`UNLIMITED`]; 0 once cancelled.
    left: Arc<AtomicU64>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken {
            left: Arc::new(AtomicU64::new(UNLIMITED)),
        }
    }
}

impl CancelToken {
    /// A token that grants every execution until [`CancelToken::cancel`]
    /// is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that grants exactly `jobs` fresh executions in all, then
    /// nothing: a deterministic interruption after a fixed number of jobs,
    /// independent of thread timing.
    pub fn after_jobs(jobs: u64) -> CancelToken {
        CancelToken {
            left: Arc::new(AtomicU64::new(jobs)),
        }
    }

    /// Stops every grant. Idempotent; all clones observe it.
    pub fn cancel(&self) {
        self.left.store(0, Ordering::SeqCst);
    }

    /// True once the token grants nothing more: it was cancelled, or its
    /// allowance is spent.
    pub fn is_cancelled(&self) -> bool {
        self.left.load(Ordering::SeqCst) == 0
    }

    /// Asks to execute `jobs` more jobs; returns how many of them may run
    /// (all of them, some, or none) and counts those against the
    /// allowance.
    pub(crate) fn grant(&self, jobs: usize) -> usize {
        let jobs = jobs as u64;
        let left = match self
            .left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                (left != UNLIMITED).then(|| left - left.min(jobs))
            }) {
            Ok(left) | Err(left) => left,
        };
        left.min(jobs) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        assert_eq!(a.grant(1000), 1000, "an untripped token grants everything");
        assert_eq!(b.grant(1000), 1000, "and counts nothing against it");
        b.cancel();
        assert!(a.is_cancelled());
        assert_eq!(a.grant(1), 0);
    }

    #[test]
    fn an_allowance_grants_exactly_its_jobs() {
        let token = CancelToken::after_jobs(5);
        let other = token.clone();
        assert_eq!(token.grant(2), 2);
        assert_eq!(other.grant(2), 2, "clones share one allowance");
        assert!(!token.is_cancelled());
        assert_eq!(token.grant(2), 1, "the last job of the allowance");
        assert!(token.is_cancelled(), "a spent allowance is permanent");
        assert_eq!(token.grant(2), 0);

        let cancelled = CancelToken::after_jobs(5);
        cancelled.cancel();
        assert_eq!(cancelled.grant(1), 0, "a cancelled token grants nothing");
    }

    #[test]
    fn zero_fuse_trips_immediately() {
        let token = CancelToken::after_jobs(0);
        assert!(token.is_cancelled());
        assert_eq!(token.grant(1), 0);
        assert_eq!(token.grant(0), 0, "asking for nothing is granted nothing");
    }
}
