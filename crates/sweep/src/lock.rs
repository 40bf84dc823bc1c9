//! Advisory locking for shared store directories.
//!
//! A store directory may be open in several processes at once — the
//! `rackfabricd` daemon serving warm queries while a batch CLI runs a
//! campaign against the same cache. Record reads and writes are already
//! safe under that sharing (atomic temp-file + rename, unique temp names),
//! but two maintenance paths were not:
//!
//! * `stats.json` is a read-modify-write sidecar — two concurrent
//!   [`flush_stats`] calls could interleave and silently drop counts.
//! * [`gc`] and the orphan-temp sweep walk and delete files — two
//!   concurrent passes (or a pass racing a flush) multiply the failure
//!   surface for no benefit.
//!
//! [`StoreLock`] serialises exactly those paths with an OS advisory lock
//! (`flock`-style, via [`std::fs::File::lock`]) on a `lock` file next to
//! `objects/`. Locks are per open file description, so two handles in the
//! *same* process contend just like two processes do — which is also what
//! makes the behaviour testable in-process. Record `get`/`put` never take
//! the lock: the hot path stays lock-free.
//!
//! [`flush_stats`]: crate::store::ResultStore::flush_stats
//! [`gc`]: crate::store::ResultStore::gc

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Name of the lock file inside the store root (never under `objects/`, so
/// it can never be mistaken for a record).
const LOCK_FILE: &str = "lock";

/// A held advisory lock on a store directory; dropping it releases the
/// lock.
#[derive(Debug)]
pub struct StoreLock {
    // Held only for its lock; the guard's drop (close) releases it.
    _file: File,
}

impl StoreLock {
    fn lock_file(root: &Path) -> io::Result<File> {
        OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(root.join(LOCK_FILE))
    }

    /// Takes the store's exclusive maintenance lock, blocking until any
    /// other holder (in this or another process) releases it.
    pub fn exclusive(root: &Path) -> io::Result<StoreLock> {
        let file = Self::lock_file(root)?;
        file.lock()?;
        Ok(StoreLock { _file: file })
    }

    /// Attempts the exclusive lock without blocking: `Ok(None)` when
    /// another holder has it.
    pub fn try_exclusive(root: &Path) -> io::Result<Option<StoreLock>> {
        let file = Self::lock_file(root)?;
        match file.try_lock() {
            Ok(()) => Ok(Some(StoreLock { _file: file })),
            Err(std::fs::TryLockError::WouldBlock) => Ok(None),
            Err(std::fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;

    #[test]
    fn exclusive_lock_excludes_a_second_holder_until_dropped() {
        let root = TestDir::new("sweep-lock-exclusive");
        let held = StoreLock::exclusive(root.path()).unwrap();
        // A second handle (same process, separate open file description)
        // must observe the contention, exactly like a second process would.
        assert!(StoreLock::try_exclusive(root.path()).unwrap().is_none());
        drop(held);
        assert!(StoreLock::try_exclusive(root.path()).unwrap().is_some());
    }
}
