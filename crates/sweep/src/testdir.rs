//! Scratch directories that tests own.
//!
//! A [`TestDir`] is a fresh, empty directory under the system temp dir,
//! named by a tag, the process id and a process-wide counter. Libtest runs
//! tests on parallel threads and several test binaries may run at once, so
//! neither a repeated tag nor a concurrent test can make two owners share
//! one directory. The directory is removed when the `TestDir` drops — unless
//! the thread is panicking: a failed test keeps its directory (and says
//! where) so the state that failed can be inspected.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A temporary directory removed on drop, kept when a test fails.
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `<temp>/rackfabric-<tag>-<pid>-<n>`, empty.
    ///
    /// # Panics
    /// Panics when the directory cannot be created.
    pub fn new(tag: &str) -> TestDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("rackfabric-{tag}-{}-{n}", std::process::id()));
        // A directory of this name can only be left over from an earlier
        // process with the same pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("create test directory {}: {e}", path.display()));
        TestDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Not `eprintln!`: a panic here, during unwinding, would abort.
            let _ = writeln!(
                std::io::stderr(),
                "test failed: keeping {}",
                self.path.display()
            );
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_dir_is_fresh_and_removed_on_drop() {
        let a = TestDir::new("testdir-unit");
        let b = TestDir::new("testdir-unit");
        assert_ne!(a.path(), b.path(), "one tag, two owners, two directories");
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "dropping the owner removes the directory");
        assert!(b.path().is_dir());
    }

    #[test]
    fn a_panicking_owner_keeps_its_dir() {
        let path = std::thread::spawn(|| {
            let dir = TestDir::new("testdir-panic");
            let path = dir.path().to_path_buf();
            std::panic::panic_any(path);
        })
        .join()
        .expect_err("the thread panics")
        .downcast::<PathBuf>()
        .expect("the panic carries the path");
        assert!(
            path.is_dir(),
            "a failed test's directory stays for inspection"
        );
        std::fs::remove_dir_all(&*path).unwrap();
    }
}
