//! Torn-write property tests for the campaign journal: whatever prefix of
//! the log survives a crash, [`Executor::recover`] must restore the longest
//! valid prefix, never panic, and never re-execute a job whose result is
//! already in the store.
//!
//! The exhaustive test truncates a real campaign journal at **every byte
//! boundary**; the property test flips arbitrary single bytes (corruption,
//! not just truncation). Both run against (a copy of) the warm store the
//! campaign produced, so any re-execution is a recovery bug, not a cache
//! miss.

use proptest::prelude::*;
use rackfabric_cmd::journal::{read_log, LogRecord};
use rackfabric_cmd::{Command, Executor, NoCampaigns};
use rackfabric_scenario::matrix::{AxisValue, Matrix};
use rackfabric_scenario::runner::Runner;
use rackfabric_scenario::spec::{ScenarioSpec, WorkloadSpec};
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::Bytes;
use rackfabric_sweep::campaign::Sweep;
use rackfabric_sweep::store::ResultStore;
use rackfabric_sweep::testdir::TestDir;
use rackfabric_topo::spec::TopologySpec;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The fixture: one journaled two-job figure campaign, run once per process
/// and kept in memory. Each test recovers in a directory of its own, holding
/// a copy of the campaign's warm store that recovery only ever reads.
struct Fixture {
    /// The warm store's files: path relative to the store root, contents.
    store: Vec<(PathBuf, Vec<u8>)>,
    /// Bytes of the single journal segment the campaign wrote.
    bytes: Vec<u8>,
    /// Its validated records (marker + one per job).
    records: Vec<LogRecord>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let root = TestDir::new("cmd-torn-write-fixture");
        let exec = Executor::with_journal(
            ResultStore::open(root.join("store")).unwrap(),
            Runner::single_threaded(),
            root.join("journal"),
        )
        .unwrap();
        let base = ScenarioSpec::new(
            "torn-write",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20));
        let matrix = Matrix::new(base)
            .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
            .master_seed(3);
        exec.regenerate_figure("torn-write", "tiny", &Sweep::new(matrix))
            .unwrap();

        let bytes = std::fs::read(root.join("journal").join("seg-00000000.wal")).unwrap();
        let (records, tail) = read_log(&root.join("journal")).unwrap();
        assert!(tail.clean);
        assert_eq!(
            records.len(),
            3,
            "regenerate-figure marker + 2 execute-cell"
        );
        assert!(matches!(
            records[0].command,
            Command::RegenerateFigure { .. }
        ));
        Fixture {
            store: files_under(&root.join("store")),
            bytes,
            records,
        }
    })
}

/// Every file under `dir`, as (path relative to `dir`, contents).
fn files_under(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        for entry in std::fs::read_dir(&at).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                files.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    files
}

/// A fresh directory holding a copy of the fixture's warm store at
/// `store/`; tests write their torn journals beside it.
fn scratch(fix: &Fixture, tag: &str) -> TestDir {
    let dir = TestDir::new(tag);
    for (rel, bytes) in &fix.store {
        let path = dir.join("store").join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
    dir
}

/// Byte offsets at which each record of `bytes` ends (frame boundaries).
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    while offset + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
        assert!(offset <= bytes.len(), "fixture journal ends mid-frame");
        boundaries.push(offset);
    }
    boundaries
}

/// Writes `bytes` as the only segment of a fresh journal at `dir`.
fn write_torn_journal(dir: &Path, bytes: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("seg-00000000.wal"), bytes).unwrap();
}

/// Opens an executor on the warm store copy in `scratch` with the journal
/// at `dir` and recovers; returns what recovery saw and did.
fn recover_with(scratch: &TestDir, dir: &Path) -> rackfabric_cmd::RecoveryStats {
    let exec = Executor::with_journal(
        ResultStore::open(scratch.join("store")).unwrap(),
        Runner::single_threaded(),
        dir,
    )
    .unwrap();
    exec.recover(&NoCampaigns).unwrap()
}

#[test]
fn recovery_restores_longest_valid_prefix_at_every_truncation_point() {
    let fix = fixture();
    let boundaries = frame_boundaries(&fix.bytes);
    assert_eq!(boundaries.len(), fix.records.len());
    let scratch = scratch(fix, "cmd-torn-write-exhaustive");
    let dir = scratch.join("journal");

    for cut in 0..=fix.bytes.len() {
        write_torn_journal(&dir, &fix.bytes[..cut]);

        // The reader yields exactly the records whose frames fit in the cut.
        let (records, tail) = read_log(&dir).unwrap();
        let expected = boundaries.iter().filter(|&&end| end <= cut).count();
        assert_eq!(records.len(), expected, "wrong prefix length at cut {cut}");
        assert_eq!(
            records[..],
            fix.records[..expected],
            "prefix content diverged at cut {cut}"
        );
        assert_eq!(
            tail.clean,
            cut == 0 || boundaries.contains(&cut),
            "tail cleanliness wrong at cut {cut}"
        );

        // Recovery over that prefix: the store is warm, so nothing may
        // re-execute, and opening must have healed the tear.
        let stats = recover_with(&scratch, &dir);
        assert_eq!(stats.commands, expected);
        assert_eq!(
            stats.cells_replayed, 0,
            "re-executed a stored job at cut {cut}"
        );
        assert_eq!(
            stats.cells_already_stored,
            expected.saturating_sub(1).min(2)
        );
        assert!(!stats.torn_tail, "open must heal the tear before recovery");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recovery_survives_arbitrary_single_byte_corruption(
        pos_frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        let fix = fixture();
        let pos = ((pos_frac * fix.bytes.len() as f64) as usize).min(fix.bytes.len() - 1);
        let mut corrupt = fix.bytes.clone();
        corrupt[pos] ^= flip as u8;

        let scratch = scratch(fix, "cmd-torn-write-prop");
        let dir = scratch.join("journal");
        write_torn_journal(&dir, &corrupt);

        // Whatever the flip hit, the reader must yield a strict prefix of
        // the original records (CRC catches every single-byte error) and
        // recovery must neither panic nor re-execute stored jobs.
        let (records, _) = read_log(&dir).unwrap();
        prop_assert!(records.len() <= fix.records.len());
        prop_assert_eq!(&records[..], &fix.records[..records.len()]);

        let stats = recover_with(&scratch, &dir);
        prop_assert_eq!(stats.cells_replayed, 0);
        prop_assert_eq!(stats.commands, records.len());
    }
}
