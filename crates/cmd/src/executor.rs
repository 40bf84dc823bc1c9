//! The [`Executor`]: the single boundary through which every surface —
//! sweep CLI, bench figure campaigns, daemon, test harnesses — invokes the
//! engine.
//!
//! An executor owns a [`ResultStore`] and a [`Runner`] and optionally an
//! open [`Journal`]. Every mutation it performs is journaled **ahead** of
//! the mutation itself:
//!
//! * [`Executor::regenerate_figure`] appends a `regenerate-figure` marker
//!   before the campaign's first job, which is what lets
//!   [`Executor::recover`] complete jobs the crash happened *before* — they
//!   were never individually journaled, but the campaign marker was;
//! * each of the campaign's store misses appends an `execute-cell` record
//!   (complete with the canonical spec, so the record alone is runnable)
//!   through the orchestrator's write-ahead hook, before it executes;
//! * a store miss of [`Executor::lookup`] that [`Executor::execute`] runs
//!   appends `run-scenario`;
//! * gc and bundle export append their own records.
//!
//! [`Executor::lookup`] is the one place a scenario spec meets its key: it
//! decodes the spec, renders its key preimage, checks a given key against
//! it and reads the store, each once. The daemon's connection threads and
//! workers and journal replay all go through it.
//!
//! Without a journal the executor is a plain pass-through: same Command
//! vocabulary, no durability, byte-identical results either way.

use crate::bundle::{self, BundleStats};
use crate::command::Command;
use crate::journal::{read_log, Journal};
use rackfabric_scenario::codec::decode_spec;
use rackfabric_scenario::matrix::Job;
use rackfabric_scenario::runner::{JobOutcome, Runner};
use rackfabric_scenario::spec::ScenarioSpec;
use rackfabric_sweep::campaign::{Sweep, SweepOutcome};
use rackfabric_sweep::key::{canonical_spec_json, JobKey};
use rackfabric_sweep::store::{GcStats, ResultStore};
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// The command-layer execution boundary. See the module docs.
///
/// An executor is `Send + Sync`: the store is atomics behind an `Arc`, the
/// runner is plain data, and the journal is behind a `Mutex` — so a service
/// can share one executor across its worker threads behind an `Arc`, with
/// journal appends serialised and everything else lock-free.
#[derive(Debug)]
pub struct Executor {
    store: ResultStore,
    runner: Runner,
    journal: Option<Mutex<Journal>>,
}

// Compile-time pin of the sharing contract above: `rackfabricd` workers
// hold one `Arc<Executor>`; losing `Send + Sync` would break them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executor>();
};

/// What one [`Executor::recover`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Valid records read from the journal.
    pub commands: usize,
    /// Journaled jobs that had to be (re-)executed: the crash hit between
    /// their write-ahead record and their store write.
    pub cells_replayed: usize,
    /// Journaled jobs whose results were already in the store — recovery
    /// executes zero of these.
    pub cells_already_stored: usize,
    /// Figure markers replayed through the resolver (store-first, so a
    /// fully stored campaign costs zero executions).
    pub campaigns_replayed: usize,
    /// Records that needed no replay: gc, bundle export, figure markers the
    /// resolver does not replay, and the `expand-matrix` and `emit-report`
    /// records of older journals.
    pub markers_skipped: usize,
    /// True when the journal ended in a torn record (healed on the next
    /// append).
    pub torn_tail: bool,
}

/// What [`Executor::lookup`] found for one scenario spec.
#[derive(Debug)]
pub enum Lookup {
    /// The store holds the spec's outcome.
    Stored(JobOutcome),
    /// The store holds none; [`Executor::execute`] runs it.
    Miss(Miss),
}

/// A scenario spec the store does not hold, decoded and keyed once.
#[derive(Debug)]
pub struct Miss {
    key: JobKey,
    preimage: String,
    spec: Box<ScenarioSpec>,
}

impl Miss {
    /// Decodes `spec_json`, renders its key preimage and checks `expect`,
    /// when given, against the key it derives. The error is the reason a
    /// service reports.
    fn decode(spec_json: &str, expect: Option<JobKey>) -> Result<Miss, String> {
        let spec = Box::new(decode_spec(spec_json).map_err(|e| format!("bad spec: {e}"))?);
        let preimage = canonical_spec_json(&spec);
        let key = JobKey::of_preimage(&preimage);
        match expect {
            Some(expected) if expected != key => Err(format!(
                "key {expected} does not match its spec (derived {key})"
            )),
            _ => Ok(Miss {
                key,
                preimage,
                spec,
            }),
        }
    }

    /// The spec's key preimage: its canonical text, which hashes to its
    /// key.
    pub fn into_preimage(self) -> String {
        self.preimage
    }
}

/// Replays campaign-level journal records — the executor knows how to
/// replay a single cell from its record alone, but a campaign marker (e.g.
/// `regenerate-figure e3`) needs whoever owns the campaign definitions.
/// `crates/bench` supplies the figure resolver.
pub trait CampaignResolver {
    /// Replays one campaign command through `exec`. Returns `Ok(false)`
    /// when this resolver does not recognise the command (it is then
    /// counted as skipped, not an error).
    fn replay(&self, command: &Command, exec: &Executor) -> io::Result<bool>;
}

/// A resolver that replays nothing: cell-level records still replay fully,
/// campaign markers are skipped.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCampaigns;

impl CampaignResolver for NoCampaigns {
    fn replay(&self, _command: &Command, _exec: &Executor) -> io::Result<bool> {
        Ok(false)
    }
}

impl Executor {
    /// A journal-less executor: the full Command vocabulary with no
    /// durability. Tests and one-shot library callers use this.
    pub fn new(store: ResultStore, runner: Runner) -> Executor {
        Executor {
            store,
            runner,
            journal: None,
        }
    }

    /// An executor whose mutations are journaled write-ahead under `dir`.
    pub fn with_journal(
        store: ResultStore,
        runner: Runner,
        dir: impl Into<std::path::PathBuf>,
    ) -> io::Result<Executor> {
        let journal = Journal::open(dir)?;
        Ok(Executor {
            store,
            runner,
            journal: Some(Mutex::new(journal)),
        })
    }

    /// The executor's result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The executor's scenario runner.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The journal directory, when journaling is on.
    pub fn journal_dir(&self) -> Option<std::path::PathBuf> {
        self.journal
            .as_ref()
            .map(|j| j.lock().expect("journal lock").dir().to_path_buf())
    }

    /// Appends `command` to the journal (no-op without one). Write-ahead:
    /// call before performing the mutation.
    fn journal_append(&self, command: &Command) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().expect("journal lock").append(command)?;
        }
        Ok(())
    }

    /// Looks one scenario spec up in the store: decodes `spec_json`,
    /// renders its key preimage, checks `expect` against the derived key
    /// (when given) and reads the store, each once. Fails with the reason
    /// a service reports: `bad spec: …`, or `key … does not match its spec
    /// (derived …)`.
    pub fn lookup(&self, spec_json: &str, expect: Option<JobKey>) -> Result<Lookup, String> {
        let miss = Miss::decode(spec_json, expect)?;
        Ok(match self.store.get(&miss.key) {
            Some(outcome) => Lookup::Stored(outcome),
            None => Lookup::Miss(miss),
        })
    }

    /// Runs a miss: journals a `run-scenario` record ahead of the run,
    /// executes the spec as a one-job batch and stores its outcome.
    pub fn execute(&self, miss: Miss) -> io::Result<JobOutcome> {
        self.journal_append(&Command::RunScenario {
            spec_json: miss.preimage.clone(),
        })?;
        self.run_and_put(miss)
    }

    /// Executes a miss as a one-job batch and persists its outcome under its
    /// key, with its preimage as the record's spec.
    fn run_and_put(&self, miss: Miss) -> io::Result<JobOutcome> {
        let job = Job {
            index: 0,
            cell: 0,
            replicate: 0,
            labels: Vec::new(),
            spec: *miss.spec,
        };
        let outcome = self
            .runner
            .run_jobs(std::slice::from_ref(&job))
            .into_iter()
            .next()
            .expect("one job in, one outcome out");
        self.store.put(&miss.key, &miss.preimage, &outcome)?;
        Ok(outcome)
    }

    /// Runs one figure campaign, journaling a `regenerate-figure` marker
    /// ahead of it and an `execute-cell` record ahead of each store miss.
    /// The marker is what recovery hands to the [`CampaignResolver`],
    /// completing even the jobs the interruption prevented from ever being
    /// journaled individually. Results are byte-identical to [`Sweep::run`].
    pub fn regenerate_figure(
        &self,
        id: &str,
        scale: &str,
        sweep: &Sweep,
    ) -> io::Result<SweepOutcome> {
        self.journal_append(&Command::RegenerateFigure {
            id: id.to_string(),
            scale: scale.to_string(),
            budget: sweep.budget,
        })?;
        sweep.run_with(&self.store, &self.runner, |key, spec_json| {
            self.journal_append(&Command::ExecuteCell {
                key: *key,
                spec_json: spec_json.to_string(),
            })
        })
    }

    /// Garbage-collects the store down to `live` keys, journaled.
    pub fn gc(&self, live: &[JobKey]) -> io::Result<GcStats> {
        let mut sorted = live.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        self.journal_append(&Command::GcStore {
            live: sorted.clone(),
        })?;
        self.store.gc(sorted.iter())
    }

    /// Exports store + journal + `reports` as one bundle file, journaled
    /// (the record lands *before* the export, so the bundle contains its
    /// own provenance).
    pub fn export_bundle(&self, reports: Option<&Path>, dest: &Path) -> io::Result<BundleStats> {
        self.journal_append(&Command::ExportBundle {
            dest: dest.display().to_string(),
        })?;
        bundle::export_bundle(
            self.store.root(),
            self.journal_dir().as_deref(),
            reports,
            dest,
        )
    }

    /// Replays the journal: every already-journaled-and-stored job costs
    /// zero executions; jobs caught between their write-ahead record and
    /// their store write re-execute from the record's spec; campaign
    /// markers replay store-first through `resolver`, completing work the
    /// interruption never reached. Idempotent — a second recover replays
    /// zero cells.
    pub fn recover(&self, resolver: &dyn CampaignResolver) -> io::Result<RecoveryStats> {
        let Some(dir) = self.journal_dir() else {
            return Ok(RecoveryStats::default());
        };
        // Snapshot the log first: campaign replays append fresh records,
        // and recovery must not chase its own tail.
        let (records, tail) = read_log(&dir)?;
        let mut stats = RecoveryStats {
            commands: records.len(),
            torn_tail: !tail.clean,
            ..RecoveryStats::default()
        };
        for record in &records {
            match &record.command {
                Command::ExecuteCell { key, spec_json } => {
                    self.replay_cell(Some(*key), spec_json, &mut stats)?;
                }
                Command::RunScenario { spec_json } => {
                    self.replay_cell(None, spec_json, &mut stats)?;
                }
                cmd @ Command::RegenerateFigure { .. } => {
                    if resolver.replay(cmd, self)? {
                        stats.campaigns_replayed += 1;
                    } else {
                        stats.markers_skipped += 1;
                    }
                }
                Command::ExpandMatrix { .. }
                | Command::GcStore { .. }
                | Command::EmitReport { .. }
                | Command::ExportBundle { .. } => stats.markers_skipped += 1,
            }
        }
        Ok(stats)
    }

    /// Replays one journaled job record. With `Some(key)` the record's own
    /// key is trusted for the store read, so a stored record is not even
    /// decoded; a miss is decoded and its key checked as
    /// [`Executor::lookup`] checks it, before it runs. Without a key,
    /// `lookup` derives it. A replayed miss runs without a journal record of
    /// its own: its record is the one being replayed.
    fn replay_cell(
        &self,
        key: Option<JobKey>,
        spec_json: &str,
        stats: &mut RecoveryStats,
    ) -> io::Result<()> {
        let found = match key {
            Some(key) => match self.store.get(&key) {
                Some(outcome) => Ok(Lookup::Stored(outcome)),
                None => Miss::decode(spec_json, Some(key)).map(Lookup::Miss),
            },
            None => self.lookup(spec_json, None),
        };
        match found.map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))? {
            Lookup::Stored(_) => stats.cells_already_stored += 1,
            Lookup::Miss(miss) => {
                self.run_and_put(miss)?;
                stats.cells_replayed += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_scenario::matrix::{AxisValue, Matrix};
    use rackfabric_scenario::spec::WorkloadSpec;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
    use rackfabric_sweep::cancel::CancelToken;
    use rackfabric_sweep::key::job_key;
    use rackfabric_sweep::store::outcome_to_json;
    use rackfabric_sweep::testdir::TestDir;
    use rackfabric_topo::spec::TopologySpec;

    fn small_matrix() -> Matrix {
        let base = ScenarioSpec::new(
            "executor-unit",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20));
        Matrix::new(base)
            .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
            .replicates(2)
            .master_seed(3)
    }

    #[test]
    fn journaled_campaign_matches_direct_run_byte_for_byte() {
        let root = TestDir::new("cmd-executor-campaign");
        let direct_store = ResultStore::open(root.join("direct")).unwrap();
        let direct = Sweep::new(small_matrix())
            .run(&direct_store, &Runner::single_threaded())
            .unwrap();

        let exec = Executor::with_journal(
            ResultStore::open(root.join("cmd")).unwrap(),
            Runner::single_threaded(),
            root.join("cmd").join("journal"),
        )
        .unwrap();
        let via_cmd = exec
            .regenerate_figure("e-unit", "tiny", &Sweep::new(small_matrix()))
            .unwrap();
        assert_eq!(via_cmd.executed, 4);
        assert_eq!(
            rackfabric_scenario::export::cells_to_csv(&direct.cells),
            rackfabric_scenario::export::cells_to_csv(&via_cmd.cells),
            "the command layer must not move an export byte"
        );

        // The journal holds the marker plus one record per fresh job.
        let (records, tail) = read_log(&exec.journal_dir().unwrap()).unwrap();
        assert!(tail.clean);
        assert_eq!(records.len(), 1 + 4);
        assert!(matches!(
            &records[0].command,
            Command::RegenerateFigure { id, scale, budget: None } if id == "e-unit" && scale == "tiny"
        ));
    }

    #[test]
    fn interrupted_campaign_recovers_from_journal_with_zero_reexecutions() {
        let root = TestDir::new("cmd-executor-recover");
        let exec = Executor::with_journal(
            ResultStore::open(root.join("store")).unwrap(),
            Runner::single_threaded(),
            root.join("store").join("journal"),
        )
        .unwrap();

        // Interrupted: 2 of 4 jobs execute, then the "process dies".
        let partial = exec
            .regenerate_figure(
                "e-unit",
                "tiny",
                &Sweep::new(small_matrix()).cancel(CancelToken::after_jobs(2)),
            )
            .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.executed, 2);
        let (records, _) = read_log(&exec.journal_dir().unwrap()).unwrap();
        assert!(matches!(
            records[0].command,
            Command::RegenerateFigure { .. }
        ));

        // Recovery replays the journal. The 2 executed cells are stored
        // (zero re-executions); the campaign marker itself is skipped by
        // NoCampaigns — cell-level recovery alone restores the journaled
        // state exactly.
        let stats = exec.recover(&NoCampaigns).unwrap();
        assert_eq!(stats.cells_already_stored, 2);
        assert_eq!(stats.cells_replayed, 0);
        assert!(!stats.torn_tail);

        // Simulate a crash *between* journal append and store write: delete
        // one stored object, then recover again — exactly that cell
        // re-executes.
        let (records, _) = read_log(&exec.journal_dir().unwrap()).unwrap();
        let first_key = records
            .iter()
            .find_map(|r| match &r.command {
                Command::ExecuteCell { key, .. } => Some(*key),
                _ => None,
            })
            .unwrap();
        let hex = first_key.hex();
        std::fs::remove_file(
            root.join("store")
                .join("objects")
                .join(&hex[..2])
                .join(format!("{}.json", &hex[2..])),
        )
        .unwrap();
        let stats = exec.recover(&NoCampaigns).unwrap();
        assert_eq!(stats.cells_replayed, 1);
        assert_eq!(stats.cells_already_stored, 1);
        assert!(exec.store().get(&first_key).is_some());

        // And a third pass is a no-op.
        let stats = exec.recover(&NoCampaigns).unwrap();
        assert_eq!(stats.cells_replayed, 0);
        assert_eq!(stats.cells_already_stored, 2);
    }

    #[test]
    fn lookup_is_store_first_and_execute_journals() {
        let root = TestDir::new("cmd-executor-scenario");
        let exec = Executor::with_journal(
            ResultStore::open(root.join("store")).unwrap(),
            Runner::single_threaded(),
            root.join("journal"),
        )
        .unwrap();
        let spec = one_shot_spec(5);
        let spec_json = canonical_spec_json(&spec);
        let key = job_key(&spec);
        // A miss hands on the spec's key preimage, however it was spelled.
        let Ok(Lookup::Miss(miss)) = exec.lookup(&spec_json.replace(',', ", "), None) else {
            panic!("a cold store misses");
        };
        assert_eq!(miss.into_preimage(), spec_json);
        let Ok(Lookup::Miss(miss)) = exec.lookup(&spec_json, Some(key)) else {
            panic!("a cold store misses");
        };
        let first = exec.execute(miss).unwrap();
        assert!(matches!(first, JobOutcome::Completed(_)));
        let Ok(Lookup::Stored(second)) = exec.lookup(&spec_json, None) else {
            panic!("the executed spec is stored");
        };
        assert_eq!(outcome_to_json(&second), outcome_to_json(&first));
        // Only the cold run journals, with the spec's key preimage: the
        // warm one was answered by the store without any mutation.
        let (records, _) = read_log(&exec.journal_dir().unwrap()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            &records[0].command,
            Command::RunScenario { spec_json: journaled } if *journaled == spec_json
        ));

        // The two reasons a lookup fails.
        let other = job_key(&one_shot_spec(6));
        assert_eq!(
            exec.lookup(&spec_json, Some(other)).unwrap_err(),
            format!("key {other} does not match its spec (derived {key})")
        );
        let err = exec.lookup("{}", None).unwrap_err();
        assert!(err.starts_with("bad spec: "), "{err}");
    }

    fn one_shot_spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            "one-shot",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(seed)
    }

    /// An executor whose journal already holds `command`.
    fn journaled(root: &TestDir, command: &Command) -> Executor {
        let journal = root.join("journal");
        Journal::open(&journal).unwrap().append(command).unwrap();
        Executor::with_journal(
            ResultStore::open(root.join("store")).unwrap(),
            Runner::single_threaded(),
            journal,
        )
        .unwrap()
    }

    #[test]
    fn recovery_refuses_a_cell_whose_key_is_not_its_specs_key() {
        // What a key check does with a journaled key its spec no longer
        // derives: recovery stops, naming both keys, and runs nothing.
        let root = TestDir::new("cmd-executor-wrong-key");
        let spec_json = canonical_spec_json(&one_shot_spec(5));
        let derived = JobKey::of_preimage(&spec_json);
        let journaled_key = job_key(&one_shot_spec(6));
        let exec = journaled(
            &root,
            &Command::ExecuteCell {
                key: journaled_key,
                spec_json,
            },
        );
        let err = exec.recover(&NoCampaigns).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(
            message.contains(&journaled_key.hex()) && message.contains(&derived.hex()),
            "{message}"
        );
        assert!(exec.store().is_empty(), "nothing ran");
    }

    #[test]
    fn recovery_counts_a_stored_cell_without_decoding_its_spec() {
        let root = TestDir::new("cmd-executor-stored-key");
        let key = job_key(&one_shot_spec(5));
        let exec = journaled(
            &root,
            &Command::ExecuteCell {
                key,
                spec_json: "not a spec".to_string(),
            },
        );
        let outcome = JobOutcome::Failed("stored before the crash".to_string());
        exec.store().put(&key, "{}", &outcome).unwrap();
        let stats = exec.recover(&NoCampaigns).unwrap();
        assert_eq!(stats.cells_already_stored, 1);
        assert_eq!(stats.cells_replayed, 0);
    }
}
