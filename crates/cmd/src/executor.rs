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
//! * a store miss of [`Executor::run_scenario`] appends `run-scenario`;
//! * gc and bundle export append their own records.
//!
//! Without a journal the executor is a plain pass-through: same Command
//! vocabulary, no durability, byte-identical results either way.

use crate::bundle::{self, BundleStats};
use crate::command::Command;
use crate::journal::{read_log, Journal};
use rackfabric_scenario::codec::decode_spec;
use rackfabric_scenario::matrix::Job;
use rackfabric_scenario::runner::{JobOutcome, Runner};
use rackfabric_sweep::campaign::{Sweep, SweepOutcome};
use rackfabric_sweep::key::{canonical_spec_json, job_key, JobKey};
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

    /// Runs one scenario store-first: a warm store answers without
    /// executing; a miss is journaled, executed and persisted.
    pub fn run_scenario(
        &self,
        spec: &rackfabric_scenario::spec::ScenarioSpec,
    ) -> io::Result<JobOutcome> {
        self.run_scenario_tracked(spec).map(|(outcome, _)| outcome)
    }

    /// [`Executor::run_scenario`] plus the cache verdict: the flag is true
    /// when the store answered (zero engine work). Services report this
    /// per-request — the "warm query = cache hit" guarantee is observable,
    /// not just implied.
    pub fn run_scenario_tracked(
        &self,
        spec: &rackfabric_scenario::spec::ScenarioSpec,
    ) -> io::Result<(JobOutcome, bool)> {
        let spec_json = canonical_spec_json(spec);
        let key = JobKey::of_preimage(&spec_json);
        if let Some(outcome) = self.store.get(&key) {
            return Ok((outcome, true));
        }
        self.journal_append(&Command::RunScenario {
            spec_json: spec_json.clone(),
        })?;
        let outcome = self.run_and_put(&key, spec.clone(), &spec_json)?;
        Ok((outcome, false))
    }

    /// Executes `spec` as a one-job batch and persists its outcome under
    /// `key` with `spec_json` as the record's spec.
    fn run_and_put(
        &self,
        key: &JobKey,
        spec: rackfabric_scenario::spec::ScenarioSpec,
        spec_json: &str,
    ) -> io::Result<JobOutcome> {
        let job = Job {
            index: 0,
            cell: 0,
            replicate: 0,
            labels: Vec::new(),
            spec,
        };
        let outcome = self
            .runner
            .run_jobs(std::slice::from_ref(&job))
            .into_iter()
            .next()
            .expect("one job in, one outcome out");
        self.store.put(key, spec_json, &outcome)?;
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

    /// Replays one journaled job record, decoding its spec at most once.
    /// With `Some(key)` the record's own key is trusted for the store lookup
    /// (and verified against the decoded spec before executing); without,
    /// the key is derived.
    fn replay_cell(
        &self,
        key: Option<JobKey>,
        spec_json: &str,
        stats: &mut RecoveryStats,
    ) -> io::Result<()> {
        let decode =
            || decode_spec(spec_json).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
        let (key, decoded) = match key {
            Some(key) => (key, None),
            None => {
                let spec = decode()?;
                (job_key(&spec), Some(spec))
            }
        };
        if self.store.get(&key).is_some() {
            stats.cells_already_stored += 1;
            return Ok(());
        }
        let spec = match decoded {
            Some(spec) => spec,
            None => {
                let spec = decode()?;
                let derived = job_key(&spec);
                if derived != key {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journaled key {key} does not match its spec (derived {derived})"),
                    ));
                }
                spec
            }
        };
        let spec_json = canonical_spec_json(&spec);
        self.run_and_put(&key, spec, &spec_json)?;
        stats.cells_replayed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_scenario::matrix::{AxisValue, Matrix};
    use rackfabric_scenario::spec::{ScenarioSpec, WorkloadSpec};
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
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
                &Sweep::new(small_matrix()).max_new_jobs(2),
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
    fn run_scenario_is_store_first_and_journaled() {
        let root = TestDir::new("cmd-executor-scenario");
        let exec = Executor::with_journal(
            ResultStore::open(root.join("store")).unwrap(),
            Runner::single_threaded(),
            root.join("journal"),
        )
        .unwrap();
        let spec = ScenarioSpec::new(
            "one-shot",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(1)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(5);
        let first = exec.run_scenario(&spec).unwrap();
        let second = exec.run_scenario(&spec).unwrap();
        assert!(matches!(first, JobOutcome::Completed(_)));
        assert!(matches!(second, JobOutcome::Completed(_)));
        // Only the cold run journals: the warm one was answered by the
        // store without any mutation.
        let (records, _) = read_log(&exec.journal_dir().unwrap()).unwrap();
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].command, Command::RunScenario { .. }));
    }
}
