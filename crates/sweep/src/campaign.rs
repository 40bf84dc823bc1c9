//! The sweep orchestrator: resume → budget → report.
//!
//! A [`Sweep`] wraps a scenario [`Matrix`] and drives it through a
//! [`ResultStore`]: every job's outcome is looked up by its content key
//! first, only the misses are dispatched to the scenario [`Runner`]
//! (via its incremental [`Runner::run_jobs`] hook), and fresh results are
//! persisted before aggregation. Re-running an unchanged campaign against a
//! warm store therefore executes **zero** jobs and reproduces byte-identical
//! exports; editing one axis value re-executes only the cells that contain
//! it. [`Sweep::run_with`] hands each miss's key and spec text to a
//! write-ahead hook before the miss executes; the command layer journals
//! the job there.
//!
//! With a [`BudgetPolicy`] attached, the fixed replicate count is replaced
//! by convergence-driven replication: every cell starts at the policy
//! minimum and grows until its p99 confidence interval is narrow enough (or
//! a budget runs out). Replicate seeds in budgeted mode are **content
//! keyed** — derived from the master seed and the cell's own canonical spec
//! hash — so a cell keeps its seed schedule no matter how axes are
//! reordered or what other cells exist.
//!
//! A [`CancelToken`] is the one way to stop a campaign early: the
//! dispatcher asks it for each chunk of fresh executions (cache hits don't
//! count), and once it grants fewer than asked the sweep stops dispatching
//! and returns a partial result; a later run against the same store picks
//! up exactly where it stopped.

use crate::budget::{converged, rel_halfwidth, BudgetPolicy, CellBudget, StopReason};
use crate::cancel::CancelToken;
use crate::key::{canonical_spec_json, job_key, JobKey};
use crate::store::ResultStore;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::aggregate::{aggregate_cells, CellSummary};
use rackfabric_scenario::matrix::{Job, Matrix};
use rackfabric_scenario::runner::{JobOutcome, JobRecord, Runner};
use rackfabric_scenario::spec::ScenarioSpec;
use rackfabric_sim::rng::DetRng;
use rackfabric_sim::stats::Histogram;
use std::io;

/// The trace lane the campaign orchestrator records on (resolve, store
/// lookup and execute spans). Distinct from the runner's job-worker lanes.
const SWEEP_LANE: u64 = 2000;

/// A resumable sweep campaign over one scenario matrix.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The declarative sweep (base spec × axes × replicates).
    pub matrix: Matrix,
    /// Convergence-driven replication; `None` keeps the matrix's fixed
    /// replicate count.
    pub budget: Option<BudgetPolicy>,
    /// Campaign-level tracing/metrics (resolve waves, dispatch, persist,
    /// cache hit/miss counters). Observability only: outcomes, store records
    /// and exports are byte-identical with it on or off.
    pub observer: Observer,
    /// The grant of fresh executions: with a token attached, store misses
    /// are dispatched in runner-thread-sized chunks, each granted by the
    /// token first. Once it grants fewer jobs than a chunk holds, the
    /// granted ones run and the campaign stops — completed jobs persisted,
    /// the rest skipped — so an interrupted campaign resumes (or recovers)
    /// to identical bytes. `None` runs every miss as one batch.
    pub cancel: Option<CancelToken>,
}

impl Sweep {
    /// A complete (non-budgeted, uninterrupted) sweep over `matrix`.
    pub fn new(matrix: Matrix) -> Sweep {
        Sweep {
            matrix,
            budget: None,
            observer: Observer::off(),
            cancel: None,
        }
    }

    /// Attaches a replication budget, returning the modified sweep.
    pub fn budget(mut self, policy: BudgetPolicy) -> Sweep {
        self.budget = Some(policy);
        self
    }

    /// Attaches a campaign observer, returning the modified sweep.
    pub fn observed(mut self, observer: Observer) -> Sweep {
        self.observer = observer;
        self
    }

    /// Attaches a cancellation token, returning the modified sweep.
    pub fn cancel(mut self, token: CancelToken) -> Sweep {
        self.cancel = Some(token);
        self
    }

    /// Drives the campaign: store lookups, incremental dispatch, persist,
    /// aggregate. Deterministic in everything but wall-clock: thread count,
    /// prior store contents and interruption points never change the final
    /// (complete) exports.
    pub fn run(&self, store: &ResultStore, runner: &Runner) -> io::Result<SweepOutcome> {
        self.run_with(store, runner, |_, _| Ok(()))
    }

    /// [`Sweep::run`] with a write-ahead hook: `write_ahead(&key, &spec_json)`
    /// runs once per store miss, in job order, before the batch holding
    /// that miss executes, with the key and spec text its store record
    /// gets. An error from the hook stops the campaign before the batch
    /// runs. The command layer journals each fresh job through it;
    /// outcomes and exports are byte-identical either way.
    pub fn run_with(
        &self,
        store: &ResultStore,
        runner: &Runner,
        mut write_ahead: impl FnMut(&JobKey, &str) -> io::Result<()>,
    ) -> io::Result<SweepOutcome> {
        if let Some(sink) = self.observer.trace() {
            sink.name_lane(SWEEP_LANE, "sweep");
        }
        let mut dispatcher = Dispatcher {
            store,
            runner,
            write_ahead: &mut write_ahead,
            executed: 0,
            cached: 0,
            skipped: 0,
            interrupted: false,
            observer: &self.observer,
            cancel: self.cancel.as_ref(),
        };
        let (records, cell_budgets) = match &self.budget {
            None => (self.run_fixed(&mut dispatcher)?, Vec::new()),
            Some(policy) => self.run_budgeted(policy, &mut dispatcher)?,
        };
        let cells = aggregate_cells(&records);
        let distributions = merge_distributions(&records);
        Ok(SweepOutcome {
            cells,
            distributions,
            records,
            executed: dispatcher.executed,
            cached: dispatcher.cached,
            skipped: dispatcher.skipped,
            interrupted: dispatcher.interrupted,
            cell_budgets,
        })
    }

    /// Fixed-replicate path: the job list is exactly the matrix expansion
    /// (same seeds as [`Runner::run`]), resolved through the store.
    fn run_fixed(&self, dispatcher: &mut Dispatcher<'_>) -> io::Result<Vec<JobRecord>> {
        let jobs = self.matrix.expand();
        let outcomes = dispatcher.resolve(&jobs)?;
        Ok(jobs
            .into_iter()
            .zip(outcomes)
            .filter_map(|(job, outcome)| outcome.map(|outcome| JobRecord { job, outcome }))
            .collect())
    }

    /// Budgeted path: replicates per cell grow round by round until the p99
    /// CI converges or a budget runs out. Decisions read only deterministic
    /// results in cell order, so the expansion itself is deterministic.
    fn run_budgeted(
        &self,
        policy: &BudgetPolicy,
        dispatcher: &mut Dispatcher<'_>,
    ) -> io::Result<(Vec<JobRecord>, Vec<CellBudget>)> {
        // One representative job per cell carries the resolved spec+labels.
        let mut cell_reps: Vec<Job> = self.matrix.expand();
        cell_reps.retain(|job| job.replicate == 0);

        let min = policy.min_replicates.max(2);
        let max = policy.max_replicates.max(min);
        let mut per_cell: Vec<Vec<JobRecord>> = vec![Vec::new(); cell_reps.len()];
        let mut stops: Vec<Option<StopReason>> = vec![None; cell_reps.len()];
        let mut scheduled_total: u64 = 0;

        // Seed rounds: every cell gets the policy minimum up front.
        let mut wave: Vec<(usize, Job)> = Vec::new();
        for (c, rep) in cell_reps.iter().enumerate() {
            for r in 0..min {
                if let Some(cap) = policy.max_total_jobs {
                    if scheduled_total >= cap {
                        stops[c].get_or_insert(StopReason::JobBudget);
                        break;
                    }
                }
                scheduled_total += 1;
                wave.push((c, self.replicate_job(rep, r)));
            }
        }

        loop {
            if wave.is_empty() {
                break;
            }
            let jobs: Vec<Job> = wave.iter().map(|(_, job)| job.clone()).collect();
            let outcomes = dispatcher.resolve(&jobs)?;
            let mut incomplete = false;
            for ((cell, job), outcome) in wave.drain(..).zip(outcomes) {
                match outcome {
                    Some(outcome) => per_cell[cell].push(JobRecord { job, outcome }),
                    None => incomplete = true,
                }
            }
            if incomplete {
                // Interrupted: expansion decisions need the missing results,
                // so stop here; the next invocation resumes deterministically.
                break;
            }

            // Evaluate every undecided cell and schedule the next round.
            for (c, rep) in cell_reps.iter().enumerate() {
                if stops[c].is_some() {
                    continue;
                }
                let p99s = replicate_p99s(&per_cell[c]);
                let n = per_cell[c].len();
                if converged(&p99s, policy) {
                    stops[c] = Some(StopReason::Converged);
                } else if n >= min
                    && (p99s.len() < 2 || rel_halfwidth(&p99s, policy.confidence_z).is_none())
                {
                    // Failures or zero-latency cells can never converge;
                    // spending more replicates on them is pure waste.
                    stops[c] = Some(StopReason::Degenerate);
                } else if n >= max {
                    stops[c] = Some(StopReason::ReplicateCap);
                } else if policy
                    .max_total_jobs
                    .is_some_and(|cap| scheduled_total >= cap)
                {
                    stops[c] = Some(StopReason::JobBudget);
                } else {
                    scheduled_total += 1;
                    wave.push((c, self.replicate_job(rep, n)));
                }
            }
            self.observer
                .count("sweep.replicates_grown", TimeDomain::Sim, wave.len() as u64);
        }

        // Flatten to (cell, replicate) order with dense job indices so the
        // aggregator sees contiguous cells.
        let mut records = Vec::new();
        let mut budgets = Vec::new();
        for (c, members) in per_cell.into_iter().enumerate() {
            let p99s = replicate_p99s(&members);
            budgets.push(CellBudget {
                cell: c,
                replicates: members.len(),
                rel_halfwidth: rel_halfwidth(&p99s, policy.confidence_z).unwrap_or(f64::INFINITY),
                // An undecided cell here means the cancel token cut the
                // campaign short, not that a job budget ran out.
                stop: stops[c].unwrap_or(StopReason::Interrupted),
            });
            for mut record in members {
                record.job.index = records.len();
                records.push(record);
            }
        }
        Ok((records, budgets))
    }

    /// Builds replicate `r` of a cell: the representative's resolved spec
    /// with a content-keyed seed installed.
    fn replicate_job(&self, rep: &Job, r: usize) -> Job {
        let mut job = rep.clone();
        job.replicate = r;
        job.spec.seed = replicate_seed(self.matrix.master_seed, &rep.spec, r);
        job
    }
}

/// The content-keyed replicate seed schedule of budgeted sweeps: a pure
/// function of the master seed, the cell's canonical spec (minus its seed)
/// and the replicate number. Independent of cell indices, axis order and
/// the existence of other cells.
pub fn replicate_seed(master_seed: u64, cell_spec: &ScenarioSpec, replicate: usize) -> u64 {
    let mut probe = cell_spec.clone();
    probe.seed = 0;
    let cell_hash = job_key(&probe).0;
    let lane = (cell_hash as u64) ^ ((cell_hash >> 64) as u64);
    DetRng::new(master_seed ^ lane ^ (replicate as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .next_u64()
}

/// The p99 packet latencies of a cell's completed replicates.
fn replicate_p99s(members: &[JobRecord]) -> Vec<f64> {
    members
        .iter()
        .filter_map(|record| match &record.outcome {
            JobOutcome::Completed(result) => Some(result.summary.packet_latency.p99),
            JobOutcome::Failed(_) => None,
        })
        .collect()
}

/// Everything one orchestrated sweep produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-job records (cached + freshly executed), in (cell, replicate)
    /// order. Jobs skipped by an interruption are absent.
    pub records: Vec<JobRecord>,
    /// Per-cell aggregates over the records.
    pub cells: Vec<CellSummary>,
    /// Per-cell merged latency histograms (for CDF plots).
    pub distributions: Vec<CellDistributions>,
    /// Jobs freshly executed by this invocation.
    pub executed: usize,
    /// Jobs answered from the store.
    pub cached: usize,
    /// Jobs left undispatched because the cancel token granted no more.
    pub skipped: usize,
    /// True when the cancel token cut the campaign short.
    pub interrupted: bool,
    /// Per-cell replication verdicts (budgeted sweeps only).
    pub cell_budgets: Vec<CellBudget>,
}

/// Per-cell merged latency distributions.
#[derive(Debug, Clone)]
pub struct CellDistributions {
    /// Cell index.
    pub cell: usize,
    /// `(axis name, value label)` pairs identifying the cell.
    pub labels: Vec<(String, String)>,
    /// End-to-end packet latency over all replicates (picoseconds).
    pub packet_latency: Histogram,
    /// Queueing delay over all replicates (picoseconds).
    pub queueing_latency: Histogram,
}

fn merge_distributions(records: &[JobRecord]) -> Vec<CellDistributions> {
    let mut out: Vec<CellDistributions> = Vec::new();
    for record in records {
        let cell = record.job.cell;
        if out.last().map(|d| d.cell) != Some(cell) {
            out.push(CellDistributions {
                cell,
                labels: record.job.labels.clone(),
                packet_latency: Histogram::new(),
                queueing_latency: Histogram::new(),
            });
        }
        if let JobOutcome::Completed(result) = &record.outcome {
            let dist = out.last_mut().expect("pushed above");
            dist.packet_latency.merge(&result.packet_latency);
            dist.queueing_latency.merge(&result.queueing_latency);
        }
    }
    out
}

/// The store-first incremental dispatcher shared by both sweep modes.
struct Dispatcher<'a> {
    store: &'a ResultStore,
    runner: &'a Runner,
    write_ahead: &'a mut dyn FnMut(&JobKey, &str) -> io::Result<()>,
    executed: usize,
    cached: usize,
    skipped: usize,
    interrupted: bool,
    observer: &'a Observer,
    cancel: Option<&'a CancelToken>,
}

impl Dispatcher<'_> {
    /// Resolves one batch of jobs: store hits are returned directly, misses
    /// the cancel token grants pass the write-ahead hook, run on the
    /// scenario runner and are persisted before returning. Each job's
    /// key preimage is rendered once, for the lookup, the hook and the put.
    /// `None` marks a job skipped by an interruption.
    fn resolve(&mut self, jobs: &[Job]) -> io::Result<Vec<Option<JobOutcome>>> {
        let mut resolve_span = self.observer.span(SWEEP_LANE, "resolve", "sweep");
        resolve_span.arg_u64("jobs", jobs.len() as u64);
        let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
        // Misses as (job index, key, key preimage).
        let mut pending: Vec<(usize, JobKey, String)> = Vec::new();
        {
            let _lookup_span = self.observer.span(SWEEP_LANE, "store lookup", "sweep");
            for (i, job) in jobs.iter().enumerate() {
                let spec_json = canonical_spec_json(&job.spec);
                let key = JobKey::of_preimage(&spec_json);
                match self.store.get(&key) {
                    Some(outcome) => {
                        self.cached += 1;
                        outcomes.push(Some(outcome));
                    }
                    None => {
                        outcomes.push(None);
                        pending.push((i, key, spec_json));
                    }
                }
            }
        }
        let warm = jobs.len() - pending.len();
        self.observer
            .count("sweep.cache_hits", TimeDomain::Sim, warm as u64);
        self.observer
            .count("sweep.cache_misses", TimeDomain::Sim, pending.len() as u64);
        resolve_span.arg_u64("warm", warm as u64);
        resolve_span.arg_u64("cold", pending.len() as u64);
        // Without a cancel token the whole miss set is one batch. With one,
        // dispatch in runner-thread-sized chunks, each granted by the token
        // first: jobs already handed to the engine complete and persist, so
        // an interruption always leaves a clean store (and journal) prefix.
        let chunk = match self.cancel {
            Some(_) => self.runner.threads().max(1),
            None => pending.len(),
        };
        let mut offset = 0;
        while offset < pending.len() {
            let want = chunk.min(pending.len() - offset);
            let granted = self.cancel.map_or(want, |token| token.grant(want));
            if granted < want {
                // The granted jobs run; every later miss is skipped.
                self.interrupted = true;
                self.skipped += pending.len() - offset - granted;
                pending.truncate(offset + granted);
                if granted == 0 {
                    break;
                }
            }
            let slice = &pending[offset..offset + granted];
            // One span covers the whole mutation: write-ahead, execute and
            // persist (it ends with this chunk).
            let mut span = self.observer.span(SWEEP_LANE, "execute", "sweep");
            span.arg_u64("jobs", slice.len() as u64);
            for (_, key, spec_json) in slice {
                (self.write_ahead)(key, spec_json)?;
            }
            let batch: Vec<Job> = slice.iter().map(|(i, ..)| jobs[*i].clone()).collect();
            let results = self.runner.run_jobs(&batch);
            for ((i, key, spec_json), outcome) in slice.iter().zip(results) {
                self.store.put(key, spec_json, &outcome)?;
                self.executed += 1;
                outcomes[*i] = Some(outcome);
            }
            offset += slice.len();
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use rackfabric_scenario::matrix::AxisValue;
    use rackfabric_scenario::spec::WorkloadSpec;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    fn tmp_store(tag: &str) -> (TestDir, ResultStore) {
        let dir = TestDir::new(&format!("sweep-campaign-{tag}"));
        let store = ResultStore::open(dir.path()).unwrap();
        (dir, store)
    }

    fn small_matrix() -> Matrix {
        let base = ScenarioSpec::new(
            "campaign-unit",
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
    fn cold_run_executes_all_and_matches_the_plain_runner() {
        let (_dir, store) = tmp_store("cold");
        let runner = Runner::single_threaded();
        let sweep = Sweep::new(small_matrix());
        let outcome = sweep.run(&store, &runner).unwrap();
        assert_eq!(outcome.executed, 4);
        assert_eq!(outcome.cached, 0);
        assert!(!outcome.interrupted);
        // Same seeds, same jobs as the plain scenario runner.
        let plain = runner.run(&small_matrix());
        let sweep_csv = rackfabric_scenario::export::cells_to_csv(&outcome.cells);
        assert_eq!(sweep_csv, plain.to_csv());
    }

    #[test]
    fn warm_run_executes_nothing_and_reproduces_bytes() {
        let (_dir, store) = tmp_store("warm");
        let runner = Runner::single_threaded();
        let sweep = Sweep::new(small_matrix());
        let first = sweep.run(&store, &runner).unwrap();
        let second = sweep.run(&store, &runner).unwrap();
        assert_eq!(second.executed, 0, "warm store must answer every job");
        assert_eq!(second.cached, 4);
        assert_eq!(
            rackfabric_scenario::export::cells_to_csv(&first.cells),
            rackfabric_scenario::export::cells_to_csv(&second.cells)
        );
        assert_eq!(
            rackfabric_scenario::export::cells_to_json(&first.cells),
            rackfabric_scenario::export::cells_to_json(&second.cells)
        );
        assert_eq!(
            rackfabric_scenario::export::jobs_to_csv(&first.records),
            rackfabric_scenario::export::jobs_to_csv(&second.records)
        );
    }

    #[test]
    fn interruption_resumes_to_identical_output() {
        let (_dir_a, store_a) = tmp_store("interrupt-a");
        let (_dir_b, store_b) = tmp_store("interrupt-b");
        let runner = Runner::new(2);

        // Reference: one uninterrupted run.
        let full = Sweep::new(small_matrix()).run(&store_a, &runner).unwrap();

        // Interrupted: three executions, the last one alone in its
        // two-job chunk, then resume.
        let partial = Sweep::new(small_matrix())
            .cancel(CancelToken::after_jobs(3))
            .run(&store_b, &runner)
            .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.executed, 3);
        assert_eq!(partial.skipped, 1);
        let resumed = Sweep::new(small_matrix()).run(&store_b, &runner).unwrap();
        assert_eq!(resumed.executed, 1, "resume runs only the remainder");
        assert_eq!(resumed.cached, 3);
        assert_eq!(
            rackfabric_scenario::export::cells_to_csv(&full.cells),
            rackfabric_scenario::export::cells_to_csv(&resumed.cells)
        );
    }

    #[test]
    fn cancellation_interrupts_cleanly_and_resumes_to_identical_output() {
        let (_dir_a, store_a) = tmp_store("cancel-a");
        let (_dir_b, store_b) = tmp_store("cancel-b");
        let runner = Runner::single_threaded();

        // Reference: one uninterrupted run.
        let full = Sweep::new(small_matrix()).run(&store_a, &runner).unwrap();

        // A token that grants two jobs stops the campaign deterministically
        // after two dispatch chunks (chunk = 1 job on a single-threaded
        // runner).
        let token = CancelToken::after_jobs(2);
        let partial = Sweep::new(small_matrix())
            .cancel(token.clone())
            .run(&store_b, &runner)
            .unwrap();
        assert!(partial.interrupted);
        assert!(token.is_cancelled());
        assert_eq!(partial.executed, 2, "jobs before the trip complete");
        assert_eq!(partial.skipped, 2, "jobs after it are skipped");

        // A resume (no token) runs only the remainder and reproduces the
        // uninterrupted campaign byte for byte.
        let resumed = Sweep::new(small_matrix()).run(&store_b, &runner).unwrap();
        assert_eq!(resumed.executed, 2);
        assert_eq!(resumed.cached, 2);
        assert_eq!(
            rackfabric_scenario::export::cells_to_csv(&full.cells),
            rackfabric_scenario::export::cells_to_csv(&resumed.cells)
        );

        // An already-tripped token stops the campaign before any dispatch.
        let (_dir_c, store_c) = tmp_store("cancel-c");
        let tripped = CancelToken::new();
        tripped.cancel();
        let none = Sweep::new(small_matrix())
            .cancel(tripped)
            .run(&store_c, &runner)
            .unwrap();
        assert_eq!(none.executed, 0);
        assert!(none.interrupted);
    }

    #[test]
    fn write_ahead_sees_each_miss_in_job_order_with_its_store_key_and_spec() {
        let (dir, store) = tmp_store("hook");
        let runner = Runner::single_threaded();
        let sweep = Sweep::new(small_matrix());
        let mut calls: Vec<(JobKey, String)> = Vec::new();
        let outcome = sweep
            .run_with(&store, &runner, |key, spec_json| {
                calls.push((*key, spec_json.to_string()));
                Ok(())
            })
            .unwrap();
        assert_eq!(outcome.executed, 4);
        let jobs = small_matrix().expand();
        assert_eq!(calls.len(), jobs.len(), "once per miss");
        for (job, (key, spec_json)) in jobs.iter().zip(&calls) {
            assert_eq!(*key, job_key(&job.spec), "job order");
            assert_eq!(*spec_json, canonical_spec_json(&job.spec));
            // The store record carries the same key and spec text.
            let hex = key.hex();
            let record = std::fs::read_to_string(
                dir.join("objects")
                    .join(&hex[..2])
                    .join(format!("{}.json", &hex[2..])),
            )
            .unwrap();
            assert!(
                record.contains(&format!(
                    "\"key\": \"{hex}\", \"spec\": {spec_json}, \"outcome\": "
                )),
                "record of {hex} does not hold the hook's spec text"
            );
        }

        // A warm re-run has no miss, so the hook never runs.
        let mut warm_calls = 0;
        let warm = sweep
            .run_with(&store, &runner, |_, _| {
                warm_calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(warm.executed, 0);
        assert_eq!(warm_calls, 0);
    }

    #[test]
    fn a_failing_write_ahead_stops_the_campaign_before_its_batch_runs() {
        let (_dir, store) = tmp_store("hook-fails");
        let registry = std::sync::Arc::new(rackfabric_obs::metrics::Registry::new());
        let runner = Runner::single_threaded()
            .with_observer(Observer::off().with_registry(registry.clone()));
        let mut calls = 0;
        let err = Sweep::new(small_matrix())
            .run_with(&store, &runner, |_, _| {
                calls += 1;
                if calls == 2 {
                    Err(io::Error::other("journal full"))
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "journal full");
        assert_eq!(calls, 2, "no miss after the failing one reaches the hook");
        assert_eq!(
            registry
                .counter("runner.jobs_completed", TimeDomain::Sim)
                .get(),
            0,
            "no job of the batch executes"
        );
        assert!(store.is_empty(), "nothing is persisted");
    }

    #[test]
    fn budgeted_sweep_converges_and_reports_budgets() {
        let (_dir, store) = tmp_store("budget");
        let runner = Runner::single_threaded();
        let policy = BudgetPolicy {
            target_rel_halfwidth: 0.5,
            min_replicates: 2,
            max_replicates: 6,
            ..BudgetPolicy::default()
        };
        let sweep = Sweep::new(small_matrix()).budget(policy);
        let outcome = sweep.run(&store, &runner).unwrap();
        assert_eq!(outcome.cell_budgets.len(), 2);
        for budget in &outcome.cell_budgets {
            assert!(budget.replicates >= 2 && budget.replicates <= 6);
        }
        // Budgeted runs are themselves resumable.
        let again = sweep.run(&store, &runner).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(again.cell_budgets, outcome.cell_budgets);
    }

    #[test]
    fn interrupted_budgeted_cells_report_interrupted_not_job_budget() {
        let (_dir, store) = tmp_store("budget-interrupt");
        let runner = Runner::single_threaded();
        let sweep = Sweep::new(small_matrix())
            .budget(BudgetPolicy {
                min_replicates: 2,
                max_replicates: 4,
                ..BudgetPolicy::default()
            })
            .cancel(CancelToken::after_jobs(1));
        let outcome = sweep.run(&store, &runner).unwrap();
        assert!(outcome.interrupted);
        // No job budget was configured: undecided cells must say so.
        assert!(outcome
            .cell_budgets
            .iter()
            .all(|b| b.stop == StopReason::Interrupted));
        // The report renders even though some cells have no results yet.
        let files = crate::emit::render_files("budget-interrupt", &outcome);
        let report = &files.iter().find(|(n, _)| n == "report.md").unwrap().1;
        assert!(report.contains("interrupted"));
    }
}
