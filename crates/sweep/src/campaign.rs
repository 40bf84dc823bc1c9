//! The sweep orchestrator: resume → budget → report.
//!
//! A [`Sweep`] wraps a scenario [`Matrix`] and drives it through a
//! [`ResultStore`]: every job's outcome is looked up by its content key
//! first, only the misses are dispatched to the scenario [`Runner`]
//! (via its incremental [`Runner::run_jobs`] hook), and fresh results are
//! persisted before aggregation. Re-running an unchanged campaign against a
//! warm store therefore executes **zero** jobs and reproduces byte-identical
//! exports; editing one axis value re-executes only the cells that contain
//! it.
//!
//! With a [`BudgetPolicy`] attached, the fixed replicate count is replaced
//! by convergence-driven replication: every cell starts at the policy
//! minimum and grows until its p99 confidence interval is narrow enough (or
//! a budget runs out). Replicate seeds in budgeted mode are **content
//! keyed** — derived from the master seed and the cell's own canonical spec
//! hash — so a cell keeps its seed schedule no matter how axes are
//! reordered or what other cells exist.
//!
//! `max_new_jobs` models interruption: the sweep stops dispatching after
//! that many fresh executions (cache hits don't count) and returns a
//! partial result; a later run against the same store picks up exactly
//! where it stopped.

use crate::budget::{converged, rel_halfwidth, BudgetPolicy, CellBudget, StopReason};
use crate::cancel::CancelToken;
use crate::key::{canonical_spec_json, job_key};
use crate::store::ResultStore;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::aggregate::{aggregate_cells, CellSummary};
use rackfabric_scenario::matrix::{Job, Matrix};
use rackfabric_scenario::runner::{JobOutcome, JobRecord, Runner};
use rackfabric_scenario::spec::ScenarioSpec;
use rackfabric_sim::rng::DetRng;
use rackfabric_sim::stats::Histogram;
use std::io;

/// The trace lane the campaign orchestrator records on (resolve / execute /
/// persist spans). Distinct from the runner's job-worker lanes.
const SWEEP_LANE: u64 = 2000;

/// The single seam between the sweep orchestrator and the engine: every
/// store-miss batch of a campaign flows through exactly one
/// [`EngineBoundary::execute_batch`] call, which must execute the jobs and
/// persist each outcome before returning.
///
/// [`DirectBoundary`] is the plain implementation ([`Sweep::run`] uses it);
/// a command layer implements this trait to journal each batch write-ahead
/// without the orchestrator knowing. Implementations must not change the
/// outcomes themselves — routing through a boundary never moves an export
/// byte.
pub trait EngineBoundary {
    /// Executes `jobs` (all store misses) and persists every outcome into
    /// `store`, returning the outcomes in job order.
    fn execute_batch(
        &self,
        jobs: &[Job],
        store: &ResultStore,
        runner: &Runner,
    ) -> io::Result<Vec<JobOutcome>>;
}

/// The pass-through engine boundary: run the batch on the scenario runner
/// and persist each result, exactly as the orchestrator did before the
/// boundary existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectBoundary;

impl EngineBoundary for DirectBoundary {
    fn execute_batch(
        &self,
        jobs: &[Job],
        store: &ResultStore,
        runner: &Runner,
    ) -> io::Result<Vec<JobOutcome>> {
        let results = runner.run_jobs(jobs);
        for (job, outcome) in jobs.iter().zip(&results) {
            store.put(
                &job_key(&job.spec),
                &canonical_spec_json(&job.spec),
                outcome,
            )?;
        }
        Ok(results)
    }
}

/// A resumable sweep campaign over one scenario matrix.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The declarative sweep (base spec × axes × replicates).
    pub matrix: Matrix,
    /// Convergence-driven replication; `None` keeps the matrix's fixed
    /// replicate count.
    pub budget: Option<BudgetPolicy>,
    /// Stop dispatching after this many fresh executions (cache hits do not
    /// count). `None` runs to completion. This is the interruption /
    /// incremental-progress knob: a partial sweep resumes from the store.
    pub max_new_jobs: Option<usize>,
    /// Campaign-level tracing/metrics (resolve waves, dispatch, persist,
    /// cache hit/miss counters). Observability only: outcomes, store records
    /// and exports are byte-identical with it on or off.
    pub observer: Observer,
    /// Cooperative cancellation: with a token attached, store misses are
    /// dispatched in runner-thread-sized chunks and the token is checked
    /// between chunks. A tripped token stops the campaign exactly like
    /// `max_new_jobs` does — completed jobs persisted, the rest skipped —
    /// so a cancelled campaign resumes (or recovers) to identical bytes.
    pub cancel: Option<CancelToken>,
}

impl Sweep {
    /// A complete (non-budgeted, uninterrupted) sweep over `matrix`.
    pub fn new(matrix: Matrix) -> Sweep {
        Sweep {
            matrix,
            budget: None,
            max_new_jobs: None,
            observer: Observer::off(),
            cancel: None,
        }
    }

    /// Attaches a replication budget, returning the modified sweep.
    pub fn budget(mut self, policy: BudgetPolicy) -> Sweep {
        self.budget = Some(policy);
        self
    }

    /// Caps fresh executions for this invocation, returning the modified
    /// sweep.
    pub fn max_new_jobs(mut self, cap: usize) -> Sweep {
        self.max_new_jobs = Some(cap);
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
        self.run_via(store, runner, &DirectBoundary)
    }

    /// [`Sweep::run`] with an explicit [`EngineBoundary`]: every store-miss
    /// batch is executed and persisted through `boundary` instead of the
    /// direct runner+store path. The command layer uses this to journal
    /// fresh executions write-ahead; outcomes and exports are byte-identical
    /// either way.
    pub fn run_via(
        &self,
        store: &ResultStore,
        runner: &Runner,
        boundary: &dyn EngineBoundary,
    ) -> io::Result<SweepOutcome> {
        if let Some(sink) = self.observer.trace() {
            sink.name_lane(SWEEP_LANE, "sweep");
        }
        let mut dispatcher = Dispatcher {
            store,
            runner,
            boundary,
            executed: 0,
            cached: 0,
            skipped: 0,
            max_new_jobs: self.max_new_jobs,
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
                // An undecided cell here means the fresh-execution cap cut
                // the campaign short, not that a job budget ran out.
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
    /// Jobs left undispatched because `max_new_jobs` ran out.
    pub skipped: usize,
    /// True when `max_new_jobs` cut the campaign short.
    pub interrupted: bool,
    /// Per-cell replication verdicts (budgeted sweeps only).
    pub cell_budgets: Vec<CellBudget>,
}

impl SweepOutcome {
    /// Total jobs the campaign touched this invocation.
    pub fn total_jobs(&self) -> usize {
        self.executed + self.cached + self.skipped
    }
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
    boundary: &'a dyn EngineBoundary,
    executed: usize,
    cached: usize,
    skipped: usize,
    max_new_jobs: Option<usize>,
    interrupted: bool,
    observer: &'a Observer,
    cancel: Option<&'a CancelToken>,
}

impl Dispatcher<'_> {
    /// Resolves one batch of jobs: store hits are returned directly, misses
    /// run on the scenario runner (respecting the fresh-execution cap) and
    /// are persisted before returning. `None` marks a job skipped by an
    /// interruption.
    fn resolve(&mut self, jobs: &[Job]) -> io::Result<Vec<Option<JobOutcome>>> {
        let mut resolve_span = self.observer.span(SWEEP_LANE, "resolve", "sweep");
        resolve_span.arg_u64("jobs", jobs.len() as u64);
        let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<usize> = Vec::new();
        {
            let _lookup_span = self.observer.span(SWEEP_LANE, "store lookup", "sweep");
            for (i, job) in jobs.iter().enumerate() {
                match self.store.get(&job_key(&job.spec)) {
                    Some(outcome) => {
                        self.cached += 1;
                        outcomes.push(Some(outcome));
                    }
                    None => {
                        outcomes.push(None);
                        pending.push(i);
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
        if let Some(cap) = self.max_new_jobs {
            let room = cap.saturating_sub(self.executed);
            if pending.len() > room {
                self.interrupted = true;
                self.skipped += pending.len() - room;
                pending.truncate(room);
            }
        }
        if pending.is_empty() {
            return Ok(outcomes);
        }
        // Without a cancel token the whole miss set is one batch. With one,
        // dispatch in runner-thread-sized chunks and check the token between
        // chunks: jobs already handed to the engine complete and persist, so
        // cancellation always leaves a clean store (and journal) prefix.
        let chunk = match self.cancel {
            Some(_) => self.runner.threads().max(1),
            None => pending.len(),
        };
        let mut offset = 0;
        while offset < pending.len() {
            if let Some(token) = self.cancel {
                if token.checkpoint() {
                    self.interrupted = true;
                    self.skipped += pending.len() - offset;
                    break;
                }
            }
            let slice = &pending[offset..(offset + chunk).min(pending.len())];
            let batch: Vec<Job> = slice.iter().map(|&i| jobs[i].clone()).collect();
            // The boundary both executes and persists — one span covers the
            // whole mutation so traces stay meaningful whichever boundary
            // runs.
            let results = {
                let mut span = self.observer.span(SWEEP_LANE, "execute", "sweep");
                span.arg_u64("jobs", batch.len() as u64);
                self.boundary
                    .execute_batch(&batch, self.store, self.runner)?
            };
            for (&i, outcome) in slice.iter().zip(results) {
                self.executed += 1;
                outcomes[i] = Some(outcome);
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
        let runner = Runner::single_threaded();

        // Reference: one uninterrupted run.
        let full = Sweep::new(small_matrix()).run(&store_a, &runner).unwrap();

        // Interrupted: two executions, then resume.
        let partial = Sweep::new(small_matrix())
            .max_new_jobs(2)
            .run(&store_b, &runner)
            .unwrap();
        assert!(partial.interrupted);
        assert_eq!(partial.executed, 2);
        assert_eq!(partial.skipped, 2);
        let resumed = Sweep::new(small_matrix()).run(&store_b, &runner).unwrap();
        assert_eq!(resumed.executed, 2, "resume runs only the remainder");
        assert_eq!(resumed.cached, 2);
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

        // A fuse token cancels deterministically after two dispatch chunks
        // (chunk = 1 job on a single-threaded runner).
        let token = CancelToken::after_checks(2);
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
            .max_new_jobs(1);
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
