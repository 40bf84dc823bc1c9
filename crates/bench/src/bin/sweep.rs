//! `sweep` — the campaign CLI driving `rackfabric-sweep` end to end through
//! the command layer: journal (write-ahead campaign log) → resume
//! (content-addressed store) → budget (CI-convergence replication) →
//! report (CSV/JSON/SVG/markdown) → bundle (one-file export of all three).
//!
//! ```text
//! sweep --store DIR --out DIR [options]
//!
//!   --store DIR         result store directory (default: sweep-store)
//!   --out DIR           report output directory (default: sweep-out)
//!   --tiny              CI-sized campaign (small racks, short horizon)
//!   --budget            budgeted replication instead of fixed seeds
//!   --ci-target F       target p99 CI relative half-width (default 0.25)
//!   --min-replicates N  replication floor per cell (default 3)
//!   --max-replicates N  replication cap per cell (default 12)
//!   --max-jobs N        campaign-wide job cap (budgeted mode)
//!   --max-new-jobs N    stop after N fresh executions (interruption knob)
//!   --threads N         runner threads (default 0 = one per core)
//!   --expect-cached     fail if any job executes (the CI resume gate)
//!   --gc                after the run, GC store records the campaign no
//!                       longer references (orphans left by campaign edits)
//!   --stats             print cumulative store traffic (cache hits/misses,
//!                       puts, GC activity) and exit without running jobs
//!   --trace DIR         write a Chrome-trace JSON of the campaign (job
//!                       lifecycle, store lookups, execute/persist phases)
//!                       into DIR; open it at https://ui.perfetto.dev
//!
//! command layer (journal, recovery, diff, bundles):
//!
//!   --journal DIR       campaign journal directory (default:
//!                       <store>/journal); every mutation is appended
//!                       write-ahead as a checksummed command record
//!   --no-journal        run without a journal (no durability)
//!   --recover           before running, replay the journal: jobs whose
//!                       write-ahead record survived but whose store write
//!                       didn't re-execute; fully stored jobs cost zero
//!   --diff A B          render a command-by-command diff of two journal
//!                       directories and exit
//!   --export-bundle F   after the run, export store + journal + reports
//!                       as the single self-contained bundle file F
//!   --import-bundle F   restore a bundle into --out (store/, journal/,
//!                       reports/ subdirectories) and exit
//!
//! figure mode (the paper-figure campaigns e1..e11):
//!
//!   --figures           run every paper-figure campaign through the store,
//!                       write the gallery (CSV exports + per-figure SVG
//!                       reports) to --out, and diff each export against
//!                       golden/<scale>/ byte for byte (exit 1 on drift)
//!                       (--budget and --max-new-jobs apply here too; both
//!                       skip the golden gate, which pins fixed replicates)
//!   --update-golden     regenerate the goldens instead of checking them
//!   --golden DIR        golden root directory (default: golden)
//! ```
//!
//! Running the same campaign twice against one store executes zero jobs the
//! second time and writes byte-identical reports — `--expect-cached` plus a
//! directory diff is the resume-determinism gate in CI. The `paper-figures`
//! CI job applies the same gate to `--figures` and additionally pins every
//! export against the checked-in `golden/` files; its recovery arm
//! interrupts a figure campaign with `--max-new-jobs`, replays the journal
//! with `--recover`, and requires the recovered report directory to be
//! byte-identical to an uninterrupted run's.

use rackfabric::prelude::TopologySpec;
use rackfabric_bench::figures::{self, FigureOptions, FigureResolver, Scale};
use rackfabric_cmd::prelude::*;
use rackfabric_obs::trace::TraceSink;
use rackfabric_obs::Observer;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// The demo campaign: racks × load × controller heavy shuffle, the same
/// space `examples/scenario_sweep.rs` explores, now resumable.
fn campaign_matrix(tiny: bool) -> Matrix {
    let (racks, partition, horizon) = if tiny {
        (
            vec![
                AxisValue::Topology(TopologySpec::grid(2, 2, 2)),
                AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
            ],
            Bytes::from_kib(2),
            SimTime::from_millis(10),
        )
    } else {
        (
            vec![
                AxisValue::Topology(TopologySpec::grid(3, 3, 2)),
                AxisValue::Topology(TopologySpec::grid(4, 4, 2)),
                AxisValue::Topology(TopologySpec::grid(6, 6, 2)),
            ],
            Bytes::from_kib(16),
            SimTime::from_millis(40),
        )
    };
    let base = ScenarioSpec::new(
        "sweep-campaign",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::Shuffle {
            partition,
            load: 1.0,
        },
    )
    .horizon(horizon);
    Matrix::new(base)
        .axis("racks", racks)
        .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .replicates(if tiny { 2 } else { 3 })
        .master_seed(11)
}

struct Args {
    store: String,
    out: String,
    tiny: bool,
    budget: bool,
    ci_target: f64,
    min_replicates: usize,
    max_replicates: usize,
    max_jobs: Option<u64>,
    max_new_jobs: Option<usize>,
    threads: usize,
    expect_cached: bool,
    figures: bool,
    update_golden: bool,
    golden: String,
    gc: bool,
    stats: bool,
    trace: Option<String>,
    journal: Option<String>,
    no_journal: bool,
    recover: bool,
    diff: Option<(String, String)>,
    export_bundle: Option<String>,
    import_bundle: Option<String>,
}

impl Args {
    /// The effective journal directory (default: `<store>/journal`), or
    /// `None` under `--no-journal`.
    fn journal_dir(&self) -> Option<String> {
        if self.no_journal {
            return None;
        }
        Some(
            self.journal
                .clone()
                .unwrap_or_else(|| format!("{}/journal", self.store)),
        )
    }

    /// The budgeted-replication policy assembled from the CLI knobs.
    fn budget_policy(&self) -> BudgetPolicy {
        BudgetPolicy {
            target_rel_halfwidth: self.ci_target,
            min_replicates: self.min_replicates,
            max_replicates: self.max_replicates,
            max_total_jobs: self.max_jobs,
            ..BudgetPolicy::default()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        store: "sweep-store".into(),
        out: "sweep-out".into(),
        tiny: false,
        budget: false,
        ci_target: 0.25,
        min_replicates: 3,
        max_replicates: 12,
        max_jobs: None,
        max_new_jobs: None,
        threads: 0,
        expect_cached: false,
        figures: false,
        update_golden: false,
        golden: "golden".into(),
        gc: false,
        stats: false,
        trace: None,
        journal: None,
        no_journal: false,
        recover: false,
        diff: None,
        export_bundle: None,
        import_bundle: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} requires a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--store" => args.store = value(&mut i)?,
            "--out" => args.out = value(&mut i)?,
            "--tiny" => args.tiny = true,
            "--budget" => args.budget = true,
            "--ci-target" => {
                args.ci_target = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--ci-target: {e}"))?
            }
            "--min-replicates" => {
                args.min_replicates = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--min-replicates: {e}"))?
            }
            "--max-replicates" => {
                args.max_replicates = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--max-replicates: {e}"))?
            }
            "--max-jobs" => {
                args.max_jobs = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--max-jobs: {e}"))?,
                )
            }
            "--max-new-jobs" => {
                args.max_new_jobs = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--max-new-jobs: {e}"))?,
                )
            }
            "--threads" => {
                args.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--expect-cached" => args.expect_cached = true,
            "--figures" => args.figures = true,
            "--update-golden" => args.update_golden = true,
            "--golden" => args.golden = value(&mut i)?,
            "--gc" => args.gc = true,
            "--stats" => args.stats = true,
            "--trace" => args.trace = Some(value(&mut i)?),
            "--journal" => args.journal = Some(value(&mut i)?),
            "--no-journal" => args.no_journal = true,
            "--recover" => args.recover = true,
            "--diff" => {
                let a = value(&mut i)?;
                let b = value(&mut i)?;
                args.diff = Some((a, b));
            }
            "--export-bundle" => args.export_bundle = Some(value(&mut i)?),
            "--import-bundle" => args.import_bundle = Some(value(&mut i)?),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sweep: {message}");
            std::process::exit(2);
        }
    };

    if let Some((a, b)) = &args.diff {
        match diff_journal_dirs(a, Path::new(a), b, Path::new(b)) {
            Ok(text) => {
                print!("{text}");
                return;
            }
            Err(e) => {
                eprintln!("sweep: FAIL — cannot diff journals {a} and {b}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(src) = &args.import_bundle {
        match import_bundle(Path::new(src), Path::new(&args.out)) {
            Ok(stats) => {
                eprintln!(
                    "sweep: restored {} file(s), {} byte(s) from {src} into {}",
                    stats.files, stats.bytes, args.out
                );
                return;
            }
            Err(e) => {
                eprintln!("sweep: FAIL — cannot import bundle {src}: {e}");
                std::process::exit(1);
            }
        }
    }

    let store = match ResultStore::open(&args.store) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("sweep: cannot open store {}: {e}", args.store);
            std::process::exit(1);
        }
    };
    if args.stats {
        print_store_stats(&args.store, &store);
        return;
    }

    let observer = match &args.trace {
        Some(_) => Observer::off().with_trace(Arc::new(TraceSink::new())),
        None => Observer::off(),
    };
    let runner = Runner::new(args.threads).with_observer(observer.clone());
    let exec = match args.journal_dir() {
        Some(dir) => match Executor::with_journal(store, runner, &dir) {
            Ok(exec) => exec,
            Err(e) => {
                eprintln!("sweep: cannot open journal {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => Executor::new(store, runner),
    };

    if args.recover {
        run_recovery(&args, &exec);
    }

    if args.figures {
        run_figure_mode(&args, &exec);
        export_bundle_if_requested(&args, &exec);
        finish_observability(&args, exec.store(), &observer);
        return;
    }
    let name = if args.tiny {
        "sweep-campaign (tiny)"
    } else {
        "sweep-campaign"
    };

    let mut sweep = Sweep::new(campaign_matrix(args.tiny)).observed(observer.clone());
    if args.budget {
        sweep = sweep.budget(args.budget_policy());
    }
    if let Some(cap) = args.max_new_jobs {
        sweep = sweep.max_new_jobs(cap);
    }

    eprintln!(
        "sweep: campaign `{name}` against store {} ({} record(s) warm)",
        args.store,
        exec.store().len()
    );
    let outcome = match exec.run_campaign(&sweep) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sweep: FAIL — campaign aborted: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "sweep: {} job(s) — {} executed, {} cache hit(s), {} skipped{}",
        outcome.total_jobs(),
        outcome.executed,
        outcome.cached,
        outcome.skipped,
        if outcome.interrupted {
            " [interrupted]"
        } else {
            ""
        }
    );
    for budget in &outcome.cell_budgets {
        eprintln!(
            "  cell {}: {} replicate(s), stop={}",
            budget.cell,
            budget.replicates,
            budget.stop.label()
        );
    }

    if let Err(e) = exec.emit_report(name, Path::new(&args.out), &outcome) {
        eprintln!("sweep: FAIL — cannot write report to {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("sweep: wrote report to {}", args.out);

    if args.gc {
        let live: Vec<JobKey> = outcome
            .records
            .iter()
            .map(|r| job_key(&r.job.spec))
            .collect();
        match exec.gc(&live) {
            Ok(stats) => eprintln!(
                "sweep: gc kept {} record(s), removed {}",
                stats.kept, stats.removed
            ),
            Err(e) => {
                eprintln!("sweep: FAIL — gc: {e}");
                std::process::exit(1);
            }
        }
    }

    export_bundle_if_requested(&args, &exec);
    finish_observability(&args, exec.store(), &observer);

    if args.expect_cached && outcome.executed > 0 {
        eprintln!(
            "sweep: FAIL — expected a fully warm store but {} job(s) executed",
            outcome.executed
        );
        std::process::exit(1);
    }
}

/// Campaign-marker resolver for the CLI's `--recover`: figure markers
/// replay through the bench figure table, the demo campaign replays by
/// rebuilding its matrix at the invocation's scale. Either way the replay
/// is store-first, so fully stored campaigns cost zero executions.
struct CliResolver {
    tiny: bool,
}

impl CampaignResolver for CliResolver {
    fn replay(&self, command: &Command, exec: &Executor) -> std::io::Result<bool> {
        match command {
            Command::RegenerateFigure { .. } => FigureResolver.replay(command, exec),
            Command::ExpandMatrix { campaign, .. } if campaign == "sweep-campaign" => {
                exec.run_campaign(&Sweep::new(campaign_matrix(self.tiny)))?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// `--recover`: replay the journal before the requested mode runs, so an
/// interrupted prior invocation completes first (already-stored jobs cost
/// zero executions).
fn run_recovery(args: &Args, exec: &Executor) {
    let resolver = CliResolver { tiny: args.tiny };
    match exec.recover(&resolver) {
        Ok(stats) => eprintln!(
            "sweep: recovered journal — {} command(s): {} cell(s) re-executed, \
             {} already stored, {} campaign(s) replayed, {} marker(s) skipped{}",
            stats.commands,
            stats.cells_replayed,
            stats.cells_already_stored,
            stats.campaigns_replayed,
            stats.markers_skipped,
            if stats.torn_tail {
                " [torn tail healed]"
            } else {
                ""
            }
        ),
        Err(e) => {
            eprintln!("sweep: FAIL — journal recovery: {e}");
            std::process::exit(1);
        }
    }
}

/// `--export-bundle FILE`: pack store + journal + the report directory the
/// run just wrote into one self-contained bundle file.
fn export_bundle_if_requested(args: &Args, exec: &Executor) {
    let Some(dest) = &args.export_bundle else {
        return;
    };
    match exec.export_bundle(Some(Path::new(&args.out)), Path::new(dest)) {
        Ok(stats) => eprintln!(
            "sweep: exported bundle {dest} ({} file(s), {} byte(s))",
            stats.files, stats.bytes
        ),
        Err(e) => {
            eprintln!("sweep: FAIL — cannot export bundle {dest}: {e}");
            std::process::exit(1);
        }
    }
}

/// `--stats`: report the cumulative store-traffic sidecar plus what this
/// handle can see right now, then exit without dispatching a single job.
fn print_store_stats(store_dir: &str, store: &ResultStore) {
    let stats = store.read_stats();
    println!("store {store_dir}: {} record(s)", store.len());
    println!("  cache hits:    {}", stats.hits);
    println!("  cache misses:  {}", stats.misses);
    println!("  hit rate:      {:.1}%", stats.hit_rate() * 100.0);
    println!("  records put:   {}", stats.puts);
    println!("  gc kept:       {}", stats.gc_kept);
    println!("  gc removed:    {}", stats.gc_removed);
}

/// End-of-run observability: persist the store-traffic counters into the
/// `stats.json` sidecar (so a later `--stats` sees this run) and, under
/// `--trace DIR`, write the campaign trace where report diffs can't see it.
fn finish_observability(args: &Args, store: &ResultStore, observer: &Observer) {
    if let Err(e) = store.flush_stats() {
        eprintln!("sweep: warning — cannot persist store stats: {e}");
    }
    let (Some(dir), Some(sink)) = (&args.trace, observer.trace()) else {
        return;
    };
    let path = std::path::Path::new(dir).join("sweep_trace.json");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| sink.write_file(&path))
        .map(|()| sink.len());
    match written {
        Ok(events) => eprintln!(
            "sweep: wrote trace ({events} event(s), {} dropped) to {}",
            sink.dropped(),
            path.display()
        ),
        Err(e) => {
            eprintln!(
                "sweep: FAIL — cannot write trace to {}: {e}",
                path.display()
            );
            std::process::exit(1);
        }
    }
}

/// `--figures`: drive every paper-figure campaign (e1..e11) through the
/// command layer, write the report gallery, and pin (or regenerate) the
/// goldens. `--budget` and `--max-new-jobs` both produce exports the fixed-
/// replicate goldens cannot pin, so they skip the golden gate (and refuse
/// `--update-golden`).
fn run_figure_mode(args: &Args, exec: &Executor) {
    let scale = if args.tiny { Scale::Tiny } else { Scale::Paper };
    let opts = FigureOptions {
        budget: args.budget.then(|| args.budget_policy()),
        max_new_jobs: args.max_new_jobs,
        cancel: None,
    };
    if args.update_golden && (opts.budget.is_some() || opts.max_new_jobs.is_some()) {
        eprintln!(
            "sweep: --update-golden requires fixed replicates and no job cap \
             (drop --budget / --max-new-jobs)"
        );
        std::process::exit(2);
    }
    eprintln!(
        "sweep: paper figures at {:?} scale against store {} ({} record(s) warm)",
        scale,
        args.store,
        exec.store().len()
    );
    let runs = match figures::run_figures_with(scale, exec, &opts) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("sweep: FAIL — figure campaign aborted: {e}");
            std::process::exit(1);
        }
    };
    let mut executed = 0;
    for run in &runs {
        executed += run.executed;
        eprintln!(
            "  {}: {} executed, {} cached{} — {}",
            run.export_file(),
            run.executed,
            run.cached,
            if run.interrupted {
                " [interrupted]"
            } else {
                ""
            },
            run.title
        );
    }
    let interrupted = runs.iter().any(|r| r.interrupted);

    let out = std::path::Path::new(&args.out);
    if let Err(e) = figures::write_gallery(out, &runs) {
        eprintln!("sweep: FAIL — cannot write gallery to {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("sweep: wrote figure gallery to {}", args.out);

    let golden_root = std::path::Path::new(&args.golden);
    if args.update_golden {
        if let Err(e) = figures::update_goldens(golden_root, scale, &runs) {
            eprintln!("sweep: FAIL — cannot write goldens: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "sweep: regenerated {} golden(s) under {}/{}",
            runs.len(),
            args.golden,
            scale.golden_dir()
        );
    } else if opts.budget.is_some() {
        eprintln!(
            "sweep: budgeted replication — golden gate skipped (goldens pin fixed replicates)"
        );
    } else if interrupted {
        eprintln!(
            "sweep: campaign interrupted by --max-new-jobs — golden gate skipped \
             (recover with --recover against the same store and journal)"
        );
    } else {
        let failures = match figures::check_goldens(golden_root, scale, &runs) {
            Ok(failures) => failures,
            Err(missing) => {
                eprintln!("sweep: FAIL — {missing}");
                std::process::exit(1);
            }
        };
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("sweep: golden drift:\n{failure}");
            }
            eprintln!(
                "sweep: FAIL — {} figure export(s) drifted from golden/{} \
                 (intentional change? re-run with --update-golden)",
                failures.len(),
                scale.golden_dir()
            );
            std::process::exit(1);
        }
        eprintln!(
            "sweep: all {} figure export(s) match golden/{}",
            runs.len(),
            scale.golden_dir()
        );
    }

    if args.gc {
        let live: Vec<JobKey> = figures::live_keys(&runs).into_iter().collect();
        match exec.gc(&live) {
            Ok(stats) => eprintln!(
                "sweep: gc kept {} record(s), removed {}",
                stats.kept, stats.removed
            ),
            Err(e) => {
                eprintln!("sweep: FAIL — gc: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.expect_cached && executed > 0 {
        eprintln!(
            "sweep: FAIL — expected a fully warm store but {executed} figure job(s) executed"
        );
        std::process::exit(1);
    }
}
