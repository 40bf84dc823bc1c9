//! `sweep` — the paper-figure campaign CLI. Every figure campaign (e1..e11)
//! runs through the command layer: journal (write-ahead campaign log) →
//! resume (content-addressed store) → budget (CI-convergence replication)
//! → gallery (CSV exports + per-figure SVG/markdown reports, pinned against
//! `golden/`) → bundle (one-file export of store, journal and gallery).
//!
//! ```text
//! sweep --store DIR --out DIR [options]
//!
//!   --store DIR         result store directory (default: sweep-store)
//!   --out DIR           gallery output directory (default: sweep-out)
//!   --tiny              CI-sized campaigns, pinned against golden/tiny/
//!                       (default: paper size, golden/paper/)
//!   --budget            budgeted replication instead of fixed seeds
//!   --ci-target F       target p99 CI relative half-width (default 0.25)
//!   --min-replicates N  replication floor per cell (default 3)
//!   --max-replicates N  replication cap per cell (default 12)
//!   --max-jobs N        campaign-wide job cap (budgeted mode)
//!   --max-new-jobs N    stop after N fresh executions (interruption knob)
//!   --threads N         runner threads (default 0 = one per core)
//!   --expect-cached     fail if any job executes (the CI resume gate)
//!   --update-golden     regenerate the goldens instead of checking them
//!   --golden DIR        golden root directory (default: golden)
//!   --gc                after the run, GC store records the campaigns no
//!                       longer reference (orphans left by campaign edits)
//!   --stats             print cumulative store traffic (cache hits/misses,
//!                       puts, GC activity) and exit without running jobs
//!   --trace DIR         write a Chrome-trace JSON of the campaigns (job
//!                       lifecycle, resolve waves, store lookups, execute
//!                       phases) into DIR; open it at https://ui.perfetto.dev
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
//!   --export-bundle F   after the run, export store + journal + gallery
//!                       as the single self-contained bundle file F
//!   --import-bundle F   restore a bundle into --out (store/, journal/,
//!                       reports/ subdirectories) and exit
//! ```
//!
//! Each export is diffed against `golden/<scale>/` byte for byte (exit 1 on
//! drift). `--budget` and `--max-new-jobs` produce exports the
//! fixed-replicate goldens cannot pin, so both skip that gate.
//!
//! Running the campaigns twice against one store executes zero jobs the
//! second time and writes a byte-identical gallery — `--expect-cached` plus
//! a directory diff is the resume-determinism gate of the `paper-figures`
//! CI job, which also pins every export against the checked-in `golden/`
//! files. Its recovery arm interrupts the campaigns with `--max-new-jobs`,
//! replays the journal with `--recover`, and requires the recovered gallery
//! to be byte-identical to an uninterrupted run's.

use rackfabric_bench::figures::{self, FigureOptions, FigureResolver, Scale};
use rackfabric_cmd::prelude::*;
use rackfabric_obs::trace::TraceSink;
use rackfabric_obs::Observer;
use rackfabric_scenario::prelude::*;
use rackfabric_sweep::prelude::*;
use std::path::Path;
use std::sync::Arc;

struct Args {
    store: String,
    out: String,
    tiny: bool,
    budget: bool,
    ci_target: f64,
    min_replicates: usize,
    max_replicates: usize,
    max_jobs: Option<u64>,
    max_new_jobs: Option<u64>,
    threads: usize,
    expect_cached: bool,
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
        run_recovery(&exec);
    }

    // A failed run still flushes its store counters and writes its trace:
    // a drifted or unexpectedly cold run is the one a user inspects.
    let outcome = run_campaigns(&args, &exec);
    if outcome.is_ok() {
        export_bundle_if_requested(&args, &exec);
    }
    finish_observability(&args, exec.store(), &observer);
    if let Err(failure) = outcome {
        eprintln!("sweep: FAIL — {failure}");
        std::process::exit(1);
    }
}

/// `--recover`: replay the journal before the campaigns run, so an
/// interrupted prior invocation completes first (already-stored jobs cost
/// zero executions). Figure markers replay through the figure table.
fn run_recovery(exec: &Executor) {
    match exec.recover(&FigureResolver) {
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

/// Drives every paper-figure campaign (e1..e11) through the command layer,
/// writes the report gallery, and pins (or regenerates) the goldens.
/// `--budget` and `--max-new-jobs` both produce exports the fixed-replicate
/// goldens cannot pin, so they skip the golden gate (and refuse
/// `--update-golden`). A failure (an aborted campaign, golden drift, a
/// gallery, golden or gc write error, a job executed under
/// `--expect-cached`) comes back as what to report.
fn run_campaigns(args: &Args, exec: &Executor) -> Result<(), String> {
    let scale = if args.tiny { Scale::Tiny } else { Scale::Paper };
    let opts = FigureOptions {
        budget: args.budget.then(|| args.budget_policy()),
        cancel: args.max_new_jobs.map(CancelToken::after_jobs),
    };
    if args.update_golden && (opts.budget.is_some() || opts.cancel.is_some()) {
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
    let runs = figures::run_figures_with(scale, exec, &opts)
        .map_err(|e| format!("figure campaign aborted: {e}"))?;
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
    figures::write_gallery(out, &runs)
        .map_err(|e| format!("cannot write gallery to {}: {e}", args.out))?;
    eprintln!("sweep: wrote figure gallery to {}", args.out);

    let golden_root = std::path::Path::new(&args.golden);
    if args.update_golden {
        figures::update_goldens(golden_root, scale, &runs)
            .map_err(|e| format!("cannot write goldens: {e}"))?;
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
        let failures = figures::check_goldens(golden_root, scale, &runs)?;
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("sweep: golden drift:\n{failure}");
            }
            return Err(format!(
                "{} figure export(s) drifted from golden/{} \
                 (intentional change? re-run with --update-golden)",
                failures.len(),
                scale.golden_dir()
            ));
        }
        eprintln!(
            "sweep: all {} figure export(s) match golden/{}",
            runs.len(),
            scale.golden_dir()
        );
    }

    if args.gc {
        let live: Vec<JobKey> = figures::live_keys(&runs).into_iter().collect();
        let stats = exec.gc(&live).map_err(|e| format!("gc: {e}"))?;
        eprintln!(
            "sweep: gc kept {} record(s), removed {}",
            stats.kept, stats.removed
        );
    }

    if args.expect_cached && executed > 0 {
        return Err(format!(
            "expected a fully warm store but {executed} figure job(s) executed"
        ));
    }
    Ok(())
}
