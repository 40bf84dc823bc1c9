//! The contract of the instrumentation layer: turning observability **on**
//! changes nothing observable about the simulation. Every export surface —
//! scenario-matrix CSV/JSON, the sharded engine's metrics summary, the
//! sweep orchestrator's report file set and store records — must be
//! byte-identical with spans, metrics and the window profiler enabled vs
//! fully disabled. Wall-clock telemetry lives in perf artifacts only; it
//! can never leak into a job key, a store record, or a golden export.

use rackfabric::prelude::TopologySpec;
use rackfabric::shard::{ShardedConfig, ShardedFabric};
use rackfabric_obs::prelude::*;
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::prelude::*;
use rackfabric_sweep::testdir::TestDir;

/// A small controller × load matrix exercising both engines' export paths.
fn matrix() -> Matrix {
    let base = ScenarioSpec::new(
        "obs-determinism",
        TopologySpec::grid(3, 3, 2),
        WorkloadSpec::shuffle(Bytes::from_kib(2)),
    )
    .horizon(SimTime::from_millis(20))
    .shards(3);
    Matrix::new(base)
        .axis(
            "controller",
            vec![
                AxisValue::Controller(ControllerSpec::Baseline),
                AxisValue::Controller(ControllerSpec::adaptive_default()),
            ],
        )
        .axis("load", vec![AxisValue::Load(0.5), AxisValue::Load(1.0)])
        .replicates(2)
        .master_seed(515)
}

fn tmp_store(tag: &str) -> (TestDir, ResultStore) {
    let dir = TestDir::new(&format!("obs-it-{tag}"));
    let store = ResultStore::open(dir.path()).unwrap();
    (dir, store)
}

#[test]
fn traced_runner_exports_identical_bytes() {
    let plain = Runner::single_threaded().run(&matrix());
    assert_eq!(plain.failed_jobs(), 0);

    let observer = Observer::enabled();
    let traced = Runner::single_threaded()
        .with_observer(observer.clone())
        .run(&matrix());

    assert_eq!(plain.to_csv(), traced.to_csv(), "CSV export moved");
    assert_eq!(plain.to_json(), traced.to_json(), "JSON export moved");
    // The instrumentation was genuinely live, not silently disabled.
    let sink = observer.trace().expect("tracing enabled");
    assert!(!sink.is_empty(), "no spans recorded");
}

#[test]
fn profiled_sharded_engine_computes_identical_results() {
    let run = |instrument: bool| {
        let spec = ScenarioSpec::new(
            "obs-shard",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .seed(99)
        .horizon(SimTime::from_millis(20));
        let flows = spec.build_flows();
        let mut config = ShardedConfig::new(spec.to_fabric_config(), 4);
        config.workers = 2;
        if instrument {
            config.profile = true;
            config.observer = Observer::enabled();
        }
        ShardedFabric::new(config, flows).run()
    };
    let plain = run(false);
    let profiled = run(true);

    assert!(plain.all_flows_complete);
    assert_eq!(plain.metrics.summary(), profiled.metrics.summary());
    assert_eq!(plain.events_processed, profiled.events_processed);
    assert_eq!(plain.windows, profiled.windows);
    assert_eq!(plain.syncs, profiled.syncs);

    // The profile exists exactly when asked for, and accounts for every
    // event the engine processed.
    assert!(plain.profile.is_none());
    let profile = profiled.profile.expect("profiling enabled");
    assert_eq!(
        profile.shard_events().iter().sum::<u64>(),
        profiled.events_processed
    );
    assert_eq!(profile.windows, profiled.windows);
}

#[test]
fn observed_sweep_reproduces_reports_and_store_records() {
    let (plain_dir, plain_store) = tmp_store("plain");
    let (observed_dir, observed_store) = tmp_store("observed");
    let runner = Runner::new(2);

    let plain = Sweep::new(matrix()).run(&plain_store, &runner).unwrap();

    let observer = Observer::enabled();
    let observed_runner = Runner::new(2).with_observer(observer.clone());
    let observed = Sweep::new(matrix())
        .observed(observer.clone())
        .run(&observed_store, &observed_runner)
        .unwrap();
    // flush_stats writes the stats.json sidecar; it must not perturb the
    // record set either.
    observed_store.flush_stats().unwrap();

    assert_eq!(plain.executed, observed.executed);
    assert_eq!(plain.cached, observed.cached);
    assert_eq!(
        render_files("obs-determinism", &plain),
        render_files("obs-determinism", &observed),
        "report file set diverged under instrumentation"
    );

    // Store records byte-identical: same file names, same bytes.
    let records = |dir: &TestDir| -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in std::fs::read_dir(dir.join("objects")).unwrap() {
            let shard = shard.unwrap();
            for file in std::fs::read_dir(shard.path()).unwrap() {
                let file = file.unwrap();
                out.push((
                    file.file_name().to_string_lossy().into_owned(),
                    std::fs::read(file.path()).unwrap(),
                ));
            }
        }
        out.sort();
        out
    };
    assert_eq!(
        records(&plain_dir),
        records(&observed_dir),
        "store records diverged under instrumentation"
    );
    assert_eq!(plain_store.len(), observed_store.len());

    // And the observed run really did count its store traffic.
    let stats = observed_store.read_stats();
    assert_eq!(stats.puts, observed.executed as u64);
    assert_eq!(stats.misses, observed.total_jobs() as u64);
}
