//! `rackfabricd`'s acceptor outlives `accept` errors. Every open
//! connection holds a descriptor, so enough clients run the daemon out of
//! them (`EMFILE`); it must count the error, back off and serve again once
//! descriptors free up.
//!
//! This test is alone in its file so that no other test shares the
//! process's descriptor table while it is exhausted.
//!
//! Linux reserves an accepted connection's descriptor before `accept`
//! blocks, so the acceptor, parked in `accept` since boot, still gets the
//! first connection made after the table fills: an idle connection takes
//! that reserved slot, and the acceptor's next `accept` fails.
#![cfg(target_os = "linux")]

use rackfabric::prelude::TopologySpec;
use rackfabric_cmd::command::Command;
use rackfabric_cmd::executor::Executor;
use rackfabric_daemon::prelude::*;
use rackfabric_obs::metrics::Registry;
use rackfabric_obs::{Observer, TimeDomain};
use rackfabric_scenario::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::key::canonical_spec_json;
use rackfabric_sweep::store::ResultStore;
use rackfabric_sweep::testdir::TestDir;
use std::fs::File;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Linux's "too many open files" error number.
const EMFILE: i32 = 24;

/// The process's soft limit on open files, from `/proc/self/limits`.
fn open_files_soft_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let line = limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .expect("/proc/self/limits names the open-files limit");
    line.split_whitespace().nth(3).unwrap().parse().unwrap()
}

#[test]
fn the_acceptor_survives_running_out_of_descriptors() {
    let command = Command::RunScenario {
        spec_json: canonical_spec_json(
            &ScenarioSpec::new(
                "accept-errors",
                TopologySpec::grid(2, 2, 2),
                WorkloadSpec::Shuffle {
                    partition: Bytes::from_kib(2),
                    load: 0.5,
                },
            )
            .horizon(SimTime::from_millis(3))
            .seed(9100),
        ),
    };
    let ref_dir = TestDir::new("rackfabricd-accept-ref");
    let reference = execute_oneshot(
        &Executor::new(ResultStore::open(ref_dir.path()).unwrap(), Runner::new(1)),
        &command,
    )
    .unwrap()
    .1;

    let dir = TestDir::new("rackfabricd-accept");
    let registry = Arc::new(Registry::new());
    let observer = Observer::off().with_registry(registry.clone());
    let exec = Executor::new(ResultStore::open(dir.path()).unwrap(), Runner::new(1));
    let daemon = Daemon::start(
        Arc::new(exec),
        DaemonConfig {
            workers: 1,
            observer,
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(daemon.addr(), Duration::from_secs(120));

    // Exhaust the descriptor table with duplicates of one `/dev/null`
    // handle (cheap: one open file, many table slots).
    let limit = open_files_soft_limit();
    let null = File::open("/dev/null").unwrap();
    let mut spare = Vec::new();
    let exhausted = loop {
        if spare.len() > limit {
            break false;
        }
        match null.try_clone() {
            Ok(file) => spare.push(file),
            Err(e) if e.raw_os_error() == Some(EMFILE) => break true,
            Err(e) => panic!("dup /dev/null: {e}"),
        }
    };
    assert!(exhausted, "no EMFILE within the soft limit of {limit}");

    // Free one slot for an idle connection's socket. The acceptor takes
    // it on its reserved descriptor; its next `accept` has none left.
    spare.pop();
    let idle = std::net::TcpStream::connect(daemon.addr());
    let errors = registry.counter("daemon.accept_errors", TimeDomain::Wall);
    let start = Instant::now();
    while errors.get() == 0 && start.elapsed() < Duration::from_secs(60) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let counted = errors.get();
    drop(spare);
    let idle = idle.expect("the idle connection had a free descriptor");
    assert!(counted >= 1, "the failed accept was never counted");

    // Descriptors are back: the acceptor serves again.
    let reply = client
        .submit("after-emfile", 0, command)
        .expect("the acceptor serves again once descriptors free up");
    assert_eq!(reply.result_json, reference);
    drop(idle);

    client.shutdown().unwrap();
    daemon.wait();
}
