//! The outcome corpus: a checked-in pin of what the engines compute on a
//! handful of small cells, so "no output byte moved" is a test rather than
//! a hand-run probe.
//!
//! Every cell runs on the monolithic engine and on the sharded engine at 1
//! and 3 shards. `golden/corpus.txt` holds one line per cell and engine:
//!
//! ```text
//! <cell> <engine> <fnv1a-64 of outcome_to_json> events=<n> mean_fct_us=<f> p99_ps=<f>
//! ```
//!
//! The digest covers the whole canonical outcome record (histograms,
//! summary, event count); the plain-text fields say what moved when it
//! does. The two sharded lines of a cell must be equal: shard count never
//! changes a result.
//!
//! The cells are chosen for the datapath paths they reach: rejected
//! injections and mid-route tail drops (16 KiB port buffers), PHY bypass
//! chains on a line, a grid escalating to a torus (link-table migration),
//! Valiant and UGAL routing on a dragonfly, ECMP on a fat-tree, and
//! lane-shedding fences under the power-cap policy on store-and-forward
//! switches. Each stays under 20k events.
//!
//! After a deliberate model change, rewrite the file with
//! `cargo test --test outcome_corpus -- --ignored` and account for every
//! line that moved.

use rackfabric::prelude::{CrcPolicy, RoutingAlgorithm, RunSummary, TopologySpec};
use rackfabric_scenario::prelude::*;
use rackfabric_scenario::runner::run_scenario;
use rackfabric_sim::prelude::*;
use rackfabric_sweep::store::outcome_to_json;
use rackfabric_switch::model::SwitchModel;
use std::collections::BTreeMap;

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/corpus.txt");

/// The engines every cell runs on: `shards` as [`ScenarioSpec::shards`].
const ENGINES: [(&str, usize); 3] = [("mono", 0), ("shard1", 1), ("shard3", 3)];

fn shuffle(name: &str, topology: TopologySpec, partition_kib: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        name,
        topology,
        WorkloadSpec::shuffle(Bytes::from_kib(partition_kib)),
    )
    .seed(7)
    .horizon(SimTime::from_millis(20))
}

/// The corpus cells, by name.
fn cells() -> Vec<(&'static str, ScenarioSpec)> {
    let small_buffers = |name, controller| {
        shuffle(name, TopologySpec::grid(3, 3, 2), 64)
            .port_buffer(Bytes::from_kib(16))
            .controller(controller)
    };
    let dragonfly = |name, routing| {
        shuffle(name, TopologySpec::dragonfly(3, 2, 2, 1), 8)
            .controller(ControllerSpec::Baseline)
            .routing(routing)
    };
    vec![
        (
            "grid3x3-16k-baseline",
            small_buffers("corpus-small-buffers", ControllerSpec::Baseline),
        ),
        (
            "grid3x3-16k-adaptive",
            small_buffers("corpus-small-buffers", ControllerSpec::adaptive_default()),
        ),
        (
            "line4-bypass2",
            shuffle("corpus-bypass", TopologySpec::line(4, 4), 256)
                .controller(ControllerSpec::Baseline)
                .phy(PhyPolicy {
                    bypassed_nodes: 2,
                    ..PhyPolicy::default()
                }),
        ),
        (
            "grid3x3-to-torus",
            shuffle("corpus-migration", TopologySpec::grid(3, 3, 2), 128)
                .upgrade(TopologySpec::torus(3, 3, 1)),
        ),
        (
            "dragonfly-valiant",
            dragonfly("corpus-dragonfly", RoutingAlgorithm::Valiant),
        ),
        (
            "dragonfly-ugal",
            dragonfly("corpus-dragonfly", RoutingAlgorithm::Adaptive),
        ),
        (
            "fattree-ecmp",
            shuffle("corpus-ecmp", TopologySpec::fat_tree(16, 8, 2, 2), 16)
                .controller(ControllerSpec::Baseline)
                .routing(RoutingAlgorithm::Ecmp),
        ),
        (
            "grid-sf-powercap",
            ScenarioSpec::new(
                "corpus-power-cap",
                TopologySpec::grid(3, 3, 4),
                WorkloadSpec::uniform(8.0, Bytes::from_kib(64)),
            )
            .seed(11)
            .switch_model(SwitchModel::store_and_forward())
            .controller(ControllerSpec::Adaptive {
                policy: CrcPolicy::PowerCap {
                    budget: Power::from_kilowatts(2),
                },
                epoch: SimDuration::from_micros(20),
                routing: RoutingAlgorithm::MinCost,
            })
            .stop_when_done(false)
            .horizon(SimTime::from_millis(1)),
        ),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One corpus line's fields after the cell and engine names.
#[derive(Debug, Clone, PartialEq)]
struct Pin {
    digest: String,
    fields: Vec<(String, String)>,
}

impl Pin {
    fn render(&self) -> String {
        let mut out = self.digest.clone();
        for (name, value) in &self.fields {
            out.push_str(&format!(" {name}={value}"));
        }
        out
    }
}

/// Runs one cell on one engine: its pin and its run summary.
fn pin(spec: &ScenarioSpec, shards: usize) -> (Pin, RunSummary) {
    let spec = spec.clone().shards(shards);
    let result = run_scenario(&spec);
    let json = outcome_to_json(&JobOutcome::Completed(Box::new(result.clone())));
    let pin = Pin {
        digest: format!("{:016x}", fnv1a(json.as_bytes())),
        fields: vec![
            ("events".into(), result.events_processed.to_string()),
            (
                "mean_fct_us".into(),
                result.summary.flow_completion_mean_us.to_string(),
            ),
            (
                "p99_ps".into(),
                result.summary.packet_latency.p99.to_string(),
            ),
        ],
    };
    (pin, result.summary)
}

/// One corpus entry: `(cell, engine)`, its pin and its run summary.
type Entry = ((String, String), Pin, RunSummary);

/// Every cell on every engine, in corpus order, run on two threads.
fn run_corpus() -> Vec<Entry> {
    let cells = cells();
    let jobs: Vec<(&str, &ScenarioSpec, &str, usize)> = cells
        .iter()
        .flat_map(|(cell, spec)| {
            ENGINES
                .iter()
                .map(move |&(engine, shards)| (*cell, spec, engine, shards))
        })
        .collect();
    let run = |part: &[(&str, &ScenarioSpec, &str, usize)]| -> Vec<Entry> {
        part.iter()
            .map(|&(cell, spec, engine, shards)| {
                let (pin, summary) = pin(spec, shards);
                ((cell.to_string(), engine.to_string()), pin, summary)
            })
            .collect()
    };
    let (first, second) = jobs.split_at(jobs.len().div_ceil(2));
    std::thread::scope(|scope| {
        let second = scope.spawn(|| run(second));
        let mut entries = run(first);
        entries.extend(second.join().expect("corpus worker panicked"));
        entries
    })
}

fn parse_corpus(text: &str) -> BTreeMap<(String, String), Pin> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split(' ');
            let mut next = || words.next().expect("a corpus line has a field missing");
            let key = (next().to_string(), next().to_string());
            let digest = next().to_string();
            let fields = words
                .map(|word| {
                    let (name, value) = word.split_once('=').expect("a field is name=value");
                    (name.to_string(), value.to_string())
                })
                .collect();
            (key, Pin { digest, fields })
        })
        .collect()
}

/// The cells must reach the paths the module docs say they pin, and the
/// sharded engine must agree with itself across shard counts.
fn check_cells(entries: &[Entry]) {
    for ((cell, engine), pin, summary) in entries {
        let events: u64 = pin.fields[0].1.parse().expect("events is an integer");
        assert!(
            events < 20_000,
            "{cell} {engine}: {events} events, keep cells small"
        );
        match cell.as_str() {
            "grid3x3-16k-baseline" | "grid3x3-16k-adaptive" => {
                assert!(summary.dropped_packets > 0, "{cell} {engine}: must drop")
            }
            "grid3x3-to-torus" => {
                assert_eq!(summary.topology_reconfigurations, 1, "{cell} {engine}")
            }
            "grid-sf-powercap" => {
                assert!(summary.plp_commands > 0, "{cell} {engine}: must shed lanes")
            }
            _ => {}
        }
    }
    let sharded = |engine: &str| -> Vec<(&String, &Pin)> {
        entries
            .iter()
            .filter(|((_, e), _, _)| e == engine)
            .map(|((cell, _), pin, _)| (cell, pin))
            .collect()
    };
    assert_eq!(
        sharded("shard1"),
        sharded("shard3"),
        "1 and 3 shards must agree"
    );
}

#[test]
fn outcomes_match_the_checked_in_corpus() {
    let text = std::fs::read_to_string(CORPUS).expect("golden/corpus.txt is checked in");
    let expected = parse_corpus(&text);
    let got = run_corpus();
    check_cells(&got);
    assert_eq!(
        expected.len(),
        got.len(),
        "the corpus file and the cell table list different cells; \
         regenerate with `cargo test --test outcome_corpus -- --ignored`"
    );
    let mut moved = Vec::new();
    for ((cell, engine), pin, _) in &got {
        let Some(want) = expected.get(&(cell.clone(), engine.clone())) else {
            moved.push(format!("{cell} {engine}: not in the corpus"));
            continue;
        };
        if want == pin {
            continue;
        }
        let fields: Vec<String> = want
            .fields
            .iter()
            .zip(&pin.fields)
            .filter(|(a, b)| a != b)
            .map(|((name, was), (_, now))| format!("{name} {was} -> {now}"))
            .collect();
        let fields = if fields.is_empty() {
            format!("digest {} -> {}", want.digest, pin.digest)
        } else {
            fields.join(", ")
        };
        moved.push(format!("{cell} {engine}: {fields}"));
    }
    assert!(
        moved.is_empty(),
        "{} corpus line(s) moved:\n  {}",
        moved.len(),
        moved.join("\n  ")
    );
}

/// Rewrites `golden/corpus.txt` from the current engines.
#[test]
#[ignore = "rewrites golden/corpus.txt; run after a deliberate model change"]
fn regenerate_corpus() {
    let mut out = String::from(
        "# cell engine fnv1a64(outcome_to_json) events mean_fct_us p99_ps\n\
         # regenerate: cargo test --test outcome_corpus -- --ignored\n",
    );
    let entries = run_corpus();
    check_cells(&entries);
    for ((cell, engine), pin, _) in entries {
        out.push_str(&format!("{cell} {engine} {}\n", pin.render()));
    }
    std::fs::write(CORPUS, out).expect("write golden/corpus.txt");
}
