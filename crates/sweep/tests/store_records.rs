//! The store's record decoder against the tree decoder it replaced.
//!
//! [`outcome_from_record`] reads a record in one pass with
//! `rackfabric_sim::json::Reader`. The reference below is the decoder it
//! replaced: [`json::parse`] the whole record into a tree, then walk the
//! tree. Every record variant here (real records written before the
//! one-pass decoder existed, truncated at every byte, with characters
//! replaced, with bytes appended, with another `format`) must miss in both
//! or hit in both with the same outcome.
//!
//! [`outcome_to_json`] writes an outcome's canonical text without building
//! its tree. Every outcome decoded here is rendered both ways, and the text
//! must equal the canonical rendering of the tree (`outcome_value`).

use rackfabric::metrics::RunSummary;
use rackfabric_scenario::codec::decode_spec;
use rackfabric_scenario::runner::{JobOutcome, JobResult};
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sim::stats::{Histogram, Summary};
use rackfabric_sweep::key::{canonical_spec_json, job_key, JobKey};
use rackfabric_sweep::store::{outcome_from_record, outcome_to_json, outcome_value, ResultStore};
use rackfabric_sweep::testdir::TestDir;

/// FORMAT-4 records written by the store before its one-pass decoder, with
/// the FNV-1a 64 digest of `outcome_to_json` of what they decoded to then.
const FIXTURES: [(&str, &str, &str); 5] = [
    (
        "completed",
        include_str!("fixtures/format4/completed.json"),
        "162fc75f9ca06216",
    ),
    (
        "unfinished (job_completion_us null)",
        include_str!("fixtures/format4/unfinished.json"),
        "88ccc48cceaad6a1",
    ),
    (
        "empty histograms",
        include_str!("fixtures/format4/empty.json"),
        "018680126b8ca13b",
    ),
    (
        "failed",
        include_str!("fixtures/format4/failed.json"),
        "173f2677e8269970",
    ),
    (
        "failed, escaped message",
        include_str!("fixtures/format4/failed_escaped.json"),
        "6fd7ee836fc5a641",
    ),
];

fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The tree decoder the store used before its one-pass decoder.
mod reference {
    use super::*;

    pub fn record(text: &str) -> Option<JobOutcome> {
        let doc = json::parse(text).ok()?;
        if doc.get("format")?.as_u64()? != 4 {
            return None;
        }
        outcome(doc.get("outcome")?)
    }

    fn outcome(doc: &JsonValue) -> Option<JobOutcome> {
        if let Some(message) = doc.get("failed") {
            return Some(JobOutcome::Failed(message.as_str()?.to_string()));
        }
        let result = JobResult {
            summary: summary(doc.get("summary")?)?,
            packet_latency: histogram(doc.get("packet_latency")?)?,
            queueing_latency: histogram(doc.get("queueing_latency")?)?,
            all_flows_complete: doc.get("all_flows_complete")?.as_bool()?,
            events_processed: doc.get("events_processed")?.as_u64()?,
            wall_nanos: 0,
        };
        Some(JobOutcome::Completed(Box::new(result)))
    }

    fn histogram(doc: &JsonValue) -> Option<Histogram> {
        let buckets: Vec<(u64, u64)> = doc
            .get("buckets")?
            .as_array()?
            .iter()
            .map(|pair| {
                let pair = pair.as_array()?;
                Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
            })
            .collect::<Option<_>>()?;
        let sum: u128 = match doc.get("sum")? {
            JsonValue::String(s) => s.parse().ok()?,
            _ => return None,
        };
        let min = doc.get("min")?.as_u64();
        let max = doc.get("max")?.as_u64();
        Histogram::from_sparse(&buckets, sum, min, max)
    }

    fn summary(doc: &JsonValue) -> Option<RunSummary> {
        Some(RunSummary {
            delivered_packets: doc.get("delivered_packets")?.as_u64()?,
            dropped_packets: doc.get("dropped_packets")?.as_u64()?,
            delivered_bytes: doc.get("delivered_bytes")?.as_u64()?,
            packet_latency: stat_summary(doc.get("packet_latency")?)?,
            queueing_latency: stat_summary(doc.get("queueing_latency")?)?,
            completed_flows: doc.get("completed_flows")?.as_u64()? as usize,
            flow_completion_mean_us: doc.get("flow_completion_mean_us")?.as_f64()?,
            flow_completion_max_us: doc.get("flow_completion_max_us")?.as_f64()?,
            job_completion_us: match doc.get("job_completion_us")? {
                JsonValue::Null => None,
                v => Some(v.as_f64()?),
            },
            mean_power_w: doc.get("mean_power_w")?.as_f64()?,
            max_power_w: doc.get("max_power_w")?.as_f64()?,
            plp_commands: doc.get("plp_commands")?.as_u64()? as usize,
            topology_reconfigurations: doc.get("topology_reconfigurations")?.as_u64()? as u32,
            switching_fraction: doc.get("switching_fraction")?.as_f64()?,
            propagation_fraction: doc.get("propagation_fraction")?.as_f64()?,
            route_cache_hits: doc.get("route_cache_hits")?.as_u64()?,
            route_cache_misses: doc.get("route_cache_misses")?.as_u64()?,
            route_cache_hit_rate: doc.get("route_cache_hit_rate")?.as_f64()?,
        })
    }

    fn stat_summary(doc: &JsonValue) -> Option<Summary> {
        Some(Summary {
            count: doc.get("count")?.as_u64()?,
            min: doc.get("min")?.as_f64()?,
            max: doc.get("max")?.as_f64()?,
            mean: doc.get("mean")?.as_f64()?,
            p50: doc.get("p50")?.as_f64()?,
            p90: doc.get("p90")?.as_f64()?,
            p99: doc.get("p99")?.as_f64()?,
            p999: doc.get("p999")?.as_f64()?,
        })
    }
}

/// The outcome's canonical text, as [`outcome_to_json`] writes it, which
/// must be the canonical rendering of its tree.
fn canonical_text(outcome: &JobOutcome) -> String {
    let text = outcome_to_json(outcome);
    assert_eq!(text, json::canonical(&outcome_value(outcome)));
    text
}

/// Asserts that `text` decodes as the reference decodes it; returns the
/// canonical outcome on a hit.
fn decodes_as_before(text: &str, what: &str) -> Option<String> {
    let got = outcome_from_record(text).map(|o| canonical_text(&o));
    let want = reference::record(text).map(|o| canonical_text(&o));
    assert_eq!(got, want, "{what}: {text}");
    got
}

/// The canonical form of a record's `outcome` field.
fn canonical_outcome_field(text: &str) -> String {
    json::canonical(json::parse(text).unwrap().get("outcome").unwrap())
}

#[test]
fn records_written_before_decode_to_their_pinned_outcomes() {
    for (name, text, digest) in FIXTURES {
        let outcome = outcome_from_record(text).unwrap_or_else(|| panic!("{name} missed"));
        let canonical = canonical_text(&outcome);
        assert_eq!(
            format!("{:016x}", fnv1a_64(canonical.as_bytes())),
            digest,
            "{name}"
        );
        assert_eq!(canonical, canonical_outcome_field(text), "{name}");

        // Through a store: the record answers `get` under its key, and
        // writing the outcome back under the same spec gives the same bytes.
        let doc = json::parse(text).unwrap();
        let spec_json = json::canonical(doc.get("spec").unwrap());
        let key = job_key(&decode_spec(&spec_json).unwrap());
        assert_eq!(doc.get("key").unwrap().as_str(), Some(key.hex().as_str()));
        let dir = TestDir::new("store-records-fixture");
        let store = ResultStore::open(dir.path()).unwrap();
        let path = dir
            .join("objects")
            .join(&key.hex()[..2])
            .join(format!("{}.json", &key.hex()[2..]));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        assert_eq!(outcome_to_json(&store.get(&key).unwrap()), canonical);
        assert_eq!(
            spec_json,
            canonical_spec_json(&decode_spec(&spec_json).unwrap())
        );
        std::fs::remove_file(&path).unwrap();
        store.put(&key, &spec_json, &outcome).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}");
    }
}

#[test]
fn damaged_records_miss_exactly_where_the_tree_decoder_missed() {
    // Characters that mean something to the grammar, and two that do not.
    let replacements = [
        '"', ',', ':', '[', ']', '{', '}', '0', '9', '-', '.', 'e', 'n', '\\', ' ', 'x',
    ];
    let (mut replaced, mut hits) = (0, 0);
    for (name, text, _) in FIXTURES {
        let boundaries: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        for &i in &boundaries {
            decodes_as_before(&text[..i], &format!("{name} cut at {i}"));
            // One replacement per character, cycling through the set.
            let c = text[i..].chars().next().unwrap();
            let mut damaged = text.to_string();
            let with = replacements[(i * 7 + name.len()) % replacements.len()];
            damaged.replace_range(i..i + c.len_utf8(), &with.to_string());
            hits +=
                usize::from(decodes_as_before(&damaged, &format!("{name} {i}={with:?}")).is_some());
            replaced += 1;
        }
        for tail in [" ", "\r\n\t", "x", "{}", "0", ",", "\"", "]"] {
            let extended = format!("{text}{tail}");
            if let Some(canonical) = decodes_as_before(&extended, name) {
                assert_eq!(canonical, canonical_outcome_field(&extended), "{name}");
            }
        }
        let format_field = "\"format\": 4";
        assert!(text.starts_with(&format!("{{{format_field},")));
        for other in [
            "3", "5", "40", "04", "4.0", "4e0", "-4", "\"4\"", "null", "[4]", "{}",
        ] {
            let formatted = text.replacen(format_field, &format!("\"format\": {other}"), 1);
            let hit = decodes_as_before(&formatted, &format!("{name} format {other}"));
            // `as_u64` reads leading zeros: "04" is format 4.
            assert_eq!(hit.is_some(), other == "04", "{name} format {other}");
        }
        // The first field of a name counts, later ones are shadowed.
        let body = &text[format_field.len() + 2..];
        let shadowed = format!("{{\"format\": 3, {body}");
        assert!(decodes_as_before(&shadowed, name).is_none());
        let shadowing = format!("{{{format_field}, \"format\": 3, {body}");
        assert!(decodes_as_before(&shadowing, name).is_some());
        let late = text.replacen("}\n", ", \"outcome\": {\"failed\": \"late\"}}\n", 1);
        assert_eq!(
            decodes_as_before(&late, name),
            Some(canonical_outcome_field(text))
        );
        let missing = text.replacen(format_field, "\"formats\": 4", 1);
        assert!(decodes_as_before(&missing, name).is_none());
    }
    // Some replaced records still decode (a digit changed), most do not:
    // the replacements reach both sides of the decoder.
    assert!(hits > 0 && hits < replaced, "{hits} hits of {replaced}");
}

#[test]
fn odd_but_valid_outcomes_decode_as_the_tree_decoder_read_them() {
    let (_, completed, _) = FIXTURES[0];
    let outcome = canonical_outcome_field(completed);
    let record =
        |outcome: &str| format!("{{\"format\": 4, \"spec\": {{}}, \"outcome\": {outcome}}}");
    let cases = [
        // A `failed` field decides the outcome, whatever comes before it.
        ("{\"summary\": 5, \"failed\": \"late\"}".to_string(), true),
        ("{\"failed\": 5}".to_string(), false),
        ("{\"failed\": \"a\", \"failed\": 5}".to_string(), true),
        (
            outcome.replacen('{', "{\"failed\": \"\\u0041\\\"\",", 1),
            true,
        ),
        // Unknown fields, and items past a bucket pair's second, are passed
        // over; a bound that is not a u64 is no bound; the sum is a string,
        // escapes and all.
        (outcome.replacen('{', "{\"extra\": [[[{}]]],", 1), true),
        (
            outcome.replacen("\"buckets\":[[", "\"buckets\":[[7,1,\"x\",[]],[", 1),
            true,
        ),
        (
            outcome.replacen("\"buckets\":[[", "\"buckets\":[[7],[", 1),
            false,
        ),
        (
            outcome.replacen("\"buckets\":[[", "\"buckets\":[7,[", 1),
            false,
        ),
        // Counts that overflow a u64 (here in the first bucket) are no
        // histogram, in debug and release builds alike.
        (
            outcome.replacen(
                "\"buckets\":[[",
                "\"buckets\":[[249856,18446744073709551615],[",
                1,
            ),
            false,
        ),
        (
            outcome.replacen("\"min\":", "\"min\":\"7\",\"ignored\":", 1),
            true,
        ),
        (outcome.replacen("\"sum\":\"", "\"sum\":\"\\u0031", 1), true),
        (outcome.replacen("\"sum\":\"", "\"sum\":\"+", 1), true),
        (
            outcome.replacen("\"sum\":\"", "\"sum\":1,\"x\":\"", 1),
            false,
        ),
        (
            outcome.replace("\"count\":", "\"count\":0,\"count\":"),
            true,
        ),
        (
            outcome.replacen(
                "\"job_completion_us\":",
                "\"job_completion_us\":null,\"_\":",
                1,
            ),
            true,
        ),
        (
            outcome.replacen(
                "\"job_completion_us\":",
                "\"job_completion_us\":true,\"_\":",
                1,
            ),
            false,
        ),
        ("[]".to_string(), false),
        ("{}".to_string(), false),
    ];
    for (outcome, hit) in cases {
        let text = record(&outcome);
        assert_eq!(
            decodes_as_before(&text, "odd case").is_some(),
            hit,
            "{text}"
        );
    }
}

#[test]
fn a_spec_nested_past_the_depth_bound_is_a_miss_without_a_stack_overflow() {
    let (_, completed, _) = FIXTURES[0];
    let outcome = canonical_outcome_field(completed);
    let key = JobKey(0x5eed);
    for depth in [128 - 2, 128 - 1, 100_000] {
        let spec = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let text = format!("{{\"format\": 4, \"spec\": {spec}, \"outcome\": {outcome}}}\n");
        // Inside the record's object, a spec may nest 127 levels.
        let hit = decodes_as_before(&text, &format!("spec nested {depth} deep"));
        assert_eq!(hit.is_some(), depth < 128, "depth {depth}");

        let dir = TestDir::new("store-records-deep");
        let store = ResultStore::open(dir.path()).unwrap();
        store
            .put(&key, &spec, &JobOutcome::Failed("x".into()))
            .unwrap();
        assert_eq!(store.get(&key).is_some(), depth < 128, "depth {depth}");
    }
}
