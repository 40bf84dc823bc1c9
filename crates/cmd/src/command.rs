//! The instruction set: every externally reachable operation as one
//! [`Command`] value with a canonical-JSON wire form.
//!
//! Commands are what the journal persists and what [`diff`](crate::diff)
//! compares, so the encoding is strictly canonical: sorted object keys, no
//! whitespace, numbers kept lossless. `encode(decode(x)) == x` for every
//! valid record, which is what makes journal checksums and log diffs
//! meaningful.

use rackfabric_sim::json::{self, float, obj, string, uint, JsonValue};
use rackfabric_sweep::budget::BudgetPolicy;
use rackfabric_sweep::key::JobKey;

/// One externally reachable operation. The journal records these
/// write-ahead; the [`Executor`](crate::executor::Executor) interprets
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a single scenario whose canonical spec JSON is `spec_json`
    /// (store-first, like any sweep cell).
    RunScenario {
        /// Canonical spec JSON (the job-key preimage).
        spec_json: String,
    },
    /// Marker: a campaign expanded its matrix. No code writes it any more:
    /// the `sweep` binary's demo campaign wrote it before the figure
    /// campaigns became the only campaigns. It still decodes because
    /// [`Journal::open`](crate::journal::Journal::open) truncates a log at
    /// the first record it cannot decode; recovery skips it.
    ExpandMatrix {
        /// Campaign name (display label, not part of any job key).
        campaign: String,
        /// Number of cells in the expansion.
        cells: u64,
        /// Number of jobs in the fixed expansion.
        jobs: u64,
    },
    /// Execute one sweep cell job and persist its outcome under `key`.
    /// Journaled ahead of every fresh execution — the write-ahead record
    /// that makes crash recovery possible.
    ExecuteCell {
        /// Content-addressed key of the job.
        key: JobKey,
        /// Canonical spec JSON (decodes back to the runnable spec).
        spec_json: String,
    },
    /// Marker: a paper-figure campaign is about to run. Recovery replays
    /// the whole figure campaign store-first from this record, which is
    /// what completes jobs that were never individually journaled.
    RegenerateFigure {
        /// Figure id (`"e1"` .. `"e11"`).
        id: String,
        /// Figure scale (`"tiny"` or `"paper"`).
        scale: String,
        /// Budgeted-replication override, journaled so the record pins the
        /// exact budget it ran under; `None` keeps fixed replicates (the
        /// byte-deterministic golden default).
        budget: Option<BudgetPolicy>,
    },
    /// Garbage-collect the store down to `live` keys.
    GcStore {
        /// Keys that must survive, sorted.
        live: Vec<JobKey>,
    },
    /// Render a campaign report file set into `dir`. No code writes it any
    /// more: only the retired demo campaign did. It still decodes for the
    /// same reason as [`Command::ExpandMatrix`]; recovery skips it.
    EmitReport {
        /// Campaign name used in the report header.
        campaign: String,
        /// Destination directory.
        dir: String,
    },
    /// Export store + journal + reports as one self-contained bundle file.
    ExportBundle {
        /// Destination bundle path.
        dest: String,
    },
}

/// Embeds a canonical spec JSON string as a structured value, so the
/// journal record is one JSON document rather than JSON-in-a-string.
fn spec_field(spec_json: &str) -> JsonValue {
    json::parse(spec_json).unwrap_or_else(|_| string(spec_json))
}

impl Command {
    /// Short machine name of the operation (the `op` discriminant).
    pub fn op(&self) -> &'static str {
        match self {
            Command::RunScenario { .. } => "run-scenario",
            Command::ExpandMatrix { .. } => "expand-matrix",
            Command::ExecuteCell { .. } => "execute-cell",
            Command::RegenerateFigure { .. } => "regenerate-figure",
            Command::GcStore { .. } => "gc-store",
            Command::EmitReport { .. } => "emit-report",
            Command::ExportBundle { .. } => "export-bundle",
        }
    }

    /// The command as a structured JSON value (canonicalised by the
    /// journal's writer).
    pub fn to_value(&self) -> JsonValue {
        match self {
            Command::RunScenario { spec_json } => obj([
                ("op", string("run-scenario")),
                ("spec", spec_field(spec_json)),
            ]),
            Command::ExpandMatrix {
                campaign,
                cells,
                jobs,
            } => obj([
                ("campaign", string(campaign)),
                ("cells", uint(*cells)),
                ("jobs", uint(*jobs)),
                ("op", string("expand-matrix")),
            ]),
            Command::ExecuteCell { key, spec_json } => obj([
                ("key", string(&key.hex())),
                ("op", string("execute-cell")),
                ("spec", spec_field(spec_json)),
            ]),
            Command::RegenerateFigure { id, scale, budget } => obj([
                (
                    "budget",
                    match budget {
                        None => JsonValue::Null,
                        Some(b) => obj([
                            ("confidence_z", float(b.confidence_z)),
                            ("max_replicates", uint(b.max_replicates as u64)),
                            (
                                "max_total_jobs",
                                b.max_total_jobs.map_or(JsonValue::Null, uint),
                            ),
                            ("min_replicates", uint(b.min_replicates as u64)),
                            ("target_rel_halfwidth", float(b.target_rel_halfwidth)),
                        ]),
                    },
                ),
                ("id", string(id)),
                ("op", string("regenerate-figure")),
                ("scale", string(scale)),
            ]),
            Command::GcStore { live } => obj([
                (
                    "live",
                    JsonValue::Array(live.iter().map(|k| string(&k.hex())).collect()),
                ),
                ("op", string("gc-store")),
            ]),
            Command::EmitReport { campaign, dir } => obj([
                ("campaign", string(campaign)),
                ("dir", string(dir)),
                ("op", string("emit-report")),
            ]),
            Command::ExportBundle { dest } => {
                obj([("dest", string(dest)), ("op", string("export-bundle"))])
            }
        }
    }

    /// The command as one canonical JSON line (sorted keys, no whitespace).
    pub fn canonical_json(&self) -> String {
        json::canonical(&self.to_value())
    }

    /// Decodes one command from its JSON text, as [`Command::from_value`]
    /// decodes the parsed text, except that a `run-scenario` or
    /// `execute-cell` command keeps its spec's source text and builds no
    /// tree of it (the spec's decoder reads the text in place). A spec
    /// written canonically, as [`Command::canonical_json`] writes it, is
    /// kept byte for byte either way. `None` marks a malformed or unknown
    /// command.
    pub fn from_json(text: &str) -> Option<Command> {
        let [op, key, spec] = json::object_fields(text, ["op", "key", "spec"])?;
        let string = |raw: &str| match json::parse(raw).ok()? {
            JsonValue::String(text) => Some(text),
            _ => None,
        };
        match string(op?)?.as_str() {
            "run-scenario" => Some(Command::RunScenario {
                spec_json: spec?.to_string(),
            }),
            "execute-cell" => Some(Command::ExecuteCell {
                key: JobKey::from_hex(&string(key?)?)?,
                spec_json: spec?.to_string(),
            }),
            _ => Command::from_value(&json::parse(text).ok()?),
        }
    }

    /// Decodes a structured value back into a command. `None` marks a
    /// malformed or unknown record (the journal reader treats it as
    /// corruption and truncates there).
    pub fn from_value(value: &JsonValue) -> Option<Command> {
        let op = value.get("op")?.as_str()?;
        match op {
            "run-scenario" => Some(Command::RunScenario {
                spec_json: json::canonical(value.get("spec")?),
            }),
            "expand-matrix" => Some(Command::ExpandMatrix {
                campaign: value.get("campaign")?.as_str()?.to_string(),
                cells: value.get("cells")?.as_u64()?,
                jobs: value.get("jobs")?.as_u64()?,
            }),
            "execute-cell" => Some(Command::ExecuteCell {
                key: JobKey::from_hex(value.get("key")?.as_str()?)?,
                spec_json: json::canonical(value.get("spec")?),
            }),
            "regenerate-figure" => Some(Command::RegenerateFigure {
                id: value.get("id")?.as_str()?.to_string(),
                scale: value.get("scale")?.as_str()?.to_string(),
                budget: match value.get("budget")? {
                    JsonValue::Null => None,
                    b => Some(BudgetPolicy {
                        target_rel_halfwidth: b.get("target_rel_halfwidth")?.as_f64()?,
                        confidence_z: b.get("confidence_z")?.as_f64()?,
                        min_replicates: b.get("min_replicates")?.as_u64()? as usize,
                        max_replicates: b.get("max_replicates")?.as_u64()? as usize,
                        max_total_jobs: match b.get("max_total_jobs")? {
                            JsonValue::Null => None,
                            n => Some(n.as_u64()?),
                        },
                    }),
                },
            }),
            "gc-store" => {
                let live = value
                    .get("live")?
                    .as_array()?
                    .iter()
                    .map(|k| JobKey::from_hex(k.as_str()?))
                    .collect::<Option<Vec<JobKey>>>()?;
                Some(Command::GcStore { live })
            }
            "emit-report" => Some(Command::EmitReport {
                campaign: value.get("campaign")?.as_str()?.to_string(),
                dir: value.get("dir")?.as_str()?.to_string(),
            }),
            "export-bundle" => Some(Command::ExportBundle {
                dest: value.get("dest")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }

    /// One-line human description, used by the log diff renderer. Stable
    /// across runs of the same campaign (no sequence numbers, no paths that
    /// vary run to run for mutations keyed by content).
    pub fn describe(&self) -> String {
        match self {
            Command::RunScenario { spec_json } => {
                format!("run-scenario {}", spec_fingerprint(spec_json))
            }
            Command::ExpandMatrix {
                campaign,
                cells,
                jobs,
            } => format!("expand-matrix {campaign:?} ({cells} cells, {jobs} jobs)"),
            Command::ExecuteCell { key, spec_json } => {
                format!("execute-cell {key} {}", spec_fingerprint(spec_json))
            }
            Command::RegenerateFigure { id, scale, budget } => match budget {
                None => format!("regenerate-figure {id} ({scale}, fixed replicates)"),
                Some(b) => format!(
                    "regenerate-figure {id} ({scale}, budgeted {}..{} replicates)",
                    b.min_replicates, b.max_replicates
                ),
            },
            Command::GcStore { live } => format!("gc-store ({} live keys)", live.len()),
            Command::EmitReport { campaign, dir } => {
                format!("emit-report {campaign:?} -> {dir}")
            }
            Command::ExportBundle { dest } => format!("export-bundle -> {dest}"),
        }
    }
}

/// A short human hint of what a spec is (workload kind + topology kind +
/// seed), so diff lines are readable without dumping whole specs.
fn spec_fingerprint(spec_json: &str) -> String {
    let Ok(doc) = json::parse(spec_json) else {
        return "(unparsable spec)".to_string();
    };
    let workload = doc
        .get("workload")
        .and_then(|w| w.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap_or("?");
    let topology = doc
        .get("topology")
        .and_then(|t| t.get("kind"))
        .and_then(|k| k.as_str())
        .unwrap_or("?");
    let seed = doc.get("seed").and_then(|s| s.as_u64()).unwrap_or(0);
    format!("({workload} on {topology}, seed {seed})")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<Command> {
        vec![
            Command::RunScenario {
                spec_json: "{\"seed\":7}".into(),
            },
            Command::ExpandMatrix {
                campaign: "e3 permutation".into(),
                cells: 12,
                jobs: 24,
            },
            Command::ExecuteCell {
                key: JobKey(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
                spec_json: "{\"seed\":9}".into(),
            },
            Command::RegenerateFigure {
                id: "e4".into(),
                scale: "tiny".into(),
                budget: None,
            },
            Command::RegenerateFigure {
                id: "e9".into(),
                scale: "paper".into(),
                budget: Some(BudgetPolicy {
                    target_rel_halfwidth: 0.25,
                    confidence_z: 1.96,
                    min_replicates: 3,
                    max_replicates: 12,
                    max_total_jobs: Some(500),
                }),
            },
            Command::GcStore {
                live: vec![JobKey(1), JobKey(u128::MAX)],
            },
            Command::EmitReport {
                campaign: "sweep-campaign".into(),
                dir: "sweep-out".into(),
            },
            Command::ExportBundle {
                dest: "campaign.rfb".into(),
            },
        ]
    }

    #[test]
    fn every_command_round_trips_through_canonical_json() {
        for cmd in examples() {
            let text = cmd.canonical_json();
            let back = Command::from_value(&json::parse(&text).unwrap())
                .unwrap_or_else(|| panic!("decode failed for {text}"));
            assert_eq!(back, cmd);
            // Canonical means a second encode is byte-identical.
            assert_eq!(back.canonical_json(), text);
        }
    }

    #[test]
    fn commands_read_in_place_decode_as_their_trees_do() {
        let mut texts: Vec<String> = examples().iter().map(Command::canonical_json).collect();
        texts.extend(
            [
                // Whitespace, field order, duplicates and unknown fields.
                " { \"spec\" : {\"seed\": 7} , \"op\" : \"run-scenario\" } ",
                "{\"op\":\"run-scenario\",\"op\":\"gc-store\",\"spec\":[1],\"x\":{}}",
                "{\"op\":\"execute-cell\",\"key\":\"0f\",\"key\":5,\"spec\":null}",
                "{\"op\":\"run-sc\\u0065nario\",\"spec\":\"text\"}",
                // Malformed.
                "{\"op\":\"run-scenario\"}",
                "{\"op\":5,\"spec\":{}}",
                "{\"op\":\"execute-cell\",\"key\":5,\"spec\":{}}",
                "{\"op\":\"execute-cell\",\"spec\":{}}",
                "{\"op\":\"run-scenario\",\"spec\":{}} x",
                "{\"op\":\"run-scenario\",\"spec\":{]}",
                "[\"run-scenario\"]",
                "",
            ]
            .map(String::from),
        );
        // A spec keeps its source text, which renders canonically as the
        // tree decoder's spec.
        let canonical_spec = |command| match command {
            Command::RunScenario { spec_json } => Command::RunScenario {
                spec_json: json::canonical(&json::parse(&spec_json).unwrap()),
            },
            Command::ExecuteCell { key, spec_json } => Command::ExecuteCell {
                key,
                spec_json: json::canonical(&json::parse(&spec_json).unwrap()),
            },
            other => other,
        };
        for text in &texts {
            let want = json::parse(text)
                .ok()
                .as_ref()
                .and_then(Command::from_value);
            let got = Command::from_json(text).map(canonical_spec);
            assert_eq!(got, want, "{text}");
        }
        for command in examples() {
            let text = command.canonical_json();
            assert_eq!(Command::from_json(&text), Some(command), "{text}");
        }
    }

    #[test]
    fn unknown_ops_and_malformed_records_decode_to_none() {
        for bad in [
            "{\"op\":\"launch-missiles\"}",
            "{\"op\":\"execute-cell\"}",
            "{\"op\":\"execute-cell\",\"key\":\"zz\",\"spec\":{}}",
            "{\"cells\":1}",
            "[1,2,3]",
        ] {
            let value = json::parse(bad).unwrap();
            assert!(Command::from_value(&value).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn budgeted_figure_record_keeps_its_journal_bytes() {
        let record = Command::RegenerateFigure {
            id: "e9".into(),
            scale: "paper".into(),
            budget: Some(BudgetPolicy {
                target_rel_halfwidth: 0.25,
                confidence_z: 1.96,
                min_replicates: 3,
                max_replicates: 12,
                max_total_jobs: Some(500),
            }),
        };
        assert_eq!(
            record.canonical_json(),
            "{\"budget\":{\"confidence_z\":1.96,\"max_replicates\":12,\"max_total_jobs\":500,\
             \"min_replicates\":3,\"target_rel_halfwidth\":0.25},\"id\":\"e9\",\
             \"op\":\"regenerate-figure\",\"scale\":\"paper\"}"
        );
    }
}
