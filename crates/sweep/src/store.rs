//! The content-addressed on-disk result store.
//!
//! One file per executed job, named by the job's [`JobKey`] and sharded into
//! 256 two-hex-character directories (git-object style):
//!
//! ```text
//! <store>/objects/<hh>/<30 hex chars>.json
//! ```
//!
//! Each file records the canonical spec JSON (the hash preimage, kept for
//! debugging and audits) and the job's outcome. Everything stored is
//! deterministic simulation output — wall-clock timings are explicitly *not*
//! persisted, so a cache hit reproduces the exact bytes a fresh run would
//! export. Failed jobs are cached too (panics are deterministic), which is
//! what makes "a warm re-run executes zero jobs" hold unconditionally.
//!
//! Writes go through a temp file + rename, so an interrupted sweep leaves
//! either a complete record or none — never a torn file. Unparseable files
//! are treated as absent and overwritten by the next run.

use crate::key::JobKey;
use crate::lock::StoreLock;
use rackfabric::metrics::RunSummary;
use rackfabric_scenario::runner::{JobOutcome, JobResult};
use rackfabric_sim::json::{self, JsonValue};
use rackfabric_sim::stats::{Histogram, Summary};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Version stamp written into every record; bump when the schema changes so
/// stale stores re-execute instead of misparsing. 3: job keys carry the
/// per-edge link class (intra- vs inter-rack), which steers the sharded
/// engine's conservative lookahead. 4: job keys carry the spec-level
/// routing-policy override (minimal / Valiant / adaptive dragonfly routing).
const FORMAT: u64 = 4;

/// In-memory traffic counters of one open store handle (shared by clones).
/// Purely observational: nothing in the records themselves depends on them.
#[derive(Debug, Default)]
struct StoreCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    gc_kept: AtomicU64,
    gc_removed: AtomicU64,
}

/// A plain snapshot of store traffic counters — either the in-memory
/// counters of this handle or the cumulative totals persisted in the
/// store's `stats.json` sidecar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found no (readable) record.
    pub misses: u64,
    /// Records written.
    pub puts: u64,
    /// Records spared across gc passes.
    pub gc_kept: u64,
    /// Files reclaimed across gc passes.
    pub gc_removed: u64,
}

impl StoreStats {
    /// Hit rate over all lookups (0.0 when the store was never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A handle to one on-disk store directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
    counters: Arc<StoreCounters>,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// Opening also sweeps orphaned `*.tmp.*` files under `objects/` — the
    /// leftovers of writers that crashed between their write and rename.
    /// Only temp files older than [`GC_TEMP_GRACE`] are reclaimed, so a
    /// concurrent writer's in-flight temp file survives.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        Self::open_with_tmp_grace(dir, GC_TEMP_GRACE)
    }

    /// [`ResultStore::open`] with an explicit orphan-temp grace period.
    /// Tests pass [`std::time::Duration::ZERO`] to sweep unconditionally;
    /// production callers should stick with [`ResultStore::open`].
    pub fn open_with_tmp_grace(
        dir: impl Into<PathBuf>,
        grace: std::time::Duration,
    ) -> io::Result<ResultStore> {
        let root = dir.into();
        std::fs::create_dir_all(root.join("objects"))?;
        {
            // Maintenance (file deletion) is serialised across every handle
            // sharing this directory — daemon and CLI included.
            let _lock = StoreLock::exclusive(&root)?;
            sweep_orphan_temps(&root.join("objects"), grace)?;
        }
        Ok(ResultStore {
            root,
            counters: Arc::new(StoreCounters::default()),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn object_path(&self, key: &JobKey) -> PathBuf {
        let hex = key.hex();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{}.json", &hex[2..]))
    }

    /// Looks up a stored outcome. Returns `None` on a miss or an unreadable/
    /// corrupt record (which the caller then recomputes and overwrites).
    pub fn get(&self, key: &JobKey) -> Option<JobOutcome> {
        let outcome = self.get_inner(key);
        let counter = if outcome.is_some() {
            &self.counters.hits
        } else {
            &self.counters.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        outcome
    }

    fn get_inner(&self, key: &JobKey) -> Option<JobOutcome> {
        let text = std::fs::read_to_string(self.object_path(key)).ok()?;
        let doc = json::parse(&text).ok()?;
        if doc.get("format")?.as_u64()? != FORMAT {
            return None;
        }
        decode_outcome(doc.get("outcome")?)
    }

    /// Persists a job outcome under its key, atomically.
    pub fn put(&self, key: &JobKey, spec_json: &str, outcome: &JobOutcome) -> io::Result<()> {
        let path = self.object_path(key);
        std::fs::create_dir_all(path.parent().expect("object paths have parents"))?;
        let mut out = String::from("{");
        out.push_str(&format!("\"format\": {FORMAT}"));
        out.push_str(&format!(", \"key\": \"{}\"", key.hex()));
        out.push_str(&format!(", \"spec\": {spec_json}"));
        out.push_str(", \"outcome\": ");
        encode_outcome(outcome, &mut out);
        out.push_str("}\n");
        // The tmp name carries the writer's identity: two processes (or
        // threads) racing to persist the same key must not interleave one
        // write/rename pair with another's half-written file.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), seq));
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, &path)?;
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of records in the store (walks the object tree).
    pub fn len(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(self.root.join("objects")) else {
            return 0;
        };
        shards
            .flatten()
            .filter_map(|shard| std::fs::read_dir(shard.path()).ok())
            .flat_map(|entries| entries.flatten())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "json"))
            .count()
    }

    /// True when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Garbage-collects the store: removes every record whose key is **not**
    /// in `live`, plus stale temp files left by interrupted writers, and
    /// prunes shard directories that end up empty. Campaign edits orphan the
    /// records of replaced axis values; pass the keys of the campaigns that
    /// should survive (e.g. every record a sweep just resolved) to reclaim
    /// the rest.
    ///
    /// Safe next to concurrent writers: temp files younger than
    /// [`GC_TEMP_GRACE`] are spared (a writer may be between its write and
    /// rename), and a file that vanishes mid-pass (the writer's rename won
    /// the race) is skipped rather than failing the collection.
    pub fn gc<'a>(&self, live: impl IntoIterator<Item = &'a JobKey>) -> io::Result<GcStats> {
        // One collector at a time across every process sharing the
        // directory; record reads and writes proceed untouched.
        let _lock = StoreLock::exclusive(&self.root)?;
        let live: std::collections::BTreeSet<u128> = live.into_iter().map(|k| k.0).collect();
        let mut stats = GcStats::default();
        let objects = self.root.join("objects");
        let Ok(shards) = std::fs::read_dir(&objects) else {
            return Ok(stats);
        };
        for shard in shards.flatten() {
            let shard_path = shard.path();
            let Some(prefix) = shard_path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let prefix = prefix.to_string();
            let Ok(entries) = std::fs::read_dir(&shard_path) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let key = name
                    .strip_suffix(".json")
                    .and_then(|stem| JobKey::from_hex(&format!("{prefix}{stem}")));
                if key.is_some_and(|k| live.contains(&k.0)) {
                    stats.kept += 1;
                    continue;
                }
                if name.contains(".tmp.") && !is_older_than(&path, GC_TEMP_GRACE) {
                    // A concurrent writer may be between write and rename;
                    // leave young temp files for a later pass.
                    continue;
                }
                // Orphaned record, stale temp file, or a file that is not a
                // store object at all: reclaim it.
                match std::fs::remove_file(&path) {
                    Ok(()) => stats.removed += 1,
                    // The writer's rename (or another gc) beat us to it.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
            // Prune the shard directory if the sweep above emptied it.
            if std::fs::read_dir(&shard_path).is_ok_and(|mut d| d.next().is_none()) {
                let _ = std::fs::remove_dir(&shard_path);
            }
        }
        self.counters
            .gc_kept
            .fetch_add(stats.kept as u64, Ordering::Relaxed);
        self.counters
            .gc_removed
            .fetch_add(stats.removed as u64, Ordering::Relaxed);
        Ok(stats)
    }

    /// A snapshot of this handle's in-memory traffic counters (shared with
    /// its clones; independent of the persisted sidecar).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            puts: self.counters.puts.load(Ordering::Relaxed),
            gc_kept: self.counters.gc_kept.load(Ordering::Relaxed),
            gc_removed: self.counters.gc_removed.load(Ordering::Relaxed),
        }
    }

    /// Path of the persisted stats sidecar. Lives next to `objects/`, never
    /// inside it, so report diffs and golden comparisons are unaffected.
    pub fn stats_path(&self) -> PathBuf {
        self.root.join("stats.json")
    }

    /// Reads the cumulative traffic stats persisted by previous
    /// [`ResultStore::flush_stats`] calls (zeros when none exist).
    pub fn read_stats(&self) -> StoreStats {
        let Ok(text) = std::fs::read_to_string(self.stats_path()) else {
            return StoreStats::default();
        };
        let Ok(doc) = json::parse(&text) else {
            return StoreStats::default();
        };
        let field = |name: &str| doc.get(name).and_then(|v| v.as_u64()).unwrap_or(0);
        StoreStats {
            hits: field("hits"),
            misses: field("misses"),
            puts: field("puts"),
            gc_kept: field("gc_kept"),
            gc_removed: field("gc_removed"),
        }
    }

    /// Drains this handle's in-memory counters into the persisted sidecar
    /// (read-modify-write with an atomic rename) and returns the new
    /// cumulative totals. Call once at the end of a run; draining makes a
    /// second flush a no-op instead of double-counting.
    pub fn flush_stats(&self) -> io::Result<StoreStats> {
        // The sidecar is read-modify-write: without the lock, two handles
        // (daemon + CLI on the same directory) could both read the old
        // totals and the later rename would silently drop the earlier
        // flush's counts.
        let _lock = StoreLock::exclusive(&self.root)?;
        let mut total = self.read_stats();
        total.hits += self.counters.hits.swap(0, Ordering::Relaxed);
        total.misses += self.counters.misses.swap(0, Ordering::Relaxed);
        total.puts += self.counters.puts.swap(0, Ordering::Relaxed);
        total.gc_kept += self.counters.gc_kept.swap(0, Ordering::Relaxed);
        total.gc_removed += self.counters.gc_removed.swap(0, Ordering::Relaxed);
        let out = format!(
            "{{\"hits\": {}, \"misses\": {}, \"puts\": {}, \"gc_kept\": {}, \
             \"gc_removed\": {}}}\n",
            total.hits, total.misses, total.puts, total.gc_kept, total.gc_removed
        );
        static STATS_TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.stats_path().with_extension(format!(
            "json.tmp.{}.{}",
            std::process::id(),
            STATS_TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &out)?;
        std::fs::rename(&tmp, self.stats_path())?;
        Ok(total)
    }
}

/// Renders a job outcome as **canonical** JSON (sorted keys, no
/// whitespace, one line): the exact encoding stored in a record's
/// `outcome` field, re-serialised canonically. Equal outcomes render to
/// equal bytes, which is what lets a service hand results over a wire and
/// still promise byte-identical answers to the batch path.
pub fn outcome_to_json(outcome: &JobOutcome) -> String {
    let mut raw = String::new();
    encode_outcome(outcome, &mut raw);
    let doc = json::parse(&raw).expect("the outcome encoder emits valid JSON");
    json::canonical(&doc)
}

/// Parses an outcome rendered by [`outcome_to_json`] (or the `outcome`
/// field of a store record). `None` on malformed input.
pub fn outcome_from_json(text: &str) -> Option<JobOutcome> {
    decode_outcome(&json::parse(text).ok()?)
}

/// How old a temp file must be before [`ResultStore::gc`] reclaims it — a
/// younger one may belong to a writer that is still between its write and
/// its rename.
pub const GC_TEMP_GRACE: std::time::Duration = std::time::Duration::from_secs(60);

/// Removes every `*.tmp.*` file under `objects/` older than `grace`:
/// the droppings of writers that died between `write` and `rename`.
/// Before [`ResultStore::open`] swept them, these leaked forever — gc only
/// visits shard directories, and a crash could strand a temp file in a
/// shard that no later campaign touches.
fn sweep_orphan_temps(objects: &Path, grace: std::time::Duration) -> io::Result<usize> {
    let mut removed = 0;
    let Ok(shards) = std::fs::read_dir(objects) else {
        return Ok(removed);
    };
    for shard in shards.flatten() {
        let Ok(entries) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.contains(".tmp.") && is_older_than(&path, grace) {
                match std::fs::remove_file(&path) {
                    Ok(()) => removed += 1,
                    // A concurrent opener (or gc pass) beat us to it.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(removed)
}

/// True when the file's mtime is at least `age` in the past (unknown mtimes
/// count as young, so gc errs toward sparing the file).
fn is_older_than(path: &Path, age: std::time::Duration) -> bool {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|modified| modified.elapsed().ok())
        .is_some_and(|elapsed| elapsed >= age)
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Records whose keys were in the live set.
    pub kept: usize,
    /// Files removed (orphaned records, temp leftovers, foreign files).
    pub removed: usize,
}

fn encode_outcome(outcome: &JobOutcome, out: &mut String) {
    match outcome {
        JobOutcome::Failed(message) => {
            out.push_str(&format!("{{\"failed\": \"{}\"}}", json::escape(message)));
        }
        JobOutcome::Completed(result) => {
            out.push('{');
            out.push_str(&format!(
                "\"all_flows_complete\": {}, \"events_processed\": {}",
                result.all_flows_complete, result.events_processed
            ));
            out.push_str(", \"packet_latency\": ");
            encode_histogram(&result.packet_latency, out);
            out.push_str(", \"queueing_latency\": ");
            encode_histogram(&result.queueing_latency, out);
            out.push_str(", \"summary\": ");
            encode_summary(&result.summary, out);
            out.push('}');
        }
    }
}

fn decode_outcome(doc: &JsonValue) -> Option<JobOutcome> {
    if let Some(message) = doc.get("failed") {
        return Some(JobOutcome::Failed(message.as_str()?.to_string()));
    }
    let result = JobResult {
        summary: decode_summary(doc.get("summary")?)?,
        packet_latency: decode_histogram(doc.get("packet_latency")?)?,
        queueing_latency: decode_histogram(doc.get("queueing_latency")?)?,
        all_flows_complete: doc.get("all_flows_complete")?.as_bool()?,
        events_processed: doc.get("events_processed")?.as_u64()?,
        // Wall-clock is never persisted: it is the one non-deterministic
        // field, and cache hits cost no engine time anyway.
        wall_nanos: 0,
    };
    Some(JobOutcome::Completed(Box::new(result)))
}

fn encode_histogram(h: &Histogram, out: &mut String) {
    out.push_str("{\"buckets\": [");
    for (i, (value, count)) in h.sparse_counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{value},{count}]"));
    }
    // u128 sums exceed what a u64 field can carry; keep the decimal text.
    out.push_str(&format!("], \"sum\": \"{}\"", h.sample_sum()));
    match (h.min_sample(), h.max_sample()) {
        (Some(min), Some(max)) => {
            out.push_str(&format!(", \"min\": {min}, \"max\": {max}}}"));
        }
        _ => out.push_str(", \"min\": null, \"max\": null}"),
    }
}

fn decode_histogram(doc: &JsonValue) -> Option<Histogram> {
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
    Some(Histogram::from_sparse(&buckets, sum, min, max))
}

fn encode_summary(s: &RunSummary, out: &mut String) {
    out.push('{');
    out.push_str(&format!(
        "\"delivered_packets\": {}, \"dropped_packets\": {}, \"delivered_bytes\": {}",
        s.delivered_packets, s.dropped_packets, s.delivered_bytes
    ));
    out.push_str(", \"packet_latency\": ");
    encode_stat_summary(&s.packet_latency, out);
    out.push_str(", \"queueing_latency\": ");
    encode_stat_summary(&s.queueing_latency, out);
    out.push_str(&format!(
        ", \"completed_flows\": {}, \"flow_completion_mean_us\": {}, \
         \"flow_completion_max_us\": {}",
        s.completed_flows,
        json::number(s.flow_completion_mean_us),
        json::number(s.flow_completion_max_us)
    ));
    match s.job_completion_us {
        Some(us) => out.push_str(&format!(", \"job_completion_us\": {}", json::number(us))),
        None => out.push_str(", \"job_completion_us\": null"),
    }
    out.push_str(&format!(
        ", \"mean_power_w\": {}, \"max_power_w\": {}, \"plp_commands\": {}, \
         \"topology_reconfigurations\": {}, \"switching_fraction\": {}, \
         \"propagation_fraction\": {}, \"route_cache_hits\": {}, \
         \"route_cache_misses\": {}, \"route_cache_hit_rate\": {}}}",
        json::number(s.mean_power_w),
        json::number(s.max_power_w),
        s.plp_commands,
        s.topology_reconfigurations,
        json::number(s.switching_fraction),
        json::number(s.propagation_fraction),
        s.route_cache_hits,
        s.route_cache_misses,
        json::number(s.route_cache_hit_rate)
    ));
}

fn decode_summary(doc: &JsonValue) -> Option<RunSummary> {
    Some(RunSummary {
        delivered_packets: doc.get("delivered_packets")?.as_u64()?,
        dropped_packets: doc.get("dropped_packets")?.as_u64()?,
        delivered_bytes: doc.get("delivered_bytes")?.as_u64()?,
        packet_latency: decode_stat_summary(doc.get("packet_latency")?)?,
        queueing_latency: decode_stat_summary(doc.get("queueing_latency")?)?,
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

fn encode_stat_summary(s: &Summary, out: &mut String) {
    out.push_str(&format!(
        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \
         \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
        s.count,
        json::number(s.min),
        json::number(s.max),
        json::number(s.mean),
        json::number(s.p50),
        json::number(s.p90),
        json::number(s.p99),
        json::number(s.p999)
    ));
}

fn decode_stat_summary(doc: &JsonValue) -> Option<Summary> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::job_key;
    use crate::testdir::TestDir;
    use rackfabric_scenario::prelude::*;
    use rackfabric_scenario::runner::run_scenario;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    #[test]
    fn open_sweeps_orphaned_temp_files_but_spares_records_and_young_temps() {
        let spec = ScenarioSpec::new(
            "store-orphan",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(7);
        let result = run_scenario(&spec);
        let key = job_key(&spec);

        let dir = TestDir::new("sweep-store-orphan");
        let store = ResultStore::open(dir.path()).unwrap();
        let outcome = JobOutcome::Completed(Box::new(result));
        store
            .put(&key, &crate::key::canonical_spec_json(&spec), &outcome)
            .unwrap();

        // A crashed writer's dropping, stranded next to the real record.
        let shard = dir.join("objects").join(&key.hex()[..2]);
        let orphan = shard.join("deadbeef.tmp.424242.0");
        std::fs::write(&orphan, b"half-written").unwrap();

        // Default grace spares a freshly written temp file (its writer may
        // still be between write and rename).
        let store = ResultStore::open(dir.path()).unwrap();
        assert!(orphan.exists(), "young temp files must survive open");

        // Zero grace models the temp file having aged past GC_TEMP_GRACE.
        let store2 =
            ResultStore::open_with_tmp_grace(dir.path(), std::time::Duration::ZERO).unwrap();
        assert!(!orphan.exists(), "aged orphans are reclaimed at open");
        assert!(store2.get(&key).is_some(), "real records are untouched");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn round_trips_a_real_job_result_exactly() {
        let spec = ScenarioSpec::new(
            "store-unit",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(11);
        let result = run_scenario(&spec);
        let key = job_key(&spec);

        let dir = TestDir::new("sweep-store-roundtrip");
        let store = ResultStore::open(dir.path()).unwrap();
        assert!(store.get(&key).is_none());
        assert!(store.is_empty());
        let outcome = JobOutcome::Completed(Box::new(result.clone()));
        store
            .put(&key, &crate::key::canonical_spec_json(&spec), &outcome)
            .unwrap();
        assert_eq!(store.len(), 1);

        let JobOutcome::Completed(back) = store.get(&key).unwrap() else {
            panic!("expected a completed outcome");
        };
        assert_eq!(back.summary, result.summary);
        assert_eq!(back.all_flows_complete, result.all_flows_complete);
        assert_eq!(back.events_processed, result.events_processed);
        assert_eq!(back.wall_nanos, 0, "wall-clock must not be persisted");
        assert_eq!(
            back.packet_latency.sparse_counts(),
            result.packet_latency.sparse_counts()
        );
        assert_eq!(
            back.packet_latency.summary(),
            result.packet_latency.summary()
        );
        assert_eq!(
            back.queueing_latency.summary(),
            result.queueing_latency.summary()
        );
    }

    #[test]
    fn gc_reclaims_orphans_left_by_a_campaign_edit() {
        use crate::campaign::Sweep;
        use rackfabric_scenario::matrix::{AxisValue, Matrix};
        use rackfabric_scenario::runner::Runner;

        let matrix = |loads: &[f64]| {
            let base = ScenarioSpec::new(
                "gc-unit",
                TopologySpec::grid(2, 2, 2),
                WorkloadSpec::shuffle(Bytes::from_kib(1)),
            )
            .horizon(SimTime::from_millis(20));
            Matrix::new(base)
                .axis("load", loads.iter().map(|&l| AxisValue::Load(l)).collect())
                .replicates(2)
                .master_seed(3)
        };
        let dir = TestDir::new("sweep-store-gc");
        let store = ResultStore::open(dir.path()).unwrap();
        let runner = Runner::single_threaded();
        Sweep::new(matrix(&[0.5, 1.0]))
            .run(&store, &runner)
            .unwrap();
        assert_eq!(store.len(), 4);

        // Edit one axis value (0.5 -> 0.75): the replaced value's records
        // become orphans, the shared load-1.0 cell stays live.
        let edited = matrix(&[0.75, 1.0]);
        let outcome = Sweep::new(edited.clone()).run(&store, &runner).unwrap();
        assert_eq!(outcome.executed, 2, "only the edited cell re-executes");
        assert_eq!(outcome.cached, 2);
        assert_eq!(store.len(), 6, "the edit left two orphans behind");

        let live: Vec<crate::key::JobKey> = edited
            .expand()
            .iter()
            .map(|job| job_key(&job.spec))
            .collect();
        let stats = store.gc(live.iter()).unwrap();
        assert_eq!(
            stats,
            GcStats {
                kept: 4,
                removed: 2
            }
        );
        assert_eq!(store.len(), 4);
        // The orphan count is now zero: a second pass removes nothing.
        assert_eq!(store.gc(live.iter()).unwrap().removed, 0);
        // The surviving campaign still answers fully from the store.
        let warm = Sweep::new(edited).run(&store, &runner).unwrap();
        assert_eq!(warm.executed, 0);
    }

    #[test]
    fn gc_spares_young_temp_files_and_tolerates_races() {
        let dir = TestDir::new("sweep-store-gc-tmp");
        let store = ResultStore::open(dir.path()).unwrap();
        let key = crate::key::JobKey(42);
        store
            .put(&key, "{}", &JobOutcome::Failed("x".into()))
            .unwrap();
        // A temp file that could belong to a writer currently between its
        // write and rename: younger than the grace period, it must survive
        // the pass (an interrupted sweep's leftovers are reclaimed by any
        // pass after the grace period elapses).
        let stray = store.object_path(&key).with_extension("tmp.9999.0");
        std::fs::write(&stray, "half a record").unwrap();
        let stats = store.gc([key].iter()).unwrap();
        assert_eq!(
            stats,
            GcStats {
                kept: 1,
                removed: 0
            }
        );
        assert!(store.get(&key).is_some());
        assert!(stray.exists(), "in-flight temp files are spared");
        // Temp files never count as records.
        assert_eq!(store.len(), 1);
        // A foreign (non-temp, non-record) file is reclaimed immediately,
        // and a second pass over the now-missing file is not an error.
        let foreign = stray.with_file_name("not-a-record.txt");
        std::fs::write(&foreign, "junk").unwrap();
        assert_eq!(store.gc([key].iter()).unwrap().removed, 1);
        assert!(!foreign.exists());
        assert_eq!(store.gc([key].iter()).unwrap().removed, 0);
    }

    #[test]
    fn counts_traffic_and_persists_cumulative_stats() {
        let dir = TestDir::new("sweep-store-stats");
        let store = ResultStore::open(dir.path()).unwrap();
        let key = crate::key::JobKey(21);
        assert!(store.get(&key).is_none());
        store
            .put(&key, "{}", &JobOutcome::Failed("x".into()))
            .unwrap();
        assert!(store.get(&key).is_some());
        store.gc([key].iter()).unwrap();
        assert_eq!(
            store.stats(),
            StoreStats {
                hits: 1,
                misses: 1,
                puts: 1,
                gc_kept: 1,
                gc_removed: 0
            }
        );
        assert!((store.stats().hit_rate() - 0.5).abs() < 1e-12);

        // Flush drains the in-memory counters into the sidecar...
        let total = store.flush_stats().unwrap();
        assert_eq!(total.hits, 1);
        assert_eq!(store.stats(), StoreStats::default());
        // ...a second flush adds nothing...
        assert_eq!(store.flush_stats().unwrap(), total);
        // ...and a fresh handle accumulates on top of the persisted totals.
        let reopened = ResultStore::open(dir.path()).unwrap();
        assert!(reopened.get(&key).is_some());
        let cumulative = reopened.flush_stats().unwrap();
        assert_eq!(cumulative.hits, 2);
        assert_eq!(cumulative.puts, 1);
        assert_eq!(reopened.read_stats(), cumulative);
        // The sidecar lives outside the object tree and is not a record.
        assert_eq!(reopened.len(), 1);
    }

    #[test]
    fn outcome_json_round_trips_canonically() {
        let spec = ScenarioSpec::new(
            "store-codec",
            TopologySpec::grid(2, 2, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(2)),
        )
        .horizon(SimTime::from_millis(20))
        .seed(5);
        let outcome = JobOutcome::Completed(Box::new(run_scenario(&spec)));
        let text = outcome_to_json(&outcome);
        // Canonical form: parsing and re-rendering is the identity.
        assert_eq!(json::canonical(&json::parse(&text).unwrap()), text);
        // Round trip preserves the outcome, so re-encoding reproduces the
        // exact bytes — the daemon's byte-identical-response guarantee.
        let back = outcome_from_json(&text).unwrap();
        assert_eq!(outcome_to_json(&back), text);
        let failed = JobOutcome::Failed("no compute sleds".into());
        let failed_text = outcome_to_json(&failed);
        match outcome_from_json(&failed_text).unwrap() {
            JobOutcome::Failed(msg) => assert_eq!(msg, "no compute sleds"),
            _ => panic!("expected a failed outcome"),
        }
        assert!(outcome_from_json("{ not json").is_none());
    }

    #[test]
    fn concurrent_writers_to_the_same_key_leave_one_clean_record() {
        // The temp-file writer path under contention: many threads racing
        // to persist the same key (the daemon's worst case before
        // single-flight dedup, and the daemon+CLI overlap case after).
        // Every interleaving of write/rename pairs must end with exactly
        // one readable record and zero temp droppings.
        let dir = TestDir::new("sweep-store-contend");
        let store = ResultStore::open(dir.path()).unwrap();
        let key = crate::key::JobKey(0xABCD);
        let threads: Vec<_> = (0..8)
            .map(|w| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let outcome = JobOutcome::Failed(format!("writer {w} pass {i}"));
                        store.put(&key, "{}", &outcome).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 1, "all writers converge on one record");
        assert!(store.get(&key).is_some(), "the survivor parses cleanly");
        let shard = dir.join("objects").join(&key.hex()[..2]);
        let leftovers: Vec<_> = std::fs::read_dir(&shard)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "no temp files survive the race");
    }

    #[test]
    fn concurrent_stats_flushes_from_two_handles_lose_no_counts() {
        // Two handles on one directory (the daemon + CLI sharing gap):
        // without the advisory lock the sidecar's read-modify-write could
        // interleave and drop counts; with it the totals always add up.
        let dir = TestDir::new("sweep-store-stats-race");
        let handles: Vec<ResultStore> = (0..4)
            .map(|_| ResultStore::open(dir.path()).unwrap())
            .collect();
        let threads: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(w, store)| {
                std::thread::spawn(move || {
                    for i in 0..10u64 {
                        let key = crate::key::JobKey((w as u128) << 64 | i as u128);
                        store
                            .put(&key, "{}", &JobOutcome::Failed("x".into()))
                            .unwrap();
                        store.flush_stats().unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let store = ResultStore::open(dir.path()).unwrap();
        assert_eq!(
            store.read_stats().puts,
            40,
            "every handle's puts survive concurrent flushes"
        );
    }

    #[test]
    fn caches_failures_and_survives_corruption() {
        let dir = TestDir::new("sweep-store-failure");
        let store = ResultStore::open(dir.path()).unwrap();
        let key = crate::key::JobKey(7);
        let failed = JobOutcome::Failed("boom: no compute sleds".into());
        store.put(&key, "{}", &failed).unwrap();
        match store.get(&key).unwrap() {
            JobOutcome::Failed(msg) => assert_eq!(msg, "boom: no compute sleds"),
            _ => panic!("expected a failed outcome"),
        }
        // Corrupt the record: the store treats it as a miss.
        let path = store.object_path(&key);
        std::fs::write(&path, "{ not json").unwrap();
        assert!(store.get(&key).is_none());
    }
}
