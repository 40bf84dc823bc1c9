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
//! debugging and audits) and the job's outcome. A lookup decodes a record in
//! one pass over its bytes with [`json::Reader`]: `format` and `outcome` are
//! read in place, and `spec` is checked as [`json::parse`] would check it but
//! never built. Everything stored is
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
use rackfabric_sim::json::{
    self, float, obj, string, uint, CanonicalWriter, JsonError, JsonValue, Kind, Reader,
};
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
        outcome_from_record(&std::fs::read_to_string(self.object_path(key)).ok()?)
    }

    /// Persists a job outcome under its key, atomically.
    pub fn put(&self, key: &JobKey, spec_json: &str, outcome: &JobOutcome) -> io::Result<()> {
        let path = self.object_path(key);
        std::fs::create_dir_all(path.parent().expect("object paths have parents"))?;
        let mut out = format!(
            "{{\"format\": {FORMAT}, \"key\": \"{}\", \"spec\": {spec_json}, \"outcome\": ",
            key.hex()
        );
        write_record_layout(&outcome_value(outcome), &mut out);
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

/// The outcome as a JSON tree, fields in the order records list them. A
/// store record holds it in the record layout, and `rackfabricd` workers
/// answer with the tree itself; [`outcome_to_json`] writes its canonical
/// rendering without building it.
pub fn outcome_value(outcome: &JobOutcome) -> JsonValue {
    match outcome {
        JobOutcome::Failed(message) => obj([("failed", string(message))]),
        JobOutcome::Completed(result) => obj([
            (
                "all_flows_complete",
                JsonValue::Bool(result.all_flows_complete),
            ),
            ("events_processed", uint(result.events_processed)),
            ("packet_latency", histogram_value(&result.packet_latency)),
            (
                "queueing_latency",
                histogram_value(&result.queueing_latency),
            ),
            ("summary", summary_value(&result.summary)),
        ]),
    }
}

/// Renders a job outcome as **canonical** JSON (sorted keys, no
/// whitespace, one line): the canonical form of a record's `outcome` field,
/// `json::canonical(&outcome_value(outcome))`, written straight into one
/// string. Equal outcomes render to equal bytes, which is what lets a
/// service hand results over a wire and still promise byte-identical
/// answers to the batch path.
pub fn outcome_to_json(outcome: &JobOutcome) -> String {
    let mut w = CanonicalWriter::default();
    w.begin_object();
    match outcome {
        JobOutcome::Failed(message) => {
            w.key("failed").string(message);
        }
        JobOutcome::Completed(result) => {
            w.key("all_flows_complete").bool(result.all_flows_complete);
            w.key("events_processed").uint(result.events_processed);
            w.key("packet_latency");
            write_histogram(&mut w, &result.packet_latency);
            w.key("queueing_latency");
            write_histogram(&mut w, &result.queueing_latency);
            w.key("summary");
            write_summary(&mut w, &result.summary);
        }
    }
    w.end_object();
    w.finish()
}

/// Decodes a store record's text, as [`ResultStore::get`] does the file:
/// `None` unless the whole text is JSON, its `format` is the current one and
/// its `outcome` decodes. The first field of a name counts, as
/// [`JsonValue::get`] would find it; `spec` and any other field are checked
/// and passed over.
pub fn outcome_from_record(text: &str) -> Option<JobOutcome> {
    let mut reader = Reader::new(text);
    let mut format = 0;
    let mut outcome = None;
    let fields = ["format", "outcome"];
    let decoded = read_fields(&mut reader, &fields, |name, r| {
        Ok(match name {
            "format" => set(&mut format, r.value()?.as_u64()),
            _ => set(&mut outcome, read_outcome(r)?.map(Some)),
        })
    })
    .ok()?;
    reader.finish().ok()?;
    if decoded != fields.len() || format != FORMAT {
        return None;
    }
    outcome
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

/// Writes `value` in the layout store records have always used: fields in
/// tree order, `": "` after each name and `", "` between fields, arrays
/// without spaces. [`outcome_value`] lists fields in the record order, so
/// FORMAT 4's bytes stay as they were.
fn write_record_layout(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (name, field)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_string(name, out);
                out.push_str(": ");
                write_record_layout(field, out);
            }
            out.push('}');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_record_layout(item, out);
            }
            out.push(']');
        }
        scalar => json::write_canonical(scalar, out),
    }
}

fn histogram_value(h: &Histogram) -> JsonValue {
    let buckets = h
        .sparse_counts()
        .into_iter()
        .map(|(value, count)| JsonValue::Array(vec![uint(value), uint(count)]))
        .collect();
    let (min, max) = match (h.min_sample(), h.max_sample()) {
        (Some(min), Some(max)) => (uint(min), uint(max)),
        _ => (JsonValue::Null, JsonValue::Null),
    };
    obj([
        ("buckets", JsonValue::Array(buckets)),
        // u128 sums exceed what a u64 field can carry; keep the decimal text.
        ("sum", JsonValue::String(h.sample_sum().to_string())),
        ("min", min),
        ("max", max),
    ])
}

fn summary_value(s: &RunSummary) -> JsonValue {
    obj([
        ("delivered_packets", uint(s.delivered_packets)),
        ("dropped_packets", uint(s.dropped_packets)),
        ("delivered_bytes", uint(s.delivered_bytes)),
        ("packet_latency", stat_summary_value(&s.packet_latency)),
        ("queueing_latency", stat_summary_value(&s.queueing_latency)),
        ("completed_flows", uint(s.completed_flows as u64)),
        ("flow_completion_mean_us", float(s.flow_completion_mean_us)),
        ("flow_completion_max_us", float(s.flow_completion_max_us)),
        (
            "job_completion_us",
            s.job_completion_us.map_or(JsonValue::Null, float),
        ),
        ("mean_power_w", float(s.mean_power_w)),
        ("max_power_w", float(s.max_power_w)),
        ("plp_commands", uint(s.plp_commands as u64)),
        (
            "topology_reconfigurations",
            uint(s.topology_reconfigurations.into()),
        ),
        ("switching_fraction", float(s.switching_fraction)),
        ("propagation_fraction", float(s.propagation_fraction)),
        ("route_cache_hits", uint(s.route_cache_hits)),
        ("route_cache_misses", uint(s.route_cache_misses)),
        ("route_cache_hit_rate", float(s.route_cache_hit_rate)),
    ])
}

fn stat_summary_value(s: &Summary) -> JsonValue {
    obj([
        ("count", uint(s.count)),
        ("min", float(s.min)),
        ("max", float(s.max)),
        ("mean", float(s.mean)),
        ("p50", float(s.p50)),
        ("p90", float(s.p90)),
        ("p99", float(s.p99)),
        ("p999", float(s.p999)),
    ])
}

// The writers below emit the fields of the trees above in ascending key
// order, which is the canonical rendering of those trees.

fn write_histogram(w: &mut CanonicalWriter, h: &Histogram) {
    w.begin_object();
    w.key("buckets").begin_array();
    for (value, count) in h.sparse_counts() {
        w.begin_array().uint(value).uint(count).end_array();
    }
    w.end_array();
    match (h.min_sample(), h.max_sample()) {
        (Some(min), Some(max)) => w.key("max").uint(max).key("min").uint(min),
        _ => w.key("max").null().key("min").null(),
    };
    w.key("sum").string(&h.sample_sum().to_string());
    w.end_object();
}

fn write_summary(w: &mut CanonicalWriter, s: &RunSummary) {
    w.begin_object();
    w.key("completed_flows").uint(s.completed_flows as u64);
    w.key("delivered_bytes").uint(s.delivered_bytes);
    w.key("delivered_packets").uint(s.delivered_packets);
    w.key("dropped_packets").uint(s.dropped_packets);
    w.key("flow_completion_max_us")
        .float(s.flow_completion_max_us);
    w.key("flow_completion_mean_us")
        .float(s.flow_completion_mean_us);
    w.key("job_completion_us");
    match s.job_completion_us {
        Some(us) => w.float(us),
        None => w.null(),
    };
    w.key("max_power_w").float(s.max_power_w);
    w.key("mean_power_w").float(s.mean_power_w);
    w.key("packet_latency");
    write_stat_summary(w, &s.packet_latency);
    w.key("plp_commands").uint(s.plp_commands as u64);
    w.key("propagation_fraction").float(s.propagation_fraction);
    w.key("queueing_latency");
    write_stat_summary(w, &s.queueing_latency);
    w.key("route_cache_hit_rate").float(s.route_cache_hit_rate);
    w.key("route_cache_hits").uint(s.route_cache_hits);
    w.key("route_cache_misses").uint(s.route_cache_misses);
    w.key("switching_fraction").float(s.switching_fraction);
    w.key("topology_reconfigurations")
        .uint(s.topology_reconfigurations.into());
    w.end_object();
}

fn write_stat_summary(w: &mut CanonicalWriter, s: &Summary) {
    w.begin_object();
    w.key("count").uint(s.count);
    w.key("max").float(s.max);
    w.key("mean").float(s.mean);
    w.key("min").float(s.min);
    w.key("p50").float(s.p50);
    w.key("p90").float(s.p90);
    w.key("p99").float(s.p99);
    w.key("p999").float(s.p999);
    w.end_object();
}

/// A number read in place, as [`JsonValue::as_u64`] reads it; any other
/// value is passed over and reads as none. Histogram buckets, most of a
/// record, are read this way.
fn read_u64(r: &mut Reader<'_>) -> Result<Option<u64>, JsonError> {
    if r.peek()? != Kind::Number {
        r.skip()?;
        return Ok(None);
    }
    Ok(r.number()?.parse().ok())
}

/// Stores `value` in `slot` if there is one; whether there was.
fn set<T>(slot: &mut T, value: Option<T>) -> bool {
    value.map(|v| *slot = v).is_some()
}

/// Reads one object, handing `read` the first field of each name in
/// `names` (a later field of the same name is shadowed, as
/// [`JsonValue::get`] finds the first) and passing over every other field.
/// `read` reads its field's value whole and says whether it decoded it.
/// Returns how many of `names` were there and decoded; a value that is not
/// an object is passed over whole and has none.
fn read_fields<'a>(
    r: &mut Reader<'a>,
    names: &[&'static str],
    mut read: impl FnMut(&'static str, &mut Reader<'a>) -> Result<bool, JsonError>,
) -> Result<usize, JsonError> {
    if r.peek()? != Kind::Object {
        r.skip()?;
        return Ok(0);
    }
    r.begin_object()?;
    let mut seen = 0u32;
    let mut decoded = 0;
    // Records list their fields in `names` order: try the next one first.
    let mut next = 0;
    while let Some(name) = r.next_field()? {
        let index = if names.get(next).is_some_and(|n| *n == name) {
            Some(next)
        } else {
            names.iter().position(|n| *n == name)
        };
        match index {
            Some(i) if seen & 1 << i == 0 => {
                seen |= 1 << i;
                next = i + 1;
                decoded += usize::from(read(names[i], r)?);
            }
            _ => r.skip()?,
        }
    }
    Ok(decoded)
}

/// Decodes one outcome value; `Ok(None)` when it is JSON but not an
/// outcome.
fn read_outcome(r: &mut Reader<'_>) -> Result<Option<JobOutcome>, JsonError> {
    let mut result = JobResult {
        summary: RunSummary::default(),
        packet_latency: Histogram::new(),
        queueing_latency: Histogram::new(),
        all_flows_complete: false,
        events_processed: 0,
        // Wall-clock is never persisted: it is the one non-deterministic
        // field, and cache hits cost no engine time anyway.
        wall_nanos: 0,
    };
    let mut failed = None;
    let fields = [
        "all_flows_complete",
        "events_processed",
        "packet_latency",
        "queueing_latency",
        "summary",
        "failed",
    ];
    let decoded = read_fields(r, &fields, |name, r| {
        Ok(match name {
            "all_flows_complete" => set(&mut result.all_flows_complete, r.value()?.as_bool()),
            "events_processed" => set(&mut result.events_processed, read_u64(r)?),
            "packet_latency" => set(&mut result.packet_latency, read_histogram(r)?),
            "queueing_latency" => set(&mut result.queueing_latency, read_histogram(r)?),
            "summary" => set(&mut result.summary, read_summary(r)?),
            _ => {
                failed = Some(match r.value()? {
                    JsonValue::String(message) => Some(message),
                    _ => None,
                });
                false
            }
        })
    })?;
    // A `failed` field decides the outcome, whatever else the object holds.
    if let Some(message) = failed {
        return Ok(message.map(JobOutcome::Failed));
    }
    Ok((decoded == fields.len() - 1).then(|| JobOutcome::Completed(Box::new(result))))
}

fn read_histogram(r: &mut Reader<'_>) -> Result<Option<Histogram>, JsonError> {
    let mut buckets = Vec::new();
    let mut sum = 0;
    let (mut min, mut max) = (None, None);
    let fields = ["buckets", "sum", "min", "max"];
    let decoded = read_fields(r, &fields, |name, r| {
        Ok(match name {
            "buckets" => read_buckets(r, &mut buckets)?,
            "sum" => match r.value()? {
                JsonValue::String(text) => set(&mut sum, text.parse().ok()),
                _ => false,
            },
            // Present, but a bound that is not a u64 (`null` for an empty
            // histogram) is no bound.
            "min" => {
                min = r.value()?.as_u64();
                true
            }
            _ => {
                max = r.value()?.as_u64();
                true
            }
        })
    })?;
    // Counts that overflow a u64 make no histogram: the record misses.
    Ok(if decoded == fields.len() {
        Histogram::from_sparse(&buckets, sum, min, max)
    } else {
        None
    })
}

/// Reads a histogram's `[[value, count], ...]` into `out`; false when it is
/// not an array or an item does not start with two u64s. Items past a
/// pair's second are passed over, as they always were.
fn read_buckets(r: &mut Reader<'_>, out: &mut Vec<(u64, u64)>) -> Result<bool, JsonError> {
    if r.peek()? != Kind::Array {
        r.skip()?;
        return Ok(false);
    }
    r.begin_array()?;
    let mut all = true;
    while r.next_item()? {
        let mut pair = [None; 2];
        if r.peek()? == Kind::Array {
            r.begin_array()?;
            let mut at = 0;
            while r.next_item()? {
                match pair.get_mut(at) {
                    Some(slot) => *slot = read_u64(r)?,
                    None => r.skip()?,
                }
                at += 1;
            }
        } else {
            r.skip()?;
        }
        match pair {
            [Some(value), Some(count)] => out.push((value, count)),
            _ => all = false,
        }
    }
    Ok(all)
}

fn read_summary(r: &mut Reader<'_>) -> Result<Option<RunSummary>, JsonError> {
    let mut s = RunSummary::default();
    let fields = [
        "delivered_packets",
        "dropped_packets",
        "delivered_bytes",
        "packet_latency",
        "queueing_latency",
        "completed_flows",
        "flow_completion_mean_us",
        "flow_completion_max_us",
        "job_completion_us",
        "mean_power_w",
        "max_power_w",
        "plp_commands",
        "topology_reconfigurations",
        "switching_fraction",
        "propagation_fraction",
        "route_cache_hits",
        "route_cache_misses",
        "route_cache_hit_rate",
    ];
    let decoded = read_fields(r, &fields, |name, r| {
        if let "packet_latency" | "queueing_latency" = name {
            let latency = read_stat_summary(r)?;
            return Ok(match name {
                "packet_latency" => set(&mut s.packet_latency, latency),
                _ => set(&mut s.queueing_latency, latency),
            });
        }
        let v = r.value()?;
        Ok(match name {
            "delivered_packets" => set(&mut s.delivered_packets, v.as_u64()),
            "dropped_packets" => set(&mut s.dropped_packets, v.as_u64()),
            "delivered_bytes" => set(&mut s.delivered_bytes, v.as_u64()),
            "completed_flows" => set(&mut s.completed_flows, v.as_u64().map(|n| n as usize)),
            "flow_completion_mean_us" => set(&mut s.flow_completion_mean_us, v.as_f64()),
            "flow_completion_max_us" => set(&mut s.flow_completion_max_us, v.as_f64()),
            "job_completion_us" => set(
                &mut s.job_completion_us,
                match v {
                    JsonValue::Null => Some(None),
                    v => v.as_f64().map(Some),
                },
            ),
            "mean_power_w" => set(&mut s.mean_power_w, v.as_f64()),
            "max_power_w" => set(&mut s.max_power_w, v.as_f64()),
            "plp_commands" => set(&mut s.plp_commands, v.as_u64().map(|n| n as usize)),
            "topology_reconfigurations" => set(
                &mut s.topology_reconfigurations,
                v.as_u64().map(|n| n as u32),
            ),
            "switching_fraction" => set(&mut s.switching_fraction, v.as_f64()),
            "propagation_fraction" => set(&mut s.propagation_fraction, v.as_f64()),
            "route_cache_hits" => set(&mut s.route_cache_hits, v.as_u64()),
            "route_cache_misses" => set(&mut s.route_cache_misses, v.as_u64()),
            _ => set(&mut s.route_cache_hit_rate, v.as_f64()),
        })
    })?;
    Ok((decoded == fields.len()).then_some(s))
}

fn read_stat_summary(r: &mut Reader<'_>) -> Result<Option<Summary>, JsonError> {
    let mut s = Summary::default();
    let fields = ["count", "min", "max", "mean", "p50", "p90", "p99", "p999"];
    let decoded = read_fields(r, &fields, |name, r| {
        let v = r.value()?;
        Ok(match name {
            "count" => set(&mut s.count, v.as_u64()),
            "min" => set(&mut s.min, v.as_f64()),
            "max" => set(&mut s.max, v.as_f64()),
            "mean" => set(&mut s.mean, v.as_f64()),
            "p50" => set(&mut s.p50, v.as_f64()),
            "p90" => set(&mut s.p90, v.as_f64()),
            "p99" => set(&mut s.p99, v.as_f64()),
            _ => set(&mut s.p999, v.as_f64()),
        })
    })?;
    Ok((decoded == fields.len()).then_some(s))
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
        // Round trip through a record preserves the outcome, so re-encoding
        // reproduces the exact bytes — the daemon's byte-identical-response
        // guarantee.
        let record = |outcome: &str| format!("{{\"format\": {FORMAT}, \"outcome\": {outcome}}}");
        let back = outcome_from_record(&record(&text)).unwrap();
        assert_eq!(outcome_to_json(&back), text);
        let failed = JobOutcome::Failed("no compute sleds".into());
        let failed_text = outcome_to_json(&failed);
        match outcome_from_record(&record(&failed_text)).unwrap() {
            JobOutcome::Failed(msg) => assert_eq!(msg, "no compute sleds"),
            _ => panic!("expected a failed outcome"),
        }
        assert!(outcome_from_record(&record("{ not json")).is_none());
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
