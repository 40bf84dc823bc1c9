//! A bounded sink for Chrome Trace Event JSON (the format `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) load directly).
//!
//! Events are recorded with nanosecond wall-clock offsets from the sink's
//! creation and rendered as microsecond `ts`/`dur` fields, the unit the
//! format specifies. Lanes (`tid`s) are plain integers chosen by the
//! instrumented subsystem — one per worker thread, shard, or logical stage —
//! and can be labelled with [`TraceSink::name_lane`] metadata events so the
//! viewer shows "worker 0 (windows)" instead of a bare number.
//!
//! The workspace's lane allocation, so subsystems sharing one sink never
//! collide:
//!
//! | range   | owner                                            |
//! |---------|--------------------------------------------------|
//! | 0..1000 | engine shard workers                             |
//! | 1000+w  | scenario runner job workers (`JOB_LANE_BASE`)    |
//! | 2000    | sweep orchestrator (`SWEEP_LANE`)                |
//! | 3000+w  | `rackfabricd` daemon workers (`DAEMON_LANE_BASE`)|
//!
//! The sink is **bounded**: past [`TraceSink::with_capacity`]'s event cap it
//! drops new events (counting them) instead of growing without limit — a
//! long perf run stays a few tens of MB of JSON instead of eating the disk.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default event capacity: enough for ~10k windows of a 4-worker run.
pub const DEFAULT_CAPACITY: usize = 200_000;

/// One argument attached to a trace event, rendered into its `args` object.
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A string (escaped on render).
    Str(String),
}

impl ArgValue {
    fn render(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => out.push_str(&v.to_string()),
            ArgValue::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Event name (the box label in the viewer).
    pub name: &'static str,
    /// Category string (filterable in the viewer).
    pub cat: &'static str,
    /// Phase: `X` complete, `i` instant, `M` metadata.
    pub phase: char,
    /// Start offset from the sink's creation, nanoseconds.
    pub ts_nanos: u64,
    /// Duration, nanoseconds (complete events only).
    pub dur_nanos: u64,
    /// Lane (rendered as `tid`).
    pub lane: u64,
    /// Arguments, rendered into the `args` object.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The bounded trace-event sink. Cheap to record into (one mutex push);
/// intended for coarse spans — windows, jobs, store I/O — not per-packet
/// events.
#[derive(Debug)]
pub struct TraceSink {
    t0: Instant,
    events: Mutex<Vec<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_CAPACITY)
    }
}

impl TraceSink {
    /// A sink with the default event capacity.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// A sink that keeps at most `capacity` events (further events are
    /// dropped and counted, never reallocated).
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            t0: Instant::now(),
            events: Mutex::new(Vec::new()),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds elapsed since the sink was created (the `ts` clock).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records one event (dropping it when the sink is full).
    pub fn record(&self, event: TraceEvent) {
        let mut events = self.events.lock().expect("trace sink poisoned");
        if events.len() >= self.capacity {
            drop(events);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Records an instant event on `lane`.
    pub fn instant(&self, lane: u64, name: &'static str, cat: &'static str) {
        self.record(TraceEvent {
            name,
            cat,
            phase: 'i',
            ts_nanos: self.now_nanos(),
            dur_nanos: 0,
            lane,
            args: Vec::new(),
        });
    }

    /// Names `lane` in the viewer via a `thread_name` metadata event.
    pub fn name_lane(&self, lane: u64, name: impl Into<String>) {
        self.record(TraceEvent {
            name: "thread_name",
            cat: "__metadata",
            phase: 'M',
            ts_nanos: 0,
            dur_nanos: 0,
            lane,
            args: vec![("name", ArgValue::Str(name.into()))],
        });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink poisoned").len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the recorded events (tests and nesting checks).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Renders the Chrome Trace Event JSON document.
    pub fn render_json(&self) -> String {
        let events = self.events.lock().expect("trace sink poisoned");
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{}\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}.{:03}",
                event.name,
                event.cat,
                event.phase,
                event.lane,
                event.ts_nanos / 1_000,
                event.ts_nanos % 1_000,
            ));
            if event.phase == 'X' {
                out.push_str(&format!(
                    ", \"dur\": {}.{:03}",
                    event.dur_nanos / 1_000,
                    event.dur_nanos % 1_000
                ));
            }
            if !event.args.is_empty() {
                out.push_str(", \"args\": {");
                for (j, (key, value)) in event.args.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{key}\": "));
                    value.render(&mut out);
                }
                out.push('}');
            }
            out.push('}');
        }
        let dropped = self.dropped();
        out.push_str("\n], \"otherData\": {\"dropped_events\": ");
        out.push_str(&dropped.to_string());
        out.push_str("}}\n");
        out
    }

    /// Writes the rendered JSON to `path`.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_loadable_trace_json() {
        let sink = TraceSink::new();
        sink.name_lane(3, "worker 3");
        sink.instant(3, "window-edge", "windows");
        sink.record(TraceEvent {
            name: "drain",
            cat: "windows",
            phase: 'X',
            ts_nanos: 1_500,
            dur_nanos: 2_750,
            lane: 3,
            args: vec![
                ("events", ArgValue::U64(42)),
                ("label", ArgValue::Str("shard \"0\"".into())),
            ],
        });
        let json = sink.render_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ts\": 1.500, \"dur\": 2.750"));
        assert!(json.contains("\"events\": 42"));
        assert!(json.contains("shard \\\"0\\\""));
        assert!(json.ends_with("\"dropped_events\": 0}}\n"));
    }

    #[test]
    fn capacity_bounds_the_sink() {
        let sink = TraceSink::with_capacity(2);
        for _ in 0..5 {
            sink.instant(0, "tick", "t");
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        assert!(sink.render_json().contains("\"dropped_events\": 3"));
    }
}
