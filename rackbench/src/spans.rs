//! Spans the benchmark records around its own calls into each layer. They
//! stay in memory (in the obs crate's bounded `TraceSink`) and are written
//! as one Chrome trace when the process ends.

use rackfabric_obs::trace::{ArgValue, TraceEvent, TraceSink};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// First trace lane of the benchmark's own threads, clear of the lanes the
/// program's subsystems use (0..4000, see the lane table in the obs crate).
const BENCH_LANE_BASE: u64 = 4000;

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: u64 = BENCH_LANE_BASE + NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A span recorder; `Spans::off()` records nothing.
#[derive(Clone, Default)]
pub struct Spans {
    sink: Option<Arc<TraceSink>>,
}

/// An open span, closed by [`Spans::exit`].
pub struct Open {
    name: &'static str,
    id: u64,
    start: u64,
    parent: Option<&'static str>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans { sink: None }
    }

    pub fn on(sink: Arc<TraceSink>) -> Spans {
        Spans { sink: Some(sink) }
    }

    /// Opens span `name`; spans of one job or request pass the same `id`.
    pub fn enter(&self, name: &'static str, id: u64) -> Option<Open> {
        let sink = self.sink.as_ref()?;
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last().copied();
            stack.push(name);
            parent
        });
        Some(Open {
            name,
            id,
            start: sink.now_nanos(),
            parent,
        })
    }

    pub fn exit(&self, open: Option<Open>) {
        let (Some(sink), Some(open)) = (self.sink.as_ref(), open) else {
            return;
        };
        STACK.with(|s| s.borrow_mut().pop());
        let end = sink.now_nanos();
        let mut args = vec![("id", ArgValue::U64(open.id))];
        if let Some(parent) = open.parent {
            args.push(("parent", ArgValue::Str(parent.to_string())));
        }
        sink.record(TraceEvent {
            name: open.name,
            cat: "bench",
            phase: 'X',
            ts_nanos: open.start,
            dur_nanos: end.saturating_sub(open.start),
            lane: LANE.with(|l| *l),
            args,
        });
    }
}
