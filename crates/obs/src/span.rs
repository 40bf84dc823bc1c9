//! RAII span guards: wall-clock intervals recorded as Chrome `X` (complete)
//! events when the guard drops.
//!
//! Nesting needs no explicit bookkeeping: a child guard created inside a
//! parent's lifetime drops first, so on any one lane the recorded intervals
//! nest properly by construction and Perfetto reconstructs the stack from
//! the containment. [`nesting_depth`] computes the same stacking offline —
//! the profiler tests use it to pin the invariant.

use crate::trace::{ArgValue, TraceEvent, TraceSink};
use std::sync::Arc;

/// An open span; records a complete event into its sink on drop. A disabled
/// span (from [`Span::disabled`], or an [`Observer`](crate::Observer) with
/// no sink) costs one branch on drop and reads no clock.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    sink: Arc<TraceSink>,
    lane: u64,
    name: &'static str,
    cat: &'static str,
    start_nanos: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// Opens a span on `lane` of `sink`, starting now.
    pub fn enter(sink: Arc<TraceSink>, lane: u64, name: &'static str, cat: &'static str) -> Span {
        let start_nanos = sink.now_nanos();
        Span {
            inner: Some(SpanInner {
                sink,
                lane,
                name,
                cat,
                start_nanos,
                args: Vec::new(),
            }),
        }
    }

    /// The no-op span.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// True when this span records into a sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an integer argument (no-op when disabled).
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, ArgValue::U64(value)));
        }
    }

    /// Attaches a string argument (no-op when disabled).
    pub fn arg_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, ArgValue::Str(value.into())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = inner.sink.now_nanos();
            inner.sink.record(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                phase: 'X',
                ts_nanos: inner.start_nanos,
                dur_nanos: end.saturating_sub(inner.start_nanos),
                lane: inner.lane,
                args: inner.args,
            });
        }
    }
}

/// The nesting depth of each complete (`X`) event on `lane`: how many other
/// complete events on the same lane strictly contain it. Perfetto's stacking
/// is this computation; tests use it to pin that guard drop order produces
/// well-nested (never partially overlapping) intervals.
pub fn nesting_depth(events: &[TraceEvent], lane: u64) -> Vec<(&'static str, usize)> {
    let spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.phase == 'X' && e.lane == lane)
        .collect();
    spans
        .iter()
        .map(|e| {
            let (start, end) = (e.ts_nanos, e.ts_nanos + e.dur_nanos);
            let depth = spans
                .iter()
                .filter(|other| {
                    let (os, oe) = (other.ts_nanos, other.ts_nanos + other.dur_nanos);
                    // Strict containment; ties broken by duration so a
                    // zero-width child at its parent's edge still counts.
                    (os < start && end <= oe) || (os <= start && end < oe)
                })
                .count();
            (e.name, depth)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_guard_drop_order() {
        let sink = Arc::new(TraceSink::new());
        {
            let mut outer = Span::enter(sink.clone(), 1, "outer", "test");
            outer.arg_u64("round", 1);
            {
                let _mid = Span::enter(sink.clone(), 1, "mid", "test");
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _inner = Span::enter(sink.clone(), 1, "inner", "test");
            }
            // A sibling after `mid` closed: same depth as `mid`.
            let _sibling = Span::enter(sink.clone(), 1, "sibling", "test");
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        let mut depths = nesting_depth(&events, 1);
        depths.sort();
        assert_eq!(
            depths,
            vec![("inner", 2), ("mid", 1), ("outer", 0), ("sibling", 1)]
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut span = Span::disabled();
        assert!(!span.is_enabled());
        span.arg_u64("ignored", 1);
        drop(span);
        // Nothing to assert against a sink — the guard held none.
    }
}
