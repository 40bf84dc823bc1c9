//! The shard/window profiler: where does a conservative-window run spend
//! its wall-clock time, and how evenly is the work spread over shards?
//!
//! The windowed engine fills a [`WindowProfiler`] (lock-free atomics, safe
//! to share with every worker thread) and the caller takes a plain
//! [`WindowProfile`] snapshot afterwards. Two kinds of numbers live here,
//! deliberately tagged apart (see [`TimeDomain`](crate::TimeDomain)):
//!
//! * **Wall**: per-worker barrier-wait time (the spin-barrier cost that the
//!   `BENCH_hotpath.json` worker sweep shows dominating), per-shard drain
//!   time.
//! * **Sim**: per-shard event counts, mailbox envelope counts, window
//!   length in picoseconds, events per window. These are deterministic —
//!   identical for every worker count — which is what makes the shard
//!   imbalance number trustworthy.

use crate::metrics::LogHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-shard accumulation slots.
#[derive(Debug, Default)]
struct ShardSlot {
    events: AtomicU64,
    drain_nanos: AtomicU64,
    mailbox_in: AtomicU64,
}

/// Per-worker accumulation slots.
#[derive(Debug, Default)]
struct WorkerSlot {
    barrier_wait_nanos: AtomicU64,
    barrier_waits: AtomicU64,
    early_advances: AtomicU64,
    wait_histogram: LogHistogram,
}

/// The live profiler the windowed engine records into. One instance per
/// run; every method is lock-free and callable from any worker thread.
#[derive(Debug)]
pub struct WindowProfiler {
    shards: Vec<ShardSlot>,
    /// Indexed by worker; sized to the shard count (the driver never runs
    /// more workers than shards).
    workers: Vec<WorkerSlot>,
    windows: AtomicU64,
    syncs: AtomicU64,
    window_picos: AtomicU64,
    window_len_picos: LogHistogram,
    events_per_window: LogHistogram,
}

impl WindowProfiler {
    /// A profiler for a run over `shards` shards (and at most as many
    /// workers).
    pub fn new(shards: usize) -> WindowProfiler {
        WindowProfiler {
            shards: (0..shards).map(|_| ShardSlot::default()).collect(),
            workers: (0..shards.max(1)).map(|_| WorkerSlot::default()).collect(),
            windows: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            window_picos: AtomicU64::new(0),
            window_len_picos: LogHistogram::new(),
            events_per_window: LogHistogram::new(),
        }
    }

    /// Number of shard slots.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Records `nanos` spent by `worker` inside a barrier wait.
    #[inline]
    pub fn record_barrier_wait(&self, worker: usize, nanos: u64) {
        let slot = &self.workers[worker];
        slot.barrier_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        slot.barrier_waits.fetch_add(1, Ordering::Relaxed);
        slot.wait_histogram.record(nanos);
    }

    /// Records one window's drain on `shard`: `nanos` of wall time covering
    /// `events` events.
    #[inline]
    pub fn record_drain(&self, shard: usize, nanos: u64, events: u64) {
        let slot = &self.shards[shard];
        slot.drain_nanos.fetch_add(nanos, Ordering::Relaxed);
        slot.events.fetch_add(events, Ordering::Relaxed);
    }

    /// Records envelopes routed into `shard`'s queue at a barrier.
    #[inline]
    pub fn record_mailbox_in(&self, shard: usize, envelopes: u64) {
        self.shards[shard]
            .mailbox_in
            .fetch_add(envelopes, Ordering::Relaxed);
    }

    /// Records one executed window: its sim-time length and the events it
    /// processed across all shards.
    #[inline]
    pub fn record_window(&self, len_picos: u64, events: u64) {
        self.windows.fetch_add(1, Ordering::Relaxed);
        self.window_picos.fetch_add(len_picos, Ordering::Relaxed);
        self.window_len_picos.record(len_picos);
        self.events_per_window.record(events);
    }

    /// Records one sync point.
    #[inline]
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that `worker` reached a phase edge after every peer had
    /// already sealed it — the no-wait fast path of the phase-counted
    /// window executor.
    #[inline]
    pub fn record_early_advance(&self, worker: usize) {
        self.workers[worker]
            .early_advances
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a plain snapshot of everything recorded so far.
    pub fn snapshot(&self) -> WindowProfile {
        WindowProfile {
            shards: self
                .shards
                .iter()
                .map(|s| ShardProfile {
                    events: s.events.load(Ordering::Relaxed),
                    drain_nanos: s.drain_nanos.load(Ordering::Relaxed),
                    mailbox_in: s.mailbox_in.load(Ordering::Relaxed),
                })
                .collect(),
            workers: self
                .workers
                .iter()
                .map(|w| WorkerProfile {
                    barrier_wait_nanos: w.barrier_wait_nanos.load(Ordering::Relaxed),
                    barrier_waits: w.barrier_waits.load(Ordering::Relaxed),
                    early_advances: w.early_advances.load(Ordering::Relaxed),
                    wait_histogram: HistogramSnapshot::of(&w.wait_histogram),
                })
                .collect(),
            windows: self.windows.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            window_picos: self.window_picos.load(Ordering::Relaxed),
            window_len_picos: HistogramSnapshot::of(&self.window_len_picos),
            events_per_window: HistogramSnapshot::of(&self.events_per_window),
        }
    }
}

/// A plain (cloneable, mergeable) copy of a [`LogHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`, bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Snapshots a live histogram.
    pub fn of(h: &LogHistogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.sparse(),
        }
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`: counts and sums add, bucket lists merge
    /// by bound. Exact — merging per-worker barrier-wait histograms loses
    /// nothing.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ab, ac)), Some(&&(bb, bc))) => {
                    if ab == bb {
                        merged.push((ab, ac + bc));
                        a.next();
                        b.next();
                    } else if ab < bb {
                        merged.push((ab, ac));
                        a.next();
                    } else {
                        merged.push((bb, bc));
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    merged.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    merged.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The bucket bound containing quantile `q` (same semantics as
    /// [`LogHistogram::quantile_bound`]).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bound, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return bound.min(self.max);
            }
        }
        self.max
    }
}

/// One shard's profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProfile {
    /// Events the shard processed (sim domain: deterministic).
    pub events: u64,
    /// Wall nanoseconds spent draining the shard's windows.
    pub drain_nanos: u64,
    /// Envelopes delivered into the shard at barriers (sim domain).
    pub mailbox_in: u64,
}

/// One worker's profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Wall nanoseconds spent waiting at the spin barrier.
    pub barrier_wait_nanos: u64,
    /// Barrier waits performed.
    pub barrier_waits: u64,
    /// Phase edges this worker crossed without waiting (every peer had
    /// already sealed when it arrived).
    pub early_advances: u64,
    /// Distribution of individual wait times (wall nanoseconds).
    pub wait_histogram: HistogramSnapshot,
}

/// A complete profile of one windowed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowProfile {
    /// Per-shard slots, shard order.
    pub shards: Vec<ShardProfile>,
    /// Per-worker slots, worker order (slots past the actual worker count
    /// stay zero).
    pub workers: Vec<WorkerProfile>,
    /// Windows executed.
    pub windows: u64,
    /// Sync points executed.
    pub syncs: u64,
    /// Total sim-time covered by windows, picoseconds.
    pub window_picos: u64,
    /// Distribution of window lengths (sim picoseconds).
    pub window_len_picos: HistogramSnapshot,
    /// Distribution of events per window (all shards).
    pub events_per_window: HistogramSnapshot,
}

impl WindowProfile {
    /// Total barrier-wait wall nanoseconds over all workers.
    pub fn barrier_wait_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.barrier_wait_nanos).sum()
    }

    /// Total no-wait phase-edge crossings over all workers.
    pub fn early_advances(&self) -> u64 {
        self.workers.iter().map(|w| w.early_advances).sum()
    }

    /// Per-shard event counts, shard order.
    pub fn shard_events(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events).collect()
    }

    /// The fraction of `workers × wall_nanos` spent in barrier waits — the
    /// headline "where did the speedup go" number.
    pub fn barrier_wait_fraction(&self, wall_nanos: u64, workers: usize) -> f64 {
        let budget = wall_nanos.saturating_mul(workers.max(1) as u64);
        if budget == 0 {
            0.0
        } else {
            self.barrier_wait_nanos() as f64 / budget as f64
        }
    }

    /// Shard event imbalance: max over mean of per-shard event counts
    /// (1.0 = perfectly balanced, 0.0 when no events ran). Deterministic.
    pub fn shard_event_imbalance(&self) -> f64 {
        let total: u64 = self.shards.iter().map(|s| s.events).sum();
        if total == 0 || self.shards.is_empty() {
            return 0.0;
        }
        let mean = total as f64 / self.shards.len() as f64;
        let max = self.shards.iter().map(|s| s.events).max().unwrap_or(0);
        max as f64 / mean
    }

    /// Folds another run's profile into this one (slot-wise; the profiles
    /// must have the same shard count). Used to aggregate repeated passes.
    pub fn merge(&mut self, other: &WindowProfile) {
        assert_eq!(
            self.shards.len(),
            other.shards.len(),
            "cannot merge profiles with different shard counts"
        );
        for (mine, theirs) in self.shards.iter_mut().zip(&other.shards) {
            mine.events += theirs.events;
            mine.drain_nanos += theirs.drain_nanos;
            mine.mailbox_in += theirs.mailbox_in;
        }
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerProfile::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.barrier_wait_nanos += theirs.barrier_wait_nanos;
            mine.barrier_waits += theirs.barrier_waits;
            mine.early_advances += theirs.early_advances;
            mine.wait_histogram.merge(&theirs.wait_histogram);
        }
        self.windows += other.windows;
        self.syncs += other.syncs;
        self.window_picos += other.window_picos;
        self.window_len_picos.merge(&other.window_len_picos);
        self.events_per_window.merge(&other.events_per_window);
    }

    /// Renders the profile as one JSON object (used by `perf_smoke
    /// --profile` for the `BENCH_hotpath.json` breakdown). Wall-domain
    /// fields are labelled `*_ns`; everything else is sim/count domain.
    pub fn render_json(&self, wall_nanos: u64, workers: usize) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"windows\": {}, \"syncs\": {}, \"window_sim_picos\": {}, \
             \"early_advances\": {}, \"barrier_wait_ns_total\": {}, \
             \"barrier_wait_fraction\": {:.6}, \
             \"shard_event_imbalance\": {:.6}, \"events_per_window_mean\": {:.3}, \
             \"window_len_picos_p50\": {}, \"window_len_picos_p99\": {}",
            self.windows,
            self.syncs,
            self.window_picos,
            self.early_advances(),
            self.barrier_wait_nanos(),
            self.barrier_wait_fraction(wall_nanos, workers),
            self.shard_event_imbalance(),
            self.events_per_window.mean(),
            self.window_len_picos.quantile_bound(0.50),
            self.window_len_picos.quantile_bound(0.99),
        ));
        out.push_str(", \"shards\": [");
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"shard\": {i}, \"events\": {}, \"drain_ns\": {}, \"mailbox_in\": {}}}",
                shard.events, shard.drain_nanos, shard.mailbox_in
            ));
        }
        out.push_str("], \"workers\": [");
        let mut rendered = 0;
        for (i, worker) in self.workers.iter().enumerate() {
            if worker.barrier_waits == 0
                && worker.barrier_wait_nanos == 0
                && worker.early_advances == 0
                && i >= workers
            {
                continue;
            }
            if rendered > 0 {
                out.push_str(", ");
            }
            rendered += 1;
            out.push_str(&format!(
                "{{\"worker\": {i}, \"barrier_wait_ns\": {}, \"barrier_waits\": {}, \
                 \"early_advances\": {}, \"wait_ns_p99\": {}}}",
                worker.barrier_wait_nanos,
                worker.barrier_waits,
                worker.early_advances,
                worker.wait_histogram.quantile_bound(0.99)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recordings() {
        let profiler = WindowProfiler::new(3);
        profiler.record_drain(0, 100, 7);
        profiler.record_drain(1, 50, 3);
        profiler.record_drain(0, 25, 2);
        profiler.record_mailbox_in(2, 4);
        profiler.record_barrier_wait(0, 1000);
        profiler.record_barrier_wait(1, 3000);
        profiler.record_window(2048, 10);
        profiler.record_window(1024, 2);
        profiler.record_sync();
        let profile = profiler.snapshot();
        assert_eq!(profile.shard_events(), vec![9, 3, 0]);
        assert_eq!(profile.shards[0].drain_nanos, 125);
        assert_eq!(profile.shards[2].mailbox_in, 4);
        assert_eq!(profile.barrier_wait_nanos(), 4000);
        assert_eq!(profile.windows, 2);
        assert_eq!(profile.syncs, 1);
        assert_eq!(profile.window_picos, 3072);
        assert_eq!(profile.events_per_window.count, 2);
        assert_eq!(profile.events_per_window.sum, 12);
    }

    #[test]
    fn barrier_wait_histogram_merge_is_exact() {
        let profiler = WindowProfiler::new(4);
        // Worker 0: short waits; worker 1: long waits; worker 3: idle.
        for w in [10u64, 12, 14] {
            profiler.record_barrier_wait(0, w);
        }
        for w in [1_000u64, 2_000_000] {
            profiler.record_barrier_wait(1, w);
        }
        profiler.record_barrier_wait(2, 0);
        let profile = profiler.snapshot();
        let mut merged = HistogramSnapshot::default();
        for worker in &profile.workers {
            merged.merge(&worker.wait_histogram);
        }
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, 10 + 12 + 14 + 1_000 + 2_000_000);
        assert_eq!(merged.max, 2_000_000);
        // The merged bucket counts are the exact union of the per-worker
        // buckets (including the zero bucket from worker 2).
        let total_bucket_count: u64 = merged.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total_bucket_count, 6);
        let per_worker_total: u64 = profile.workers.iter().map(|w| w.wait_histogram.count).sum();
        assert_eq!(per_worker_total, merged.count);
        assert_eq!(merged.buckets.first().unwrap(), &(0, 1));
        // Quantiles on the merged histogram bracket the true values.
        assert!(merged.quantile_bound(0.5) >= 14 && merged.quantile_bound(0.5) <= 31);
        assert_eq!(merged.quantile_bound(1.0), 2_000_000);
    }

    #[test]
    fn profile_merge_accumulates_runs() {
        let p1 = WindowProfiler::new(2);
        p1.record_drain(0, 10, 5);
        p1.record_barrier_wait(0, 100);
        p1.record_window(512, 5);
        let p2 = WindowProfiler::new(2);
        p2.record_drain(0, 20, 7);
        p2.record_drain(1, 5, 12);
        p2.record_barrier_wait(1, 50);
        p2.record_window(256, 19);
        let mut merged = p1.snapshot();
        merged.merge(&p2.snapshot());
        assert_eq!(merged.shard_events(), vec![12, 12]);
        assert_eq!(merged.barrier_wait_nanos(), 150);
        assert_eq!(merged.windows, 2);
        assert_eq!(merged.window_picos, 768);
        assert_eq!(merged.shard_event_imbalance(), 1.0);
    }

    #[test]
    fn imbalance_and_fraction_edge_cases() {
        let profile = WindowProfiler::new(4).snapshot();
        assert_eq!(profile.shard_event_imbalance(), 0.0);
        assert_eq!(profile.barrier_wait_fraction(0, 4), 0.0);
        let profiler = WindowProfiler::new(2);
        profiler.record_drain(0, 1, 30);
        profiler.record_drain(1, 1, 10);
        profiler.record_barrier_wait(0, 500);
        profiler.record_barrier_wait(1, 500);
        let profile = profiler.snapshot();
        // max/mean = 30 / 20.
        assert!((profile.shard_event_imbalance() - 1.5).abs() < 1e-12);
        // 1000 ns of waiting over 2 workers × 1000 ns of wall = 0.5.
        assert!((profile.barrier_wait_fraction(1000, 2) - 0.5).abs() < 1e-12);
        let json = profile.render_json(1000, 2);
        assert!(json.contains("\"barrier_wait_fraction\": 0.5"));
        assert!(json.contains("\"shard_event_imbalance\": 1.5"));
        assert!(json.contains("\"events\": 30"));
    }
}
