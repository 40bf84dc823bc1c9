//! Per-cell aggregation of job results.
//!
//! Replicates of one cell differ only in seed; the aggregator merges their
//! full latency histograms (so tail percentiles are computed over **all**
//! packets of all replicates, not averaged per-run) and averages the scalar
//! run metrics. This mirrors how the sweep-based evaluations in PL2 and the
//! Slingshot analysis report tail latency across repeated trials.

use crate::runner::{JobOutcome, JobRecord};
use rackfabric_sim::stats::{Histogram, Summary};

/// Aggregate statistics of one matrix cell across its replicates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Cell index in matrix expansion order.
    pub cell: usize,
    /// `(axis name, value label)` pairs identifying the cell.
    pub labels: Vec<(String, String)>,
    /// Replicates attempted.
    pub runs: usize,
    /// Replicates that panicked.
    pub failed_runs: usize,
    /// Replicates whose every flow completed within the horizon.
    pub completed_runs: usize,
    /// End-to-end packet latency over all replicates' packets (picoseconds).
    pub packet_latency: Summary,
    /// Queueing delay over all replicates' packets (picoseconds).
    pub queueing_latency: Summary,
    /// Total bytes delivered across replicates.
    pub delivered_bytes: u64,
    /// Total loss events across replicates (see
    /// `RunSummary::dropped_packets`).
    pub dropped_packets: u64,
    /// Mean goodput over completed replicates (Gb/s).
    pub mean_goodput_gbps: f64,
    /// Mean job completion time over completed replicates (µs), if any
    /// replicate completed.
    pub mean_job_completion_us: Option<f64>,
    /// Mean of the replicates' mean interconnect power (W).
    pub mean_power_w: f64,
    /// Peak interconnect power seen by any replicate (W).
    pub max_power_w: f64,
    /// Total PLP commands applied across replicates.
    pub plp_commands: u64,
    /// Total whole-topology reconfigurations across replicates.
    pub topology_reconfigurations: u64,
    /// Route-cache hit rate over all replicates' lookups (deterministic).
    pub route_cache_hit_rate: f64,
    /// Total engine events processed across replicates (deterministic).
    pub events_processed: u64,
    /// Total wall-clock nanoseconds across replicates. **Not** deterministic;
    /// reported by perf harnesses, excluded from byte-stable exports.
    pub wall_nanos: u64,
}

impl CellSummary {
    /// Engine events per wall-clock second across the cell's replicates.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.events_processed as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// Groups job records by cell and reduces each group. Records arrive in
/// matrix expansion order (replicates of a cell are contiguous), so this is
/// one linear pass.
pub fn aggregate_cells(records: &[JobRecord]) -> Vec<CellSummary> {
    let mut cells = Vec::new();
    let mut i = 0;
    while i < records.len() {
        let cell_id = records[i].job.cell;
        let start = i;
        while i < records.len() && records[i].job.cell == cell_id {
            i += 1;
        }
        cells.push(reduce_cell(&records[start..i]));
    }
    cells
}

/// Reduces the replicates of one cell into its aggregate summary.
fn reduce_cell(members: &[JobRecord]) -> CellSummary {
    let mut cell = CellSummary {
        cell: members[0].job.cell,
        labels: members[0].job.labels.clone(),
        runs: members.len(),
        failed_runs: 0,
        completed_runs: 0,
        packet_latency: Summary::empty(),
        queueing_latency: Summary::empty(),
        delivered_bytes: 0,
        dropped_packets: 0,
        mean_goodput_gbps: 0.0,
        mean_job_completion_us: None,
        mean_power_w: 0.0,
        max_power_w: 0.0,
        plp_commands: 0,
        topology_reconfigurations: 0,
        route_cache_hit_rate: 0.0,
        events_processed: 0,
        wall_nanos: 0,
    };
    let mut packet_hist = Histogram::new();
    let mut queue_hist = Histogram::new();
    let mut goodput_sum = 0.0;
    let mut completion_sum = 0.0;
    let mut completion_count = 0usize;
    let mut power_sum = 0.0;
    let mut ok_runs = 0usize;
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for member in members {
        match &member.outcome {
            JobOutcome::Failed(_) => cell.failed_runs += 1,
            JobOutcome::Completed(result) => {
                ok_runs += 1;
                let s = &result.summary;
                packet_hist.merge(&result.packet_latency);
                queue_hist.merge(&result.queueing_latency);
                cell.delivered_bytes += s.delivered_bytes;
                cell.dropped_packets += s.dropped_packets;
                cell.plp_commands += s.plp_commands as u64;
                cell.topology_reconfigurations += s.topology_reconfigurations as u64;
                cache_hits += s.route_cache_hits;
                cache_misses += s.route_cache_misses;
                cell.events_processed += result.events_processed;
                cell.wall_nanos += result.wall_nanos;
                power_sum += s.mean_power_w;
                cell.max_power_w = cell.max_power_w.max(s.max_power_w);
                if result.all_flows_complete {
                    cell.completed_runs += 1;
                }
                if let Some(us) = s.job_completion_us {
                    completion_sum += us;
                    completion_count += 1;
                    goodput_sum += s.goodput_gbps();
                }
            }
        }
    }
    cell.packet_latency = packet_hist.summary();
    cell.queueing_latency = queue_hist.summary();
    cell.route_cache_hit_rate = rackfabric_topo::cache::RouteCacheStats {
        hits: cache_hits,
        misses: cache_misses,
    }
    .hit_rate();
    if ok_runs > 0 {
        cell.mean_power_w = power_sum / ok_runs as f64;
    }
    if completion_count > 0 {
        cell.mean_job_completion_us = Some(completion_sum / completion_count as f64);
        cell.mean_goodput_gbps = goodput_sum / completion_count as f64;
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Job;
    use crate::runner::JobResult;
    use crate::spec::{ScenarioSpec, WorkloadSpec};
    use rackfabric::metrics::FabricMetrics;
    use rackfabric_sim::time::{SimDuration, SimTime};
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    fn record(cell: usize, replicate: usize, latency_ns: u64, complete: bool) -> JobRecord {
        let mut metrics = FabricMetrics::default();
        metrics
            .packet_latency
            .record_duration(SimDuration::from_nanos(latency_ns));
        metrics.delivered_bytes = 1000;
        metrics.delivered_packets.incr();
        if complete {
            metrics.job_completion = Some(SimTime::from_micros(10));
        }
        let result = JobResult {
            summary: metrics.summary(),
            packet_latency: metrics.packet_latency.clone(),
            queueing_latency: metrics.queueing_latency.clone(),
            all_flows_complete: complete,
            events_processed: 10,
            wall_nanos: 1000,
        };
        JobRecord {
            job: Job {
                index: cell * 2 + replicate,
                cell,
                replicate,
                labels: vec![("cell".into(), format!("c{cell}"))],
                spec: ScenarioSpec::new(
                    "agg-unit",
                    TopologySpec::grid(2, 2, 1),
                    WorkloadSpec::shuffle(Bytes::new(100)),
                ),
            },
            outcome: JobOutcome::Completed(Box::new(result)),
        }
    }

    #[test]
    fn merges_histograms_across_replicates() {
        let records = vec![
            record(0, 0, 100, true),
            record(0, 1, 300, true),
            record(1, 0, 500, false),
        ];
        let cells = aggregate_cells(&records);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].runs, 2);
        assert_eq!(cells[0].completed_runs, 2);
        assert_eq!(cells[0].packet_latency.count, 2);
        assert!(cells[0].packet_latency.min < cells[0].packet_latency.max);
        assert_eq!(cells[0].delivered_bytes, 2000);
        assert!(cells[0].mean_job_completion_us.is_some());
        assert_eq!(cells[1].completed_runs, 0);
        assert_eq!(cells[1].mean_job_completion_us, None);
    }

    #[test]
    fn failed_runs_are_counted_but_not_merged() {
        let mut failed = record(0, 1, 100, true);
        failed.outcome = JobOutcome::Failed("boom".into());
        let records = vec![record(0, 0, 100, true), failed];
        let cells = aggregate_cells(&records);
        assert_eq!(cells[0].runs, 2);
        assert_eq!(cells[0].failed_runs, 1);
        assert_eq!(cells[0].packet_latency.count, 1);
    }
}
