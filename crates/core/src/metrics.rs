//! Experiment metrics collected by the fabric simulation.

use rackfabric_sim::stats::{Counter, Histogram, Series, Summary};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_switch::packet::{LatencyBreakdown, Packet};
use rackfabric_topo::cache::RouteCacheStats;
use rackfabric_workload::WorkloadFlowId;
use serde::{Deserialize, Serialize};

/// Everything the fabric records during a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FabricMetrics {
    /// End-to-end latency of every delivered packet (picoseconds).
    pub packet_latency: Histogram,
    /// Queueing component of every delivered packet (picoseconds).
    pub queueing_latency: Histogram,
    /// Flow completion times.
    pub flow_completions: Vec<(WorkloadFlowId, SimDuration)>,
    /// Packets delivered.
    pub delivered_packets: Counter,
    /// Loss events, not packets: one per tail-drop at a port (which cuts a
    /// train's tail off, or turns the whole train away) and one per train
    /// or injection attempt a dead link stops, however many packets each
    /// cost.
    pub dropped_packets: Counter,
    /// Bytes delivered to their destination.
    pub delivered_bytes: u64,
    /// Aggregated latency breakdown over all delivered packets.
    pub breakdown: LatencyBreakdown,
    /// Interconnect power sampled every control epoch (x = microseconds,
    /// y = watts).
    pub power_series: Series,
    /// Mean link utilization sampled every control epoch.
    pub utilization_series: Series,
    /// Aggregate fabric throughput sampled every control epoch (Gb/s).
    pub throughput_series: Series,
    /// PLP commands applied, with timestamps (microseconds) and names.
    pub reconfig_events: Vec<(f64, String)>,
    /// Instant the last flow completed, if every flow finished.
    pub job_completion: Option<SimTime>,
    /// Number of whole-topology reconfigurations performed.
    pub topology_reconfigurations: u32,
    /// Route-cache lookups answered from the cache.
    pub route_cache_hits: u64,
    /// Route-cache lookups that recomputed a route.
    pub route_cache_misses: u64,
}

impl Default for FabricMetrics {
    fn default() -> Self {
        FabricMetrics {
            packet_latency: Histogram::new(),
            queueing_latency: Histogram::new(),
            flow_completions: Vec::new(),
            delivered_packets: Counter::new(),
            dropped_packets: Counter::new(),
            delivered_bytes: 0,
            breakdown: LatencyBreakdown::default(),
            power_series: Series::new("power_w"),
            utilization_series: Series::new("mean_utilization"),
            throughput_series: Series::new("throughput_gbps"),
            reconfig_events: Vec::new(),
            job_completion: None,
            topology_reconfigurations: 0,
            route_cache_hits: 0,
            route_cache_misses: 0,
        }
    }
}

impl FabricMetrics {
    /// Records the packets of a train delivered to its destination, each at
    /// its own analytic arrival instant, and returns the bytes they carried.
    #[inline(always)]
    pub(crate) fn record_delivery(&mut self, packets: &[Packet]) -> u64 {
        self.delivered_packets.add(packets.len() as u64);
        let mut bytes = 0;
        for packet in packets {
            bytes += packet.size.as_u64();
            self.packet_latency
                .record_duration(packet.latency_at(packet.arrived_at));
            self.queueing_latency
                .record_duration(packet.breakdown.queueing);
            self.breakdown.accumulate(&packet.breakdown);
        }
        self.delivered_bytes += bytes;
        bytes
    }

    /// Condenses the run into the row format printed by the experiment
    /// harness.
    pub fn summary(&self) -> RunSummary {
        let latency = self.packet_latency.summary();
        let queueing = self.queueing_latency.summary();
        let fct_max = self
            .flow_completions
            .iter()
            .map(|(_, d)| *d)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let fct_mean_us = if self.flow_completions.is_empty() {
            0.0
        } else {
            self.flow_completions
                .iter()
                .map(|(_, d)| d.as_micros_f64())
                .sum::<f64>()
                / self.flow_completions.len() as f64
        };
        RunSummary {
            delivered_packets: self.delivered_packets.get(),
            dropped_packets: self.dropped_packets.get(),
            delivered_bytes: self.delivered_bytes,
            packet_latency: latency,
            queueing_latency: queueing,
            completed_flows: self.flow_completions.len(),
            flow_completion_mean_us: fct_mean_us,
            flow_completion_max_us: fct_max.as_micros_f64(),
            job_completion_us: self.job_completion.map(|t| t.as_micros_f64()),
            mean_power_w: mean_y(&self.power_series),
            max_power_w: self.power_series.max_y().unwrap_or(0.0),
            plp_commands: self.reconfig_events.len(),
            topology_reconfigurations: self.topology_reconfigurations,
            switching_fraction: self.breakdown.switching_fraction(),
            propagation_fraction: self.breakdown.propagation_fraction(),
            route_cache_hits: self.route_cache_hits,
            route_cache_misses: self.route_cache_misses,
            route_cache_hit_rate: RouteCacheStats {
                hits: self.route_cache_hits,
                misses: self.route_cache_misses,
            }
            .hit_rate(),
        }
    }
}

fn mean_y(series: &Series) -> f64 {
    if series.is_empty() {
        0.0
    } else {
        series.points().iter().map(|&(_, y)| y).sum::<f64>() / series.len() as f64
    }
}

/// The condensed result of one fabric run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Packets delivered end to end.
    pub delivered_packets: u64,
    /// Loss events, not packets (see [`FabricMetrics::dropped_packets`]).
    pub dropped_packets: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// End-to-end packet latency statistics (picoseconds).
    pub packet_latency: Summary,
    /// Queueing-delay statistics (picoseconds).
    pub queueing_latency: Summary,
    /// Flows that finished.
    pub completed_flows: usize,
    /// Mean flow completion time in microseconds.
    pub flow_completion_mean_us: f64,
    /// Slowest flow completion time in microseconds (the shuffle barrier).
    pub flow_completion_max_us: f64,
    /// Time the whole job finished, if it did.
    pub job_completion_us: Option<f64>,
    /// Mean interconnect power over the run, in watts.
    pub mean_power_w: f64,
    /// Peak interconnect power, in watts.
    pub max_power_w: f64,
    /// PLP commands applied.
    pub plp_commands: usize,
    /// Whole-topology reconfigurations.
    pub topology_reconfigurations: u32,
    /// Fraction of delivered-packet latency spent in switching logic.
    pub switching_fraction: f64,
    /// Fraction of delivered-packet latency spent in media propagation.
    pub propagation_fraction: f64,
    /// Route-cache lookups served from the cache.
    pub route_cache_hits: u64,
    /// Route-cache lookups that recomputed a route.
    pub route_cache_misses: u64,
    /// Fraction of route lookups served from the cache (0 when none ran).
    pub route_cache_hit_rate: f64,
}

impl RunSummary {
    /// Mean goodput in Gb/s over the job duration (0 when the job never
    /// completed).
    pub fn goodput_gbps(&self) -> f64 {
        match self.job_completion_us {
            Some(us) if us > 0.0 => self.delivered_bytes as f64 * 8.0 / (us * 1e-6) / 1e9,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_summarise_to_zeroes() {
        let m = FabricMetrics::default();
        let s = m.summary();
        assert_eq!(s.delivered_packets, 0);
        assert_eq!(s.completed_flows, 0);
        assert_eq!(s.job_completion_us, None);
        assert_eq!(s.goodput_gbps(), 0.0);
        assert_eq!(s.mean_power_w, 0.0);
    }

    #[test]
    fn summary_aggregates_flow_completions() {
        let mut m = FabricMetrics::default();
        m.flow_completions
            .push((WorkloadFlowId(0), SimDuration::from_micros(10)));
        m.flow_completions
            .push((WorkloadFlowId(1), SimDuration::from_micros(30)));
        m.delivered_bytes = 1_000_000;
        m.job_completion = Some(SimTime::from_micros(40));
        m.packet_latency
            .record_duration(SimDuration::from_nanos(500));
        m.delivered_packets.add(1);
        let s = m.summary();
        assert_eq!(s.completed_flows, 2);
        assert!((s.flow_completion_mean_us - 20.0).abs() < 1e-9);
        assert!((s.flow_completion_max_us - 30.0).abs() < 1e-9);
        assert_eq!(s.job_completion_us, Some(40.0));
        // 1 MB in 40 us = 200 Gb/s.
        assert!((s.goodput_gbps() - 0.2e3).abs() < 1.0);
        assert!(s.packet_latency.count == 1);
    }

    #[test]
    fn power_series_mean_and_max() {
        let mut m = FabricMetrics::default();
        m.power_series.push(0.0, 100.0);
        m.power_series.push(1.0, 200.0);
        m.power_series.push(2.0, 300.0);
        let s = m.summary();
        assert!((s.mean_power_w - 200.0).abs() < 1e-9);
        assert!((s.max_power_w - 300.0).abs() < 1e-9);
    }
}
