//! Flows and arrival processes.

use rackfabric_sim::rng::DetRng;
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::Bytes;
use rackfabric_topo::NodeId;
use serde::{Deserialize, Serialize};

/// Identifier of a workload flow (distinct from the switch-layer `FlowId`
/// only in that this one is assigned by the generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkloadFlowId(pub u64);

/// One transfer the workload asks the fabric to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flow {
    /// Generator-assigned id.
    pub id: WorkloadFlowId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Total bytes to transfer.
    pub size: Bytes,
    /// When the flow becomes ready to send.
    pub start_at: SimTime,
}

/// When flows arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Every flow starts at the same instant (barrier workloads).
    AllAtOnce(SimTime),
    /// Poisson arrivals with the given mean inter-arrival time, starting at
    /// the given instant.
    Poisson {
        /// Mean time between consecutive flow arrivals.
        mean_interarrival: SimDuration,
        /// First arrival is at or after this instant.
        start: SimTime,
    },
}

impl ArrivalProcess {
    /// Generates the first `count` arrival instants.
    pub fn arrivals(&self, count: usize, rng: &mut DetRng) -> Vec<SimTime> {
        match *self {
            ArrivalProcess::AllAtOnce(t) => vec![t; count],
            ArrivalProcess::Poisson {
                mean_interarrival,
                start,
            } => {
                let mut t = start;
                let mean_ps = mean_interarrival.as_picos() as f64;
                (0..count)
                    .map(|_| {
                        let gap = rng.exponential(mean_ps);
                        t += SimDuration::from_picos(gap.round().max(1.0) as u64);
                        t
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_processes_have_expected_shape() {
        let mut rng = DetRng::new(4);
        let all = ArrivalProcess::AllAtOnce(SimTime::from_micros(5)).arrivals(4, &mut rng);
        assert!(all.iter().all(|&t| t == SimTime::from_micros(5)));

        let poisson = ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_micros(10),
            start: SimTime::ZERO,
        }
        .arrivals(2000, &mut rng);
        assert_eq!(poisson.len(), 2000);
        assert!(
            poisson.windows(2).all(|w| w[0] <= w[1]),
            "arrivals are ordered"
        );
        // Mean inter-arrival ~10 us.
        let total = poisson.last().unwrap().as_micros_f64();
        let mean = total / 2000.0;
        assert!(
            (8.0..12.0).contains(&mean),
            "mean inter-arrival was {mean} us"
        );
    }
}
