//! Workload generators.
//!
//! Each generator produces a list of [`Flow`]s. The MapReduce shuffle is the
//! paper's motivating example: every mapper sends a partition to every
//! reducer and the job only finishes when the *last* flow finishes, so a
//! single slow link drags the whole rack down.

use crate::flow::{ArrivalProcess, Flow, WorkloadFlowId};
use rackfabric_sim::rng::DetRng;
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::Bytes;
use rackfabric_topo::NodeId;
use serde::{Deserialize, Serialize};

/// Common interface of all generators.
pub trait Workload {
    /// Generates the flows of this workload.
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow>;
    /// A short name used in experiment output.
    fn name(&self) -> &'static str;
}

fn make_flows(
    pairs: Vec<(NodeId, NodeId)>,
    size: Bytes,
    arrivals: &ArrivalProcess,
    rng: &mut DetRng,
) -> Vec<Flow> {
    let times = arrivals.arrivals(pairs.len(), rng);
    pairs
        .into_iter()
        .zip(times)
        .enumerate()
        .map(|(i, ((src, dst), start_at))| Flow {
            id: WorkloadFlowId(i as u64),
            src,
            dst,
            size,
            start_at,
        })
        .collect()
}

/// The paper's motivating workload: `mappers x reducers` all-to-all transfer
/// starting simultaneously (the shuffle barrier).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReduceShuffle {
    /// Nodes acting as mappers (senders).
    pub mappers: Vec<NodeId>,
    /// Nodes acting as reducers (receivers).
    pub reducers: Vec<NodeId>,
    /// Bytes each mapper sends to each reducer.
    pub partition_size: Bytes,
    /// When the shuffle starts.
    pub start: SimTime,
}

impl MapReduceShuffle {
    /// An all-nodes shuffle over `nodes` sleds with equal partitions.
    pub fn all_to_all(nodes: usize, partition_size: Bytes) -> Self {
        let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
        MapReduceShuffle {
            mappers: ids.clone(),
            reducers: ids,
            partition_size,
            start: SimTime::ZERO,
        }
    }
}

impl Workload for MapReduceShuffle {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        let pairs: Vec<(NodeId, NodeId)> = self
            .mappers
            .iter()
            .flat_map(|&m| self.reducers.iter().map(move |&r| (m, r)))
            .filter(|(m, r)| m != r)
            .collect();
        make_flows(
            pairs,
            self.partition_size,
            &ArrivalProcess::AllAtOnce(self.start),
            rng,
        )
    }
    fn name(&self) -> &'static str {
        "mapreduce_shuffle"
    }
}

/// Many senders converging on one receiver at the same instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncastWorkload {
    /// The receiving node.
    pub sink: NodeId,
    /// The sending nodes.
    pub senders: Vec<NodeId>,
    /// Bytes each sender contributes.
    pub request_size: Bytes,
    /// When the incast fires.
    pub start: SimTime,
}

impl Workload for IncastWorkload {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        let pairs: Vec<(NodeId, NodeId)> = self
            .senders
            .iter()
            .filter(|&&s| s != self.sink)
            .map(|&s| (s, self.sink))
            .collect();
        make_flows(
            pairs,
            self.request_size,
            &ArrivalProcess::AllAtOnce(self.start),
            rng,
        )
    }
    fn name(&self) -> &'static str {
        "incast"
    }
}

/// A random permutation: each node sends one flow to a distinct node (no
/// fixed points), the classic stress test for oblivious routing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PermutationWorkload {
    /// Number of nodes.
    pub nodes: usize,
    /// Bytes per flow.
    pub size: Bytes,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl Workload for PermutationWorkload {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        let perm = rng.permutation_no_fixpoint(self.nodes);
        let pairs: Vec<(NodeId, NodeId)> = perm
            .iter()
            .enumerate()
            .map(|(src, &dst)| (NodeId(src as u32), NodeId(dst as u32)))
            .collect();
        make_flows(pairs, self.size, &self.arrivals, rng)
    }
    fn name(&self) -> &'static str {
        "permutation"
    }
}

/// Uniform random source/destination pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UniformWorkload {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of flows to generate.
    pub flows: usize,
    /// Bytes per flow.
    pub size: Bytes,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl Workload for UniformWorkload {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        let mut pairs = Vec::with_capacity(self.flows);
        for _ in 0..self.flows {
            let src = rng.index(self.nodes);
            let mut dst = rng.index(self.nodes);
            while dst == src && self.nodes > 1 {
                dst = rng.index(self.nodes);
            }
            pairs.push((NodeId(src as u32), NodeId(dst as u32)));
        }
        make_flows(pairs, self.size, &self.arrivals, rng)
    }
    fn name(&self) -> &'static str {
        "uniform"
    }
}

/// Zipf-skewed destination selection: a small set of sleds (e.g. a popular
/// in-memory store) receives most of the traffic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotspotWorkload {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of flows to generate.
    pub flows: usize,
    /// Zipf exponent (0 = uniform; 1–2 = strongly skewed).
    pub zipf_exponent: f64,
    /// Bytes per flow.
    pub size: Bytes,
    /// Arrival process.
    pub arrivals: ArrivalProcess,
}

impl Workload for HotspotWorkload {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        let mut pairs = Vec::with_capacity(self.flows);
        for _ in 0..self.flows {
            let dst = rng.zipf(self.nodes, self.zipf_exponent);
            let mut src = rng.index(self.nodes);
            while src == dst && self.nodes > 1 {
                src = rng.index(self.nodes);
            }
            pairs.push((NodeId(src as u32), NodeId(dst as u32)));
        }
        make_flows(pairs, self.size, &self.arrivals, rng)
    }
    fn name(&self) -> &'static str {
        "hotspot"
    }
}

/// Disaggregated-storage traffic: compute sleds issue reads (storage → compute)
/// and writes (compute → storage) against NVMe sleds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageWorkload {
    /// Compute sleds.
    pub compute_nodes: Vec<NodeId>,
    /// Storage sleds.
    pub storage_nodes: Vec<NodeId>,
    /// Number of I/O operations to generate.
    pub operations: usize,
    /// Fraction of operations that are reads.
    pub read_fraction: f64,
    /// Size of one I/O.
    pub io_size: Bytes,
    /// Arrival process of the I/Os.
    pub arrivals: ArrivalProcess,
}

impl Workload for StorageWorkload {
    fn generate(&self, rng: &mut DetRng) -> Vec<Flow> {
        assert!(!self.compute_nodes.is_empty() && !self.storage_nodes.is_empty());
        let mut pairs = Vec::with_capacity(self.operations);
        for _ in 0..self.operations {
            let compute = self.compute_nodes[rng.index(self.compute_nodes.len())];
            let storage = self.storage_nodes[rng.index(self.storage_nodes.len())];
            if rng.chance(self.read_fraction) {
                pairs.push((storage, compute)); // read: data flows storage -> compute
            } else {
                pairs.push((compute, storage)); // write
            }
        }
        make_flows(pairs, self.io_size, &self.arrivals, rng)
    }
    fn name(&self) -> &'static str {
        "storage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_sim::time::SimDuration;

    #[test]
    fn shuffle_generates_n_times_n_minus_one_flows() {
        let w = MapReduceShuffle::all_to_all(8, Bytes::from_kib(256));
        let mut rng = DetRng::new(1);
        let flows = w.generate(&mut rng);
        assert_eq!(flows.len(), 8 * 7);
        assert!(flows.iter().all(|f| f.src != f.dst));
        assert!(flows.iter().all(|f| f.size == Bytes::from_kib(256)));
        assert!(flows.iter().all(|f| f.start_at == SimTime::ZERO));
        // Every ordered pair appears exactly once.
        let mut pairs: Vec<(u32, u32)> = flows
            .iter()
            .map(|f| (f.src.as_u32(), f.dst.as_u32()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 56);
    }

    #[test]
    fn incast_converges_on_the_sink() {
        let w = IncastWorkload {
            sink: NodeId(0),
            senders: (0..16u32).map(NodeId).collect(),
            request_size: Bytes::from_kib(32),
            start: SimTime::from_micros(10),
        };
        let flows = w.generate(&mut DetRng::new(2));
        assert_eq!(flows.len(), 15, "the sink does not send to itself");
        assert!(flows.iter().all(|f| f.dst == NodeId(0)));
        assert!(flows.iter().all(|f| f.start_at == SimTime::from_micros(10)));
    }

    #[test]
    fn permutation_has_unique_destinations_and_no_self_flows() {
        let w = PermutationWorkload {
            nodes: 32,
            size: Bytes::from_mib(1),
            arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
        };
        let flows = w.generate(&mut DetRng::new(3));
        assert_eq!(flows.len(), 32);
        assert!(flows.iter().all(|f| f.src != f.dst));
        let mut dsts: Vec<u32> = flows.iter().map(|f| f.dst.as_u32()).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), 32, "each node receives exactly one flow");
    }

    #[test]
    fn uniform_avoids_self_flows() {
        let w = UniformWorkload {
            nodes: 16,
            flows: 500,
            size: Bytes::new(1500),
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_micros(1),
                start: SimTime::ZERO,
            },
        };
        let flows = w.generate(&mut DetRng::new(4));
        assert_eq!(flows.len(), 500);
        assert!(flows.iter().all(|f| f.src != f.dst));
        assert!(flows
            .iter()
            .all(|f| f.src.index() < 16 && f.dst.index() < 16));
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let w = HotspotWorkload {
            nodes: 16,
            flows: 2000,
            zipf_exponent: 1.5,
            size: Bytes::new(1500),
            arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
        };
        let flows = w.generate(&mut DetRng::new(5));
        let mut counts = [0u32; 16];
        for f in &flows {
            counts[f.dst.index()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 4 * min.max(1),
            "hotspot must be strongly skewed (max {max}, min {min})"
        );
    }

    #[test]
    fn storage_reads_flow_from_storage_to_compute() {
        let w = StorageWorkload {
            compute_nodes: (0..8u32).map(NodeId).collect(),
            storage_nodes: (8..12u32).map(NodeId).collect(),
            operations: 1000,
            read_fraction: 1.0,
            io_size: Bytes::from_kib(128),
            arrivals: ArrivalProcess::AllAtOnce(SimTime::ZERO),
        };
        let flows = w.generate(&mut DetRng::new(6));
        assert!(flows
            .iter()
            .all(|f| f.src.index() >= 8 && f.dst.index() < 8));
        let w2 = StorageWorkload {
            read_fraction: 0.0,
            ..w
        };
        let flows2 = w2.generate(&mut DetRng::new(6));
        assert!(flows2
            .iter()
            .all(|f| f.src.index() < 8 && f.dst.index() >= 8));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let w = UniformWorkload {
            nodes: 8,
            flows: 100,
            size: Bytes::from_kib(8),
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_micros(5),
                start: SimTime::ZERO,
            },
        };
        let a = w.generate(&mut DetRng::new(9));
        let b = w.generate(&mut DetRng::new(9));
        let c = w.generate(&mut DetRng::new(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
