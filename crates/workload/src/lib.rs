//! # rackfabric-workload
//!
//! Traffic generators for the rack-scale fabric experiments.
//!
//! The paper motivates the architecture with distributed rack-scale
//! applications — its running example is a MapReduce operation whose reducers
//! wait on every mapper, so "the slowest link pulls down the performance of
//! an entire system". This crate generates that workload and the other
//! standard rack patterns used in the evaluation:
//!
//! * [`flow`] — flow descriptors and Poisson arrival processes.
//! * [`generators`] — MapReduce shuffle (all-to-all with a barrier), incast,
//!   permutation, uniform random, Zipf hotspot, and disaggregated-storage
//!   (NVMe-style read/write) traffic.

pub mod flow;
pub mod generators;

pub use flow::{ArrivalProcess, Flow, WorkloadFlowId};
pub use generators::{
    HotspotWorkload, IncastWorkload, MapReduceShuffle, PermutationWorkload, StorageWorkload,
    UniformWorkload, Workload,
};
