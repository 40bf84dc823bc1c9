//! Power-capped operation: a lightly loaded rack whose Closed Ring Control
//! runs the power-cap policy, shedding idle lanes so the interconnect stays
//! within its budget, compared with a latency-only policy that keeps every
//! lane hot.
//!
//! ```sh
//! cargo run --release --example power_capped_rack
//! ```

use rackfabric::prelude::*;
use rackfabric_sim::prelude::*;
use rackfabric_sim::units::Power;
use rackfabric_workload::{ArrivalProcess, UniformWorkload, Workload};

fn run_with_policy(policy: CrcPolicy, label: &str) {
    let spec = TopologySpec::grid(4, 4, 4);
    let flows = UniformWorkload {
        nodes: 16,
        flows: 60,
        size: Bytes::from_kib(32),
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_micros(20),
            start: SimTime::ZERO,
        },
    }
    .generate(&mut DetRng::new(3));

    let mut config = FabricConfig::adaptive(spec);
    config.crc.policy = policy;
    config.crc.epoch = SimDuration::from_micros(50);
    config.stop_when_done = false; // keep sampling power after the flows drain
    config.sim = SimConfig::with_seed(3).horizon(SimTime::from_millis(5));
    let fabric = run_fabric(config, flows);
    let s = fabric.metrics.summary();

    println!("--- {label} ---");
    println!("  mean power   : {:.1} W", s.mean_power_w);
    println!("  peak power   : {:.1} W", s.max_power_w);
    println!("  p99 latency  : {:.2} us", s.packet_latency.p99 / 1e6);
    println!("  PLP commands : {}", s.plp_commands);
    println!("  flows done   : {}", s.completed_flows);
}

fn main() {
    println!("lightly loaded 4x4 rack, 4 lanes per link\n");
    run_with_policy(
        CrcPolicy::LatencyMinimize,
        "latency-only policy (lanes always hot)",
    );
    run_with_policy(
        CrcPolicy::PowerCap {
            budget: Power::from_kilowatts(1),
        },
        "power-cap policy (1 kW interconnect budget)",
    );
    println!("\nThe power-cap policy sheds idle lanes (PLP #1/#3) at a small latency cost.");
}
