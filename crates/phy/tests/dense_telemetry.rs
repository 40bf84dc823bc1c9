//! The telemetry report equals its per-link definition.
//!
//! A seeded property test over random physical states: random lane counts,
//! media and codecs, links `Active`, `LowPower` or `Off` (down), bypass
//! cross-connects, and loads that leave links out. The report must be, link
//! by link, the link's own telemetry snapshot charged with its power under
//! its load, and its total power must be what [`PhyState::total_power`]
//! charges for the same throughputs. Floats are compared bit for bit.

use rackfabric_phy::fec::FecMode;
use rackfabric_phy::stats::{LinkTelemetry, TelemetryReport};
use rackfabric_phy::{LinkId, Media, PhyState, PlpCommand, PlpExecutor, PowerState};
use rackfabric_sim::time::SimTime;
use rackfabric_sim::units::{BitRate, Length};
use rackfabric_sim::DetRng;
use std::collections::HashMap;

const CASES: u64 = 128;

/// A ring of `nodes` nodes with a random number of parallel links per hop,
/// then random codecs, bypasses, lane caps and power states.
fn random_state(rng: &mut DetRng) -> PhyState {
    let mut s = PhyState::new();
    let nodes = 3 + rng.index(6) as u32;
    let mut hops: Vec<Vec<LinkId>> = Vec::new();
    for a in 0..nodes {
        let media = [
            Media::copper_dac(),
            Media::backplane(),
            Media::optical_fiber(),
        ][rng.index(3)];
        let parallel = 1 + rng.index(2);
        let ids = (0..parallel)
            .map(|_| {
                s.add_link(
                    a,
                    (a + 1) % nodes,
                    media,
                    Length::from_m(1 + rng.index(4) as u64),
                    1 + rng.index(4),
                    BitRate::from_gbps([25, 50][rng.index(2)]),
                )
            })
            .collect();
        hops.push(ids);
    }
    let exec = PlpExecutor::default();
    let ids = s.link_ids();
    for &link in &ids {
        let mode = FecMode::ALL[rng.index(FecMode::ALL.len())];
        let _ = exec.execute(&mut s, &PlpCommand::SetFec { link, mode });
    }
    // Bypasses before power changes: a link powered off afterwards purges
    // its bypass, as it does in a run.
    for node in 1..nodes {
        if rng.next_f64() < 0.5 {
            let in_link = hops[node as usize - 1][0];
            let out_link = hops[node as usize][0];
            let _ = exec.execute(
                &mut s,
                &PlpCommand::EnableBypass {
                    at_node: node,
                    in_link,
                    out_link,
                },
            );
        }
    }
    for &link in &ids {
        if rng.next_f64() < 0.3 {
            let lanes = 1 + rng.index(4);
            let _ = exec.execute(&mut s, &PlpCommand::SetActiveLanes { link, lanes });
        }
        let state = [PowerState::Active, PowerState::LowPower, PowerState::Off][rng.index(3)];
        if state != PowerState::Active || rng.next_f64() < 0.5 {
            let _ = exec.execute(&mut s, &PlpCommand::SetPower { link, state });
        }
    }
    s
}

/// Per-link loads, each map leaving out a random share of the links.
type Loads = (
    HashMap<LinkId, f64>,
    HashMap<LinkId, f64>,
    HashMap<LinkId, BitRate>,
);

fn random_loads(s: &PhyState, rng: &mut DetRng) -> Loads {
    let (mut util, mut queue, mut tput) = (HashMap::new(), HashMap::new(), HashMap::new());
    for id in s.link_ids() {
        if rng.next_f64() < 0.6 {
            util.insert(id, 1.5 * rng.next_f64());
        }
        if rng.next_f64() < 0.6 {
            queue.insert(id, 65_536.0 * rng.next_f64());
        }
        if rng.next_f64() < 0.6 {
            tput.insert(id, BitRate::from_bps(rng.range_u64(0..100_000_000_000)));
        }
    }
    (util, queue, tput)
}

/// The report as it is defined: each link's snapshot charged with its power
/// under its throughput (absent entries idle), and the total that
/// [`PhyState::total_power`] charges.
fn report_by_definition(s: &PhyState, at: SimTime, (util, queue, tput): &Loads) -> TelemetryReport {
    let mut report = TelemetryReport::new(at);
    for id in s.link_ids() {
        let link = s.link(id).expect("id from link_ids");
        let throughput = tput.get(&id).copied().unwrap_or(BitRate::ZERO);
        let power = s
            .power_model
            .link_power(link, throughput, s.power_state(id));
        report.links.push(link.telemetry(
            at,
            util.get(&id).copied().unwrap_or(0.0),
            queue.get(&id).copied().unwrap_or(0.0),
            power,
        ));
    }
    report.total_power = s.total_power(tput);
    report.active_bypasses = s.bypasses.len();
    report
}

/// Every field of a snapshot, floats as bits.
fn bits(t: &LinkTelemetry) -> impl PartialEq + std::fmt::Debug {
    (
        (t.link, t.at, t.active_lanes, t.total_lanes, t.capacity),
        (t.utilization.to_bits(), t.worst_pre_fec_ber.to_bits()),
        (t.post_fec_ber.to_bits(), t.fec_mode, t.latency),
        (t.queue_occupancy_bytes.to_bits(), t.power, t.up),
    )
}

#[test]
fn the_telemetry_report_equals_its_per_link_definition() {
    let (mut bypassed, mut down) = (0, 0);
    for case in 0..CASES {
        let mut rng = DetRng::new(0x7E1E_0000 + case);
        let s = random_state(&mut rng);
        let loads = random_loads(&s, &mut rng);
        let at = SimTime::from_nanos(rng.range_u64(0..1_000_000));
        let got = s.telemetry_report(at, &loads.0, &loads.1, &loads.2);
        let want = report_by_definition(&s, at, &loads);
        assert_eq!(got.at, want.at, "case {case}");
        assert_eq!(got.links.len(), want.links.len(), "case {case}");
        for (g, w) in got.links.iter().zip(&want.links) {
            assert_eq!(bits(g), bits(w), "case {case}: link {:?}", w.link);
        }
        assert_eq!(
            got.total_power, want.total_power,
            "case {case}: total power"
        );
        assert_eq!(got.active_bypasses, want.active_bypasses, "case {case}");
        bypassed += usize::from(!s.bypasses.is_empty());
        down += usize::from(got.links.iter().any(|l| !l.up));
    }
    // The generator must reach the cases the total is easy to get wrong in.
    assert!(
        bypassed > CASES as usize / 4,
        "{bypassed} cases with bypasses"
    );
    assert!(down > CASES as usize / 4, "{down} cases with down links");
}
