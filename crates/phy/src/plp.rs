//! Physical Layer Primitives: the command set and its executor.
//!
//! This module is the boundary the paper draws between physical-layer
//! innovation and control innovation: any reconfigurable-interconnect
//! technology (the optics of ProjecToR, the electrical circuit switching of
//! Shoal, plain lane power gating) is exposed to the Closed Ring Control as
//! the same small vocabulary of [`PlpCommand`]s, and the control plane never
//! needs to know which technology executes them.
//!
//! [`PhyState`] owns every link, lane and bypass in the rack;
//! [`PlpExecutor`] applies commands to it, validating them and reporting the
//! reconfiguration latency each one costs (the [`PlpTiming`] table). The
//! fabric layer in the `rackfabric` core crate is responsible for holding
//! traffic off a link while a command's latency elapses.

use crate::bypass::{Bypass, BypassTable};
use crate::error::PhyError;
use crate::fec::FecMode;
use crate::lane::LaneState;
use crate::link::{Link, LinkId, LinkState};
use crate::media::Media;
use crate::power::{PowerModel, PowerState};
use crate::stats::{LinkLoad, TelemetryReport};
use rackfabric_sim::time::{SimDuration, SimTime};
use rackfabric_sim::units::{BitRate, Length, Power};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A Physical Layer Primitive command, as issued by the Closed Ring Control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlpCommand {
    /// PLP #1 (link breaking): take `lanes` lanes off `link` and terminate
    /// them as a new link between `new_a` and `new_b` (the per-node circuit
    /// switches re-point the freed lanes).
    SplitLink {
        /// Link to take lanes from.
        link: LinkId,
        /// Number of lanes to move.
        lanes: usize,
        /// First endpoint of the newly created link.
        new_a: u32,
        /// Second endpoint of the newly created link.
        new_b: u32,
    },
    /// PLP #1 (bundling): move every lane of `from` into `into` and retire
    /// `from`. Both links must share endpoints and media.
    BundleLinks {
        /// Link to dissolve.
        from: LinkId,
        /// Link that absorbs the lanes.
        into: LinkId,
    },
    /// PLP #1 at finer grain: move `lanes` lanes from one existing link to
    /// another existing link (same constraint set as bundling, but partial).
    MoveLanes {
        /// Source link.
        from: LinkId,
        /// Destination link.
        to: LinkId,
        /// Number of lanes to move.
        lanes: usize,
    },
    /// Power up or down individual lanes of a link without detaching them.
    SetActiveLanes {
        /// Target link.
        link: LinkId,
        /// Number of lanes that should remain usable.
        lanes: usize,
    },
    /// PLP #3: change the power state of a whole link.
    SetPower {
        /// Target link.
        link: LinkId,
        /// Desired power state.
        state: PowerState,
    },
    /// PLP #4: change the FEC codec on a link.
    SetFec {
        /// Target link.
        link: LinkId,
        /// Desired codec.
        mode: FecMode,
    },
    /// PLP #2: install a bypass at `at_node` from `in_link` to `out_link`.
    EnableBypass {
        /// Node whose switch is skipped.
        at_node: u32,
        /// Ingress link.
        in_link: LinkId,
        /// Egress link.
        out_link: LinkId,
    },
    /// PLP #2: remove the bypass keyed by (`at_node`, `in_link`).
    DisableBypass {
        /// Node whose bypass is removed.
        at_node: u32,
        /// Ingress link of the bypass.
        in_link: LinkId,
    },
}

impl PlpCommand {
    /// A short human-readable name used in logs and experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            PlpCommand::SplitLink { .. } => "split_link",
            PlpCommand::BundleLinks { .. } => "bundle_links",
            PlpCommand::MoveLanes { .. } => "move_lanes",
            PlpCommand::SetActiveLanes { .. } => "set_active_lanes",
            PlpCommand::SetPower { .. } => "set_power",
            PlpCommand::SetFec { .. } => "set_fec",
            PlpCommand::EnableBypass { .. } => "enable_bypass",
            PlpCommand::DisableBypass { .. } => "disable_bypass",
        }
    }
}

/// Reconfiguration latencies charged per command class.
///
/// The defaults are in the range reported for electrically switched
/// rack-scale fabrics (microseconds) rather than MEMS optics (milliseconds);
/// experiments that study the break-even flow size sweep this table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlpTiming {
    /// Latency of splitting a link (circuit-switch re-point + retrain).
    pub split: SimDuration,
    /// Latency of bundling two links.
    pub bundle: SimDuration,
    /// Latency of moving lanes between existing links.
    pub move_lanes: SimDuration,
    /// Latency of powering lanes up/down within a link.
    pub set_active_lanes: SimDuration,
    /// Latency of a full power-state change (worst case: off -> active
    /// retrain).
    pub set_power: SimDuration,
    /// Latency of an FEC mode change (PCS retrain).
    pub set_fec: SimDuration,
    /// Latency of installing or removing a bypass cross-connect.
    pub bypass: SimDuration,
}

impl Default for PlpTiming {
    fn default() -> Self {
        PlpTiming {
            split: SimDuration::from_micros(20),
            bundle: SimDuration::from_micros(20),
            move_lanes: SimDuration::from_micros(15),
            set_active_lanes: SimDuration::from_micros(5),
            set_power: SimDuration::from_micros(50),
            set_fec: SimDuration::from_micros(10),
            bypass: SimDuration::from_micros(2),
        }
    }
}

impl PlpTiming {
    /// The latency charged for `command`.
    pub fn latency_of(&self, command: &PlpCommand) -> SimDuration {
        match command {
            PlpCommand::SplitLink { .. } => self.split,
            PlpCommand::BundleLinks { .. } => self.bundle,
            PlpCommand::MoveLanes { .. } => self.move_lanes,
            PlpCommand::SetActiveLanes { .. } => self.set_active_lanes,
            PlpCommand::SetPower { .. } => self.set_power,
            PlpCommand::SetFec { .. } => self.set_fec,
            PlpCommand::EnableBypass { .. } | PlpCommand::DisableBypass { .. } => self.bypass,
        }
    }

    /// A timing table scaled by `factor` (used by the break-even sweep).
    pub fn scaled(&self, factor: f64) -> PlpTiming {
        PlpTiming {
            split: self.split.mul_f64(factor),
            bundle: self.bundle.mul_f64(factor),
            move_lanes: self.move_lanes.mul_f64(factor),
            set_active_lanes: self.set_active_lanes.mul_f64(factor),
            set_power: self.set_power.mul_f64(factor),
            set_fec: self.set_fec.mul_f64(factor),
            bypass: self.bypass.mul_f64(factor),
        }
    }
}

/// Result of executing one PLP command.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlpCompletion {
    /// The command's short name.
    pub command: String,
    /// How long the reconfiguration takes before traffic may resume.
    pub duration: SimDuration,
    /// A link created by the command (only for `SplitLink`).
    pub new_link: Option<LinkId>,
    /// Links whose configuration changed.
    pub affected: Vec<LinkId>,
}

/// The complete physical state of the rack's interconnect.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhyState {
    links: HashMap<LinkId, Link>,
    /// Active bypass cross-connects.
    pub bypasses: BypassTable,
    /// Per-link power state (absent means `Active`).
    pub power_states: HashMap<LinkId, PowerState>,
    /// The power model used for telemetry.
    pub power_model: PowerModel,
    next_link_id: u64,
    next_lane_id: u64,
}

impl PhyState {
    /// Creates an empty physical state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a new link of `lanes` lanes at `lane_rate` between `a` and `b`,
    /// returning its id.
    pub fn add_link(
        &mut self,
        a: u32,
        b: u32,
        media: Media,
        length: Length,
        lanes: usize,
        lane_rate: BitRate,
    ) -> LinkId {
        let id = LinkId(self.next_link_id);
        self.next_link_id += 1;
        let link = Link::new(id, a, b, media, length, lanes, lane_rate, self.next_lane_id);
        self.next_lane_id += lanes as u64;
        self.links.insert(id, link);
        id
    }

    /// Looks up a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(&id)
    }

    /// Mutable lookup.
    pub fn link_mut(&mut self, id: LinkId) -> Option<&mut Link> {
        self.links.get_mut(&id)
    }

    /// All links, in unspecified order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.values()
    }

    /// All link ids, sorted (deterministic iteration for the control plane).
    pub fn link_ids(&self) -> Vec<LinkId> {
        let mut ids: Vec<LinkId> = self.links.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Finds an up link between `a` and `b`, if one exists.
    pub fn find_link_between(&self, a: u32, b: u32) -> Option<&Link> {
        let mut ids = self.link_ids();
        ids.retain(|id| {
            let l = &self.links[id];
            l.connects(a, b)
        });
        ids.first().map(|id| &self.links[id])
    }

    /// Effective capacity between `a` and `b`, summed across parallel links.
    pub fn capacity_between(&self, a: u32, b: u32) -> BitRate {
        self.links
            .values()
            .filter(|l| l.connects(a, b))
            .map(|l| l.capacity())
            .sum()
    }

    /// The power state of a link (`Active` when never set).
    pub fn power_state(&self, id: LinkId) -> PowerState {
        self.power_states.get(&id).copied().unwrap_or_default()
    }

    /// Total interconnect power, charging each link for `throughput` looked
    /// up in `throughput_by_link` (absent means idle) and each bypass its
    /// cross-connect cost.
    pub fn total_power(&self, throughput_by_link: &HashMap<LinkId, BitRate>) -> Power {
        let link_power: Power = self
            .links
            .values()
            .map(|l| {
                let tput = throughput_by_link
                    .get(&l.id)
                    .copied()
                    .unwrap_or(BitRate::ZERO);
                self.power_model.link_power(l, tput, self.power_state(l.id))
            })
            .sum();
        link_power + self.power_model.bypass_power(self.bypasses.len())
    }

    /// Builds the rack-wide telemetry report consumed by the CRC, reading
    /// each link's load from `load` (one call per link, in id order). Each
    /// link's power is computed once, and `total_power` is their sum plus the
    /// bypass cross-connects: what [`Self::total_power`] charges for the same
    /// throughputs.
    pub fn telemetry_report_by(
        &self,
        at: SimTime,
        load: impl Fn(LinkId) -> LinkLoad,
    ) -> TelemetryReport {
        let mut report = TelemetryReport::new(at);
        let mut link_power = Power::ZERO;
        for id in self.link_ids() {
            let link = &self.links[&id];
            let load = load(id);
            let power = self
                .power_model
                .link_power(link, load.throughput, self.power_state(id));
            link_power += power;
            report
                .links
                .push(link.telemetry(at, load.utilization, load.queue_bytes, power));
        }
        report.total_power = link_power + self.power_model.bypass_power(self.bypasses.len());
        report.active_bypasses = self.bypasses.len();
        report
    }

    /// [`Self::telemetry_report_by`] over per-link maps supplied by the
    /// switching layer (absent entries default to idle).
    pub fn telemetry_report(
        &self,
        at: SimTime,
        utilization: &HashMap<LinkId, f64>,
        queue_bytes: &HashMap<LinkId, f64>,
        throughput: &HashMap<LinkId, BitRate>,
    ) -> TelemetryReport {
        self.telemetry_report_by(at, |id| LinkLoad {
            utilization: utilization.get(&id).copied().unwrap_or(0.0),
            queue_bytes: queue_bytes.get(&id).copied().unwrap_or(0.0),
            throughput: throughput.get(&id).copied().unwrap_or(BitRate::ZERO),
        })
    }
}

/// Applies [`PlpCommand`]s to a [`PhyState`].
#[derive(Debug, Clone, Default)]
pub struct PlpExecutor {
    /// The reconfiguration-latency table.
    pub timing: PlpTiming,
}

impl PlpExecutor {
    /// Creates an executor with explicit timings.
    pub fn new(timing: PlpTiming) -> Self {
        PlpExecutor { timing }
    }

    /// Validates and applies `command` to `state`, returning the completion
    /// record (including how long traffic must be held off the affected
    /// links).
    pub fn execute(
        &self,
        state: &mut PhyState,
        command: &PlpCommand,
    ) -> Result<PlpCompletion, PhyError> {
        let duration = self.timing.latency_of(command);
        let mut completion = PlpCompletion {
            command: command.name().to_string(),
            duration,
            new_link: None,
            affected: Vec::new(),
        };
        match command {
            PlpCommand::SplitLink {
                link,
                lanes,
                new_a,
                new_b,
            } => {
                let (media, length, lane_rate) = {
                    let l = state.links.get(link).ok_or(PhyError::UnknownLink(*link))?;
                    if l.state == LinkState::Down {
                        return Err(PhyError::LinkDown(*link));
                    }
                    (
                        l.media,
                        l.length,
                        l.lanes.first().map(|x| x.rate).unwrap_or(BitRate::ZERO),
                    )
                };
                let taken = {
                    let l = state.links.get_mut(link).expect("checked above");
                    l.take_lanes(*lanes)?
                };
                let new_id = LinkId(state.next_link_id);
                state.next_link_id += 1;
                let mut new_link =
                    Link::new(new_id, *new_a, *new_b, media, length, 0, lane_rate, 0);
                new_link.lanes = taken;
                for lane in &mut new_link.lanes {
                    lane.set_state(LaneState::Up);
                }
                new_link.refresh_ber();
                state.links.insert(new_id, new_link);
                state.bypasses.purge_link(*link);
                completion.new_link = Some(new_id);
                completion.affected = vec![*link, new_id];
            }
            PlpCommand::BundleLinks { from, into } => {
                Self::check_bundle_compatible(state, *from, *into)?;
                let from_link = state.links.remove(from).expect("checked");
                let into_link = state.links.get_mut(into).expect("checked");
                into_link.add_lanes(from_link.lanes);
                state.bypasses.purge_link(*from);
                state.power_states.remove(from);
                completion.affected = vec![*from, *into];
            }
            PlpCommand::MoveLanes { from, to, lanes } => {
                Self::check_bundle_compatible(state, *from, *to)?;
                let taken = {
                    let l = state.links.get_mut(from).expect("checked");
                    l.take_lanes(*lanes)?
                };
                let to_link = state.links.get_mut(to).expect("checked");
                to_link.add_lanes(taken);
                completion.affected = vec![*from, *to];
            }
            PlpCommand::SetActiveLanes { link, lanes } => {
                let l = state
                    .links
                    .get_mut(link)
                    .ok_or(PhyError::UnknownLink(*link))?;
                l.set_active_lanes(*lanes)?;
                completion.affected = vec![*link];
            }
            PlpCommand::SetPower {
                link,
                state: pstate,
            } => {
                let l = state
                    .links
                    .get_mut(link)
                    .ok_or(PhyError::UnknownLink(*link))?;
                match pstate {
                    PowerState::Off => {
                        l.set_power(false);
                        state.bypasses.purge_link(*link);
                    }
                    PowerState::Active | PowerState::LowPower => l.set_power(true),
                }
                state.power_states.insert(*link, *pstate);
                completion.affected = vec![*link];
            }
            PlpCommand::SetFec { link, mode } => {
                let l = state
                    .links
                    .get_mut(link)
                    .ok_or(PhyError::UnknownLink(*link))?;
                if l.state == LinkState::Down {
                    return Err(PhyError::LinkDown(*link));
                }
                l.set_fec(*mode);
                completion.affected = vec![*link];
            }
            PlpCommand::EnableBypass {
                at_node,
                in_link,
                out_link,
            } => {
                let a = state
                    .links
                    .get(in_link)
                    .ok_or(PhyError::UnknownLink(*in_link))?;
                let b = state
                    .links
                    .get(out_link)
                    .ok_or(PhyError::UnknownLink(*out_link))?;
                if !a.touches(*at_node) || !b.touches(*at_node) {
                    return Err(PhyError::BypassEndpointMismatch(*in_link, *out_link));
                }
                if a.state != LinkState::Up {
                    return Err(PhyError::LinkDown(*in_link));
                }
                if b.state != LinkState::Up {
                    return Err(PhyError::LinkDown(*out_link));
                }
                state.bypasses.install(Bypass {
                    at_node: *at_node,
                    in_link: *in_link,
                    out_link: *out_link,
                    latency: Bypass::default_latency(),
                })?;
                completion.affected = vec![*in_link, *out_link];
            }
            PlpCommand::DisableBypass { at_node, in_link } => {
                state.bypasses.remove(*at_node, *in_link);
                completion.affected = vec![*in_link];
            }
        }
        Ok(completion)
    }

    fn check_bundle_compatible(state: &PhyState, from: LinkId, to: LinkId) -> Result<(), PhyError> {
        let a = state.links.get(&from).ok_or(PhyError::UnknownLink(from))?;
        let b = state.links.get(&to).ok_or(PhyError::UnknownLink(to))?;
        let same_endpoints = a.connects(b.endpoint_a, b.endpoint_b);
        let same_media = a.media.kind == b.media.kind;
        if !same_endpoints || !same_media {
            return Err(PhyError::IncompatibleBundle(from, to));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_two_parallel_links() -> (PhyState, LinkId, LinkId) {
        let mut s = PhyState::new();
        let a = s.add_link(
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let b = s.add_link(
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        (s, a, b)
    }

    #[test]
    fn add_link_assigns_unique_ids_and_lanes() {
        let (s, a, b) = state_with_two_parallel_links();
        assert_ne!(a, b);
        assert_eq!(s.link_count(), 2);
        let lane_ids: Vec<u64> = s
            .links()
            .flat_map(|l| l.lanes.iter().map(|x| x.id.0))
            .collect();
        let mut sorted = lane_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), lane_ids.len(), "lane ids must be unique");
        assert_eq!(s.capacity_between(0, 1), BitRate::from_gbps(200));
        assert!(s.find_link_between(0, 1).is_some());
        assert!(s.find_link_between(0, 2).is_none());
    }

    #[test]
    fn split_creates_a_new_link_toward_a_new_peer() {
        let (mut s, a, _) = state_with_two_parallel_links();
        let exec = PlpExecutor::default();
        let done = exec
            .execute(
                &mut s,
                &PlpCommand::SplitLink {
                    link: a,
                    lanes: 2,
                    new_a: 0,
                    new_b: 5,
                },
            )
            .unwrap();
        let new_id = done.new_link.expect("split must create a link");
        assert_eq!(done.duration, PlpTiming::default().split);
        assert_eq!(s.link(a).unwrap().total_lanes(), 2);
        let new_link = s.link(new_id).unwrap();
        assert_eq!(new_link.total_lanes(), 2);
        assert!(new_link.connects(0, 5));
        assert_eq!(new_link.raw_capacity(), BitRate::from_gbps(50));
        // Splitting more lanes than remain fails.
        assert!(exec
            .execute(
                &mut s,
                &PlpCommand::SplitLink {
                    link: a,
                    lanes: 2,
                    new_a: 0,
                    new_b: 6
                }
            )
            .is_err());
    }

    #[test]
    fn bundle_merges_parallel_links() {
        let (mut s, a, b) = state_with_two_parallel_links();
        let exec = PlpExecutor::default();
        let done = exec
            .execute(&mut s, &PlpCommand::BundleLinks { from: b, into: a })
            .unwrap();
        assert_eq!(done.affected, vec![b, a]);
        assert_eq!(s.link_count(), 1);
        assert_eq!(s.link(a).unwrap().total_lanes(), 8);
        assert_eq!(s.capacity_between(0, 1), BitRate::from_gbps(200));
        assert!(s.link(b).is_none());
    }

    #[test]
    fn bundle_rejects_incompatible_links() {
        let mut s = PhyState::new();
        let a = s.add_link(
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let c = s.add_link(
            0,
            2,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let d = s.add_link(
            0,
            1,
            Media::copper_dac(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let exec = PlpExecutor::default();
        // Different endpoints.
        assert!(matches!(
            exec.execute(&mut s, &PlpCommand::BundleLinks { from: c, into: a }),
            Err(PhyError::IncompatibleBundle(_, _))
        ));
        // Different media.
        assert!(matches!(
            exec.execute(&mut s, &PlpCommand::BundleLinks { from: d, into: a }),
            Err(PhyError::IncompatibleBundle(_, _))
        ));
    }

    #[test]
    fn move_lanes_between_parallel_links() {
        let (mut s, a, b) = state_with_two_parallel_links();
        let exec = PlpExecutor::default();
        exec.execute(
            &mut s,
            &PlpCommand::MoveLanes {
                from: a,
                to: b,
                lanes: 3,
            },
        )
        .unwrap();
        assert_eq!(s.link(a).unwrap().total_lanes(), 1);
        assert_eq!(s.link(b).unwrap().total_lanes(), 7);
    }

    #[test]
    fn set_power_and_active_lanes() {
        let (mut s, a, _) = state_with_two_parallel_links();
        let exec = PlpExecutor::default();
        exec.execute(&mut s, &PlpCommand::SetActiveLanes { link: a, lanes: 1 })
            .unwrap();
        assert_eq!(s.link(a).unwrap().raw_capacity(), BitRate::from_gbps(25));
        exec.execute(
            &mut s,
            &PlpCommand::SetPower {
                link: a,
                state: PowerState::Off,
            },
        )
        .unwrap();
        assert_eq!(s.link(a).unwrap().raw_capacity(), BitRate::ZERO);
        assert_eq!(s.power_state(a), PowerState::Off);
        exec.execute(
            &mut s,
            &PlpCommand::SetPower {
                link: a,
                state: PowerState::Active,
            },
        )
        .unwrap();
        assert_eq!(s.power_state(a), PowerState::Active);
        assert!(s.link(a).unwrap().raw_capacity() > BitRate::ZERO);
    }

    #[test]
    fn set_fec_on_unknown_or_down_link_fails() {
        let (mut s, a, _) = state_with_two_parallel_links();
        let exec = PlpExecutor::default();
        assert!(matches!(
            exec.execute(
                &mut s,
                &PlpCommand::SetFec {
                    link: LinkId(99),
                    mode: FecMode::Rs528
                }
            ),
            Err(PhyError::UnknownLink(_))
        ));
        exec.execute(
            &mut s,
            &PlpCommand::SetPower {
                link: a,
                state: PowerState::Off,
            },
        )
        .unwrap();
        assert!(matches!(
            exec.execute(
                &mut s,
                &PlpCommand::SetFec {
                    link: a,
                    mode: FecMode::Rs528
                }
            ),
            Err(PhyError::LinkDown(_))
        ));
    }

    #[test]
    fn bypass_requires_shared_node_and_up_links() {
        let mut s = PhyState::new();
        let ab = s.add_link(
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let bc = s.add_link(
            1,
            2,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let cd = s.add_link(
            2,
            3,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let exec = PlpExecutor::default();
        // ab and cd do not meet at node 1.
        assert!(matches!(
            exec.execute(
                &mut s,
                &PlpCommand::EnableBypass {
                    at_node: 1,
                    in_link: ab,
                    out_link: cd
                }
            ),
            Err(PhyError::BypassEndpointMismatch(_, _))
        ));
        // ab and bc meet at node 1: ok.
        exec.execute(
            &mut s,
            &PlpCommand::EnableBypass {
                at_node: 1,
                in_link: ab,
                out_link: bc,
            },
        )
        .unwrap();
        assert_eq!(s.bypasses.len(), 1);
        // Installing a second bypass on the same ingress fails.
        assert!(exec
            .execute(
                &mut s,
                &PlpCommand::EnableBypass {
                    at_node: 1,
                    in_link: ab,
                    out_link: bc
                }
            )
            .is_err());
        // Disable removes it.
        exec.execute(
            &mut s,
            &PlpCommand::DisableBypass {
                at_node: 1,
                in_link: ab,
            },
        )
        .unwrap();
        assert!(s.bypasses.is_empty());
    }

    #[test]
    fn powering_off_a_link_purges_its_bypasses() {
        let mut s = PhyState::new();
        let ab = s.add_link(
            0,
            1,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let bc = s.add_link(
            1,
            2,
            Media::optical_fiber(),
            Length::from_m(2),
            4,
            BitRate::from_gbps(25),
        );
        let exec = PlpExecutor::default();
        exec.execute(
            &mut s,
            &PlpCommand::EnableBypass {
                at_node: 1,
                in_link: ab,
                out_link: bc,
            },
        )
        .unwrap();
        exec.execute(
            &mut s,
            &PlpCommand::SetPower {
                link: bc,
                state: PowerState::Off,
            },
        )
        .unwrap();
        assert!(
            s.bypasses.is_empty(),
            "bypass through a dead link must be purged"
        );
    }

    #[test]
    fn telemetry_report_covers_every_link() {
        let (s, a, b) = state_with_two_parallel_links();
        let mut util = HashMap::new();
        util.insert(a, 0.9);
        let report = s.telemetry_report(
            SimTime::from_micros(7),
            &util,
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(report.links.len(), 2);
        assert_eq!(report.link(a).unwrap().utilization, 0.9);
        assert_eq!(report.link(b).unwrap().utilization, 0.0);
        assert!(report.total_power > Power::ZERO);
        assert_eq!(report.active_bypasses, 0);
    }

    #[test]
    fn total_power_includes_dynamic_and_bypass_terms() {
        let (mut s, a, b) = state_with_two_parallel_links();
        let idle = s.total_power(&HashMap::new());
        let mut tput = HashMap::new();
        tput.insert(a, BitRate::from_gbps(100));
        let busy = s.total_power(&tput);
        assert!(busy > idle);
        let exec = PlpExecutor::default();
        exec.execute(
            &mut s,
            &PlpCommand::EnableBypass {
                at_node: 0,
                in_link: a,
                out_link: b,
            },
        )
        .unwrap();
        assert!(s.total_power(&HashMap::new()) > idle);
    }

    #[test]
    fn timing_scaling_is_linear() {
        let t = PlpTiming::default();
        let slow = t.scaled(10.0);
        assert_eq!(slow.split.as_picos(), t.split.as_picos() * 10);
        assert_eq!(
            slow.latency_of(&PlpCommand::SetFec {
                link: LinkId(0),
                mode: FecMode::None
            }),
            t.set_fec.mul_f64(10.0)
        );
    }
}
