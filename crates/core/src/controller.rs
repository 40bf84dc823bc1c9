//! The Closed Ring Control decision engine.
//!
//! Once per control epoch the CRC receives a [`TelemetryReport`] from the
//! interconnect (the "closed ring" of feedback), prices every link, and emits
//! the [`PlpCommand`]s that move the fabric toward the policy's objective:
//!
//! * **adaptive FEC** — strengthen or relax codecs as per-lane BER drifts;
//! * **lane scaling** — power spare lanes up on congested links, shed lanes
//!   on idle ones;
//! * **power capping** — when the interconnect exceeds its budget, shed lanes
//!   on the least-utilised links until the estimate fits again;
//! * **topology escalation** — report when sustained congestion justifies a
//!   whole-fabric reconfiguration (the grid-to-torus move of Figure 2), which
//!   the fabric layer then plans via [`crate::reconfigure`].

use crate::policy::{CrcPolicy, PolicyThresholds};
use crate::price::{PriceBook, PriceNormalization};
use rackfabric_phy::adaptive_fec::AdaptiveFecController;
use rackfabric_phy::stats::TelemetryReport;
use rackfabric_phy::{PhyState, PlpCommand};
use rackfabric_sim::time::SimDuration;
use rackfabric_sim::units::Power;
use serde::{Deserialize, Serialize};

/// Configuration of the Closed Ring Control loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrcConfig {
    /// The optimisation policy.
    pub policy: CrcPolicy,
    /// Control epoch: how often telemetry is gathered and decisions made.
    pub epoch: SimDuration,
    /// Normalisation constants for the price book.
    pub normalization: PriceNormalization,
    /// Post-FEC BER target for the adaptive FEC primitive.
    pub fec_ber_target: f64,
}

impl Default for CrcConfig {
    fn default() -> Self {
        CrcConfig {
            policy: CrcPolicy::default(),
            epoch: SimDuration::from_micros(100),
            normalization: PriceNormalization::default(),
            fec_ber_target: 1e-12,
        }
    }
}

/// The decisions produced by one control epoch.
#[derive(Debug, Clone, Default)]
pub struct CrcDecision {
    /// PLP commands to apply this epoch.
    pub commands: Vec<PlpCommand>,
    /// True when sustained congestion justifies a whole-topology
    /// reconfiguration (handled by the fabric layer, not as a PLP command).
    pub escalate_topology: bool,
    /// Estimated power saving of the commands (static component), used for
    /// bookkeeping in the power-cap experiments.
    pub estimated_power_saving: Power,
}

/// The Closed Ring Control.
#[derive(Debug, Clone)]
pub struct ClosedRingControl {
    /// Static configuration.
    pub config: CrcConfig,
    thresholds: PolicyThresholds,
    fec: AdaptiveFecController,
    /// Consecutive epochs with mean utilization above the topology threshold.
    hot_epochs: u32,
}

impl ClosedRingControl {
    /// Creates a controller.
    pub fn new(config: CrcConfig) -> Self {
        ClosedRingControl {
            thresholds: config.policy.thresholds(),
            fec: AdaptiveFecController::with_target(config.fec_ber_target),
            config,
            hot_epochs: 0,
        }
    }

    /// The thresholds the active policy implies.
    pub fn thresholds(&self) -> &PolicyThresholds {
        &self.thresholds
    }

    /// Prices every link from the latest telemetry.
    pub fn price(&self, report: &TelemetryReport) -> PriceBook {
        PriceBook::from_telemetry(report, self.thresholds.weights, &self.config.normalization)
    }

    /// Evaluates one control epoch: prices links and emits PLP commands.
    pub fn decide(&mut self, report: &TelemetryReport, phy: &PhyState) -> CrcDecision {
        let mut decision = CrcDecision::default();

        // 1. Adaptive FEC (PLP #4): keep every link at its BER target with
        //    the cheapest sufficient codec.
        for id in phy.link_ids() {
            let link = phy.link(id).expect("id from link_ids");
            if !matches!(link.state, rackfabric_phy::LinkState::Up) {
                continue;
            }
            if let Some(mode) = self.fec.recommend(link) {
                decision
                    .commands
                    .push(PlpCommand::SetFec { link: id, mode });
            }
        }

        // 2. Congestion relief: power up spare lanes on hot links.
        for t in &report.links {
            if !t.up {
                continue;
            }
            let congested = t.utilization >= self.thresholds.congestion_high
                || t.congestion_score(self.config.normalization.queue_reference_bytes)
                    >= self.thresholds.congestion_high;
            if congested && t.active_lanes < t.total_lanes {
                decision.commands.push(PlpCommand::SetActiveLanes {
                    link: t.link,
                    lanes: t.total_lanes,
                });
            }
        }

        // 3. Power management: shed lanes on idle links, and if a budget is
        //    set and exceeded, keep shedding from the least utilised links
        //    until the estimated draw fits.
        if self.thresholds.power_budget.is_some() {
            for t in &report.links {
                if t.up && t.utilization <= self.thresholds.utilization_low && t.active_lanes > 1 {
                    let target = (t.active_lanes / 2).max(1);
                    decision.commands.push(PlpCommand::SetActiveLanes {
                        link: t.link,
                        lanes: target,
                    });
                    if let Some(link) = phy.link(t.link) {
                        decision.estimated_power_saving +=
                            phy.power_model
                                .lane_reduction_saving(link, t.active_lanes, target);
                    }
                }
            }
            if let Some(budget) = self.thresholds.power_budget {
                if report.total_power > budget {
                    let overshoot = report.total_power.saturating_sub(budget);
                    let mut recovered = decision.estimated_power_saving;
                    // Shed further lanes starting from the least utilised up
                    // links that were not already handled above.
                    let mut candidates: Vec<_> = report
                        .links
                        .iter()
                        .filter(|t| {
                            t.up && t.active_lanes > 1
                                && t.utilization > self.thresholds.utilization_low
                                && t.utilization < self.thresholds.congestion_high
                        })
                        .collect();
                    candidates.sort_by(|a, b| {
                        a.utilization
                            .partial_cmp(&b.utilization)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.link.cmp(&b.link))
                    });
                    for t in candidates {
                        if recovered >= overshoot {
                            break;
                        }
                        let target = (t.active_lanes / 2).max(1);
                        decision.commands.push(PlpCommand::SetActiveLanes {
                            link: t.link,
                            lanes: target,
                        });
                        if let Some(link) = phy.link(t.link) {
                            let saving =
                                phy.power_model
                                    .lane_reduction_saving(link, t.active_lanes, target);
                            recovered += saving;
                        }
                    }
                    decision.estimated_power_saving = recovered;
                }
            }
        }

        // 4. Topology escalation: sustained fabric-wide pressure means local
        //    lane tweaks are not enough and a topology change (e.g. the
        //    paper's grid -> torus) should be planned.
        if report.mean_utilization() >= self.thresholds.topology_reconfig_mean_utilization {
            self.hot_epochs += 1;
        } else {
            self.hot_epochs = 0;
        }
        decision.escalate_topology = self.hot_epochs >= 2;
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_phy::media::Media;
    use rackfabric_sim::time::SimTime;
    use rackfabric_sim::units::{BitRate, Length};
    use std::collections::HashMap;

    fn rack(n_links: usize, lanes: usize) -> PhyState {
        let mut phy = PhyState::new();
        for i in 0..n_links {
            phy.add_link(
                i as u32,
                (i + 1) as u32,
                Media::optical_fiber(),
                Length::from_m(2),
                lanes,
                BitRate::from_gbps(25),
            );
        }
        phy
    }

    fn report_with_util(phy: &PhyState, util: f64) -> TelemetryReport {
        let utilization: HashMap<_, _> = phy.link_ids().into_iter().map(|id| (id, util)).collect();
        phy.telemetry_report(
            SimTime::from_micros(100),
            &utilization,
            &HashMap::new(),
            &HashMap::new(),
        )
    }

    #[test]
    fn idle_links_are_shedded_under_a_power_policy() {
        let phy = rack(4, 4);
        let mut crc = ClosedRingControl::new(CrcConfig {
            policy: CrcPolicy::PowerCap {
                budget: Power::from_kilowatts(10),
            },
            ..Default::default()
        });
        let report = report_with_util(&phy, 0.01);
        let d = crc.decide(&report, &phy);
        let sheds = d
            .commands
            .iter()
            .filter(|c| matches!(c, PlpCommand::SetActiveLanes { lanes, .. } if *lanes < 4))
            .count();
        assert_eq!(sheds, 4, "all idle links shed lanes");
        assert!(d.estimated_power_saving > Power::ZERO);
        assert!(!d.escalate_topology);
    }

    #[test]
    fn latency_policy_does_not_shed_lanes() {
        let phy = rack(4, 4);
        let mut crc = ClosedRingControl::new(CrcConfig {
            policy: CrcPolicy::LatencyMinimize,
            ..Default::default()
        });
        let report = report_with_util(&phy, 0.01);
        let d = crc.decide(&report, &phy);
        assert!(
            d.commands
                .iter()
                .all(|c| !matches!(c, PlpCommand::SetActiveLanes { .. })),
            "latency policy keeps lanes hot: {:?}",
            d.commands
        );
    }

    #[test]
    fn congested_links_get_their_spare_lanes_back() {
        let mut phy = rack(2, 4);
        // Halve the lanes on every link first.
        let ids = phy.link_ids();
        for id in &ids {
            phy.link_mut(*id).unwrap().set_active_lanes(2).unwrap();
        }
        let mut crc = ClosedRingControl::new(CrcConfig::default());
        let report = report_with_util(&phy, 0.9);
        let d = crc.decide(&report, &phy);
        let widened = d
            .commands
            .iter()
            .filter(|c| matches!(c, PlpCommand::SetActiveLanes { lanes, .. } if *lanes == 4))
            .count();
        assert_eq!(widened, 2, "both hot links should be widened");
    }

    #[test]
    fn sustained_congestion_escalates_to_topology_reconfiguration() {
        let phy = rack(4, 2);
        let mut crc = ClosedRingControl::new(CrcConfig::default());
        let hot = report_with_util(&phy, 0.9);
        let cool = report_with_util(&phy, 0.1);
        assert!(
            !crc.decide(&hot, &phy).escalate_topology,
            "one hot epoch is not enough"
        );
        assert!(
            crc.decide(&hot, &phy).escalate_topology,
            "two consecutive hot epochs escalate"
        );
        // A cool epoch resets the streak, and a new one escalates again.
        assert!(!crc.decide(&cool, &phy).escalate_topology);
        assert!(!crc.decide(&hot, &phy).escalate_topology);
        assert!(crc.decide(&hot, &phy).escalate_topology);
    }

    #[test]
    fn power_budget_overshoot_sheds_moderately_used_links_too() {
        let phy = rack(8, 4);
        // A tiny budget that an 8-link 4-lane optical fabric certainly exceeds.
        let mut crc = ClosedRingControl::new(CrcConfig {
            policy: CrcPolicy::PowerCap {
                budget: Power::from_watts(5),
            },
            ..Default::default()
        });
        // Moderate utilization: not idle, not congested.
        let report = report_with_util(&phy, 0.4);
        let d = crc.decide(&report, &phy);
        assert!(
            d.commands
                .iter()
                .any(|c| matches!(c, PlpCommand::SetActiveLanes { .. })),
            "over budget, the CRC must shed lanes even on moderately used links"
        );
        assert!(d.estimated_power_saving > Power::ZERO);
    }

    #[test]
    fn pricing_uses_the_policy_weights() {
        let phy = rack(2, 4);
        let crc = ClosedRingControl::new(CrcConfig {
            policy: CrcPolicy::LatencyMinimize,
            ..Default::default()
        });
        let report = report_with_util(&phy, 0.5);
        let book = crc.price(&report);
        assert_eq!(book.len(), 2);
        assert_eq!(book.weights.power, 0.0);
    }
}
