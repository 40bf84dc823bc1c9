//! Per-link price tags.
//!
//! "The Closed Ring Control uses per-link price tags, with respect to metrics
//! such as latency, congestion, link health etc. to allocate PLPs and
//! schedule flows." A [`LinkPrice`] decomposes a link's cost into those
//! components; a [`PriceBook`] holds the price of every link and doubles as
//! the cost map handed to the routing layer, which is how "both routing as
//! well as changes to the topology are subject to the tools of control
//! theory".

use rackfabric_phy::stats::{LinkTelemetry, TelemetryReport};
use rackfabric_phy::LinkId;
use rackfabric_topo::arena::LinkArena;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Relative weights of the price components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceWeights {
    /// Weight of the latency component.
    pub latency: f64,
    /// Weight of the congestion component.
    pub congestion: f64,
    /// Weight of the power component.
    pub power: f64,
    /// Weight of the health (error-rate) component.
    pub health: f64,
}

impl Default for PriceWeights {
    fn default() -> Self {
        PriceWeights {
            latency: 1.0,
            congestion: 1.0,
            power: 0.3,
            health: 2.0,
        }
    }
}

impl PriceWeights {
    /// Weights that only care about latency (used by the latency-minimising
    /// policy).
    pub fn latency_only() -> Self {
        PriceWeights {
            latency: 1.0,
            congestion: 0.5,
            power: 0.0,
            health: 1.0,
        }
    }
    /// Weights that make power expensive (used by the power-cap policy).
    pub fn power_aware() -> Self {
        PriceWeights {
            latency: 0.5,
            congestion: 0.5,
            power: 2.0,
            health: 1.0,
        }
    }
}

/// The price of one link, decomposed by component. All components are
/// normalised to roughly [0, 1] so the weights are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkPrice {
    /// Which link this price describes.
    pub link: LinkId,
    /// Normalised one-way latency (1.0 at `latency_reference_ns`).
    pub latency: f64,
    /// Congestion score in [0, 1].
    pub congestion: f64,
    /// Normalised power draw (1.0 at `power_reference_w`).
    pub power: f64,
    /// Health penalty in [0, 1]: 0 for a clean link, 1 for an unusable one.
    pub health_penalty: f64,
}

impl LinkPrice {
    /// The scalar price under `weights`.
    pub fn total(&self, weights: &PriceWeights) -> f64 {
        weights.latency * self.latency
            + weights.congestion * self.congestion
            + weights.power * self.power
            + weights.health * self.health_penalty
    }
}

/// Normalisation constants for the price components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriceNormalization {
    /// Latency that maps to a price of 1.0.
    pub latency_reference_ns: f64,
    /// Power that maps to a price of 1.0, in watts.
    pub power_reference_w: f64,
    /// Queue depth (bytes) treated as fully congested.
    pub queue_reference_bytes: f64,
    /// Post-FEC BER target used for the health score.
    pub ber_target: f64,
}

impl Default for PriceNormalization {
    fn default() -> Self {
        PriceNormalization {
            latency_reference_ns: 1_000.0,
            power_reference_w: 10.0,
            queue_reference_bytes: 64_000.0,
            ber_target: 1e-12,
        }
    }
}

/// The current price of every link.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PriceBook {
    prices: HashMap<LinkId, LinkPrice>,
    /// The weights the book was built with.
    pub weights: PriceWeights,
}

impl PriceBook {
    /// Builds a price book from a telemetry report.
    pub fn from_telemetry(
        report: &TelemetryReport,
        weights: PriceWeights,
        norm: &PriceNormalization,
    ) -> PriceBook {
        let mut prices = HashMap::new();
        for t in &report.links {
            prices.insert(t.link, Self::price_link(t, norm));
        }
        PriceBook { prices, weights }
    }

    fn price_link(t: &LinkTelemetry, norm: &PriceNormalization) -> LinkPrice {
        let latency = (t.latency.as_nanos_f64() / norm.latency_reference_ns).max(0.0);
        let congestion = t.congestion_score(norm.queue_reference_bytes);
        let power = (t.power.as_watts_f64() / norm.power_reference_w).max(0.0);
        let health_penalty = 1.0 - t.health_score(norm.ber_target);
        LinkPrice {
            link: t.link,
            latency,
            congestion,
            power,
            health_penalty,
        }
    }

    /// The price of one link, if known.
    pub fn price(&self, link: LinkId) -> Option<&LinkPrice> {
        self.prices.get(&link)
    }

    /// The routing cost of one priced link: infinite for a down link, which
    /// is therefore never routed over.
    fn cost(&self, price: &LinkPrice) -> f64 {
        if price.health_penalty >= 1.0 {
            f64::INFINITY
        } else {
            // Strictly positive so Dijkstra terminates.
            price.total(&self.weights).max(1e-6)
        }
    }

    /// The scalar cost map consumed by the routing layer: down links get an
    /// infinite cost and are therefore never routed over.
    pub fn as_cost_map(&self) -> HashMap<LinkId, f64> {
        self.prices
            .iter()
            .map(|(id, p)| (*id, self.cost(p)))
            .collect()
    }

    /// The cost map lowered onto `arena`: entry `i` is the cost of
    /// `LinkIdx(i)`, and 1.0 for a link the book has not priced — what a
    /// lookup in [`Self::as_cost_map`] with the engines' default cost of 1.0
    /// answers. The engines lower the book once per price update and once
    /// per arena rebuild, and cost-aware routing reads the vector.
    pub(crate) fn link_costs(&self, arena: &LinkArena) -> Vec<f64> {
        arena
            .iter()
            .map(|(_, id)| self.prices.get(&id).map_or(1.0, |p| self.cost(p)))
            .collect()
    }

    /// Links sorted from most to least expensive.
    pub fn most_expensive(&self) -> Vec<LinkId> {
        let mut v: Vec<(&LinkId, f64)> = self
            .prices
            .iter()
            .map(|(id, p)| (id, p.total(&self.weights)))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(b.0))
        });
        v.into_iter().map(|(id, _)| *id).collect()
    }

    /// Number of priced links.
    pub fn len(&self) -> usize {
        self.prices.len()
    }
    /// True if no links are priced.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_phy::fec::FecMode;
    use rackfabric_sim::time::{SimDuration, SimTime};
    use rackfabric_sim::units::{BitRate, Power};

    fn telemetry(link: u64, util: f64, latency_ns: u64, power_w: u64, up: bool) -> LinkTelemetry {
        LinkTelemetry {
            link: LinkId(link),
            at: SimTime::from_micros(1),
            active_lanes: 4,
            total_lanes: 4,
            capacity: BitRate::from_gbps(100),
            utilization: util,
            worst_pre_fec_ber: 1e-13,
            post_fec_ber: 1e-15,
            fec_mode: FecMode::None,
            latency: SimDuration::from_nanos(latency_ns),
            queue_occupancy_bytes: 0.0,
            power: Power::from_watts(power_w),
            up,
        }
    }

    fn report(links: Vec<LinkTelemetry>) -> TelemetryReport {
        let mut r = TelemetryReport::new(SimTime::from_micros(1));
        r.links = links;
        r
    }

    #[test]
    fn congested_links_are_priced_higher() {
        let r = report(vec![
            telemetry(0, 0.1, 200, 3, true),
            telemetry(1, 0.95, 200, 3, true),
        ]);
        let book =
            PriceBook::from_telemetry(&r, PriceWeights::default(), &PriceNormalization::default());
        assert_eq!(book.len(), 2);
        let p0 = book.price(LinkId(0)).unwrap().total(&book.weights);
        let p1 = book.price(LinkId(1)).unwrap().total(&book.weights);
        assert!(p1 > p0);
        assert_eq!(book.most_expensive()[0], LinkId(1));
    }

    #[test]
    fn down_links_are_unroutable() {
        let r = report(vec![
            telemetry(0, 0.1, 200, 3, true),
            telemetry(1, 0.1, 200, 3, false),
        ]);
        let book =
            PriceBook::from_telemetry(&r, PriceWeights::default(), &PriceNormalization::default());
        let costs = book.as_cost_map();
        assert!(costs[&LinkId(0)].is_finite());
        assert!(costs[&LinkId(1)].is_infinite());
        assert!(costs[&LinkId(0)] > 0.0, "costs must be strictly positive");
    }

    #[test]
    fn weights_change_the_ordering() {
        // Link 0: high latency, low power. Link 1: low latency, high power.
        let r = report(vec![
            telemetry(0, 0.1, 2_000, 1, true),
            telemetry(1, 0.1, 100, 20, true),
        ]);
        let latency_book = PriceBook::from_telemetry(
            &r,
            PriceWeights::latency_only(),
            &PriceNormalization::default(),
        );
        let power_book = PriceBook::from_telemetry(
            &r,
            PriceWeights::power_aware(),
            &PriceNormalization::default(),
        );
        assert_eq!(latency_book.most_expensive()[0], LinkId(0));
        assert_eq!(power_book.most_expensive()[0], LinkId(1));
    }

    #[test]
    fn empty_report_gives_empty_book() {
        let book = PriceBook::from_telemetry(
            &TelemetryReport::new(SimTime::ZERO),
            PriceWeights::default(),
            &PriceNormalization::default(),
        );
        assert!(book.is_empty());
        assert!(book.as_cost_map().is_empty());
        assert!(book.most_expensive().is_empty());
    }
}
