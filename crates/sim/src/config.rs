//! Simulation configuration.
//!
//! Every experiment is described by a [`SimConfig`] (engine-level knobs) that
//! higher layers embed into their own configuration structs.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Engine-level configuration shared by all experiments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Hard simulation horizon; events after this instant are not processed.
    pub horizon: SimTime,
    /// Upper bound on processed events, as a livelock guard (`u64::MAX` to
    /// disable).
    pub event_budget: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            horizon: SimTime::from_millis(100),
            event_budget: u64::MAX,
        }
    }
}

impl SimConfig {
    /// Creates a config with the given seed and the default horizon.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Default::default()
        }
    }

    /// Sets the horizon, returning the modified config.
    pub fn horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the event budget, returning the modified config.
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = SimConfig::default();
        assert_eq!(c.seed, 1);
        assert!(c.horizon > SimTime::ZERO);
        assert_eq!(c.event_budget, u64::MAX);
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimConfig::with_seed(42)
            .horizon(SimTime::from_secs(1))
            .event_budget(1000);
        assert_eq!(c.seed, 42);
        assert_eq!(c.horizon, SimTime::from_secs(1));
        assert_eq!(c.event_budget, 1000);
    }
}
