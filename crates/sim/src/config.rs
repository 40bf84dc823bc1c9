//! Simulation configuration.
//!
//! Every experiment is described by a [`SimConfig`] (engine-level knobs) that
//! higher layers embed into their own configuration structs. Keeping it
//! serde-serialisable lets the benchmark harness dump the exact configuration
//! next to each result, which is what makes the figure exports pinned under
//! `golden/paper/` reproducible.

use crate::json::{self, JsonError};
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
    /// Free-form label recorded alongside results.
    pub label: String,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            horizon: SimTime::from_millis(100),
            event_budget: u64::MAX,
            label: String::new(),
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

    /// Sets the label, returning the modified config.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Sets the event budget, returning the modified config.
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Serialises the config to a JSON string (used by the experiment
    /// harness to record run provenance).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"seed\": {},\n  \"horizon_ps\": {},\n  \"event_budget\": {},\n  \"label\": \"{}\"\n}}",
            self.seed,
            self.horizon.as_picos(),
            self.event_budget,
            json::escape(&self.label),
        )
    }

    /// Parses a config from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = json::parse(s)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| JsonError::schema(format!("missing field \"{key}\"")))
        };
        let number = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| JsonError::schema(format!("field \"{key}\" must be a u64")))
        };
        Ok(SimConfig {
            seed: number("seed")?,
            horizon: SimTime::from_picos(number("horizon_ps")?),
            event_budget: number("event_budget")?,
            label: field("label")?
                .as_str()
                .ok_or_else(|| JsonError::schema("field \"label\" must be a string"))?
                .to_string(),
        })
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
            .label("fig1")
            .event_budget(1000);
        assert_eq!(c.seed, 42);
        assert_eq!(c.horizon, SimTime::from_secs(1));
        assert_eq!(c.label, "fig1");
        assert_eq!(c.event_budget, 1000);
    }

    #[test]
    fn json_round_trip() {
        let c = SimConfig::with_seed(7).label("round-trip");
        let json = c.to_json();
        let back = SimConfig::from_json(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(SimConfig::from_json("not json").is_err());
    }
}
