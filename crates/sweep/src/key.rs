//! Content-addressed job keys.
//!
//! A [`JobKey`] is a 128-bit FNV-1a hash of the canonical JSON of a fully
//! resolved [`ScenarioSpec`] — the complete simulation input, rendered by
//! [`canonical_spec_json`] (`rackfabric_scenario::codec`, whose module docs
//! list what the form deliberately leaves out: shard count and display
//! names). Two specs get the same key exactly when the engine is
//! guaranteed to produce byte-identical results for them.

pub use rackfabric_scenario::codec::canonical_spec_json;
use rackfabric_scenario::spec::ScenarioSpec;
use std::fmt;

/// A 128-bit content hash identifying one fully resolved job spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u128);

impl JobKey {
    /// The key as 32 lowercase hex characters (the store's file name).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-character form back into a key.
    pub fn from_hex(hex: &str) -> Option<JobKey> {
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(JobKey)
    }

    /// The key of a spec whose canonical JSON (the key preimage) is already
    /// rendered: a caller that also needs the text renders it once.
    pub fn of_preimage(spec_json: &str) -> JobKey {
        JobKey(fnv1a_128(spec_json.as_bytes()))
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// FNV-1a over `bytes`, 128-bit variant.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The content-addressed key of a fully resolved spec.
pub fn job_key(spec: &ScenarioSpec) -> JobKey {
    JobKey::of_preimage(&canonical_spec_json(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rackfabric_scenario::spec::{ControllerSpec, WorkloadSpec};
    use rackfabric_sim::time::{SimDuration, SimTime};
    use rackfabric_sim::units::Bytes;
    use rackfabric_topo::spec::TopologySpec;

    fn base() -> ScenarioSpec {
        ScenarioSpec::new(
            "key-unit",
            TopologySpec::grid(3, 3, 2),
            WorkloadSpec::shuffle(Bytes::from_kib(4)),
        )
        .horizon(SimTime::from_millis(10))
        .seed(42)
    }

    #[test]
    fn key_is_deterministic_and_hexes_round_trip() {
        let k = job_key(&base());
        assert_eq!(k, job_key(&base()));
        assert_eq!(JobKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 32);
    }

    #[test]
    fn result_shaping_fields_change_the_key() {
        let k = job_key(&base());
        assert_ne!(k, job_key(&base().seed(43)));
        assert_ne!(k, job_key(&base().horizon(SimTime::from_millis(11))));
        assert_ne!(k, job_key(&base().mtu(Bytes::new(9000))));
        assert_ne!(
            k,
            job_key(&base().train_window(SimDuration::from_nanos(100)))
        );
        assert_ne!(k, job_key(&base().controller(ControllerSpec::Baseline)));
        // Monolithic vs sharded is a model change.
        assert_ne!(k, job_key(&base().shards(1)));
    }

    #[test]
    fn physical_layer_knobs_change_the_key() {
        use rackfabric_phy::PlpTiming;
        use rackfabric_sim::units::{Bytes, Length};
        use rackfabric_switch::model::SwitchModel;

        let k = job_key(&base());
        assert_ne!(
            k,
            job_key(&base().switch_model(SwitchModel::store_and_forward())),
            "forwarding discipline shapes per-hop latency"
        );
        assert_ne!(
            k,
            job_key(&base().switch_model(SwitchModel::with_pipeline(SimDuration::from_nanos(250)))),
            "pipeline latency shapes per-hop latency"
        );
        assert_ne!(
            k,
            job_key(&base().port_buffer(Bytes::from_kib(64))),
            "buffer depth shapes drops and queueing"
        );
        assert_ne!(
            k,
            job_key(&base().plp_timing(PlpTiming::default().scaled(10.0))),
            "reconfiguration cost shapes adaptive runs"
        );
        let mut bypassed = base();
        bypassed.phy.bypassed_nodes = 2;
        assert_ne!(k, job_key(&bypassed), "bypass chains shape the datapath");
        let mut spaced = base();
        spaced.topology = spaced.topology.with_rack_spacing(Length::from_m(20));
        assert_ne!(
            k,
            job_key(&spaced),
            "inter-rack cable length shapes propagation delay and lookahead"
        );
    }

    #[test]
    fn result_neutral_fields_do_not_change_the_key() {
        let k = job_key(&base());
        // Campaign name is a label.
        let mut renamed = base();
        renamed.name = "other-name".into();
        assert_eq!(k, job_key(&renamed));
        // Every shard count >= 1 is byte-identical.
        assert_eq!(job_key(&base().shards(1)), job_key(&base().shards(4)));
        // Topology display name is a label.
        let mut t = TopologySpec::grid(3, 3, 2);
        t.name = "renamed-topology".into();
        let mut spec = base();
        spec.topology = t;
        assert_eq!(k, job_key(&spec));
    }

    #[test]
    fn canonical_json_parses_and_is_sorted() {
        let text = canonical_spec_json(&base());
        let doc = rackfabric_sim::json::parse(&text).unwrap();
        assert_eq!(doc.get("engine").unwrap().as_str(), Some("monolithic"));
        assert!(doc.get("scheduler").is_none());
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
