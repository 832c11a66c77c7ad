//! Memory tier specifications.
//!
//! A *tier* is one physically distinct memory subsystem (DDR, MCDRAM, and in
//! principle NVM or remote memory). The `hmem_advisor` stage consumes exactly
//! this description: each tier has a capacity and a *relative performance*
//! used to order the knapsacks.

use hmsim_common::{ByteSize, HmError, HmResult, Nanos, TierId};

/// Upper bound on tier ids the fixed-size hot-path structures (per-tier
/// traffic array, per-tier latency cache) are sized for. DDR = 0, MCDRAM = 1,
/// NVM = 2 plus one spare; raising it only costs a few bytes per engine.
pub const MAX_TIERS: usize = 4;

/// Static description of one memory tier.
#[derive(Clone, Debug, PartialEq)]
pub struct TierSpec {
    /// Identifier of the tier.
    pub id: TierId,
    /// Human-readable name ("DDR", "MCDRAM").
    pub name: String,
    /// Total capacity of the tier.
    pub capacity: ByteSize,
    /// Peak achievable bandwidth in GB/s (aggregate over all cores).
    pub peak_bandwidth_gbs: f64,
    /// Bandwidth one core can draw on its own, in GB/s. The effective
    /// aggregate bandwidth scales with the number of active cores until it
    /// saturates at [`peak_bandwidth_gbs`](Self::peak_bandwidth_gbs).
    pub per_core_bandwidth_gbs: f64,
    /// Unloaded access latency.
    pub latency: Nanos,
    /// Relative performance weight used by the advisor to order knapsacks
    /// (higher = faster = filled first).
    pub relative_performance: f64,
}

impl TierSpec {
    /// The DDR4 tier of the KNL 7250 node used in the paper (96 GiB,
    /// ~90 GB/s STREAM bandwidth, ~130 ns load-to-use latency).
    pub fn knl_ddr() -> TierSpec {
        TierSpec {
            id: TierId::DDR,
            name: "DDR".to_string(),
            capacity: ByteSize::from_gib(96),
            peak_bandwidth_gbs: 90.0,
            per_core_bandwidth_gbs: 7.8,
            latency: Nanos(130.0),
            relative_performance: 1.0,
        }
    }

    /// The on-package MCDRAM tier of the KNL 7250 (16 GiB, ~450+ GB/s STREAM
    /// bandwidth; note that its unloaded latency is slightly *worse* than
    /// DDR, which the paper's Figure 1 indirectly reflects at low thread
    /// counts).
    pub fn knl_mcdram() -> TierSpec {
        TierSpec {
            id: TierId::MCDRAM,
            name: "MCDRAM".to_string(),
            capacity: ByteSize::from_gib(16),
            peak_bandwidth_gbs: 460.0,
            per_core_bandwidth_gbs: 7.3,
            latency: Nanos(155.0),
            relative_performance: 5.0,
        }
    }
}

/// An ordered collection of tiers making up the machine's memory system.
#[derive(Clone, Debug, Default)]
pub struct TierSet {
    tiers: Vec<TierSpec>,
}

impl TierSet {
    /// Build a tier set from specs. Tier ids must be unique.
    pub fn new(tiers: Vec<TierSpec>) -> HmResult<TierSet> {
        for (i, a) in tiers.iter().enumerate() {
            for b in &tiers[i + 1..] {
                if a.id == b.id {
                    return Err(HmError::Config(format!(
                        "duplicate tier id {:?} ({} and {})",
                        a.id, a.name, b.name
                    )));
                }
            }
        }
        Ok(TierSet { tiers })
    }

    /// The standard two-tier KNL memory system.
    pub fn knl() -> TierSet {
        TierSet {
            tiers: vec![TierSpec::knl_ddr(), TierSpec::knl_mcdram()],
        }
    }

    /// Look up a tier by id.
    pub fn get(&self, id: TierId) -> Option<&TierSpec> {
        self.tiers.iter().find(|t| t.id == id)
    }

    /// Look up a tier by name (case-insensitive).
    pub fn by_name(&self, name: &str) -> Option<&TierSpec> {
        self.tiers
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    /// All tiers in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &TierSpec> {
        self.tiers.iter()
    }

    /// Number of tiers.
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Tiers sorted by descending relative performance — the order in which
    /// the advisor fills knapsacks.
    pub fn by_descending_performance(&self) -> Vec<&TierSpec> {
        let mut v: Vec<&TierSpec> = self.tiers.iter().collect();
        v.sort_by(|a, b| {
            b.relative_performance
                .partial_cmp(&a.relative_performance)
                .expect("relative_performance must not be NaN")
        });
        v
    }

    /// The slowest tier (lowest relative performance); the advisor treats it
    /// as the unbounded fallback.
    pub fn slowest(&self) -> Option<&TierSpec> {
        self.tiers.iter().min_by(|a, b| {
            a.relative_performance
                .partial_cmp(&b.relative_performance)
                .expect("relative_performance must not be NaN")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hypothetical large/slow NVM tier, showing that tier sets generalise
    /// beyond two tiers.
    fn nvm(capacity: ByteSize) -> TierSpec {
        TierSpec {
            id: TierId(2),
            name: "NVM".to_string(),
            capacity,
            peak_bandwidth_gbs: 30.0,
            per_core_bandwidth_gbs: 2.0,
            latency: Nanos(350.0),
            relative_performance: 0.3,
        }
    }

    #[test]
    fn knl_tier_set_has_expected_shape() {
        let ts = TierSet::knl();
        assert_eq!(ts.len(), 2);
        let ddr = ts.get(TierId::DDR).unwrap();
        let mc = ts.get(TierId::MCDRAM).unwrap();
        assert_eq!(ddr.capacity, ByteSize::from_gib(96));
        assert_eq!(mc.capacity, ByteSize::from_gib(16));
        assert!(mc.peak_bandwidth_gbs > 4.0 * ddr.peak_bandwidth_gbs);
        assert!(mc.latency.nanos() > ddr.latency.nanos());
    }

    #[test]
    fn ordering_by_performance() {
        let ts = TierSet::knl();
        let order = ts.by_descending_performance();
        assert_eq!(order[0].id, TierId::MCDRAM);
        assert_eq!(order[1].id, TierId::DDR);
        assert_eq!(ts.slowest().unwrap().id, TierId::DDR);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        let ts = TierSet::knl();
        assert!(ts.by_name("mcdram").is_some());
        assert!(ts.by_name("Ddr").is_some());
        assert!(ts.by_name("hbm3").is_none());
    }

    #[test]
    fn duplicate_tier_ids_rejected() {
        let dup = vec![TierSpec::knl_ddr(), TierSpec::knl_ddr()];
        assert!(TierSet::new(dup).is_err());
    }

    #[test]
    fn three_tier_configuration_supported() {
        let ts = TierSet::new(vec![
            TierSpec::knl_ddr(),
            TierSpec::knl_mcdram(),
            nvm(ByteSize::from_gib(512)),
        ])
        .unwrap();
        let order = ts.by_descending_performance();
        assert_eq!(order.len(), 3);
        assert_eq!(order[2].name, "NVM");
        assert_eq!(ts.slowest().unwrap().name, "NVM");
    }
}
