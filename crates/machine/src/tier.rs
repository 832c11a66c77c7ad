//! Memory tier specifications.
//!
//! A *tier* is one physically distinct memory subsystem. The simulated KNL
//! node has exactly two, DDR and the on-package MCDRAM, held by
//! [`MachineConfig`](crate::MachineConfig); each has a capacity, a bandwidth
//! scaling curve and a latency.

use hmsim_common::{ByteSize, Nanos};

/// Static description of one memory tier.
#[derive(Clone, Debug, PartialEq)]
pub struct TierSpec {
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
}

impl TierSpec {
    /// The DDR4 tier of the KNL 7250 node used in the paper (96 GiB,
    /// ~90 GB/s STREAM bandwidth, ~130 ns load-to-use latency).
    pub fn knl_ddr() -> TierSpec {
        TierSpec {
            name: "DDR".to_string(),
            capacity: ByteSize::from_gib(96),
            peak_bandwidth_gbs: 90.0,
            per_core_bandwidth_gbs: 7.8,
            latency: Nanos(130.0),
        }
    }

    /// The on-package MCDRAM tier of the KNL 7250 (16 GiB, ~450+ GB/s STREAM
    /// bandwidth; note that its unloaded latency is slightly *worse* than
    /// DDR, which the paper's Figure 1 indirectly reflects at low thread
    /// counts).
    pub fn knl_mcdram() -> TierSpec {
        TierSpec {
            name: "MCDRAM".to_string(),
            capacity: ByteSize::from_gib(16),
            peak_bandwidth_gbs: 460.0,
            per_core_bandwidth_gbs: 7.3,
            latency: Nanos(155.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    #[test]
    fn knl_tiers_have_expected_shape() {
        let m = MachineConfig::knl_7250();
        let (ddr, mc) = (&m.ddr, &m.mcdram);
        assert_eq!(ddr.capacity, ByteSize::from_gib(96));
        assert_eq!(mc.capacity, ByteSize::from_gib(16));
        assert!(mc.peak_bandwidth_gbs > 4.0 * ddr.peak_bandwidth_gbs);
        assert!(mc.latency.nanos() > ddr.latency.nanos());
    }
}
