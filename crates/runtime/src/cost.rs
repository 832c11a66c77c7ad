//! The migration cost model: bytes moved × per-tier bandwidth charge.
//!
//! A migration reads every page from the source tier and writes it to the
//! destination tier, so the charge is `bytes/bw(src) + bytes/bw(dst)`, with
//! DDR's bandwidth for every id but MCDRAM. The per-tier migration bandwidth is the tier's *per-core* streaming bandwidth
//! times [`MIGRATION_STREAMS`]: page migration (`move_pages`-style) is a
//! memcpy performed by a handful of kernel threads, not the whole machine,
//! and must not be credited with the tier's aggregate peak.

use hmsim_common::{ByteSize, Nanos, TierId};
use hmsim_machine::{BandwidthModel, MachineConfig, TierSpec};

/// Parallel copy streams the migration cost model credits to each move
/// (page migration is a handful of helper threads, not the whole machine).
pub const MIGRATION_STREAMS: u32 = 2;

/// Per-tier bandwidth charges for object migration.
#[derive(Clone, Debug)]
pub struct MigrationCostModel {
    /// Migration bandwidth of DDR and MCDRAM, indexed by tier id, GB/s.
    bw_gbs: [f64; 2],
}

impl MigrationCostModel {
    /// Build the model for a machine, with [`MIGRATION_STREAMS`] parallel
    /// migration threads.
    pub fn new(machine: &MachineConfig) -> Self {
        // Cap at the tier's aggregate peak: many streams cannot draw more
        // than the memory system provides.
        let gbs = |tier: &TierSpec| {
            (tier.per_core_bandwidth_gbs * f64::from(MIGRATION_STREAMS))
                .min(tier.peak_bandwidth_gbs)
        };
        MigrationCostModel {
            bw_gbs: [gbs(&machine.ddr), gbs(&machine.mcdram)],
        }
    }

    fn bandwidth(&self, tier: TierId) -> f64 {
        self.bw_gbs[MachineConfig::serving_tier(tier).index()]
    }

    /// Latency charged for moving `bytes` from `from` to `to`: the read leg
    /// plus the write leg, each at the owning tier's migration bandwidth.
    pub fn charge(&self, bytes: ByteSize, from: TierId, to: TierId) -> Nanos {
        let b = bytes.bytes() as f64;
        BandwidthModel::transfer_time(b, self.bandwidth(from))
            + BandwidthModel::transfer_time(b, self.bandwidth(to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_is_linear_and_charges_both_legs() {
        let m = MigrationCostModel::new(&MachineConfig::knl_7250());
        let one = m.charge(ByteSize::from_mib(1), TierId::DDR, TierId::MCDRAM);
        let two = m.charge(ByteSize::from_mib(2), TierId::DDR, TierId::MCDRAM);
        assert!(one.nanos() > 0.0);
        assert!((two.nanos() / one.nanos() - 2.0).abs() < 1e-9);
        // Symmetric: the same two legs are paid in either direction.
        let back = m.charge(ByteSize::from_mib(1), TierId::MCDRAM, TierId::DDR);
        assert!((back.nanos() - one.nanos()).abs() < 1e-9);
        assert_eq!(
            m.charge(ByteSize::ZERO, TierId::DDR, TierId::MCDRAM),
            Nanos::ZERO
        );
    }

    #[test]
    fn each_leg_runs_at_the_streams_per_core_bandwidth_below_peak() {
        let machine = MachineConfig::knl_7250();
        let m = MigrationCostModel::new(&machine);
        let b = ByteSize::from_mib(64);
        let leg = |tier: TierId| {
            let spec = machine.tier(tier);
            let gbs = (spec.per_core_bandwidth_gbs * f64::from(MIGRATION_STREAMS))
                .min(spec.peak_bandwidth_gbs);
            BandwidthModel::transfer_time(b.bytes() as f64, gbs)
        };
        let t = m.charge(b, TierId::DDR, TierId::MCDRAM);
        let expected = leg(TierId::DDR) + leg(TierId::MCDRAM);
        assert!((t.nanos() - expected.nanos()).abs() < 1e-6 * expected.nanos());
        // A couple of copy threads draw far less than the tier's peak.
        let peak = BandwidthModel::transfer_time(b.bytes() as f64, 90.0);
        assert!(leg(TierId::DDR) > peak);
    }

    #[test]
    fn unknown_tier_uses_the_fallback_bandwidth() {
        let m = MigrationCostModel::new(&MachineConfig::tiny_test());
        let t = m.charge(ByteSize::from_mib(1), TierId(77), TierId::DDR);
        assert!(t.nanos() > 0.0);
    }
}
