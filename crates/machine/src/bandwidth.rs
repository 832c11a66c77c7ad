//! Bandwidth and latency model.
//!
//! The model behind the paper's Figure 1: aggregate achievable bandwidth of a
//! memory tier grows roughly linearly with the number of cores issuing
//! requests until it saturates at the tier's peak. MCDRAM in cache mode pays
//! an efficiency factor (tag checks and miss amplification) and a latency
//! penalty on misses to DDR.

use crate::config::{MachineConfig, MemoryMode};
use crate::tier::TierSpec;
use hmsim_common::{Nanos, TierId};

/// Bandwidth/latency calculator bound to one machine configuration.
#[derive(Clone, Debug)]
pub struct BandwidthModel {
    config: MachineConfig,
}

impl BandwidthModel {
    /// Create a model for a machine.
    pub fn new(config: &MachineConfig) -> Self {
        BandwidthModel {
            config: config.clone(),
        }
    }

    /// Effective aggregate bandwidth (GB/s) of `tier` when `cores` cores are
    /// actively streaming to it in flat mode.
    ///
    /// The curve is `min(cores * per_core, peak)` softened near the knee with
    /// a harmonic blend so that the transition is smooth rather than a sharp
    /// corner — matching measured STREAM scaling curves.
    pub fn effective_bandwidth_gbs(&self, tier: &TierSpec, cores: u32) -> f64 {
        let cores = cores.clamp(1, self.config.cores) as f64;
        let linear = cores * tier.per_core_bandwidth_gbs;
        let peak = tier.peak_bandwidth_gbs;
        // Smooth-min: 1 / (1/linear + 1/peak) * correction so that the curve
        // approaches peak asymptotically but reaches ~95% of it when the
        // linear term is ~3x the peak.
        let harmonic = 1.0 / (1.0 / linear + 1.0 / peak);
        // Blend: for small core counts the harmonic underestimates (there is
        // no contention yet), so mix with the hard min.
        let hard = linear.min(peak);
        0.35 * harmonic + 0.65 * hard
    }

    /// Effective bandwidth of the MCDRAM when it operates as a memory-side
    /// cache and the working set *hits* in it.
    pub fn cache_mode_hit_bandwidth_gbs(&self, cores: u32) -> f64 {
        self.effective_bandwidth_gbs(&self.config.mcdram, cores)
            * self.config.cache_mode_bw_efficiency
    }

    /// Effective bandwidth observed by a kernel whose traffic hits in the
    /// MCDRAM cache with probability `hit_rate` and falls through to DDR
    /// otherwise. Misses consume MCDRAM *and* DDR bandwidth (the line is
    /// installed in the cache), so DDR is the bottleneck once the hit rate
    /// drops.
    pub fn cache_mode_bandwidth_gbs(&self, cores: u32, hit_rate: f64) -> f64 {
        let hit_rate = hit_rate.clamp(0.0, 1.0);
        let hit_bw = self.cache_mode_hit_bandwidth_gbs(cores);
        let ddr_bw = self.effective_bandwidth_gbs(&self.config.ddr, cores);
        if hit_rate >= 1.0 {
            return hit_bw;
        }
        // Each byte of application traffic costs 1/hit_bw on the MCDRAM port
        // plus (1-hit_rate)/ddr_bw on the DDR port; ports operate in
        // parallel, so the cost per byte is the max of the two port demands.
        let mcdram_cost = 1.0 / hit_bw;
        let ddr_cost = (1.0 - hit_rate) / ddr_bw;
        1.0 / mcdram_cost.max(ddr_cost)
    }

    /// Average load-to-use latency of `tier` under the paper's quadrant
    /// clustering.
    pub fn latency(&self, tier: &TierSpec) -> Nanos {
        tier.latency
    }

    /// Average latency of an access under cache mode with the given hit rate.
    pub fn cache_mode_latency(&self, hit_rate: f64) -> Nanos {
        let hit_rate = hit_rate.clamp(0.0, 1.0);
        let hit = self.latency(&self.config.mcdram);
        let miss = hit + self.config.cache_mode_miss_penalty;
        hit * hit_rate + miss * (1.0 - hit_rate)
    }

    /// Time to move `bytes` bytes at `bandwidth_gbs` GB/s.
    pub fn transfer_time(bytes: f64, bandwidth_gbs: f64) -> Nanos {
        if bytes <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos(bytes / (bandwidth_gbs * 1e9) * 1e9)
    }

    /// STREAM-Triad-style achievable bandwidth for the whole machine under a
    /// given memory mode and data placement:
    ///
    /// * `MemoryMode::Flat` with data in DDR or MCDRAM — the respective
    ///   tier's scaling curve;
    /// * `MemoryMode::Cache` — the cache-mode curve with the supplied hit
    ///   rate (for STREAM with a working set ≪ 16 GiB the hit rate is ~1 but
    ///   direct-mapped conflicts keep it below that).
    pub fn stream_bandwidth_gbs(&self, cores: u32, data_tier: TierId, hit_rate: f64) -> f64 {
        match self.config.memory_mode {
            MemoryMode::Flat => self.effective_bandwidth_gbs(self.config.tier(data_tier), cores),
            MemoryMode::Cache => self.cache_mode_bandwidth_gbs(cores, hit_rate),
        }
    }

    /// Access to the underlying machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn model() -> BandwidthModel {
        BandwidthModel::new(&MachineConfig::knl_7250())
    }

    #[test]
    fn bandwidth_grows_with_cores_and_saturates() {
        let m = model();
        let ddr = TierSpec::knl_ddr();
        let one = m.effective_bandwidth_gbs(&ddr, 1);
        let eight = m.effective_bandwidth_gbs(&ddr, 8);
        let sixty_eight = m.effective_bandwidth_gbs(&ddr, 68);
        assert!(one < eight);
        assert!(eight < sixty_eight * 1.01);
        // Saturation: DDR at 68 cores must be close to (and below) peak.
        assert!(sixty_eight <= ddr.peak_bandwidth_gbs);
        assert!(sixty_eight > ddr.peak_bandwidth_gbs * 0.80);
    }

    #[test]
    fn mcdram_flat_beats_ddr_at_scale_but_not_at_one_core() {
        let m = model();
        let ddr = TierSpec::knl_ddr();
        let mc = TierSpec::knl_mcdram();
        let ddr_68 = m.effective_bandwidth_gbs(&ddr, 68);
        let mc_68 = m.effective_bandwidth_gbs(&mc, 68);
        assert!(mc_68 > 3.5 * ddr_68, "MCDRAM {mc_68} vs DDR {ddr_68}");
        // With a single core the two memories look similar (Figure 1).
        let ddr_1 = m.effective_bandwidth_gbs(&ddr, 1);
        let mc_1 = m.effective_bandwidth_gbs(&mc, 1);
        assert!((ddr_1 - mc_1).abs() / ddr_1 < 0.2);
    }

    #[test]
    fn cache_mode_is_slower_than_flat_mcdram() {
        let m = model();
        let mc = TierSpec::knl_mcdram();
        let flat = m.effective_bandwidth_gbs(&mc, 68);
        let cache = m.cache_mode_bandwidth_gbs(68, 0.97);
        assert!(cache < flat);
        assert!(cache > flat * 0.5);
    }

    #[test]
    fn cache_mode_degrades_with_hit_rate() {
        let m = model();
        let high = m.cache_mode_bandwidth_gbs(68, 0.99);
        let mid = m.cache_mode_bandwidth_gbs(68, 0.7);
        let low = m.cache_mode_bandwidth_gbs(68, 0.2);
        assert!(high > mid && mid > low);
        // At very low hit rates cache mode is no better than DDR.
        let ddr = m.effective_bandwidth_gbs(&TierSpec::knl_ddr(), 68);
        assert!(low <= ddr * 1.3);
    }

    #[test]
    fn cache_mode_latency_interpolates() {
        let m = model();
        let hit = m.cache_mode_latency(1.0);
        let miss = m.cache_mode_latency(0.0);
        let half = m.cache_mode_latency(0.5);
        assert!(hit < half && half < miss);
    }

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let t1 = BandwidthModel::transfer_time(1e9, 100.0);
        let t2 = BandwidthModel::transfer_time(2e9, 100.0);
        assert!((t2.nanos() / t1.nanos() - 2.0).abs() < 1e-9);
        assert_eq!(BandwidthModel::transfer_time(0.0, 100.0), Nanos::ZERO);
    }

    #[test]
    fn stream_bandwidth_dispatches_by_mode() {
        let flat = BandwidthModel::new(&MachineConfig::knl_7250());
        let cache =
            BandwidthModel::new(&MachineConfig::knl_7250().with_memory_mode(MemoryMode::Cache));
        let f = flat.stream_bandwidth_gbs(68, TierId::MCDRAM, 1.0);
        let c = cache.stream_bandwidth_gbs(68, TierId::DDR, 0.97);
        let d = flat.stream_bandwidth_gbs(68, TierId::DDR, 1.0);
        assert!(f > c && c > d, "flat {f} cache {c} ddr {d}");
    }
}
