//! Whole-machine configuration.

use crate::tier::TierSpec;
use hmsim_common::{ByteSize, HmError, HmResult, Nanos, TierId};

/// How the on-package MCDRAM is exposed to software.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// MCDRAM occupies its own part of the physical address space; software
    /// (numactl, memkind, the framework) decides what lives there.
    Flat,
    /// MCDRAM acts as a direct-mapped memory-side cache in front of DDR; the
    /// placement is transparent to software.
    Cache,
}

/// Complete description of the simulated node.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Physical cores.
    pub cores: u32,
    /// Hardware threads per core (SMT).
    pub threads_per_core: u32,
    /// Core frequency in Hz.
    pub frequency_hz: f64,
    /// Retired instructions per cycle per core for scalar-ish HPC code.
    pub ipc: f64,
    /// Cache line size in bytes.
    pub line_size: u64,
    /// Per-core L1 data cache size.
    pub l1_size: ByteSize,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 hit latency.
    pub l1_latency: Nanos,
    /// Per-tile L2 (the LLC on KNL) size available to one core.
    pub l2_size: ByteSize,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 hit latency.
    pub l2_latency: Nanos,
    /// The large, slow DDR tier ([`TierId::DDR`]).
    pub ddr: TierSpec,
    /// The small, fast on-package MCDRAM tier ([`TierId::MCDRAM`]).
    pub mcdram: TierSpec,
    /// MCDRAM exposure mode.
    pub memory_mode: MemoryMode,
    /// Memory-level parallelism: outstanding misses one core can sustain,
    /// used to convert per-miss latencies into throughput.
    pub mlp: f64,
    /// Efficiency factor (0..1] applied to MCDRAM bandwidth when it operates
    /// as a cache (tag checks, transfer amplification on misses).
    pub cache_mode_bw_efficiency: f64,
    /// Extra latency paid by a cache-mode miss that must continue to DDR.
    pub cache_mode_miss_penalty: Nanos,
}

impl MachineConfig {
    /// The Intel Xeon Phi 7250 node used throughout the paper: 68 cores at
    /// 1.40 GHz, 4-way SMT, 32 KiB L1, 1 MiB L2 per 2-core tile (modelled as
    /// 512 KiB per core), 96 GiB DDR + 16 GiB MCDRAM, quadrant clustering.
    pub fn knl_7250() -> MachineConfig {
        MachineConfig {
            cores: 68,
            threads_per_core: 4,
            frequency_hz: 1.40e9,
            ipc: 1.7,
            line_size: 64,
            l1_size: ByteSize::from_kib(32),
            l1_ways: 8,
            l1_latency: Nanos(2.9),
            l2_size: ByteSize::from_kib(512),
            l2_ways: 16,
            l2_latency: Nanos(14.0),
            ddr: TierSpec::knl_ddr(),
            mcdram: TierSpec::knl_mcdram(),
            memory_mode: MemoryMode::Flat,
            mlp: 10.0,
            cache_mode_bw_efficiency: 0.78,
            cache_mode_miss_penalty: Nanos(115.0),
        }
    }

    /// A small machine useful for fast unit tests: 4 cores, tiny caches,
    /// 1 GiB DDR + 64 MiB MCDRAM.
    pub fn tiny_test() -> MachineConfig {
        MachineConfig {
            cores: 4,
            threads_per_core: 1,
            frequency_hz: 1.0e9,
            ipc: 1.0,
            line_size: 64,
            l1_size: ByteSize::from_kib(4),
            l1_ways: 4,
            l1_latency: Nanos(2.0),
            l2_size: ByteSize::from_kib(64),
            l2_ways: 8,
            l2_latency: Nanos(10.0),
            ddr: TierSpec {
                capacity: ByteSize::from_gib(1),
                ..TierSpec::knl_ddr()
            },
            mcdram: TierSpec {
                capacity: ByteSize::from_mib(64),
                ..TierSpec::knl_mcdram()
            },
            memory_mode: MemoryMode::Flat,
            mlp: 8.0,
            cache_mode_bw_efficiency: 0.78,
            cache_mode_miss_penalty: Nanos(115.0),
        }
    }

    /// The tier that serves a page mapped to `id`: MCDRAM for
    /// [`TierId::MCDRAM`], DDR for any other id, so a page mapped to an id
    /// the machine lacks is served by DDR.
    #[inline]
    pub fn serving_tier(id: TierId) -> TierId {
        if id == TierId::MCDRAM {
            TierId::MCDRAM
        } else {
            TierId::DDR
        }
    }

    /// The spec of the tier that serves `id` (see
    /// [`serving_tier`](Self::serving_tier)).
    pub fn tier(&self, id: TierId) -> &TierSpec {
        if Self::serving_tier(id) == TierId::MCDRAM {
            &self.mcdram
        } else {
            &self.ddr
        }
    }

    /// Switch the memory mode, returning the modified configuration.
    pub fn with_memory_mode(mut self, mode: MemoryMode) -> Self {
        self.memory_mode = mode;
        self
    }

    /// Aggregate scalar instruction throughput of `cores_used` cores, in
    /// instructions per second.
    pub fn instruction_rate(&self, cores_used: u32) -> f64 {
        f64::from(cores_used.min(self.cores)) * self.ipc * self.frequency_hz
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> HmResult<()> {
        if self.cores == 0 {
            return Err(HmError::Config(
                "machine must have at least one core".into(),
            ));
        }
        if self.ipc <= 0.0
            || self.frequency_hz <= 0.0
            || self.ipc.is_nan()
            || self.frequency_hz.is_nan()
        {
            return Err(HmError::Config("ipc and frequency must be positive".into()));
        }
        if self.line_size == 0 || !self.line_size.is_power_of_two() {
            return Err(HmError::Config(format!(
                "cache line size must be a power of two, got {}",
                self.line_size
            )));
        }
        if !(0.0..=1.0).contains(&self.cache_mode_bw_efficiency) {
            return Err(HmError::Config(
                "cache_mode_bw_efficiency must be in (0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// The MCDRAM capacity available for *flat-mode* allocations: all of it
    /// in flat mode, none in cache mode.
    pub fn flat_mcdram_capacity(&self) -> ByteSize {
        match self.memory_mode {
            MemoryMode::Flat => self.mcdram.capacity,
            MemoryMode::Cache => ByteSize::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_preset_is_valid() {
        let m = MachineConfig::knl_7250();
        m.validate().unwrap();
        assert_eq!(m.cores, 68);
        assert_eq!(m.flat_mcdram_capacity(), ByteSize::from_gib(16));
    }

    #[test]
    fn cache_mode_consumes_flat_capacity() {
        let m = MachineConfig::knl_7250().with_memory_mode(MemoryMode::Cache);
        assert_eq!(m.flat_mcdram_capacity(), ByteSize::ZERO);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut m = MachineConfig::tiny_test();
        m.cores = 0;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::tiny_test();
        m.line_size = 48;
        assert!(m.validate().is_err());

        let mut m = MachineConfig::tiny_test();
        m.cache_mode_bw_efficiency = 1.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn instruction_rate_scales_with_cores_and_caps() {
        let m = MachineConfig::knl_7250();
        let one = m.instruction_rate(1);
        let all = m.instruction_rate(68);
        let beyond = m.instruction_rate(1000);
        assert!((all / one - 68.0).abs() < 1e-9);
        assert_eq!(all, beyond);
    }

    #[test]
    fn tiny_config_tiers_are_shrunk() {
        let m = MachineConfig::tiny_test();
        assert_eq!(m.ddr.capacity, ByteSize::from_gib(1));
        assert_eq!(m.mcdram.capacity, ByteSize::from_mib(64));
    }

    #[test]
    fn tier_lookup_maps_unknown_ids_to_ddr() {
        let m = MachineConfig::knl_7250();
        assert_eq!(m.tier(TierId::DDR).name, "DDR");
        assert_eq!(m.tier(TierId::MCDRAM).name, "MCDRAM");
        assert_eq!(m.tier(TierId(2)), &m.ddr);
        assert_eq!(MachineConfig::serving_tier(TierId(2)), TierId::DDR);
    }
}
