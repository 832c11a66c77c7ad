//! Model of MCDRAM operating as a direct-mapped memory-side cache.
//!
//! In cache mode the 16 GiB of MCDRAM front all DDR accesses. The paper notes
//! that cache mode "is not as efficient as consciously exploiting it in flat
//! mode, especially for those workloads where the lack of associativity is a
//! problem" — this module provides the analytical hit-rate estimate the
//! phase-cost engine uses, and a direct-mapped simulator its tests check
//! that estimate against. Cache mode is costed analytically only: the
//! trace-driven engine simulates flat mode.

use crate::cache::{CacheConfig, SetAssocCache};
use hmsim_common::ByteSize;

/// Baseline probability that two hot lines conflict even when the working
/// set fits (direct-mapped pathologies, page colouring effects).
const CONFLICT_FACTOR: f64 = 0.06;

/// Analytical + trace-driven model of the memory-side cache.
#[derive(Clone, Debug)]
pub struct McdramCacheModel {
    capacity: ByteSize,
    line_size: u64,
}

impl McdramCacheModel {
    /// Create a model of a direct-mapped memory-side cache of `capacity`.
    pub fn new(capacity: ByteSize, line_size: u64) -> Self {
        McdramCacheModel {
            capacity,
            line_size,
        }
    }

    /// The KNL 16 GiB MCDRAM cache.
    pub fn knl() -> Self {
        Self::new(ByteSize::from_gib(16), 64)
    }

    /// Cache capacity.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Analytical estimate of the hit rate for an application whose *hot*
    /// working set is `working_set` bytes and whose accesses have
    /// `irregularity` in `[0, 1]` (0 = perfectly streaming, 1 = uniformly
    /// random over the working set).
    ///
    /// * If the working set fits, hits dominate but direct-mapped conflicts
    ///   remove a slice proportional to occupancy and irregularity.
    /// * If it does not fit, the resident fraction bounds the hit rate; a
    ///   streaming access pattern over an over-sized working set degrades
    ///   towards (almost) zero reuse, while random access still finds the
    ///   resident fraction. Just past capacity only the small overflow slice
    ///   thrashes, so the estimate decays *continuously* from the
    ///   at-capacity value instead of cliff-dropping the moment
    ///   `working_set == capacity + 1` (the old behaviour: ~0.95 just under,
    ///   0.25 just over for streaming workloads).
    pub fn hit_rate(&self, working_set: ByteSize, irregularity: f64) -> f64 {
        let ws = working_set.bytes() as f64;
        let cap = self.capacity.bytes() as f64;
        if ws <= 0.0 {
            return 1.0;
        }
        let irregularity = irregularity.clamp(0.0, 1.0);
        if ws <= cap {
            let occupancy = ws / cap;
            // Conflict misses grow with occupancy and with irregularity
            // (random accesses touch more distinct sets per unit time).
            let conflicts = CONFLICT_FACTOR * occupancy * (0.5 + 0.5 * irregularity);
            (1.0 - conflicts).clamp(0.0, 1.0)
        } else {
            let resident = cap / ws;
            // Asymptotic regime (ws >> cap): streaming over an over-sized set
            // evicts lines before reuse (classic LRU/DM capacity thrash);
            // random access at least hits the resident fraction.
            let streaming_hit = resident * 0.25;
            let random_hit = resident * (1.0 - CONFLICT_FACTOR);
            let thrash = (1.0 - irregularity) * streaming_hit + irregularity * random_hit;
            // Value both regimes agree on at the capacity boundary (the
            // fitting branch evaluated at occupancy 1).
            let at_capacity = 1.0 - CONFLICT_FACTOR * (0.5 + 0.5 * irregularity);
            let thrash_at_capacity =
                (1.0 - irregularity) * 0.25 + irregularity * (1.0 - CONFLICT_FACTOR);
            // Blend: when barely over capacity (resident → 1) most lines
            // still survive until reuse, so the rate starts at the
            // at-capacity value and decays to the thrash asymptote as the
            // overflow grows. The quadratic ramp reaches the asymptote by
            // resident = 0.8 (working set 1.25x capacity), keeping the blend
            // local to the boundary — beyond that the pure thrash model
            // applies — while staying monotone in the working-set size.
            const RAMP_START: f64 = 0.8;
            let ramp = ((resident - RAMP_START) / (1.0 - RAMP_START)).max(0.0);
            let boundary_weight = ramp * ramp;
            let excess = (at_capacity - thrash_at_capacity).max(0.0);
            (thrash + excess * boundary_weight).clamp(0.0, 1.0)
        }
    }

    /// Build a direct-mapped simulator of this cache, the reference the
    /// analytical hit rate is tested against. Only sensible for scaled-down
    /// capacities: the number of lines is `capacity / line_size`.
    pub fn simulator(&self) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(self.capacity, self.line_size, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use hmsim_common::Address;

    /// Run an address trace through `m`'s trace-driven simulator and return
    /// its statistics.
    fn simulate_trace<'a>(
        m: &McdramCacheModel,
        addrs: impl IntoIterator<Item = &'a Address>,
    ) -> CacheStats {
        let mut sim = m.simulator();
        for a in addrs {
            sim.access(*a, false);
        }
        sim.stats()
    }

    #[test]
    fn fitting_working_set_hits() {
        let m = McdramCacheModel::knl();
        let hr = m.hit_rate(ByteSize::from_gib(4), 0.0);
        assert!(hr > 0.97, "hit rate {hr}");
    }

    #[test]
    fn oversized_working_set_degrades() {
        let m = McdramCacheModel::knl();
        let fits = m.hit_rate(ByteSize::from_gib(12), 0.2);
        let double = m.hit_rate(ByteSize::from_gib(32), 0.2);
        let huge = m.hit_rate(ByteSize::from_gib(96), 0.2);
        assert!(fits > double && double > huge);
        assert!(huge < 0.35);
    }

    #[test]
    fn irregularity_hurts_when_fitting_and_helps_reuse_when_thrashing() {
        let m = McdramCacheModel::knl();
        // Fitting: more irregularity -> slightly more conflicts.
        assert!(m.hit_rate(ByteSize::from_gib(14), 0.0) > m.hit_rate(ByteSize::from_gib(14), 1.0));
        // Thrashing: streaming gets no reuse, random finds the resident part.
        assert!(m.hit_rate(ByteSize::from_gib(64), 1.0) > m.hit_rate(ByteSize::from_gib(64), 0.0));
    }

    #[test]
    fn hit_rates_are_probabilities() {
        let m = McdramCacheModel::knl();
        for gib in [0u64, 1, 8, 16, 24, 48, 96, 192] {
            for irr in [0.0, 0.3, 0.7, 1.0] {
                let hr = m.hit_rate(ByteSize::from_gib(gib), irr);
                assert!((0.0..=1.0).contains(&hr), "hr {hr} for {gib} GiB irr {irr}");
            }
        }
    }

    /// Regression for the capacity-boundary cliff: sweeping the working set
    /// through `capacity` must decrease the hit rate monotonically and
    /// without a jump (the old model fell from ~0.95 to 0.25 between
    /// 16 GiB and 16 GiB + 1 byte for streaming workloads).
    #[test]
    fn hit_rate_is_continuous_and_monotone_through_capacity() {
        let m = McdramCacheModel::knl();
        let cap = m.capacity().bytes();
        for irr in [0.0, 0.25, 0.5, 0.75, 1.0] {
            // No discontinuity at the boundary itself.
            let just_under = m.hit_rate(ByteSize::from_bytes(cap - 1), irr);
            let at = m.hit_rate(ByteSize::from_bytes(cap), irr);
            let just_over = m.hit_rate(ByteSize::from_bytes(cap + 1), irr);
            assert!(
                (just_under - at).abs() < 1e-6 && (at - just_over).abs() < 1e-6,
                "cliff at capacity for irr {irr}: {just_under} / {at} / {just_over}"
            );
            // Fine sweep from half to 8x capacity: non-increasing throughout.
            let mut prev = f64::INFINITY;
            for step in 0..=256u64 {
                let ws = cap / 2 + (cap * 15 / 2) * step / 256;
                let hr = m.hit_rate(ByteSize::from_bytes(ws), irr);
                assert!(
                    hr <= prev + 1e-12,
                    "hit rate rose from {prev} to {hr} at ws {ws} irr {irr}"
                );
                prev = hr;
            }
        }
    }

    #[test]
    fn trace_driven_simulator_agrees_qualitatively() {
        // Scaled-down cache: 64 KiB direct mapped.
        let m = McdramCacheModel::new(ByteSize::from_kib(64), 64);
        // Working set 32 KiB accessed twice: second pass hits.
        let addrs: Vec<Address> = (0..512u64).map(|i| Address(i * 64)).collect();
        let double: Vec<Address> = addrs.iter().chain(addrs.iter()).copied().collect();
        let stats = simulate_trace(&m, double.iter());
        assert_eq!(stats.misses, 512);
        assert_eq!(stats.hits, 512);

        // Working set 128 KiB (2x capacity) accessed twice sequentially:
        // nothing survives until reuse.
        let big: Vec<Address> = (0..2048u64).map(|i| Address(i * 64)).collect();
        let double_big: Vec<Address> = big.iter().chain(big.iter()).copied().collect();
        let stats_big = simulate_trace(&m, double_big.iter());
        assert!(
            stats_big.misses * 100 > stats_big.accesses() * 99,
            "{stats_big:?}"
        );
    }
}
