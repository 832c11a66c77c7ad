//! Analytical phase-cost engine.
//!
//! The full evaluation grid of the paper (8 applications × 4 MCDRAM budgets ×
//! 4 selection strategies × 4 baselines, each with 64 ranks) is far too large
//! for access-level simulation. Following the paper's own cost reasoning —
//! "we approximate the access cost by the number of LLC misses" — each
//! application phase is summarised by the LLC-miss traffic every data object
//! generates, and this engine converts that summary plus a *placement*
//! (object → tier) into an execution-time estimate with a roofline-style
//! model:
//!
//! * a compute roof (`instructions / aggregate instruction rate`),
//! * a bandwidth roof per memory tier (traffic ÷ effective bandwidth at the
//!   phase's core count, tiers overlapping with each other),
//! * a latency roof for irregular (gather-dominated) traffic that cannot be
//!   covered by prefetching and therefore exposes the tier latency divided by
//!   the achievable memory-level parallelism.
//!
//! The phase time is the maximum of the three roofs; LLC-miss counts are
//! placement-independent (the LLC sits above both memories), exactly as in
//! the paper's attribution model.

use crate::bandwidth::BandwidthModel;
use crate::config::{MachineConfig, MemoryMode};
use crate::counters::PerfCounters;
use crate::mcdram_cache::McdramCacheModel;
use hmsim_common::{ByteSize, Nanos, ObjectId, TierId};
use std::collections::HashMap;

/// Per-object memory behaviour of one phase execution.
#[derive(Clone, Debug)]
pub struct ObjectTraffic {
    /// The object generating the traffic.
    pub object: ObjectId,
    /// LLC misses this object generates during one execution of the phase.
    pub llc_misses: u64,
    /// Fraction of this object's traffic that is irregular (latency-bound
    /// gathers) rather than streaming; in `[0, 1]`.
    pub irregular_fraction: f64,
}

impl ObjectTraffic {
    /// Convenience constructor.
    pub fn new(object: ObjectId, llc_misses: u64, irregular_fraction: f64) -> Self {
        ObjectTraffic {
            object,
            llc_misses,
            irregular_fraction: irregular_fraction.clamp(0.0, 1.0),
        }
    }

    /// Bytes of memory traffic implied by the misses at the given line size.
    pub fn traffic_bytes(&self, line_size: u64) -> f64 {
        self.llc_misses as f64 * line_size as f64
    }
}

/// Summary of one application phase (one kernel, one time step, …).
#[derive(Clone, Debug)]
pub struct PhaseProfile {
    /// Human-readable phase name (e.g. `"outer_src_calc"`).
    pub name: String,
    /// Instructions retired by one execution of the phase (across all the
    /// threads of one process).
    pub instructions: u64,
    /// Cores actively used by the phase (per process).
    pub cores_used: u32,
    /// Per-object traffic.
    pub traffic: Vec<ObjectTraffic>,
}

impl PhaseProfile {
    /// Total LLC misses of the phase.
    pub fn total_misses(&self) -> u64 {
        self.traffic.iter().map(|t| t.llc_misses).sum()
    }
}

/// Result of costing one phase under a placement.
#[derive(Clone, Debug)]
pub struct PhaseCost {
    /// Wall-clock time of one phase execution.
    pub time: Nanos,
    /// The compute roof component.
    pub compute_time: Nanos,
    /// The bandwidth roof component.
    pub bandwidth_time: Nanos,
    /// The latency roof component.
    pub latency_time: Nanos,
    /// Performance counters implied by the phase.
    pub counters: PerfCounters,
}

/// A placement assigns each object to a memory tier. Objects missing from the
/// map live in the default tier.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    map: HashMap<ObjectId, TierId>,
    default_tier: TierId,
}

impl Placement {
    /// All objects in `default_tier` (normally DDR).
    pub fn all_in(default_tier: TierId) -> Self {
        Placement {
            map: HashMap::new(),
            default_tier,
        }
    }

    /// Assign one object to a tier.
    pub fn place(&mut self, object: ObjectId, tier: TierId) {
        self.map.insert(object, tier);
    }

    /// Where an object lives.
    pub fn tier_of(&self, object: ObjectId) -> TierId {
        self.map.get(&object).copied().unwrap_or(self.default_tier)
    }
}

/// The analytical engine bound to one machine configuration.
#[derive(Clone, Debug)]
pub struct AnalyticEngine {
    config: MachineConfig,
    bandwidth: BandwidthModel,
    mcdram_cache: McdramCacheModel,
}

impl AnalyticEngine {
    /// Create an engine for a machine.
    pub fn new(config: &MachineConfig) -> Self {
        let capacity = config.mcdram.capacity;
        AnalyticEngine {
            config: config.clone(),
            bandwidth: BandwidthModel::new(config),
            mcdram_cache: McdramCacheModel::new(
                if capacity.is_zero() {
                    ByteSize::from_gib(16)
                } else {
                    capacity
                },
                config.line_size,
            ),
        }
    }

    /// The underlying machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Cost one phase: under `placement` in flat mode, or from `working_set`
    /// in cache mode.
    ///
    /// `working_set` is the total live data of the process; it is only used
    /// when the machine is in cache mode, where it determines the memory-side
    /// cache hit rate.
    pub fn cost_phase(
        &self,
        phase: &PhaseProfile,
        placement: &Placement,
        working_set: ByteSize,
    ) -> PhaseCost {
        match self.config.memory_mode {
            MemoryMode::Flat => self.cost_flat(phase, placement),
            MemoryMode::Cache => self.cost_cache_mode(phase, working_set),
        }
    }

    fn compute_roof(&self, phase: &PhaseProfile) -> Nanos {
        let rate = self.config.instruction_rate(phase.cores_used.max(1));
        Nanos(phase.instructions as f64 / rate * 1e9)
    }

    fn cost_flat(&self, phase: &PhaseProfile, placement: &Placement) -> PhaseCost {
        let line = self.config.line_size;
        let cores = phase.cores_used.max(1);

        // Aggregate traffic and latency-bound misses per serving tier,
        // indexed by `TierId` (DDR, MCDRAM).
        let mut tier_traffic = [0.0; 2];
        let mut tier_irregular_misses = [0.0; 2];
        for t in &phase.traffic {
            let slot = MachineConfig::serving_tier(placement.tier_of(t.object)).index();
            tier_traffic[slot] += t.traffic_bytes(line);
            tier_irregular_misses[slot] += t.llc_misses as f64 * t.irregular_fraction;
        }

        // Bandwidth roof: tiers stream in parallel, so the roof is the
        // slowest tier's drain time. Latency roof: irregular misses expose
        // latency / MLP per core. A tier without traffic adds a zero roof.
        let per_core_parallel = f64::from(cores) * self.config.mlp;
        let mut bandwidth_time = Nanos::ZERO;
        let mut latency_time = Nanos::ZERO;
        for (slot, tier) in [&self.config.ddr, &self.config.mcdram]
            .into_iter()
            .enumerate()
        {
            let bw = self.bandwidth.effective_bandwidth_gbs(tier, cores);
            bandwidth_time =
                bandwidth_time.max(BandwidthModel::transfer_time(tier_traffic[slot], bw));
            let lat = self.bandwidth.latency(tier);
            latency_time = latency_time.max(Nanos(
                tier_irregular_misses[slot] * lat.nanos() / per_core_parallel,
            ));
        }

        let compute_time = self.compute_roof(phase);
        self.finish(phase, compute_time, bandwidth_time, latency_time)
    }

    fn cost_cache_mode(&self, phase: &PhaseProfile, working_set: ByteSize) -> PhaseCost {
        let line = self.config.line_size;
        let cores = phase.cores_used.max(1);

        let total_misses: f64 = phase.traffic.iter().map(|t| t.llc_misses as f64).sum();
        let irregular_misses: f64 = phase
            .traffic
            .iter()
            .map(|t| t.llc_misses as f64 * t.irregular_fraction)
            .sum();
        let irregularity = if total_misses > 0.0 {
            irregular_misses / total_misses
        } else {
            0.0
        };

        let hit_rate = self.mcdram_cache.hit_rate(working_set, irregularity);
        let total_bytes = total_misses * line as f64;
        let bw = self.bandwidth.cache_mode_bandwidth_gbs(cores, hit_rate);
        let bandwidth_time = BandwidthModel::transfer_time(total_bytes, bw);

        let lat = self.bandwidth.cache_mode_latency(hit_rate);
        let per_core_parallel = f64::from(cores) * self.config.mlp;
        let latency_time = Nanos(irregular_misses * lat.nanos() / per_core_parallel);

        let compute_time = self.compute_roof(phase);
        self.finish(phase, compute_time, bandwidth_time, latency_time)
    }

    fn finish(
        &self,
        phase: &PhaseProfile,
        compute_time: Nanos,
        bandwidth_time: Nanos,
        latency_time: Nanos,
    ) -> PhaseCost {
        let time = compute_time.max(bandwidth_time).max(latency_time);
        let cycles = (time.secs() * self.config.frequency_hz) as u64;
        let memory_time = bandwidth_time.max(latency_time);
        let stall_cycles = ((memory_time.nanos() - compute_time.nanos()).max(0.0) / 1e9
            * self.config.frequency_hz) as u64;
        let total_misses = phase.total_misses();
        let counters = PerfCounters {
            instructions: phase.instructions,
            l1_references: phase.instructions / 3,
            l1_misses: total_misses * 4,
            llc_references: total_misses * 3,
            llc_misses: total_misses,
            stall_cycles,
            cycles: cycles.max(1),
        };
        PhaseCost {
            time,
            compute_time,
            bandwidth_time,
            latency_time,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(misses_a: u64, misses_b: u64, irregular: f64) -> PhaseProfile {
        // Node-scale phase: the experiment driver always costs whole-node
        // phases (68 cores), where the bandwidth differences between tiers
        // are visible.
        PhaseProfile {
            name: "k".to_string(),
            instructions: 50_000_000,
            cores_used: 68,
            traffic: vec![
                ObjectTraffic::new(ObjectId(0), misses_a, irregular),
                ObjectTraffic::new(ObjectId(1), misses_b, irregular),
            ],
        }
    }

    fn engine() -> AnalyticEngine {
        AnalyticEngine::new(&MachineConfig::knl_7250())
    }

    #[test]
    fn placing_hot_object_in_mcdram_speeds_up_bandwidth_bound_phase() {
        let e = engine();
        let p = phase(80_000_000, 1_000_000, 0.0);
        let ddr_only = Placement::all_in(TierId::DDR);
        let mut hot_in_fast = Placement::all_in(TierId::DDR);
        hot_in_fast.place(ObjectId(0), TierId::MCDRAM);

        let slow = e.cost_phase(&p, &ddr_only, ByteSize::from_gib(8));
        let fast = e.cost_phase(&p, &hot_in_fast, ByteSize::from_gib(8));
        assert!(
            fast.time < slow.time,
            "expected speedup, got {:?} vs {:?}",
            fast.time,
            slow.time
        );
        // Placing the *cold* object instead should barely help.
        let mut cold_in_fast = Placement::all_in(TierId::DDR);
        cold_in_fast.place(ObjectId(1), TierId::MCDRAM);
        let still_slow = e.cost_phase(&p, &cold_in_fast, ByteSize::from_gib(8));
        assert!(still_slow.time > fast.time);
    }

    #[test]
    fn an_id_the_machine_lacks_shares_the_ddr_roof() {
        let e = engine();
        let p = phase(80_000_000, 40_000_000, 0.0);
        let ws = ByteSize::from_gib(8);
        let ddr = e.cost_phase(&p, &Placement::all_in(TierId::DDR), ws);
        assert!(
            ddr.bandwidth_time > ddr.compute_time,
            "phase is bandwidth-bound"
        );
        let mut split = Placement::all_in(TierId::DDR);
        split.place(ObjectId(1), TierId(2));
        let cost = e.cost_phase(&p, &split, ws);
        assert_eq!(cost.bandwidth_time, ddr.bandwidth_time);
        assert_eq!(cost.time, ddr.time);
    }

    #[test]
    fn compute_bound_phase_is_placement_insensitive() {
        let e = engine();
        let p = PhaseProfile {
            name: "flops".to_string(),
            instructions: 10_000_000_000,
            cores_used: 68,
            traffic: vec![ObjectTraffic::new(ObjectId(0), 1000, 0.0)],
        };
        let ddr = e.cost_phase(&p, &Placement::all_in(TierId::DDR), ByteSize::from_gib(1));
        let mut mc = Placement::all_in(TierId::DDR);
        mc.place(ObjectId(0), TierId::MCDRAM);
        let fast = e.cost_phase(&p, &mc, ByteSize::from_gib(1));
        assert!((ddr.time.nanos() - fast.time.nanos()).abs() / ddr.time.nanos() < 1e-6);
        assert_eq!(ddr.time, ddr.compute_time);
    }

    #[test]
    fn misses_are_placement_independent() {
        let e = engine();
        let p = phase(5_000_000, 3_000_000, 0.2);
        let a = e.cost_phase(&p, &Placement::all_in(TierId::DDR), ByteSize::from_gib(8));
        let mut pl = Placement::all_in(TierId::DDR);
        pl.place(ObjectId(0), TierId::MCDRAM);
        let b = e.cost_phase(&p, &pl, ByteSize::from_gib(8));
        assert_eq!(a.counters.llc_misses, b.counters.llc_misses);
    }

    #[test]
    fn cache_mode_sits_between_ddr_and_flat_mcdram_for_fitting_sets() {
        let flat = engine();
        let cache =
            AnalyticEngine::new(&MachineConfig::knl_7250().with_memory_mode(MemoryMode::Cache));
        let p = phase(60_000_000, 40_000_000, 0.1);
        let ws = ByteSize::from_gib(6);

        let ddr = flat.cost_phase(&p, &Placement::all_in(TierId::DDR), ws);
        let mcdram = flat.cost_phase(&p, &Placement::all_in(TierId::MCDRAM), ws);
        let cached = cache.cost_phase(&p, &Placement::all_in(TierId::DDR), ws);

        assert!(
            mcdram.time < cached.time,
            "flat MCDRAM should beat cache mode"
        );
        assert!(cached.time < ddr.time, "cache mode should beat DDR");
    }

    #[test]
    fn cache_mode_degrades_for_oversized_working_sets() {
        let cache =
            AnalyticEngine::new(&MachineConfig::knl_7250().with_memory_mode(MemoryMode::Cache));
        let p = phase(60_000_000, 40_000_000, 0.3);
        let small = cache.cost_phase(&p, &Placement::all_in(TierId::DDR), ByteSize::from_gib(8));
        let big = cache.cost_phase(&p, &Placement::all_in(TierId::DDR), ByteSize::from_gib(64));
        assert!(big.time > small.time);
    }

    #[test]
    fn latency_bound_irregular_phase_sees_less_benefit_than_streaming() {
        let e = engine();
        let streaming = phase(40_000_000, 0, 0.0);
        let irregular = phase(40_000_000, 0, 1.0);
        let ddr = Placement::all_in(TierId::DDR);
        let mut mc = Placement::all_in(TierId::DDR);
        mc.place(ObjectId(0), TierId::MCDRAM);

        let s_gain = e
            .cost_phase(&streaming, &ddr, ByteSize::from_gib(4))
            .time
            .nanos()
            / e.cost_phase(&streaming, &mc, ByteSize::from_gib(4))
                .time
                .nanos();
        let i_gain = e
            .cost_phase(&irregular, &ddr, ByteSize::from_gib(4))
            .time
            .nanos()
            / e.cost_phase(&irregular, &mc, ByteSize::from_gib(4))
                .time
                .nanos();
        assert!(
            s_gain > i_gain,
            "streaming gain {s_gain} should exceed irregular gain {i_gain}"
        );
    }

    #[test]
    fn placement_helpers() {
        let mut p = Placement::all_in(TierId::DDR);
        p.place(ObjectId(3), TierId::MCDRAM);
        p.place(ObjectId(5), TierId::MCDRAM);
        p.place(ObjectId(7), TierId::DDR);
        assert_eq!(p.tier_of(ObjectId(3)), TierId::MCDRAM);
        assert_eq!(p.tier_of(ObjectId(7)), TierId::DDR);
        assert_eq!(p.tier_of(ObjectId(99)), TierId::DDR);
    }
}
