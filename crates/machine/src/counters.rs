//! Performance counters exposed by the simulated processor.
//!
//! These model the subset of the PMU the framework needs: retired
//! instructions, LLC (L2 on KNL) load/store references and misses, and a
//! stalled-cycle approximation. The PEBS sampler in `hmsim-pebs` consumes the
//! LLC-miss counter.

use hmsim_common::Nanos;

/// Accumulated performance counters for one simulated execution interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// L1 data cache references.
    pub l1_references: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// LLC (L2 on KNL) references.
    pub llc_references: u64,
    /// LLC misses (the metric the framework attributes to data objects).
    pub llc_misses: u64,
    /// Cycles the core spent stalled on memory.
    pub stall_cycles: u64,
    /// Total cycles of the interval.
    pub cycles: u64,
}

impl PerfCounters {
    /// Add another interval's counters into this one.
    pub fn accumulate(&mut self, other: &PerfCounters) {
        self.instructions += other.instructions;
        self.l1_references += other.l1_references;
        self.l1_misses += other.l1_misses;
        self.llc_references += other.llc_references;
        self.llc_misses += other.llc_misses;
        self.stall_cycles += other.stall_cycles;
        self.cycles += other.cycles;
    }

    /// Millions of instructions per second over a wall-clock interval — the
    /// metric plotted in the paper's Figure 5 (bottom panel).
    pub fn mips(&self, wall: Nanos) -> f64 {
        if wall.nanos() <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / wall.secs() / 1e6
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_fields() {
        let mut a = PerfCounters {
            instructions: 100,
            llc_misses: 5,
            cycles: 200,
            ..Default::default()
        };
        let b = PerfCounters {
            instructions: 50,
            llc_misses: 2,
            cycles: 100,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.instructions, 150);
        assert_eq!(a.llc_misses, 7);
        assert_eq!(a.cycles, 300);
    }

    #[test]
    fn derived_metrics() {
        let c = PerfCounters {
            instructions: 2_000_000,
            llc_misses: 4_000,
            stall_cycles: 500,
            cycles: 1_000,
            ..Default::default()
        };
        assert!((c.mips(Nanos::from_secs(1.0)) - 2.0).abs() < 1e-9);
        assert!((c.ipc() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let c = PerfCounters::default();
        assert_eq!(c.mips(Nanos::ZERO), 0.0);
        assert_eq!(c.ipc(), 0.0);
    }
}
