//! Profiler configuration.

use hmsim_common::{ByteSize, Nanos};

/// Dynamic allocations smaller than this are not instrumented (the paper
/// uses 4 KiB "to avoid small (and possibly frequent) allocations such as
/// those related to I/O").
pub const MIN_ALLOC_SIZE: ByteSize = ByteSize::from_kib(4);

/// Configuration of one profiling run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfilerConfig {
    /// PEBS sampling period: one sample every this many LLC misses.
    pub sampling_period: u64,
    /// Interval between performance-counter snapshot events.
    pub counter_snapshot_interval: Nanos,
    /// Master seed for the sampler's randomised phase.
    pub seed: u64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sampling_period: 37_589,
            counter_snapshot_interval: Nanos::from_millis(50.0),
            seed: 0x5eed,
        }
    }
}

impl ProfilerConfig {
    /// A configuration with a much shorter period, useful for unit tests and
    /// for the sampling-period ablation.
    pub fn dense(period: u64) -> Self {
        ProfilerConfig {
            sampling_period: period,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ProfilerConfig::default();
        assert_eq!(c.sampling_period, 37_589);
        assert_eq!(MIN_ALLOC_SIZE, ByteSize::from_kib(4));
    }

    #[test]
    fn dense_overrides_period_only() {
        let c = ProfilerConfig::dense(100);
        assert_eq!(c.sampling_period, 100);
        assert_eq!(
            c,
            ProfilerConfig {
                sampling_period: 100,
                ..ProfilerConfig::default()
            }
        );
    }
}
