//! The STREAM Triad kernel used in the paper's Figure 1.
//!
//! Triad computes `a[i] = b[i] + scalar * c[i]` over three large arrays and
//! reports the sustained memory bandwidth. Figure 1 plots that bandwidth
//! against the number of cores used (one thread per core) for data placed in
//! DDR, in flat-mode MCDRAM and with MCDRAM configured as a cache.

use hmsim_common::{ByteSize, TierId};
use hmsim_machine::{BandwidthModel, MachineConfig, McdramCacheModel, MemoryMode};

/// One measured point of the STREAM scaling curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamResult {
    /// Cores used (one thread per core).
    pub cores: u32,
    /// Sustained Triad bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

/// The STREAM benchmark configuration.
#[derive(Clone, Debug)]
pub struct StreamBenchmark {
    /// Per-array size (the paper-scale runs use arrays far larger than the
    /// caches; the default is 1 GiB per array).
    pub array_size: ByteSize,
    /// Core counts to measure (the x-axis of Figure 1).
    pub core_counts: Vec<u32>,
}

impl Default for StreamBenchmark {
    fn default() -> Self {
        StreamBenchmark {
            array_size: ByteSize::from_gib(1),
            core_counts: vec![1, 2, 4, 8, 16, 32, 34, 64, 68],
        }
    }
}

impl StreamBenchmark {
    /// Total working set (three arrays).
    pub fn working_set(&self) -> ByteSize {
        self.array_size * 3
    }

    /// The Triad scaling curve for data resident in `tier` on a machine in
    /// flat mode.
    pub fn run_flat(&self, machine: &MachineConfig, tier: TierId) -> Vec<StreamResult> {
        let model = BandwidthModel::new(machine);
        self.core_counts
            .iter()
            .map(|&cores| StreamResult {
                cores,
                bandwidth_gbs: model.stream_bandwidth_gbs(cores, tier, 1.0),
            })
            .collect()
    }

    /// The Triad scaling curve with MCDRAM configured as a cache.
    pub fn run_cache_mode(&self, machine: &MachineConfig) -> Vec<StreamResult> {
        let cache_machine = machine.clone().with_memory_mode(MemoryMode::Cache);
        let model = BandwidthModel::new(&cache_machine);
        let mcdram = McdramCacheModel::knl();
        // STREAM is perfectly streaming: irregularity 0. The working set of
        // the paper-scale run fits in the 16 GiB cache, but direct-mapped
        // conflicts and write-allocate traffic keep the hit rate below 1.
        let hit_rate = mcdram.hit_rate(self.working_set(), 0.0) * 0.97;
        self.core_counts
            .iter()
            .map(|&cores| StreamResult {
                cores,
                bandwidth_gbs: model.cache_mode_bandwidth_gbs(cores, hit_rate),
            })
            .collect()
    }

    /// Produce the three series of Figure 1: (cores, DDR, MCDRAM-flat,
    /// MCDRAM-cache).
    pub fn figure1(&self, machine: &MachineConfig) -> Vec<(u32, f64, f64, f64)> {
        let ddr = self.run_flat(machine, TierId::DDR);
        let flat = self.run_flat(machine, TierId::MCDRAM);
        let cache = self.run_cache_mode(machine);
        ddr.iter()
            .zip(flat.iter())
            .zip(cache.iter())
            .map(|((d, f), c)| (d.cores, d.bandwidth_gbs, f.bandwidth_gbs, c.bandwidth_gbs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250()
    }

    #[test]
    fn figure1_series_have_the_paper_shape() {
        let bench = StreamBenchmark::default();
        let fig = bench.figure1(&machine());
        assert_eq!(fig.len(), 9);

        // All three series grow (weakly) with core count.
        for series in 0..3 {
            let get = |row: &(u32, f64, f64, f64)| match series {
                0 => row.1,
                1 => row.2,
                _ => row.3,
            };
            for w in fig.windows(2) {
                assert!(
                    get(&w[1]) >= get(&w[0]) * 0.99,
                    "series {series} not monotone"
                );
            }
        }

        let last = fig.last().unwrap();
        let (_, ddr, flat, cache) = *last;
        // DDR saturates around 80-90 GB/s; flat MCDRAM several times higher;
        // cache mode in between but closer to flat.
        assert!(ddr > 60.0 && ddr < 95.0, "DDR {ddr}");
        assert!(flat > 3.5 * ddr, "flat {flat} vs ddr {ddr}");
        assert!(cache < flat && cache > ddr, "cache {cache}");

        // At one core the three memories look similar (within 25 %).
        let first = fig.first().unwrap();
        let spread = (first.2 - first.1).abs() / first.1;
        assert!(spread < 0.25, "single-core spread {spread}");
    }

    #[test]
    fn ddr_saturates_early_flat_keeps_scaling() {
        let bench = StreamBenchmark::default();
        let ddr = bench.run_flat(&machine(), TierId::DDR);
        let flat = bench.run_flat(&machine(), TierId::MCDRAM);
        let at = |series: &[StreamResult], cores: u32| {
            series
                .iter()
                .find(|r| r.cores == cores)
                .unwrap()
                .bandwidth_gbs
        };
        // DDR gains little beyond 16 cores; MCDRAM keeps growing.
        assert!(at(&ddr, 68) / at(&ddr, 16) < 1.25);
        assert!(at(&flat, 68) / at(&flat, 16) > 1.8);
    }

    #[test]
    fn working_set_is_three_arrays() {
        let bench = StreamBenchmark::default();
        assert_eq!(bench.working_set(), ByteSize::from_gib(3));
    }
}
