//! The ΔFOM/MByte efficiency metric (paper §IV-C, equation 1).
//!
//! `ΔFOM/mbyte_x(y) = (FOM_x(y) − FOM_ddr(y)) / MEM_x` — "the performance
//! increase achieved when using a given amount of fast memory". It is the
//! paper's proposed tool for locating the sweet spot when dimensioning memory
//! tiers: past the sweet spot, additional MCDRAM stops paying for itself.

/// Compute ΔFOM/MByte for one experiment.
///
/// * `fom` — the figure of merit achieved by the experiment;
/// * `fom_ddr` — the figure of merit of the DDR-only reference;
/// * `mcdram_mib` — the amount of fast memory the experiment was given
///   (per rank), in MiB. For the cache-mode and `numactl` configurations the
///   paper charges the full 16 GiB.
///
/// Returns 0 when no fast memory was used.
pub fn delta_fom_per_mbyte(fom: f64, fom_ddr: f64, mcdram_mib: f64) -> f64 {
    if mcdram_mib <= 0.0 {
        return 0.0;
    }
    (fom - fom_ddr) / mcdram_mib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_matches_the_paper_formula() {
        // +4 GFLOPS using 128 MiB -> 0.03125 GFLOPS per MiB.
        let v = delta_fom_per_mbyte(15.0, 11.0, 128.0);
        assert!((v - 0.03125).abs() < 1e-12);
        // A slowdown yields a negative value.
        assert!(delta_fom_per_mbyte(10.0, 11.0, 128.0) < 0.0);
        // Zero memory is guarded.
        assert_eq!(delta_fom_per_mbyte(15.0, 11.0, 0.0), 0.0);
    }
}
