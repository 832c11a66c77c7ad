//! Calibrated cost model for call-stack unwinding and translation.
//!
//! Figure 3 of the paper measures, on a Xeon Phi 7250 with glibc 2.17 and
//! binutils 2.23, the per-`malloc` overhead of (a) unwinding the call-stack
//! and (b) translating its frames from runtime to link-time form. Unwinding
//! has a larger fixed cost; translation has a larger per-frame cost; the two
//! curves cross at a depth of about six frames.
//!
//! The simulator charges these costs inside `auto-hbwmalloc` whenever an
//! allocation must be inspected, which is how the interposition overhead can
//! eat into the MCDRAM benefit for allocation-heavy applications (LULESH).

use hmsim_common::Nanos;

/// Linear-in-depth cost model for the two call-stack operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CallstackCostModel {
    /// Fixed cost of one unwind, in microseconds.
    pub unwind_base_us: f64,
    /// Additional unwind cost per frame, in microseconds.
    pub unwind_per_frame_us: f64,
    /// Fixed cost of one translation, in microseconds.
    pub translate_base_us: f64,
    /// Additional translation cost per frame, in microseconds.
    pub translate_per_frame_us: f64,
}

impl CallstackCostModel {
    /// Calibration matching Figure 3: unwind starts higher (~7 µs at depth 1)
    /// with a shallow slope; translation starts lower (~3 µs) but grows ~2.6
    /// µs per frame, overtaking unwind at a depth of about six.
    pub fn knl_7250() -> Self {
        CallstackCostModel {
            unwind_base_us: 6.0,
            unwind_per_frame_us: 1.15,
            translate_base_us: 1.0,
            translate_per_frame_us: 2.05,
        }
    }

    /// Cost of unwinding a stack of `depth` frames.
    pub fn unwind_cost(&self, depth: usize) -> Nanos {
        Nanos::from_micros(self.unwind_base_us + self.unwind_per_frame_us * depth as f64)
    }

    /// Cost of translating a stack of `depth` frames.
    pub fn translate_cost(&self, depth: usize) -> Nanos {
        Nanos::from_micros(self.translate_base_us + self.translate_per_frame_us * depth as f64)
    }

    /// The data series of Figure 3: (depth, unwind µs, translate µs) for
    /// depths 1 through `max_depth`.
    pub fn figure3_series(&self, max_depth: usize) -> Vec<(usize, f64, f64)> {
        (1..=max_depth)
            .map(|d| {
                (
                    d,
                    self.unwind_cost(d).micros(),
                    self.translate_cost(d).micros(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest depth at which translation becomes more expensive than
    /// unwinding (≈ 6 for the paper's calibration). Returns `None` if the
    /// curves never cross within 128 frames.
    fn crossover_depth(m: &CallstackCostModel) -> Option<usize> {
        (1..=128).find(|d| m.translate_cost(*d) > m.unwind_cost(*d))
    }

    #[test]
    fn costs_grow_with_depth() {
        let m = CallstackCostModel::knl_7250();
        assert!(m.unwind_cost(2) > m.unwind_cost(1));
        assert!(m.translate_cost(9) > m.translate_cost(3));
    }

    #[test]
    fn shallow_stacks_unwind_dominates_deep_stacks_translate_dominates() {
        let m = CallstackCostModel::knl_7250();
        assert!(m.unwind_cost(1) > m.translate_cost(1));
        assert!(m.translate_cost(9) > m.unwind_cost(9));
    }

    #[test]
    fn crossover_is_around_six_frames() {
        let m = CallstackCostModel::knl_7250();
        let d = crossover_depth(&m).unwrap();
        assert!((5..=7).contains(&d), "crossover at {d}");
    }

    #[test]
    fn figure3_series_has_expected_shape() {
        let m = CallstackCostModel::knl_7250();
        let series = m.figure3_series(9);
        assert_eq!(series.len(), 9);
        assert_eq!(series[0].0, 1);
        // Both curves monotonically increasing.
        for w in series.windows(2) {
            assert!(w[1].1 > w[0].1);
            assert!(w[1].2 > w[0].2);
        }
        // Magnitudes in the same ballpark as the paper (single to tens of µs).
        assert!(series[8].1 < 60.0 && series[8].2 < 60.0);
        assert!(series[0].1 > 1.0);
    }

    #[test]
    fn crossover_none_when_translate_always_cheaper() {
        let m = CallstackCostModel {
            unwind_base_us: 10.0,
            unwind_per_frame_us: 5.0,
            translate_base_us: 0.1,
            translate_per_frame_us: 0.1,
        };
        assert_eq!(crossover_depth(&m), None);
    }
}
