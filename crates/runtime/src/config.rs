//! Tuning knobs of the online placement runtime.

/// Configuration of the epoch-driven migration engine.
///
/// The control loop's hysteresis (minimum residency, the incumbent heat
/// deadband, the heat decay), its selection strategy (density) and the
/// migration copy streams are fixed constants of the
/// [`controller`](crate::controller) and [`cost`](crate::cost) modules; only
/// the per-epoch move budget is configurable here.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineConfig {
    /// Accesses simulated per epoch before the controller re-plans
    /// (trace-driven runtime only; the analytic path uses one application
    /// iteration as its epoch).
    pub epoch_accesses: u64,
    /// Maximum object migrations (promotions + demotions) per epoch.
    /// `0` disables migration entirely — the runtime then reproduces the
    /// static engine bit for bit.
    pub max_moves_per_epoch: u32,
    /// PEBS sampling period for the trace-driven runtime (events per
    /// sample). Trace epochs are small, so this is far below the paper's
    /// production period of 37 589.
    pub pebs_period: u64,
    /// Seed for the sampler's randomized counter offset.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epoch_accesses: 65_536,
            max_moves_per_epoch: 8,
            pebs_period: 257,
            seed: 0x0E11_0C47,
        }
    }
}

impl OnlineConfig {
    /// A configuration with migrations disabled (the equivalence baseline).
    pub fn disabled() -> Self {
        OnlineConfig {
            max_moves_per_epoch: 0,
            ..OnlineConfig::default()
        }
    }

    /// Whether this configuration can ever move an object.
    pub fn migrations_enabled(&self) -> bool {
        self.max_moves_per_epoch > 0
    }

    /// Override the epoch length.
    pub fn with_epoch_accesses(mut self, accesses: u64) -> Self {
        self.epoch_accesses = accesses.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_disabled_zeroes_moves() {
        let cfg = OnlineConfig::default();
        assert!(cfg.migrations_enabled());
        let off = OnlineConfig::disabled();
        assert!(!off.migrations_enabled());
        assert_eq!(
            OnlineConfig::default()
                .with_epoch_accesses(0)
                .epoch_accesses,
            1
        );
    }
}
