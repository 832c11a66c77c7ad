//! Tuning knobs of the online placement runtime.

use hmem_advisor::SelectionStrategy;

/// Configuration of the epoch-driven migration engine.
///
/// The hysteresis knobs exist to keep the control loop from thrashing:
/// `min_residency_epochs` forbids moving an object again right after it
/// moved, and `heat_deadband` makes incumbents sticky — a challenger must be
/// hotter than a fast-tier resident by that margin before it can displace it.
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
    /// An object that migrated must stay put for this many epochs before it
    /// may move again.
    pub min_residency_epochs: u64,
    /// Fractional heat bonus granted to current fast-tier residents when the
    /// selection re-ranks objects (2.5 = a challenger needs 3.5× the heat of
    /// the incumbent it would displace). Together with a fast
    /// [`heat_decay`](Self::heat_decay) this is what separates a *phase
    /// change* (the old hot set stops missing entirely, so its decayed heat
    /// collapses within ~3 epochs and any real challenger overtakes it) from
    /// *scan aliasing* (a uniform scan sliced by epoch windows keeps
    /// re-touching every object, so incumbents never decay far enough to be
    /// displaced and the placement stays put).
    pub heat_deadband: f64,
    /// Per-epoch exponential decay of accumulated heat (0 = only the last
    /// epoch counts, 1 = infinite memory).
    pub heat_decay: f64,
    /// How the per-epoch selection ranks candidates — the advisor's own
    /// strategies, re-run online each epoch.
    pub strategy: SelectionStrategy,
    /// PEBS sampling period for the trace-driven runtime (events per
    /// sample). Trace epochs are small, so this is far below the paper's
    /// production period of 37 589.
    pub pebs_period: u64,
    /// Parallel copy streams the migration cost model credits to each move
    /// (page migration is a handful of helper threads, not the whole
    /// machine).
    pub migration_streams: u32,
    /// Seed for the sampler's randomized counter offset.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            epoch_accesses: 65_536,
            max_moves_per_epoch: 8,
            min_residency_epochs: 3,
            heat_deadband: 2.5,
            heat_decay: 0.6,
            strategy: SelectionStrategy::Density,
            pebs_period: 257,
            migration_streams: 2,
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
        assert!(cfg.heat_decay > 0.0 && cfg.heat_decay < 1.0);
        assert!(cfg.heat_deadband > 0.0);
        assert!(cfg.min_residency_epochs >= 1);
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
