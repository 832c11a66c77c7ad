//! The Figure-4 experiment grid.
//!
//! For every application the paper evaluates the framework under four MCDRAM
//! budgets and four selection strategies and compares against four
//! approaches that need no profiling: DDR-only, `numactl -p 1`, `autohbw`
//! with a 1 MiB threshold, and MCDRAM cache mode. This module drives exactly
//! that grid and computes, per configuration, the figure of merit, the MCDRAM
//! high-water mark and the ΔFOM/MByte efficiency metric — the three columns
//! of Figure 4.
//!
//! The grid runs on one thread, one configuration after the other, and
//! profiles each application once, as the paper does: the framework's
//! strategy × budget rows are all placed from that one profile.

use crate::metrics::delta_fom_per_mbyte;
use crate::pipeline::FrameworkPipeline;
use crate::scenario::Scenario;
use crate::session::Simulation;
use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmem_advisor::SelectionStrategy;
use hmsim_apps::{all_apps, AppSpec};
use hmsim_common::{ByteSize, HmResult};

/// Grid configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Per-rank MCDRAM budgets explored for MPI applications.
    pub budgets: Vec<ByteSize>,
    /// Budgets explored for single-process (OpenMP-only) applications.
    pub single_process_budgets: Vec<ByteSize>,
    /// Selection strategies (the paper's four).
    pub strategies: Vec<SelectionStrategy>,
    /// Iteration override to keep the grid fast (None = full length).
    pub iterations_override: Option<u32>,
    /// Master seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            budgets: vec![
                ByteSize::from_mib(32),
                ByteSize::from_mib(64),
                ByteSize::from_mib(128),
                ByteSize::from_mib(256),
            ],
            single_process_budgets: vec![
                ByteSize::from_mib(32),
                ByteSize::from_mib(256),
                ByteSize::from_gib(2),
                ByteSize::from_gib(16),
            ],
            strategies: SelectionStrategy::paper_set(),
            iterations_override: Some(10),
            seed: 0xF1607,
        }
    }
}

impl ExperimentConfig {
    /// The budgets applicable to one application (MPI apps get per-rank
    /// budgets, the OpenMP-only BT gets the 32 MiB – 16 GiB sweep).
    pub fn budgets_for(&self, spec: &AppSpec) -> &[ByteSize] {
        if spec.ranks == 1 {
            &self.single_process_budgets
        } else {
            &self.budgets
        }
    }

    /// The MCDRAM share one rank gets under FCFS policies (`numactl`,
    /// `autohbw`): the 16 GiB divided evenly among ranks.
    pub fn fcfs_share(&self, spec: &AppSpec) -> ByteSize {
        ByteSize::from_gib(16) / u64::from(spec.ranks.max(1))
    }

    /// Every configuration of one application's grid, in the order its
    /// results list them: the framework's strategy × budget rows, the online
    /// rows, numactl, autohbw, cache mode, and the DDR reference last.
    pub fn rows(&self, spec: &AppSpec) -> Vec<GridRow> {
        use ApproachKind as Kind;
        use PlacementApproach::{CacheMode, DdrOnly, NumactlPreferred, Online};
        let (share, budgets) = (self.fcfs_share(spec), self.budgets_for(spec));
        let framework = self.strategies.iter().flat_map(|s| {
            let approach = PlacementApproach::framework(*s);
            budgets
                .iter()
                .map(move |b| (format!("{s}/{b}"), approach.clone(), *b))
        });
        let online = budgets
            .iter()
            .map(|b| (format!("{}/{b}", Kind::Online), Online, *b));
        let autohbw = PlacementApproach::autohbw_1m();
        let baselines = [
            (Kind::Numactl.to_string(), NumactlPreferred, share),
            (format!("{}/1m", Kind::AutoHbw), autohbw, share),
            (Kind::Cache.to_string(), CacheMode, ByteSize::ZERO),
            (Kind::Ddr.to_string(), DdrOnly, share),
        ];
        let rows = framework.chain(online).chain(baselines);
        rows.map(|(label, approach, budget)| {
            let mut scenario = Scenario::app(spec.name, approach, budget).with_seed(self.seed);
            scenario.iterations = self.iterations_override;
            GridRow { label, scenario }
        })
        .collect()
    }
}

/// One configuration of an application's grid.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Label as it appears in the figure legend.
    pub label: String,
    /// The run that produces the row.
    pub scenario: Scenario,
}

impl GridRow {
    /// The row's outcome from the FOM and high-water mark of its run, its
    /// ΔFOM/MByte taken against the DDR reference FOM.
    fn result(self, fom: f64, mcdram_hwm: ByteSize, ddr_fom: f64) -> ApproachResult {
        use PlacementApproach::*;
        let charged_mcdram_mib = match self.scenario.approach {
            Framework { .. } | Online => self.scenario.mcdram_budget.mib(),
            NumactlPreferred | CacheMode => ByteSize::from_gib(16).mib(),
            AutoHbw { .. } | DdrOnly => 0.0,
        };
        ApproachResult {
            is_framework: matches!(self.scenario.approach, Framework { .. }),
            label: self.label,
            fom,
            mcdram_hwm,
            charged_mcdram_mib,
            dfom_per_mbyte: delta_fom_per_mbyte(fom, ddr_fom, charged_mcdram_mib),
        }
    }
}

/// One configuration's outcome.
#[derive(Clone, Debug)]
pub struct ApproachResult {
    /// Label as it appears in the figure legend (e.g. `"Density/128MiB"`,
    /// `"Cache"`, `"MCDRAM*"`).
    pub label: String,
    /// Figure of merit.
    pub fom: f64,
    /// MCDRAM high-water mark per process (dynamic allocations).
    pub mcdram_hwm: ByteSize,
    /// Fast memory charged to this configuration for the efficiency metric
    /// (the budget for framework runs, 16 GiB for cache/numactl), in MiB.
    pub charged_mcdram_mib: f64,
    /// ΔFOM/MByte relative to the DDR reference.
    pub dfom_per_mbyte: f64,
    /// Whether this row is one of the framework configurations (as opposed
    /// to a baseline).
    pub is_framework: bool,
}

/// The full Figure-4 data for one application.
#[derive(Clone, Debug)]
pub struct AppExperiment {
    /// Application name.
    pub app: String,
    /// Name of its figure of merit.
    pub fom_name: String,
    /// The DDR-only reference FOM.
    pub ddr_fom: f64,
    /// Every configuration (framework grid + baselines).
    pub results: Vec<ApproachResult>,
}

impl AppExperiment {
    /// The best framework configuration.
    pub fn best_framework(&self) -> Option<&ApproachResult> {
        self.results
            .iter()
            .filter(|r| r.is_framework)
            .max_by(|a, b| a.fom.partial_cmp(&b.fom).expect("no NaN"))
    }

    /// A named baseline result.
    pub fn baseline(&self, label: &str) -> Option<&ApproachResult> {
        self.results
            .iter()
            .find(|r| !r.is_framework && r.label == label)
    }

    /// The overall winner.
    pub fn winner(&self) -> Option<&ApproachResult> {
        self.results
            .iter()
            .max_by(|a, b| a.fom.partial_cmp(&b.fom).expect("no NaN"))
    }

    /// Speedup of the best framework configuration over DDR.
    pub fn framework_speedup(&self) -> f64 {
        self.best_framework()
            .map(|r| r.fom / self.ddr_fom.max(1e-12))
            .unwrap_or(1.0)
    }

    /// The best online-runtime configuration (the dynamic columns).
    pub fn best_online(&self) -> Option<&ApproachResult> {
        self.results
            .iter()
            .filter(|r| r.label.starts_with("Online/"))
            .max_by(|a, b| a.fom.partial_cmp(&b.fom).expect("no NaN"))
    }

    /// FOM of the best online run relative to the best static framework
    /// configuration (> 1 means migrating online beat every offline
    /// placement).
    pub fn online_vs_static(&self) -> Option<f64> {
        let online = self.best_online()?;
        let stat = self.best_framework()?;
        Some(online.fom / stat.fom.max(1e-12))
    }
}

/// Run the whole grid for one application, one configuration after the
/// other. The framework rows share one profile: stages 1 and 2 read neither
/// budget nor strategy, so the application is profiled once and every
/// strategy × budget is [placed](FrameworkPipeline::place) from that
/// profile, with the result [`Simulation::run`] gives the row's scenario
/// alone. Every other row runs through [`Simulation::run`].
pub fn run_app_experiment(spec: &AppSpec, config: &ExperimentConfig) -> HmResult<AppExperiment> {
    // A malformed spec fails this application's experiment with a typed,
    // attributable error instead of poisoning the whole sweep.
    spec.validate()?;
    let mut rows = config.rows(spec);
    // DDR reference first: every other configuration's efficiency metric is
    // relative to it.
    let ddr_row = rows.pop().expect("the grid ends with the DDR reference");
    let ddr = Simulation::new().run(&ddr_row.scenario)?.node;

    let mut profile = None;
    let mut results = Vec::with_capacity(rows.len() + 1);
    for row in rows {
        let (fom, hwm) = match FrameworkPipeline::for_scenario(&row.scenario) {
            Some(pipeline) => {
                // Stages 1 and 2 run once, for the first framework row.
                let profile = match &mut profile {
                    Some(profile) => profile,
                    slot @ None => slot.insert(pipeline.profile(spec)?),
                };
                let result = pipeline.place(spec, profile)?.result;
                (result.fom, result.mcdram_hwm)
            }
            None => {
                let node = Simulation::new().run(&row.scenario)?.node;
                (node.fom, node.mcdram_hwm)
            }
        };
        results.push(row.result(fom, hwm, ddr.fom));
    }
    results.push(ddr_row.result(ddr.fom, ddr.mcdram_hwm, ddr.fom));

    Ok(AppExperiment {
        app: spec.name.to_string(),
        fom_name: spec.fom_name.to_string(),
        ddr_fom: ddr.fom,
        results,
    })
}

/// Run the grid for every application, one after the other.
pub fn run_full_evaluation(config: &ExperimentConfig) -> Vec<AppExperiment> {
    all_apps()
        .iter()
        .filter_map(|spec| run_app_experiment(spec, config).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_apps::app_by_name;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            budgets: vec![ByteSize::from_mib(64), ByteSize::from_mib(256)],
            single_process_budgets: vec![ByteSize::from_mib(256), ByteSize::from_gib(16)],
            strategies: vec![
                SelectionStrategy::Density,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            ],
            iterations_override: Some(6),
            seed: 7,
        }
    }

    #[test]
    fn grid_contains_all_configurations() {
        let spec = app_by_name("miniFE").unwrap();
        let exp = run_app_experiment(&spec, &quick_config()).unwrap();
        // 2 strategies × 2 budgets + 2 online budgets
        // + 4 baselines (MCDRAM*, autohbw, Cache, DDR).
        assert_eq!(exp.results.len(), 2 * 2 + 2 + 4);
        assert!(exp.best_framework().is_some());
        assert!(exp.baseline("Cache").is_some());
        assert!(exp.baseline("MCDRAM*").is_some());
        assert!(exp.baseline("DDR").unwrap().fom > 0.0);
        assert!((exp.baseline("DDR").unwrap().fom - exp.ddr_fom).abs() < 1e-9);
    }

    #[test]
    fn online_columns_ride_along_and_track_the_static_grid() {
        let spec = app_by_name("miniFE").unwrap();
        let exp = run_app_experiment(&spec, &quick_config()).unwrap();
        let online = exp.best_online().expect("online rows present");
        assert!(!online.is_framework);
        assert!(
            online.fom > exp.ddr_fom,
            "online {} must beat DDR {}",
            online.fom,
            exp.ddr_fom
        );
        // miniFE is stationary, so online cannot beat the best offline
        // placement — but it must land in its neighbourhood (it pays one
        // cold iteration plus the migration bytes).
        let ratio = exp.online_vs_static().unwrap();
        assert!(
            ratio > 0.7 && ratio <= 1.05,
            "online/static ratio {ratio} out of band"
        );
    }

    #[test]
    fn framework_wins_for_minife() {
        let spec = app_by_name("miniFE").unwrap();
        let exp = run_app_experiment(&spec, &quick_config()).unwrap();
        let winner = exp.winner().unwrap();
        assert!(winner.is_framework, "winner was {}", winner.label);
        assert!(exp.framework_speedup() > 1.3);
    }

    #[test]
    fn budgets_for_respects_single_process_apps() {
        let cfg = quick_config();
        let bt = app_by_name("BT").unwrap();
        let hpcg = app_by_name("HPCG").unwrap();
        assert_eq!(cfg.budgets_for(&bt).len(), 2);
        assert_eq!(cfg.budgets_for(&bt)[1], ByteSize::from_gib(16));
        assert_eq!(cfg.budgets_for(&hpcg)[0], ByteSize::from_mib(64));
        assert_eq!(cfg.fcfs_share(&hpcg), ByteSize::from_mib(256));
        assert_eq!(cfg.fcfs_share(&bt), ByteSize::from_gib(16));
    }

    #[test]
    fn efficiency_metric_is_consistent_with_fom() {
        let spec = app_by_name("miniFE").unwrap();
        let exp = run_app_experiment(&spec, &quick_config()).unwrap();
        for r in exp.results.iter().filter(|r| r.is_framework) {
            let expected = (r.fom - exp.ddr_fom) / r.charged_mcdram_mib;
            assert!((r.dfom_per_mbyte - expected).abs() < 1e-9);
        }
    }
}
