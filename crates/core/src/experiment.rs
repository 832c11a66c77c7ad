//! The Figure-4 experiment grid.
//!
//! For every application the paper evaluates the framework under four MCDRAM
//! budgets and four selection strategies and compares against four
//! approaches that need no profiling: DDR-only, `numactl -p 1`, `autohbw`
//! with a 1 MiB threshold, and MCDRAM cache mode. This module drives exactly
//! that grid and computes, per configuration, the figure of merit, the MCDRAM
//! high-water mark and the ΔFOM/MByte efficiency metric — the three columns
//! of Figure 4.

use crate::metrics::delta_fom_per_mbyte;
use crate::scenario::Scenario;
use crate::session::Simulation;
use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmem_advisor::SelectionStrategy;
use hmsim_apps::{all_apps, AppSpec};
use hmsim_common::{parallel_map, ByteSize, HmResult};

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

/// One baseline approach of the Figure-4 comparison.
/// One independent simulation of the per-app grid: a framework
/// strategy × budget configuration, a profiling-free baseline, or an online
/// migration run. Folding all kinds into one job list lets a single
/// `parallel_map` overlap baseline runs with grid stragglers instead of
/// draining two barriers.
#[derive(Clone, Copy, Debug)]
enum GridJob {
    Framework(SelectionStrategy, ByteSize),
    /// The online migration runtime at one fast-tier budget — the dynamic
    /// column the static framework grid is compared against.
    Online(ByteSize),
    Numactl,
    Autohbw,
    Cache,
}

/// Run the whole grid for one application. The framework's strategy × budget
/// configurations and the profiling-free baselines are all independent
/// simulations, so they are fanned out over scoped worker threads. Every
/// job is a declarative [`Scenario`] dispatched through the [`Simulation`]
/// facade — the grid is now literally a list of scenario values.
pub fn run_app_experiment(spec: &AppSpec, config: &ExperimentConfig) -> HmResult<AppExperiment> {
    // A malformed spec fails this application's experiment with a typed,
    // attributable error instead of poisoning the whole sweep.
    spec.validate()?;
    let scenario = |approach: PlacementApproach, budget: ByteSize| {
        let mut s = Scenario::app(spec.name, approach, budget).with_seed(config.seed);
        if let Some(it) = config.iterations_override {
            s = s.with_iterations(it);
        }
        s
    };

    // DDR reference first: every other configuration's efficiency metric is
    // relative to it.
    let share = config.fcfs_share(spec);
    let ddr = Simulation::new().run(&scenario(PlacementApproach::DdrOnly, share))?;
    let ddr_fom = ddr.node.fom;

    let full_mcdram_mib = ByteSize::from_gib(16).mib();

    // Framework grid (strategies × budgets) plus the three baselines, in the
    // order the results list reports them.
    let jobs: Vec<GridJob> = config
        .strategies
        .iter()
        .flat_map(|s| {
            config
                .budgets_for(spec)
                .iter()
                .map(move |b| GridJob::Framework(*s, *b))
        })
        .chain(config.budgets_for(spec).iter().map(|b| GridJob::Online(*b)))
        .chain([GridJob::Numactl, GridJob::Autohbw, GridJob::Cache])
        .collect();
    let outcomes = parallel_map(jobs, |job| -> HmResult<ApproachResult> {
        Ok(match job {
            GridJob::Framework(strategy, budget) => {
                let outcome = Simulation::new()
                    .run(&scenario(PlacementApproach::framework(strategy), budget))?;
                let mib = budget.mib();
                ApproachResult {
                    label: format!("{}/{}", strategy, budget),
                    fom: outcome.node.fom,
                    mcdram_hwm: outcome.node.mcdram_hwm,
                    charged_mcdram_mib: mib,
                    dfom_per_mbyte: delta_fom_per_mbyte(outcome.node.fom, ddr_fom, mib),
                    is_framework: true,
                }
            }
            GridJob::Online(budget) => {
                let run = Simulation::new().run(&scenario(PlacementApproach::Online, budget))?;
                let mib = budget.mib();
                ApproachResult {
                    label: format!("{}/{}", ApproachKind::Online, budget),
                    fom: run.node.fom,
                    mcdram_hwm: run.node.mcdram_hwm,
                    charged_mcdram_mib: mib,
                    dfom_per_mbyte: delta_fom_per_mbyte(run.node.fom, ddr_fom, mib),
                    is_framework: false,
                }
            }
            GridJob::Numactl => {
                let run =
                    Simulation::new().run(&scenario(PlacementApproach::NumactlPreferred, share))?;
                ApproachResult {
                    label: ApproachKind::Numactl.to_string(),
                    fom: run.node.fom,
                    mcdram_hwm: run.node.mcdram_hwm,
                    charged_mcdram_mib: full_mcdram_mib,
                    dfom_per_mbyte: delta_fom_per_mbyte(run.node.fom, ddr_fom, full_mcdram_mib),
                    is_framework: false,
                }
            }
            GridJob::Autohbw => {
                let run =
                    Simulation::new().run(&scenario(PlacementApproach::autohbw_1m(), share))?;
                ApproachResult {
                    label: format!("{}/1m", ApproachKind::AutoHbw),
                    fom: run.node.fom,
                    mcdram_hwm: run.node.mcdram_hwm,
                    charged_mcdram_mib: 0.0,
                    dfom_per_mbyte: 0.0,
                    is_framework: false,
                }
            }
            GridJob::Cache => {
                let run = Simulation::new()
                    .run(&scenario(PlacementApproach::CacheMode, ByteSize::ZERO))?;
                ApproachResult {
                    label: ApproachKind::Cache.to_string(),
                    fom: run.node.fom,
                    mcdram_hwm: ByteSize::ZERO,
                    charged_mcdram_mib: full_mcdram_mib,
                    dfom_per_mbyte: delta_fom_per_mbyte(run.node.fom, ddr_fom, full_mcdram_mib),
                    is_framework: false,
                }
            }
        })
    });

    let mut results = Vec::new();
    for r in outcomes {
        results.push(r?);
    }
    results.push(ApproachResult {
        label: ApproachKind::Ddr.to_string(),
        fom: ddr_fom,
        mcdram_hwm: ByteSize::ZERO,
        charged_mcdram_mib: 0.0,
        dfom_per_mbyte: 0.0,
        is_framework: false,
    });

    Ok(AppExperiment {
        app: spec.name.to_string(),
        fom_name: spec.fom_name.to_string(),
        ddr_fom,
        results,
    })
}

/// Run the grid for every application, in parallel (work-shared across the
/// machine's cores).
pub fn run_full_evaluation(config: &ExperimentConfig) -> Vec<AppExperiment> {
    parallel_map(all_apps(), |spec| run_app_experiment(&spec, config).ok())
        .into_iter()
        .flatten()
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
