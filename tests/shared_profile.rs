//! The Figure-4 grid profiles each application once and places every
//! framework configuration from that one profile. Two things make that
//! sound, and both are pinned here on all eight applications:
//!
//! * stages 1 and 2 (`FrameworkPipeline::profile`) read neither the MCDRAM
//!   budget nor the selection strategy, so every configuration of the grid
//!   would produce the same profile;
//! * every row `run_app_experiment` reports equals the same scenario run
//!   alone through `Simulation::run`, bit for bit on FOM and footprint.

use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmem_core::experiment::{run_app_experiment, ExperimentConfig};
use hmem_core::pipeline::{FrameworkPipeline, Profile};
use hmem_core::Simulation;
use hmsim_apps::all_apps;
use hmsim_common::ByteSize;

const ITERS: u32 = 3;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        iterations_override: Some(ITERS),
        ..ExperimentConfig::default()
    }
}

/// A profile as comparable bits: its summary, its report and the overhead.
fn bits(p: Profile) -> (hmsim_trace::TraceSummary, hmsim_analysis::ObjectReport, u64) {
    (
        p.trace_summary,
        p.object_report,
        p.profiling_overhead.to_bits(),
    )
}

#[test]
fn profile_reads_neither_budget_nor_strategy_on_every_app() {
    let config = config();
    let budgets: Vec<ByteSize> = config
        .budgets
        .iter()
        .chain(&config.single_process_budgets)
        .copied()
        .collect();
    for spec in all_apps() {
        let profile = |budget, strategy| {
            let mut pipeline = FrameworkPipeline::new(budget, strategy).with_iterations(ITERS);
            pipeline.seed = config.seed;
            bits(pipeline.profile(&spec).expect("profiling runs"))
        };
        let first = profile(budgets[0], config.strategies[0]);
        assert!(first.0.samples > 0, "{}: no samples", spec.name);
        for &strategy in &config.strategies {
            for &budget in &budgets {
                assert!(
                    profile(budget, strategy) == first,
                    "{}: the profile under {strategy}/{budget} differs",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn grid_rows_match_each_scenario_run_alone_on_every_app() {
    let config = config();
    for spec in all_apps() {
        let exp = run_app_experiment(&spec, &config).expect("experiment grid runs");
        let rows = config.rows(&spec);
        assert_eq!(exp.results.len(), rows.len(), "{}: row count", spec.name);
        for (result, row) in exp.results.iter().zip(rows) {
            let what = format!("{}/{}", spec.name, row.label);
            assert_eq!(result.label, row.label, "{what}: row order");
            let alone = Simulation::new().run(&row.scenario).expect("scenario runs");
            assert_eq!(
                result.fom.to_bits(),
                alone.node.fom.to_bits(),
                "{what}: fom"
            );
            assert_eq!(result.mcdram_hwm, alone.node.mcdram_hwm, "{what}: hwm");
            if row.scenario.approach == PlacementApproach::CacheMode {
                assert_eq!(result.mcdram_hwm, ByteSize::ZERO, "{what}: hwm");
            }
            assert_eq!(result.is_framework, alone.framework.is_some(), "{what}");
        }
        // Framework rows first, then the baselines, the DDR reference last.
        let framework = exp.results.iter().filter(|r| r.is_framework).count();
        assert!(exp.results[..framework].iter().all(|r| r.is_framework));
        let last = exp.results.last().expect("rows");
        assert_eq!(last.label, ApproachKind::Ddr.to_string());
    }
}
