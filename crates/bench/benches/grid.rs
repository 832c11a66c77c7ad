//! The Figure-4 grid on one thread, shared against unshared.
//!
//! `run_full_evaluation` profiles each application once and places every
//! framework strategy × budget from that profile; the unshared side runs
//! the same 192 scenarios one by one through `Simulation::run`, which
//! profiles every framework configuration anew. The two are asserted to
//! give every row the same FOM and high-water mark, bit for bit, then timed
//! in interleaved pairs; `profile` (stages 1–2) and `place` (stages 3–4) are
//! timed once per framework configuration. Both the default
//! `ExperimentConfig` (10 iterations) and the full iteration counts
//! (`full_paper_eval --full`) are measured into `BENCH_grid.json`.

use hmem_core::experiment::{run_full_evaluation, ExperimentConfig, GridRow};
use hmem_core::{FrameworkPipeline, Simulation};
use hmsim_apps::{all_apps, AppSpec};
use hmsim_bench::{best_of, median, median_of_pairs, write_artifact};
use hmsim_common::ByteSize;

/// Every row of the grid as (FOM bits, high-water mark), in grid order.
type Rows = Vec<(u64, ByteSize)>;

fn shared(config: &ExperimentConfig) -> Rows {
    let experiments = run_full_evaluation(config);
    let rows = experiments.iter().flat_map(|exp| &exp.results);
    rows.map(|r| (r.fom.to_bits(), r.mcdram_hwm)).collect()
}

fn per_scenario(grid: &[(&AppSpec, GridRow)]) -> Rows {
    let outcome = |(_, row): &(_, GridRow)| Simulation::new().run(&row.scenario).unwrap().node;
    let rows = grid.iter().map(outcome);
    rows.map(|node| (node.fom.to_bits(), node.mcdram_hwm))
        .collect()
}

/// One grid's JSON entry and its speedup.
fn measure(config: &ExperimentConfig, pairs: usize) -> (String, f64) {
    let apps = all_apps();
    let rows = |spec| config.rows(spec).into_iter().map(move |row| (spec, row));
    let grid: Vec<_> = apps.iter().flat_map(rows).collect();
    let expected = per_scenario(&grid);
    assert_eq!(shared(config), expected, "shared grid diverged");
    let paired = median_of_pairs(pairs, || per_scenario(&grid), || shared(config));
    let (mut profile_ms, mut place_ms) = (Vec::new(), Vec::new());
    for (spec, row) in &grid {
        let Some(pipeline) = FrameworkPipeline::for_scenario(&row.scenario) else {
            continue;
        };
        let profile = pipeline.profile(spec).unwrap();
        profile_ms.push(best_of(1, || pipeline.profile(spec).unwrap()) * 1e3);
        place_ms.push(best_of(1, || pipeline.place(spec, &profile).unwrap()) * 1e3);
    }
    let json = format!(
        "{{\"iterations\": {}, \"rows\": {}, \"framework_configs\": {}, \"shared_ms\": {:.2}, \
         \"per_scenario_ms\": {:.2}, \"speedup\": {:.3}, \"profile_ms\": {:.4}, \
         \"place_ms\": {:.4}}}",
        config
            .iterations_override
            .map_or("null".into(), |i| i.to_string()),
        expected.len(),
        profile_ms.len(),
        paired.second_s * 1e3,
        paired.first_s * 1e3,
        paired.ratio,
        median(profile_ms),
        median(place_ms),
    );
    println!("grid: {json}");
    (json, paired.ratio)
}

fn main() {
    let config = |iterations| ExperimentConfig {
        iterations_override: iterations,
        ..ExperimentConfig::default()
    };
    if std::env::args().any(|a| a == "--test") {
        measure(&config(Some(1)), 1);
        return;
    }
    let (default, headline) = measure(&ExperimentConfig::default(), 15);
    let (full, _) = measure(&config(None), 15);
    write_artifact(
        "BENCH_grid.json",
        &format!(
            "{{\n  \"bench\": \"grid\",\n  \"threads\": 1,\n  \"pairs\": 15,\n  \
             \"headline_speedup\": {headline:.3},\n  \"workloads\": {{\n    \
             \"default\": {default},\n    \"full\": {full}\n  }}\n}}\n"
        ),
    );
}
