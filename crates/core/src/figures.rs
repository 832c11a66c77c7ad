//! Generators for the paper's remaining figures and tables: the STREAM
//! scaling curves (Figure 1), the call-stack cost breakdown (Figure 3), the
//! application-characteristics table (Table I) and the SNAP Folding timeline
//! (Figure 5).

use crate::pipeline::FrameworkPipeline;
use crate::simrun::{AppRun, RunConfig, RunResult};
use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec, SelectionStrategy};
use hmsim_analysis::FoldedTimeline;
use hmsim_apps::{all_apps, app_by_name, AppSpec, StreamBenchmark};
use hmsim_callstack::CallstackCostModel;
use hmsim_common::{ByteSize, HmResult, Nanos};
use hmsim_machine::MachineConfig;
use hmsim_profiler::ProfilerConfig;
use hmsim_trace::TraceSummaryBuilder;

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One row of Figure 1: `(cores, DDR GB/s, MCDRAM-flat GB/s, MCDRAM-cache GB/s)`.
pub type Figure1Row = (u32, f64, f64, f64);

/// Generate the Figure-1 data on the paper's KNL node.
pub fn figure1() -> Vec<Figure1Row> {
    StreamBenchmark::default().figure1(&MachineConfig::knl_7250())
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One row of Figure 3: `(call-stack depth, unwind µs, translate µs)`.
pub type Figure3Row = (usize, f64, f64);

/// Generate the Figure-3 data (depths 1–9 as in the paper).
pub fn figure3() -> Vec<Figure3Row> {
    CallstackCostModel::knl_7250().figure3_series(9)
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One application's row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Application name and version.
    pub application: String,
    /// Source lines of code.
    pub lines_of_code: u32,
    /// Implementation language.
    pub language: String,
    /// Parallelisation model.
    pub parallelism: String,
    /// Execution geometry (ranks × threads).
    pub geometry: String,
    /// Problem size.
    pub problem_size: String,
    /// Figure-of-merit name.
    pub fom_name: String,
    /// Direct allocation statements (m/r/f/n/d/a/D).
    pub alloc_statements: String,
    /// Allocations per process per second (traced + untraced).
    pub allocs_per_process_per_second: f64,
    /// Memory high-water mark per process, MiB.
    pub memory_hwm_mib: f64,
    /// Monitoring overhead (percent of the uninstrumented run time).
    pub monitoring_overhead_percent: f64,
    /// PEBS samples captured per process.
    pub samples_per_process: u64,
    /// PEBS samples per process per second.
    pub samples_per_process_per_second: f64,
}

/// Generate Table I by running the profiler over every application model.
///
/// `iterations_override` keeps the runs short (None = the full iteration
/// counts from the specs).
pub fn table1(iterations_override: Option<u32>) -> HmResult<Vec<Table1Row>> {
    all_apps()
        .iter()
        .map(|spec| table1_row(spec, iterations_override))
        .collect()
}

/// Generate one application's Table-I row.
fn table1_row(spec: &AppSpec, iterations_override: Option<u32>) -> HmResult<Table1Row> {
    let mut cfg = RunConfig::flat(ByteSize::from_gib(16) / u64::from(spec.ranks.max(1)))
        .with_profiling(ProfilerConfig::default());
    if let Some(it) = iterations_override {
        cfg = cfg.with_iterations(it);
    }
    let (result, summary) = AppRun::new(spec, cfg).execute_into(
        PlacementApproach::DdrOnly.router()?,
        TraceSummaryBuilder::default(),
    )?;
    let summary = summary.finish();
    let secs = result.loop_time.secs().max(1e-9);

    // Scale the measured per-iteration sample rate up to the paper's full
    // iteration count so the table is comparable even with a short override.
    let full_iterations = f64::from(spec.iterations);
    let run_iterations = f64::from(iterations_override.unwrap_or(spec.iterations).max(1));
    let scale = full_iterations / run_iterations;

    Ok(Table1Row {
        application: format!("{} {}", spec.name, spec.version),
        lines_of_code: spec.lines_of_code,
        language: spec.language.to_string(),
        parallelism: spec.parallelism.to_string(),
        geometry: if spec.ranks == 1 {
            format!("{} threads", spec.threads_per_rank)
        } else {
            format!(
                "{} ranks, {} threads/rank",
                spec.ranks, spec.threads_per_rank
            )
        },
        problem_size: spec.problem_size.to_string(),
        fom_name: spec.fom_name.to_string(),
        alloc_statements: spec.alloc_statement_counts.to_string(),
        allocs_per_process_per_second: spec.small_allocs_per_second
            + spec.traced_alloc_rate(result.loop_time / run_iterations),
        memory_hwm_mib: spec.footprint().mib(),
        monitoring_overhead_percent: result.monitoring_overhead * 100.0,
        samples_per_process: (summary.samples as f64 * scale) as u64,
        samples_per_process_per_second: summary.samples as f64 / secs,
    })
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// The data behind Figure 5: SNAP's folded iteration timeline under the
/// framework and under `numactl -p 1`, plus the per-kernel MIPS that explain
/// the dip in `outer_src_calc`.
#[derive(Clone, Debug)]
pub struct Figure5Data {
    /// Folded timeline of the framework run.
    pub framework: FoldedTimeline,
    /// Folded timeline of the numactl run.
    pub numactl: FoldedTimeline,
    /// Per-kernel (name, framework MIPS, numactl MIPS).
    pub kernel_mips: Vec<(String, f64, f64)>,
}

/// Generate the Figure-5 data.
pub fn figure5(iterations: u32, bins: usize) -> HmResult<Figure5Data> {
    let spec = app_by_name("SNAP").expect("SNAP model exists");
    let budget = ByteSize::from_mib(256);

    // Dense profiling so the folded timeline has enough counter snapshots.
    let dense_profiler = ProfilerConfig {
        sampling_period: 4_001,
        counter_snapshot_interval: Nanos::from_millis(1.0),
        ..Default::default()
    };

    // Framework run: profile and advise to get the placement, then a
    // densely profiled re-run under it.
    let strategy = SelectionStrategy::Misses {
        threshold_percent: 0.0,
    };
    let profile = FrameworkPipeline::new(budget, strategy)
        .with_iterations(iterations)
        .profile(&spec)?;
    let placement = Advisor::new().advise(
        &profile.object_report,
        &MemorySpec::knl_budget(budget),
        strategy,
    )?;
    let (unwinder, translator) = AppRun::callstack_machinery(&spec, 0xF165);
    let library = AutoHbwMalloc::new(placement, unwinder, translator).with_budget(budget);
    let framework_run = AppRun::new(
        &spec,
        RunConfig::flat(budget)
            .with_iterations(iterations)
            .with_profiling(dense_profiler.clone()),
    )
    .execute(AllocationRouter::framework(library))?;

    // numactl run, also profiled.
    let numactl_run = AppRun::new(
        &spec,
        RunConfig::flat(ByteSize::from_mib(256))
            .with_iterations(iterations)
            .with_profiling(dense_profiler),
    )
    .execute(PlacementApproach::NumactlPreferred.router()?)?;

    let fold = |run: &RunResult| {
        FoldedTimeline::fold(
            run.trace.as_ref().expect("profiled run has a trace"),
            "iteration",
            bins,
        )
    };
    let framework_folded = fold(&framework_run);
    let numactl_folded = fold(&numactl_run);

    let kernel_mips = spec
        .kernels
        .iter()
        .map(|k| {
            let mips = |run: &RunResult| {
                let time = run
                    .kernel_times
                    .iter()
                    .find(|(name, _)| name == k.name)
                    .map(|(_, t)| *t)
                    .unwrap_or(Nanos::ZERO);
                let instructions = spec.instructions_per_iteration as f64 * k.instruction_share;
                if time.secs() <= 0.0 {
                    0.0
                } else {
                    instructions / time.secs() / 1e6
                }
            };
            (k.name.to_string(), mips(&framework_run), mips(&numactl_run))
        })
        .collect();

    Ok(Figure5Data {
        framework: framework_folded,
        numactl: numactl_folded,
        kernel_mips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_has_nine_points_with_the_expected_ordering() {
        let rows = figure1();
        assert_eq!(rows.len(), 9);
        let (_, ddr, flat, cache) = rows[rows.len() - 1];
        assert!(flat > cache && cache > ddr);
    }

    #[test]
    fn figure3_shows_the_crossover() {
        let rows = figure3();
        assert_eq!(rows.len(), 9);
        assert!(rows[0].1 > rows[0].2, "unwind dominates at depth 1");
        assert!(rows[8].2 > rows[8].1, "translate dominates at depth 9");
    }

    #[test]
    fn table1_covers_all_eight_apps_with_paper_scale_numbers() {
        let rows = table1(Some(4)).unwrap();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                row.memory_hwm_mib > 100.0,
                "{} HWM {}",
                row.application,
                row.memory_hwm_mib
            );
            assert!(
                row.monitoring_overhead_percent < 10.0,
                "{} overhead {}",
                row.application,
                row.monitoring_overhead_percent
            );
            assert!(row.samples_per_process > 0);
        }
        // The allocation-heavy apps report the highest allocation rates.
        let rate = |name: &str| {
            rows.iter()
                .find(|r| r.application.starts_with(name))
                .unwrap()
                .allocs_per_process_per_second
        };
        assert!(rate("MAXW-DGTD") > rate("CGPOP"));
        assert!(rate("HPCG") > rate("BT"));
    }

    #[test]
    fn figure5_shows_the_outer_src_calc_dip_under_the_framework_only() {
        let data = figure5(4, 12).unwrap();
        assert!(data.framework.instances >= 4);
        let outer = data
            .kernel_mips
            .iter()
            .find(|(name, _, _)| name == "outer_src_calc")
            .unwrap();
        let sweep = data
            .kernel_mips
            .iter()
            .find(|(name, _, _)| name == "octsweep")
            .unwrap();
        // Under the framework the spill-bound routine runs at a lower MIPS
        // rate relative to numactl; the sweep kernel does not suffer as much.
        let outer_ratio = outer.1 / outer.2.max(1e-9);
        let sweep_ratio = sweep.1 / sweep.2.max(1e-9);
        assert!(
            outer_ratio < sweep_ratio,
            "outer {outer_ratio} vs sweep {sweep_ratio}"
        );
        assert!(
            outer_ratio < 1.0,
            "framework MIPS dip missing ({outer_ratio})"
        );
    }
}
