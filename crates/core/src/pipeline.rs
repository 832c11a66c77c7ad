//! The four-stage framework pipeline (Figure 2 of the paper).
//!
//! 1. **Profile** the application with the Extrae-analogue profiler on a
//!    DDR-resident run.
//! 2. **Analyse** the profile with the Paramedir analogue, producing the
//!    per-object LLC-miss/size report.
//! 3. **Advise**: `hmem_advisor` selects the objects to promote for the given
//!    MCDRAM budget and strategy.
//! 4. **Re-run** the unmodified application with `auto-hbwmalloc` interposed,
//!    honouring the advisor's report.
//!
//! [`FrameworkPipeline::profile`] runs stages 1 and 2, which read neither the
//! budget nor the strategy, so a sweep over both (the Figure-4 grid) profiles
//! each application once; [`FrameworkPipeline::place`] runs stages 3 and 4
//! from that [`Profile`], and [`FrameworkPipeline::run`] chains the two.
//!
//! Stage 2 is one [`EventSink`]: the per-object analysis paired with the
//! trace summary. Only what feeds it differs between the two hand-offs. In
//! memory, the profiler emits straight into it, so no trace is built,
//! sorted or walked again; stage 2 takes each interval's samples in the
//! per-object order the profiler emits them, which does not change the
//! report. With a spill path, the paper's own hand-off, the profiler emits
//! into the chunked [`BinaryWriter`], which stores the trace on disk in time
//! order, and a [`TraceReader`] then streams the file into the same sink.
//! Neither way holds a whole trace in memory.

use crate::scenario::Scenario;
use crate::simrun::{AppRun, RunConfig, RunResult};
use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec, PlacementReport, SelectionStrategy};
use hmsim_analysis::{ObjectReport, ObjectStatsBuilder};
use hmsim_apps::AppSpec;
use hmsim_common::{ByteSize, HmResult};
use hmsim_profiler::ProfilerConfig;
use hmsim_trace::{BinaryWriter, EventSink, TraceReader, TraceSummary, TraceSummaryBuilder};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// Configuration of one end-to-end pipeline execution.
#[derive(Clone, Debug)]
pub struct FrameworkPipeline {
    /// Per-rank MCDRAM budget handed to the advisor and to auto-hbwmalloc
    /// (stages 3 and 4; the profiling run does not read it).
    pub mcdram_budget: ByteSize,
    /// Selection strategy (stage 3).
    pub strategy: SelectionStrategy,
    /// Profiler configuration for the profiling run.
    pub profiler: ProfilerConfig,
    /// Iteration override applied to both runs (None = the spec's count).
    pub iterations_override: Option<u32>,
    /// Master seed; the profiling and final runs use different derived ASLR
    /// layouts, exercising the translation path exactly as a real re-run
    /// under ASLR would.
    pub seed: u64,
    /// When set, the profiler emits its trace to this path through the
    /// chunked binary writer and stage 2 streams it back from disk — the
    /// out-of-core hand-off between Extrae and Paramedir. The file stays
    /// behind for other readers.
    pub trace_spill: Option<PathBuf>,
}

impl FrameworkPipeline {
    /// A pipeline with the paper's defaults for a given budget and strategy.
    pub fn new(mcdram_budget: ByteSize, strategy: SelectionStrategy) -> Self {
        FrameworkPipeline {
            mcdram_budget,
            strategy,
            profiler: ProfilerConfig::default(),
            iterations_override: None,
            seed: 0xBA5E,
            trace_spill: None,
        }
    }

    /// The pipeline a Framework scenario runs (None for every other
    /// approach): the scenario's budget, strategy, seed, iteration count and
    /// profiler.
    pub fn for_scenario(scenario: &Scenario) -> Option<Self> {
        let PlacementApproach::Framework { strategy } = scenario.approach else {
            return None;
        };
        Some(FrameworkPipeline {
            profiler: scenario.profiling.clone().unwrap_or_default(),
            iterations_override: scenario.iterations,
            seed: scenario.seed,
            ..FrameworkPipeline::new(scenario.mcdram_budget, strategy)
        })
    }

    /// Spill the profiling trace to a binary file at `path` and run the
    /// analysis stage as a stream over it (out-of-core mode).
    pub fn with_trace_spill(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_spill = Some(path.into());
        self
    }

    /// Override the iteration count (both runs).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations_override = Some(iterations);
        self
    }

    /// Override the profiler configuration.
    pub fn with_profiler(mut self, profiler: ProfilerConfig) -> Self {
        self.profiler = profiler;
        self
    }

    fn run_config(&self, budget: ByteSize) -> RunConfig {
        let mut cfg = RunConfig::flat(budget);
        cfg.seed = self.seed;
        if let Some(it) = self.iterations_override {
            cfg = cfg.with_iterations(it);
        }
        cfg
    }

    /// Execute the four stages for one application.
    pub fn run(&self, spec: &AppSpec) -> HmResult<FrameworkOutcome> {
        self.place(spec, &self.profile(spec)?)
    }

    /// Stages 1 and 2 for one application: profile it on a DDR-resident run
    /// and analyse the profile into the per-object report. In memory the
    /// profile streams into stage 2 as it is emitted. In spill mode it
    /// streams into the binary writer, and stage 2 reads the file back; an
    /// I/O error on the way fails the call with
    /// [`HmError::Io`](hmsim_common::HmError::Io).
    pub fn profile(&self, spec: &AppSpec) -> HmResult<Profile> {
        // No budget: the DDR-only router never allocates in MCDRAM.
        let run = AppRun::new(
            spec,
            self.run_config(ByteSize::ZERO)
                .with_profiling(self.profiler.clone()),
        );
        let router = PlacementApproach::DdrOnly.router()?;
        let mut stage2 = (
            ObjectStatsBuilder::new(spec.name),
            TraceSummaryBuilder::default(),
        );
        let (result, (object_report, trace_summary)) = match &self.trace_spill {
            None => run.execute_into(router, stage2)?,
            Some(path) => {
                let file = BufWriter::new(File::create(path)?);
                let writer = BinaryWriter::new(file, &run.trace_metadata())?;
                let (result, writer) = run.execute_into(router, writer)?;
                writer.finish()?;
                for event in TraceReader::open(path)? {
                    stage2.event(&event?);
                }
                (result, stage2)
            }
        };
        Ok(Profile {
            trace_summary: trace_summary.finish(),
            object_report: object_report.finish(),
            profiling_overhead: result.monitoring_overhead,
        })
    }

    /// Stages 3 and 4 for one application, from its `profile`: the advisor
    /// sizes the placement for this pipeline's budget and strategy, and the
    /// application re-runs with auto-hbwmalloc honouring it.
    pub fn place(&self, spec: &AppSpec, profile: &Profile) -> HmResult<FrameworkOutcome> {
        // Stage 3: hmem_advisor.
        let memspec = MemorySpec::knl_budget(self.mcdram_budget);
        let placement: PlacementReport =
            Advisor::new().advise(&profile.object_report, &memspec, self.strategy)?;

        // Stage 4: re-run with auto-hbwmalloc interposed, under a different
        // ASLR layout (different process instance).
        let (unwinder, translator) = AppRun::callstack_machinery(spec, self.seed ^ 0x5a5a_5a5a);
        let library = AutoHbwMalloc::new(placement.clone(), unwinder, translator)
            .with_budget(self.mcdram_budget);
        let final_cfg = self.run_config(self.mcdram_budget);
        let result = AppRun::new(spec, final_cfg).execute(AllocationRouter::framework(library))?;

        Ok(FrameworkOutcome {
            trace_summary: profile.trace_summary.clone(),
            object_report: profile.object_report.clone(),
            placement,
            profiling_overhead: profile.profiling_overhead,
            result,
        })
    }
}

/// What stages 1 and 2 hand to the advisor.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Summary of the profile (sample counts, allocation counts, …).
    pub trace_summary: TraceSummary,
    /// The per-object report.
    pub object_report: ObjectReport,
    /// Monitoring overhead of the profiling run (fraction).
    pub profiling_overhead: f64,
}

/// Everything the pipeline produces for one application.
#[derive(Clone, Debug)]
pub struct FrameworkOutcome {
    /// Summary of the profiling trace (sample counts, allocation counts, …).
    pub trace_summary: TraceSummary,
    /// The per-object report handed to the advisor.
    pub object_report: ObjectReport,
    /// The advisor's selection.
    pub placement: PlacementReport,
    /// Monitoring overhead of the profiling run (fraction).
    pub profiling_overhead: f64,
    /// The final, placement-honouring run.
    pub result: RunResult,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simrun::{AppRun, RunConfig};
    use hmsim_apps::app_by_name;
    use hmsim_common::HmError;

    fn quick(
        budget_mib: u64,
        strategy: SelectionStrategy,
        app: &str,
    ) -> (FrameworkOutcome, RunResult) {
        let spec = app_by_name(app).unwrap();
        let pipeline =
            FrameworkPipeline::new(ByteSize::from_mib(budget_mib), strategy).with_iterations(8);
        let outcome = pipeline.run(&spec).unwrap();
        let ddr = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(budget_mib)).with_iterations(8),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        (outcome, ddr)
    }

    #[test]
    fn pipeline_improves_minife_over_ddr() {
        let (outcome, ddr) = quick(
            128,
            SelectionStrategy::Misses {
                threshold_percent: 0.0,
            },
            "miniFE",
        );
        assert!(
            outcome.result.fom > ddr.fom * 1.2,
            "framework {} vs ddr {}",
            outcome.result.fom,
            ddr.fom
        );
        // The advisor selected the hot CG objects.
        let names: Vec<&str> = outcome
            .placement
            .automatic_entries()
            .map(|e| e.name.as_str())
            .collect();
        assert!(names.contains(&"A.coefs"), "selected {names:?}");
        // And MCDRAM usage stays within the budget.
        assert!(outcome.result.mcdram_hwm <= ByteSize::from_mib(128));
        assert!(outcome.result.mcdram_hwm > ByteSize::ZERO);
    }

    #[test]
    fn pipeline_profiling_stage_matches_paper_scale() {
        let (outcome, _) = quick(64, SelectionStrategy::Density, "miniFE");
        // Sample counts per process in the thousands at most (Table I scale),
        // never the millions an instruction-level tool would produce.
        assert!(outcome.trace_summary.samples < 50_000);
        assert!(outcome.profiling_overhead < 0.1);
        assert!(outcome.object_report.total_misses > 0);
    }

    #[test]
    fn trace_spill_mode_produces_the_same_outcome() {
        let spec = app_by_name("miniFE").unwrap();
        let budget = ByteSize::from_mib(128);
        let strategy = SelectionStrategy::Misses {
            threshold_percent: 0.0,
        };
        let in_memory = FrameworkPipeline::new(budget, strategy)
            .with_iterations(6)
            .run(&spec)
            .unwrap();
        let spill_path = std::env::temp_dir().join(format!(
            "hmsim_pipeline_spill_test_{}.hmtb",
            std::process::id()
        ));
        let spilled = FrameworkPipeline::new(budget, strategy)
            .with_iterations(6)
            .with_trace_spill(&spill_path)
            .run(&spec)
            .unwrap();
        // The on-disk streamed analysis must match the in-memory analysis
        // bitwise, and everything downstream of it too.
        assert_eq!(spilled.object_report, in_memory.object_report);
        assert_eq!(spilled.placement.entries, in_memory.placement.entries);
        assert_eq!(spilled.result.fom, in_memory.result.fom);
        assert!(spill_path.exists(), "binary trace file written");
        let reader = hmsim_trace::TraceReader::open(&spill_path).unwrap();
        assert_eq!(reader.metadata().application, "miniFE");
        let _ = std::fs::remove_file(&spill_path);
    }

    #[test]
    fn a_spill_path_that_cannot_be_created_is_an_io_error() {
        let spec = app_by_name("miniFE").unwrap();
        let missing =
            std::env::temp_dir().join(format!("hmsim_pipeline_missing_dir_{}", std::process::id()));
        let err = FrameworkPipeline::new(ByteSize::from_mib(128), SelectionStrategy::Density)
            .with_iterations(2)
            .with_trace_spill(missing.join("trace.hmtb"))
            .profile(&spec)
            .unwrap_err();
        assert!(matches!(err, HmError::Io(_)), "{err:?}");
        assert!(!missing.exists());
    }

    #[test]
    fn bigger_budgets_never_hurt_hpcg() {
        let strategies = SelectionStrategy::Misses {
            threshold_percent: 0.0,
        };
        let (small, _) = quick(32, strategies, "HPCG");
        let (large, _) = quick(256, strategies, "HPCG");
        assert!(
            large.result.fom >= small.result.fom * 0.98,
            "256 MiB {} vs 32 MiB {}",
            large.result.fom,
            small.result.fom
        );
    }
}
