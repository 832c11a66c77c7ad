//! The framework pipeline hands its profile to the analysis stage as the
//! profiler emits it, so in memory no trace is ever built. That hand-off
//! must give exactly what the materialised one gives. The oracle here
//! records the whole trace, summarises it by feeding every event to a
//! `TraceSummaryBuilder`, analyses it with `analyze_trace` and chains the
//! advisor and the re-run by hand.
//! Every application is checked at the paper's sampling period and at a
//! dense one, with the trace kept in memory and spilled to disk; the spilled
//! file must equal `write_binary` of the recorded trace byte for byte.

use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec, PlacementReport, SelectionStrategy};
use hmem_core::pipeline::{FrameworkOutcome, FrameworkPipeline};
use hmem_core::simrun::{AppRun, RunConfig, RunResult};
use hmsim_analysis::{analyze_trace, ObjectReport};
use hmsim_apps::{all_apps, AppSpec};
use hmsim_common::ByteSize;
use hmsim_profiler::ProfilerConfig;
use hmsim_trace::{write_binary, EventSink, TraceSummary, TraceSummaryBuilder};

const BUDGET: ByteSize = ByteSize::from_mib(128);
const ITERS: u32 = 12;

struct Oracle {
    /// The recorded trace in the binary format.
    binary: Vec<u8>,
    trace_summary: TraceSummary,
    object_report: ObjectReport,
    profiling_overhead: f64,
    placement: PlacementReport,
    result: RunResult,
}

/// The four stages with a materialised trace between stages 1 and 2.
fn oracle(pipeline: &FrameworkPipeline, spec: &AppSpec) -> Oracle {
    let mut cfg = RunConfig::flat(pipeline.mcdram_budget);
    cfg.seed = pipeline.seed;
    cfg.iterations_override = pipeline.iterations_override;
    let mut profiled = AppRun::new(spec, cfg.clone().with_profiling(pipeline.profiler.clone()))
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
    let trace = profiled.trace.take().expect("profiled run keeps its trace");
    let mut summary = TraceSummaryBuilder::default();
    for e in trace.events() {
        summary.event(e);
    }
    let trace_summary = summary.finish();
    let object_report = analyze_trace(&trace);
    let placement = Advisor::new()
        .advise(
            &object_report,
            &MemorySpec::knl_budget(pipeline.mcdram_budget),
            pipeline.strategy,
        )
        .unwrap();
    let (unwinder, translator) = AppRun::callstack_machinery(spec, pipeline.seed ^ 0x5a5a_5a5a);
    let library = AutoHbwMalloc::new(placement.clone(), unwinder, translator)
        .with_budget(pipeline.mcdram_budget);
    let result = AppRun::new(spec, cfg)
        .execute(AllocationRouter::framework(library))
        .unwrap();
    Oracle {
        binary: write_binary(&trace),
        trace_summary,
        object_report,
        profiling_overhead: profiled.monitoring_overhead,
        placement,
        result,
    }
}

fn assert_matches(what: &str, got: &FrameworkOutcome, want: &Oracle) {
    assert!(want.trace_summary.samples > 0, "{what}: no samples");
    assert_eq!(got.trace_summary, want.trace_summary, "{what}: summary");
    assert_eq!(got.object_report, want.object_report, "{what}: report");
    assert_eq!(
        got.profiling_overhead.to_bits(),
        want.profiling_overhead.to_bits(),
        "{what}: profiling overhead"
    );
    assert_eq!(
        got.placement.entries, want.placement.entries,
        "{what}: placement"
    );
    let (got, want) = (&got.result, &want.result);
    let bits = |r: &RunResult| {
        let times = [r.total_time, r.loop_time, r.allocator_time].map(|t| t.nanos());
        [[r.fom, r.monitoring_overhead].as_slice(), &times]
            .concat()
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want), "{what}: result times");
    assert_eq!(got.counters, want.counters, "{what}: counters");
    assert_eq!(got.mcdram_hwm, want.mcdram_hwm, "{what}: footprint");
    assert_eq!(got.kernel_times, want.kernel_times, "{what}: kernel times");
    assert!(got.trace.is_none() && want.trace.is_none(), "{what}");
}

#[test]
fn streamed_and_spilled_hand_offs_match_the_materialised_oracle_on_every_app() {
    let apps = all_apps();
    assert_eq!(apps.len(), 8);
    let dir = std::env::temp_dir();
    for spec in &apps {
        for (label, profiler) in [
            ("default", ProfilerConfig::default()),
            ("dense", ProfilerConfig::dense(4_001)),
        ] {
            let pipeline = FrameworkPipeline::new(BUDGET, SelectionStrategy::Density)
                .with_iterations(ITERS)
                .with_profiler(profiler);
            let want = oracle(&pipeline, spec);

            let what = format!("{}/{label}/in memory", spec.name);
            assert_matches(&what, &pipeline.run(spec).unwrap(), &want);

            let path = dir.join(format!(
                "hmsim_profile_handoff_{}_{}_{label}.hmtb",
                std::process::id(),
                spec.name
            ));
            let spilled = pipeline.clone().with_trace_spill(&path).run(spec);
            let bytes = std::fs::read(&path);
            let _ = std::fs::remove_file(&path);
            let what = format!("{}/{label}/spilled", spec.name);
            assert!(bytes.unwrap() == want.binary, "{what}: spilled bytes");
            assert_matches(&what, &spilled.unwrap(), &want);
        }
    }
}
