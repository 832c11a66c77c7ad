//! Cross-crate integration tests exercising the framework's on-disk
//! artefacts end to end: the Extrae-style binary trace, the advisor's
//! memory-specification file and its human-readable placement report — i.e.
//! the hand-off files between the four stages of Figure 2, round-tripped
//! through their serialised forms.

use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec, PlacementReport, SelectionStrategy};
use hmem_core::simrun::{AppRun, RunConfig};
use hmsim_analysis::analyze_trace;
use hmsim_apps::app_by_name;
use hmsim_common::ByteSize;
use hmsim_profiler::ProfilerConfig;
use hmsim_trace::{read_binary, write_binary};

#[test]
fn the_four_stage_hand_off_survives_serialisation_between_every_stage() {
    let spec = app_by_name("miniFE").unwrap();
    let budget = ByteSize::from_mib(128);

    // Stage 1: profile, then write the trace to its binary form and read it
    // back (what Extrae's trace file does).
    let profiled = AppRun::new(
        &spec,
        RunConfig::flat(budget)
            .with_iterations(6)
            .with_profiling(ProfilerConfig::default()),
    )
    .execute(PlacementApproach::DdrOnly.router().unwrap())
    .unwrap();
    let trace = profiled.trace.unwrap();
    let trace_back = read_binary(&write_binary(&trace)).unwrap();
    assert_eq!(trace_back.metadata, trace.metadata);
    assert_eq!(trace_back.events(), trace.events());
    assert_eq!(trace_back.metadata.application, "miniFE");

    // Stage 2: analysing the re-read trace gives the report the original
    // trace gives (Paramedir's output).
    let report = analyze_trace(&trace_back);
    assert_eq!(report, analyze_trace(&trace));
    assert!(report.objects.iter().any(|o| o.name == "A.coefs"));

    // Stage 3: the memory specification is itself a config file; parse it,
    // advise, and round-trip the placement report text.
    let memspec_text = MemorySpec::knl_budget(budget).to_config_text();
    let memspec = MemorySpec::parse(&memspec_text).unwrap();
    let placement = Advisor::new()
        .advise(
            &report,
            &memspec,
            SelectionStrategy::Misses {
                threshold_percent: 0.0,
            },
        )
        .unwrap();
    let placement_text = placement.to_text();
    let placement_back = PlacementReport::parse(&placement_text).unwrap();
    assert_eq!(
        placement_back.automatic_entries().count(),
        placement.automatic_entries().count()
    );
    assert_eq!(placement_back.lb_size, placement.lb_size);
    assert_eq!(placement_back.ub_size, placement.ub_size);

    // Stage 4: feed the *parsed-back* report to auto-hbwmalloc and verify the
    // re-run still promotes the hot objects and beats the DDR reference.
    let (unwinder, translator) = AppRun::callstack_machinery(&spec, 0xD15C);
    let library = AutoHbwMalloc::new(placement_back, unwinder, translator).with_budget(budget);
    let rerun = AppRun::new(&spec, RunConfig::flat(budget).with_iterations(6))
        .execute(AllocationRouter::framework(library))
        .unwrap();
    let ddr = AppRun::new(&spec, RunConfig::flat(budget).with_iterations(6))
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
    assert!(rerun.mcdram_hwm > ByteSize::ZERO);
    assert!(
        rerun.fom > ddr.fom * 1.3,
        "re-run {} vs DDR {}",
        rerun.fom,
        ddr.fom
    );
}

#[test]
fn profiling_is_cheap_and_sample_counts_match_table_one_scale() {
    // Monitoring overhead stays in the sub-percent to low-percent range and
    // the number of samples per process stays in the thousands — the paper's
    // central argument for sampling over instruction-level instrumentation.
    for app in ["HPCG", "SNAP", "MAXW-DGTD"] {
        let spec = app_by_name(app).unwrap();
        let run = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(256))
                .with_iterations(6)
                .with_profiling(ProfilerConfig::default()),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        let trace = run.trace.unwrap();
        assert!(
            run.monitoring_overhead < 0.06,
            "{app}: overhead {}",
            run.monitoring_overhead
        );
        assert!(
            trace.sample_count() > 10 && trace.sample_count() < 100_000,
            "{app}: {} samples",
            trace.sample_count()
        );
    }
}

#[test]
fn advisor_reports_are_actionable_for_static_heavy_codes() {
    // CGPOP keeps a large share of its traffic on static data; the advisor
    // must list those objects as manual suggestions rather than silently
    // ignoring them (paper: the report is human-readable precisely so that
    // developers can act on static variables).
    let spec = app_by_name("CGPOP").unwrap();
    let profiled = AppRun::new(
        &spec,
        RunConfig::flat(ByteSize::from_mib(256))
            .with_iterations(6)
            .with_profiling(ProfilerConfig::default()),
    )
    .execute(PlacementApproach::DdrOnly.router().unwrap())
    .unwrap();
    let report = analyze_trace(profiled.trace.as_ref().unwrap());
    let placement = Advisor::new()
        .advise(
            &report,
            &MemorySpec::knl_budget(ByteSize::from_mib(64)),
            SelectionStrategy::Density,
        )
        .unwrap();
    assert!(
        placement
            .manual_entries()
            .any(|e| e.name == "grid_constants_common"),
        "hot static variable must appear as a manual suggestion"
    );
    assert!(placement.automatic_entries().count() >= 2);
}
