//! Acceptance gates of the online placement runtime.
//!
//! 1. **Equivalence** — with the per-epoch move budget at zero, the online
//!    runtime's hardware counters, tier traffic and total time bitwise-match
//!    a static `TraceEngine::run_stream` pass on *every* registered phased
//!    workload:
//!    the epoch loop, the PEBS observer and the controller must be pure
//!    observers until they decide to move something.
//! 2. **Wins where it should** — with migrations enabled the runtime beats
//!    the best static placement (the DDR reference or the Framework
//!    approach's offline profile → advise → re-run, whichever is faster; both
//!    through `Simulation`) on the rotating triad, and migrates on every
//!    phase-shifting workload.
//! 3. **Parity where it must** — on stationary workloads the runtime stays
//!    within a few percent of the best static placement instead of paying
//!    for migrations that cannot help.

use hmem_repro::advisor::SelectionStrategy;
use hmem_repro::apps::phased_workloads;
use hmem_repro::autohbw::PlacementApproach;
use hmem_repro::common::ByteSize;
use hmem_repro::core::{Outcome, Scenario, Simulation};
use hmem_repro::machine::TraceEngine;
use hmem_repro::runtime::harness::{loaded_machine, provision};
use hmem_repro::runtime::{OnlineConfig, OnlineRuntime};

/// The best static placement and the online run of a phased workload, both
/// through the facade. The static side is the better of the DDR reference
/// and the Framework approach's profile → advise → re-run.
fn best_static_and_online(
    name: &str,
    array: ByteSize,
    budget: ByteSize,
    cfg: &OnlineConfig,
) -> (Outcome, Outcome) {
    let run = |scenario: &Scenario| Simulation::new().run(scenario).unwrap();
    let online = Scenario::phased(name, array, budget).with_online(cfg.clone());
    let ddr = run(&Scenario {
        approach: PlacementApproach::DdrOnly,
        online: None,
        ..online.clone()
    });
    let profiled = run(&Scenario {
        approach: PlacementApproach::framework(SelectionStrategy::Density),
        online: None,
        ..online.clone()
    });
    let best = if profiled.node.time < ddr.node.time {
        profiled
    } else {
        ddr
    };
    (best, run(&online))
}

#[test]
fn disabled_runtime_counters_bitwise_match_static_engine_on_every_workload() {
    let machine = loaded_machine();
    for workload in phased_workloads(ByteSize::from_kib(32)) {
        let budget = workload.hot_set_size();

        let static_side = provision(&workload, &machine, budget).unwrap();
        let mut engine = TraceEngine::new(&machine);
        let static_misses = engine.run_stream(
            workload.stream(&static_side.ranges),
            static_side.heap.page_table(),
        );

        let mut online_side = provision(&workload, &machine, budget).unwrap();
        let mut rt = OnlineRuntime::new(&machine, budget, OnlineConfig::disabled());
        let online_misses = rt.run(workload.stream(&online_side.ranges), &mut online_side.heap);

        assert_eq!(online_misses, static_misses, "{}", workload.name);
        assert_eq!(
            rt.engine_stats().counters,
            engine.stats().counters,
            "{}: counters diverged",
            workload.name
        );
        assert_eq!(
            rt.engine_stats().tier_traffic,
            engine.stats().tier_traffic,
            "{}: tier traffic diverged",
            workload.name
        );
        assert_eq!(
            rt.total_time().nanos().to_bits(),
            engine.stats().time.nanos().to_bits(),
            "{}: time diverged: {} against {}",
            workload.name,
            rt.total_time().nanos(),
            engine.stats().time.nanos()
        );
        assert_eq!(rt.stats().migrations, 0, "{}", workload.name);
        // Placement untouched: every object still lives where it started.
        for range in &online_side.ranges {
            assert_eq!(
                online_side.heap.page_table().tier_of(range.start),
                static_side.heap.page_table().tier_of(range.start),
                "{}: placement mutated",
                workload.name
            );
        }
    }
}

#[test]
fn online_beats_best_static_on_phase_shifting_workloads() {
    let array = ByteSize::from_kib(64);
    let cfg = OnlineConfig::default().with_epoch_accesses(8_192);
    let mut rotating_checked = false;
    for workload in phased_workloads(array) {
        if workload.stationary {
            continue;
        }
        let budget = workload.hot_set_size();
        let (stat, online) = best_static_and_online(workload.name, array, budget, &cfg);
        assert!(
            online.node.migrations > 0,
            "{}: the runtime should chase the moving hot set",
            workload.name
        );
        // At these 64 KiB arrays migrating must already win on the rotating
        // triad; the sweeping stencil's win (1.141x in BENCH_runtime.json)
        // needs the bench's larger arrays.
        if workload.name == "rotating-triad" {
            assert!(
                online.node.time < stat.node.time,
                "{}: online {} vs best static {} ({})",
                workload.name,
                online.node.time,
                stat.node.time,
                stat.approach
            );
            rotating_checked = true;
        }
    }
    assert!(rotating_checked, "rotating-triad is a registered workload");
}

#[test]
fn online_stays_near_static_on_stationary_workloads() {
    let array = ByteSize::from_kib(64);
    let cfg = OnlineConfig::default();
    for workload in phased_workloads(array) {
        if !workload.stationary {
            continue;
        }
        let budget = workload.hot_set_size();
        let (stat, online) = best_static_and_online(workload.name, array, budget, &cfg);
        let overhead = online.node.time.nanos() / stat.node.time.nanos() - 1.0;
        // The debug-scale arrays here make the one-off costs proportionally
        // larger than at bench scale (where the 2% criterion is enforced);
        // 5% bounds the same behaviour without a release-size run.
        assert!(
            overhead < 0.05,
            "{}: online {} vs static {} ({}) — {:.2}% overhead",
            workload.name,
            online.node.time,
            stat.node.time,
            stat.approach,
            overhead * 100.0
        );
        // No thrash: a stationary run needs at most one fill of the budget
        // plus a handful of corrective moves.
        assert!(
            online.node.migrations <= workload.objects().len() as u64,
            "{}: {} migrations on a stationary workload",
            workload.name,
            online.node.migrations
        );
    }
}
