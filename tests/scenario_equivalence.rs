//! The `Simulation` facade is a *description* of a run, not a different
//! runner: for every approach × workload it must reproduce the pre-redesign
//! hand-wired call path — `AppRun::execute(PlacementApproach::X.router())`,
//! the bare `OnlineRuntime`, the harness's `profile_heat` → `select_static`
//! → `run_static` chain, `run_multirank` — bit for bit (FOM, counters,
//! times, migrations, footprint).

use auto_hbwmalloc::PlacementApproach;
use hmem_advisor::SelectionStrategy;
use hmem_core::pipeline::FrameworkPipeline;
use hmem_core::simrun::{AppRun, RunConfig, RunResult};
use hmem_core::{MultiRankSelector, Outcome, Scenario, Simulation};
use hmsim_apps::{app_by_name, MultiRankWorkload};
use hmsim_common::{ByteSize, Nanos};
use hmsim_runtime::harness::{loaded_machine, profile_heat, provision, run_static, select_static};
use hmsim_runtime::{run_multirank, ArbiterPolicy, MultiRankConfig, OnlineConfig, OnlineRuntime};

const BUDGET: ByteSize = ByteSize::from_mib(256);
const ITERS: u32 = 6;

/// Compare the facade's per-rank result against a hand-wired run, bit for
/// bit on every numeric field.
fn assert_bitwise(app: &str, label: &str, old: &RunResult, new: &RunResult) {
    let ctx = |field: &str| format!("{app}/{label}: {field} diverged");
    assert_eq!(old.fom.to_bits(), new.fom.to_bits(), "{}", ctx("fom"));
    assert_eq!(old.counters, new.counters, "{}", ctx("counters"));
    assert_eq!(
        old.total_time.nanos().to_bits(),
        new.total_time.nanos().to_bits(),
        "{}",
        ctx("total_time")
    );
    assert_eq!(
        old.loop_time.nanos().to_bits(),
        new.loop_time.nanos().to_bits(),
        "{}",
        ctx("loop_time")
    );
    assert_eq!(old.mcdram_hwm, new.mcdram_hwm, "{}", ctx("mcdram_hwm"));
    assert_eq!(old.migrations, new.migrations, "{}", ctx("migrations"));
    assert_eq!(
        old.migration_time.nanos().to_bits(),
        new.migration_time.nanos().to_bits(),
        "{}",
        ctx("migration_time")
    );
    assert_eq!(
        old.migrations_rejected,
        new.migrations_rejected,
        "{}",
        ctx("migrations_rejected")
    );
    assert_eq!(
        old.allocator_time.nanos().to_bits(),
        new.allocator_time.nanos().to_bits(),
        "{}",
        ctx("allocator_time")
    );
    assert_eq!(old.approach, new.approach, "{}", ctx("approach"));
}

fn facade(scenario: &Scenario) -> Outcome {
    Simulation::new()
        .run(scenario)
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name))
}

#[test]
fn facade_matches_hand_wired_apprun_for_every_static_and_online_approach() {
    // The five self-contained approaches × three workloads of the
    // acceptance criteria, each also wired by hand: the approach's own
    // router executed by a bare `AppRun`.
    let approaches = [
        PlacementApproach::DdrOnly,
        PlacementApproach::NumactlPreferred,
        PlacementApproach::autohbw_1m(),
        PlacementApproach::CacheMode,
        PlacementApproach::Online,
    ];
    for app in ["miniFE", "HPCG", "SNAP"] {
        let spec = app_by_name(app).unwrap();
        for approach in &approaches {
            let old_config = if *approach == PlacementApproach::CacheMode {
                RunConfig::cache_mode().with_iterations(ITERS)
            } else {
                RunConfig::flat(BUDGET).with_iterations(ITERS)
            };
            let old = AppRun::new(&spec, old_config)
                .execute(approach.router().unwrap())
                .unwrap();

            let budget = if *approach == PlacementApproach::CacheMode {
                ByteSize::ZERO
            } else {
                BUDGET
            };
            let scenario = Scenario::app(app, approach.clone(), budget).with_iterations(ITERS);
            let new = facade(&scenario);

            assert_eq!(new.per_rank.len(), 1);
            assert_bitwise(app, &approach.to_string(), &old, new.result());
            // The node aggregates mirror the single rank.
            assert_eq!(new.node.fom.to_bits(), old.fom.to_bits());
            assert_eq!(new.node.llc_misses, old.counters.llc_misses);
            assert_eq!(new.node.migrations, old.migrations);
        }
    }
}

#[test]
fn facade_matches_the_hand_wired_framework_pipeline() {
    for app in ["miniFE", "HPCG", "SNAP"] {
        let spec = app_by_name(app).unwrap();
        let strategy = SelectionStrategy::Misses {
            threshold_percent: 0.0,
        };
        let old = FrameworkPipeline::new(ByteSize::from_mib(128), strategy)
            .with_iterations(ITERS)
            .run(&spec)
            .unwrap();

        let scenario = Scenario::app(
            app,
            PlacementApproach::framework(strategy),
            ByteSize::from_mib(128),
        )
        .with_iterations(ITERS)
        .with_seed(0xBA5E); // the pipeline's historical default seed
        let new = facade(&scenario);

        assert_bitwise(app, "Framework", &old.result, new.result());
        let fw = new.framework.as_ref().expect("pipeline artefacts");
        assert_eq!(fw.placement.entries, old.placement.entries);
        assert_eq!(fw.object_report, old.object_report);
    }
}

#[test]
fn facade_matches_the_hand_wired_online_runtime_on_trace_workloads() {
    let machine = loaded_machine();
    let array = ByteSize::from_kib(16);
    let cfg = OnlineConfig::default().with_epoch_accesses(8_192);
    for name in ["rotating-triad", "sweeping-stencil", "steady-triad"] {
        let workload = hmsim_apps::phased_workload_by_name(name, array).unwrap();
        let budget = workload.hot_set_size();
        let mut p = provision(&workload, &machine, budget).unwrap();
        let mut old = OnlineRuntime::new(&machine, budget, cfg.clone());
        let old_misses = old.run(workload.stream(&p.ranges), &mut p.heap);

        let scenario = Scenario::phased(name, array, budget).with_online(cfg.clone());
        let new = facade(&scenario);

        assert_eq!(
            old.total_time().nanos().to_bits(),
            new.result().total_time.nanos().to_bits(),
            "{name}: time diverged"
        );
        assert_eq!(old_misses, new.result().counters.llc_misses, "{name}");
        assert_eq!(old.stats().migrations, new.result().migrations, "{name}");
        assert_eq!(
            old.stats().migration_time.nanos().to_bits(),
            new.result().migration_time.nanos().to_bits(),
            "{name}"
        );
    }
}

/// The DDR reference and the paper's static placement on trace workloads:
/// the facade's phased DDR and Framework arms against `run_static` with
/// nothing promoted, and against `profile_heat` (with the online runtime's
/// default PEBS period and seed) → `select_static` → `run_static` chained by
/// hand.
#[test]
fn facade_matches_the_hand_chained_static_placement_on_trace_workloads() {
    let machine = loaded_machine();
    let array = ByteSize::from_kib(16);
    let pebs = OnlineConfig::default();
    for name in ["rotating-triad", "sweeping-stencil", "steady-triad"] {
        let workload = hmsim_apps::phased_workload_by_name(name, array).unwrap();
        let budget = workload.hot_set_size();
        let heat = profile_heat(&workload, &machine, pebs.pebs_period, pebs.seed).unwrap();
        let promoted = select_static(&workload.objects(), &heat, budget);
        assert!(!promoted.is_empty(), "{name}: the profile promotes nothing");

        for (approach, promoted) in [
            (PlacementApproach::DdrOnly, &[][..]),
            (
                PlacementApproach::framework(SelectionStrategy::Density),
                &promoted[..],
            ),
        ] {
            let label = format!("{name}/{approach}");
            let (old, resident) = run_static(&workload, &machine, budget, promoted).unwrap();
            let new = facade(&Scenario {
                approach,
                ..Scenario::phased(name, array, budget)
            });
            let r = new.result();
            assert_eq!(
                old.time.nanos().to_bits(),
                r.total_time.nanos().to_bits(),
                "{label}: time diverged"
            );
            assert_eq!(old.counters.llc_misses, r.counters.llc_misses, "{label}");
            assert_eq!(old.counters, r.counters, "{label}: counters diverged");
            assert_eq!(resident, r.mcdram_hwm, "{label}: residency diverged");
            assert_eq!(r.migrations, 0, "{label}: a static placement moves nothing");
        }
    }
}

#[test]
fn facade_matches_the_hand_wired_multirank_runtime_for_every_policy() {
    let machine = loaded_machine();
    let array = ByteSize::from_kib(16);
    let budget = ByteSize::from_kib(288);
    let online = OnlineConfig::default().with_epoch_accesses(8_192);
    for policy in ArbiterPolicy::ALL {
        let workload = MultiRankWorkload::rank_skew_triad(array, 4, 4, 10);
        let old = run_multirank(
            &workload,
            &machine,
            MultiRankConfig::new(policy, budget).with_online(online.clone()),
        )
        .unwrap();

        let scenario = Scenario::multirank(
            MultiRankSelector::RankSkewTriad {
                array_size: array,
                ranks: 4,
                skew: 4,
                passes: 10,
            },
            policy,
            budget,
        )
        .with_online(online.clone());
        let new = facade(&scenario);

        assert_eq!(new.per_rank.len(), old.per_rank.len(), "{policy}");
        for (o, n) in old.per_rank.iter().zip(&new.per_rank) {
            assert_eq!(
                o.time.nanos().to_bits(),
                n.total_time.nanos().to_bits(),
                "{policy} rank {}",
                o.rank
            );
            assert_eq!(o.engine.counters, n.counters, "{policy} rank {}", o.rank);
            assert_eq!(o.stats.migrations, n.migrations, "{policy} rank {}", o.rank);
            // The facade reports the commit-boundary high-water mark, which
            // can only exceed the end-of-run residency (demotions shrink it).
            assert_eq!(
                o.stats.fast_residency_peak, n.mcdram_hwm,
                "{policy} rank {}",
                o.rank
            );
            assert!(n.mcdram_hwm >= o.fast_residency, "{policy} rank {}", o.rank);
        }
        assert_eq!(
            new.node.time.nanos().to_bits(),
            old.node_time().nanos().to_bits(),
            "{policy}"
        );
        assert_eq!(new.node.llc_misses, old.total_misses(), "{policy}");
        assert_eq!(new.node.migrations, old.total_migrations(), "{policy}");
        assert_eq!(new.node.node_epochs, old.node_epochs, "{policy}");
        assert!(new.node.time >= Nanos::ZERO);
    }
}
