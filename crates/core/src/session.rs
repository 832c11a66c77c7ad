//! The `Simulation` facade: one dispatch surface for every scenario.
//!
//! [`Simulation::run`] takes a validated [`Scenario`] and routes it to the
//! right execution engine — the analytic [`AppRun`] (optionally through the
//! four-stage [`FrameworkPipeline`] when the approach embeds an advisor
//! strategy), the trace engine for a phased workload (the DDR reference, the
//! paper's profile → advise → re-run static placement, or the migrating
//! [`OnlineRuntime`]), or the sharded
//! [`MultiRankRuntime`](hmsim_runtime::MultiRankRuntime) — and returns one
//! unified [`Outcome`]: per-rank [`RunResult`]s plus node-level aggregates,
//! labelled with the typed [`ApproachKind`].
//!
//! The facade reproduces the hand-wired call paths bit for bit (pinned by
//! `tests/scenario_equivalence.rs`): a scenario is a *description* of a run,
//! not a different runner. On phased workloads it is the only runner: the
//! `hmsim_runtime::harness` functions it chains are its building blocks.

use crate::pipeline::{FrameworkOutcome, FrameworkPipeline};
use crate::scenario::{MultiRankSelector, Scenario, WorkloadSelector};
use crate::simrun::{AppRun, RunConfig, RunResult};
use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmsim_apps::MultiRankWorkload;
use hmsim_common::{ByteSize, HmError, HmResult, Nanos};
use hmsim_machine::{EngineStats, MachineConfig, MemoryMode};
use hmsim_runtime::harness::{profile_heat, provision, run_static, select_static};
use hmsim_runtime::{run_multirank, MultiRankConfig, OnlineConfig, OnlineRuntime, RuntimeStats};

/// Node-level aggregates of one scenario run. For single-process scenarios
/// these mirror the one rank; for multi-rank runs they fold the shard
/// outcomes under the BSP assumption (ranks synchronize, so the slowest
/// shard is the node).
#[derive(Clone, Debug)]
pub struct NodeAggregates {
    /// Node wall-clock estimate (max over ranks).
    pub time: Nanos,
    /// Node figure of merit. Analytic runs report the application's FOM;
    /// trace-driven runs report throughput (accesses per second).
    pub fom: f64,
    /// LLC misses summed over ranks.
    pub llc_misses: u64,
    /// Object migrations summed over ranks (zero for static approaches).
    pub migrations: u64,
    /// Latency charged for migrations, summed over ranks.
    pub migration_time: Nanos,
    /// Fast-tier footprint: the per-rank high-water mark for single-process
    /// runs; for multi-rank runs the per-rank peaks summed (an upper bound
    /// on the simultaneous node footprint — the ranks share one pool but
    /// need not peak in the same epoch).
    pub mcdram_hwm: ByteSize,
    /// Lock-step node epochs executed (multi-rank runs; zero otherwise).
    pub node_epochs: u64,
}

/// Everything one scenario run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Name of the scenario that produced this outcome.
    pub scenario: String,
    /// Typed label of the placement approach.
    pub approach: ApproachKind,
    /// Per-rank results, rank order. Single-process scenarios have exactly
    /// one entry.
    pub per_rank: Vec<RunResult>,
    /// Node-level aggregates.
    pub node: NodeAggregates,
    /// The four-stage pipeline's artefacts (trace summary, object report,
    /// advisor placement) when the approach was [`ApproachKind::Framework`].
    pub framework: Option<FrameworkOutcome>,
}

impl Outcome {
    /// The single rank's result (first rank of a multi-rank run).
    pub fn result(&self) -> &RunResult {
        &self.per_rank[0]
    }

    fn single(scenario: &Scenario, result: RunResult) -> Outcome {
        let node = NodeAggregates {
            time: result.total_time,
            fom: result.fom,
            llc_misses: result.counters.llc_misses,
            migrations: result.migrations,
            migration_time: result.migration_time,
            mcdram_hwm: result.mcdram_hwm,
            node_epochs: 0,
        };
        Outcome {
            scenario: scenario.name.clone(),
            approach: result.approach,
            per_rank: vec![result],
            node,
            framework: None,
        }
    }
}

/// The one dispatch surface for scenario execution.
///
/// ```no_run
/// use hmem_core::{Scenario, Simulation};
/// use auto_hbwmalloc::PlacementApproach;
/// use hmsim_common::ByteSize;
///
/// let scenario = Scenario::app(
///     "miniFE",
///     PlacementApproach::NumactlPreferred,
///     ByteSize::from_mib(256),
/// );
/// let outcome = Simulation::new().run(&scenario).unwrap();
/// println!("{}: FOM {:.2}", outcome.scenario, outcome.node.fom);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulation;

impl Simulation {
    /// Create the facade.
    pub fn new() -> Simulation {
        Simulation
    }

    /// Validate `scenario` and execute it on the engine its workload and
    /// approach select.
    pub fn run(&self, scenario: &Scenario) -> HmResult<Outcome> {
        scenario.validate()?;
        match &scenario.workload {
            WorkloadSelector::App { name } => self.run_app(scenario, name),
            WorkloadSelector::Phased { name, array_size } => {
                self.run_phased(scenario, name, *array_size)
            }
            WorkloadSelector::MultiRank(selector) => self.run_multirank(scenario, selector),
        }
    }

    /// The machine a scenario runs on, with its memory mode applied.
    fn machine(scenario: &Scenario) -> MachineConfig {
        scenario
            .machine
            .config()
            .with_memory_mode(scenario.memory_mode)
    }

    /// The analytic path: [`AppRun`] for self-contained approaches, the
    /// four-stage [`FrameworkPipeline`] when the approach embeds a strategy.
    fn run_app(&self, scenario: &Scenario, app: &str) -> HmResult<Outcome> {
        let spec = hmsim_apps::app_by_name(app)?;

        if let Some(pipeline) = FrameworkPipeline::for_scenario(scenario) {
            let fw = pipeline.run(&spec)?;
            let mut outcome = Outcome::single(scenario, fw.result.clone());
            outcome.framework = Some(fw);
            return Ok(outcome);
        }

        let config = RunConfig {
            machine: Self::machine(scenario),
            mcdram_capacity: if scenario.memory_mode == MemoryMode::Flat {
                scenario.mcdram_budget
            } else {
                ByteSize::ZERO
            },
            iterations_override: scenario.iterations,
            profile: scenario.profiling.clone(),
            online: scenario.online.clone(),
            rank_policy: scenario.rank_policy,
            seed: scenario.seed,
        };
        let result = AppRun::new(&spec, config).execute(scenario.approach.router()?)?;
        Ok(Outcome::single(scenario, result))
    }

    /// The trace-driven single-process path. A phased workload runs three
    /// ways: as the DDR reference ([`run_static`] with nothing promoted),
    /// under the paper's profiled static placement (the Framework arm:
    /// [`profile_heat`] with the online runtime's default PEBS period and
    /// seed, the advisor's density selection [`select_static`], then
    /// [`run_static`] with the selection promoted), or under the
    /// [`OnlineRuntime`], which migrates while the stream executes.
    fn run_phased(
        &self,
        scenario: &Scenario,
        name: &str,
        array_size: ByteSize,
    ) -> HmResult<Outcome> {
        let machine = Self::machine(scenario);
        let workload = crate::scenario::lookup_phased(name, array_size)?;
        let accesses = workload.total_accesses();
        let budget = scenario.mcdram_budget;

        let promoted = match &scenario.approach {
            PlacementApproach::Online => {
                let cfg = scenario.online.clone().unwrap_or_default();
                let mut p = provision(&workload, &machine, budget)?;
                let mut rt = OnlineRuntime::new(&machine, budget, cfg);
                rt.run(workload.stream(&p.ranges), &mut p.heap);
                let result = trace_result(
                    ApproachKind::Online,
                    rt.total_time(),
                    rt.engine_stats(),
                    accesses,
                    rt.stats(),
                );
                return Ok(Outcome::single(scenario, result));
            }
            PlacementApproach::DdrOnly => Vec::new(),
            PlacementApproach::Framework { .. } => {
                let pebs = OnlineConfig::default();
                let heat = profile_heat(&workload, &machine, pebs.pebs_period, pebs.seed)?;
                select_static(&workload.objects(), &heat, budget)
            }
            other => {
                return Err(HmError::Config(format!(
                    "phased workloads cannot run under {other}"
                )))
            }
        };
        let (engine, resident) = run_static(&workload, &machine, budget, &promoted)?;
        let stats = RuntimeStats {
            fast_residency_peak: resident,
            ..RuntimeStats::default()
        };
        let kind = scenario.approach.kind();
        let result = trace_result(kind, engine.time, &engine, accesses, &stats);
        Ok(Outcome::single(scenario, result))
    }

    /// The sharded node path: R lock-step shards under the scenario's
    /// arbitration policy.
    fn run_multirank(
        &self,
        scenario: &Scenario,
        selector: &MultiRankSelector,
    ) -> HmResult<Outcome> {
        let machine = Self::machine(scenario);
        let workload = match selector {
            MultiRankSelector::Replicated {
                workload,
                array_size,
                ranks,
            } => MultiRankWorkload::replicated(
                crate::scenario::lookup_phased(workload, *array_size)?,
                *ranks,
            ),
            MultiRankSelector::RankSkewTriad {
                array_size,
                ranks,
                skew,
                passes,
            } => MultiRankWorkload::rank_skew_triad(*array_size, *ranks, *skew, *passes),
        };
        let mut config = MultiRankConfig::new(scenario.rank_policy, scenario.mcdram_budget);
        if let Some(online) = &scenario.online {
            config = config.with_online(online.clone());
        }
        let out = run_multirank(&workload, &machine, config)?;

        let per_rank: Vec<RunResult> = out
            .per_rank
            .iter()
            .map(|r| {
                trace_result(
                    ApproachKind::Online,
                    r.time,
                    &r.engine,
                    workload.rank(r.rank).total_accesses(),
                    &r.stats,
                )
            })
            .collect();
        let node_time = out.node_time();
        let node = NodeAggregates {
            time: node_time,
            fom: workload.total_accesses() as f64 / node_time.secs().max(1e-12),
            llc_misses: out.total_misses(),
            migrations: out.total_migrations(),
            migration_time: out
                .per_rank
                .iter()
                .fold(Nanos::ZERO, |acc, r| acc + r.stats.migration_time),
            mcdram_hwm: out
                .per_rank
                .iter()
                .map(|r| r.stats.fast_residency_peak)
                .sum(),
            node_epochs: out.node_epochs,
        };
        Ok(Outcome {
            scenario: scenario.name.clone(),
            approach: ApproachKind::Online,
            per_rank,
            node,
            framework: None,
        })
    }
}

/// Map a trace-engine run into the unified [`RunResult`] shape. Trace
/// workloads have no application FOM, so throughput (accesses per second)
/// stands in; kernel breakdown and profiling fields stay empty. Migration
/// figures and the fast-tier high-water mark come from `stats` (a static
/// run carries only its residency).
fn trace_result(
    approach: ApproachKind,
    time: Nanos,
    engine: &EngineStats,
    accesses: u64,
    stats: &RuntimeStats,
) -> RunResult {
    RunResult {
        fom: accesses as f64 / time.secs().max(1e-12),
        total_time: time,
        loop_time: time,
        mcdram_hwm: stats.fast_residency_peak,
        counters: engine.counters,
        kernel_times: Vec::new(),
        monitoring_overhead: 0.0,
        allocator_time: Nanos::ZERO,
        migration_time: stats.migration_time,
        migrations: stats.migrations,
        migrations_rejected: stats.rejected_moves,
        trace: None,
        approach,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_runtime::{ArbiterPolicy, OnlineConfig};

    #[test]
    fn facade_runs_every_self_contained_analytic_approach() {
        let budget = ByteSize::from_mib(256);
        for approach in [
            PlacementApproach::DdrOnly,
            PlacementApproach::NumactlPreferred,
            PlacementApproach::autohbw_1m(),
            PlacementApproach::CacheMode,
            PlacementApproach::Online,
        ] {
            let kind = approach.kind();
            let scenario = Scenario::app("miniFE", approach, budget).with_iterations(6);
            let outcome = Simulation::new().run(&scenario).unwrap();
            assert_eq!(outcome.approach, kind);
            assert_eq!(outcome.per_rank.len(), 1);
            assert!(outcome.node.fom > 0.0, "{kind}");
            assert!(outcome.framework.is_none());
            assert_eq!(outcome.result().approach, kind);
        }
    }

    #[test]
    fn facade_runs_the_framework_pipeline_and_returns_its_artefacts() {
        let scenario = Scenario::app(
            "miniFE",
            PlacementApproach::framework(hmem_advisor::SelectionStrategy::Misses {
                threshold_percent: 0.0,
            }),
            ByteSize::from_mib(128),
        )
        .with_iterations(6);
        let outcome = Simulation::new().run(&scenario).unwrap();
        assert_eq!(outcome.approach, ApproachKind::Framework);
        let fw = outcome.framework.as_ref().expect("pipeline artefacts");
        assert!(fw.placement.automatic_entries().count() > 0);
        assert!(outcome.node.fom > 0.0);
        assert!(outcome.result().mcdram_hwm > ByteSize::ZERO);
    }

    #[test]
    fn facade_rejects_invalid_scenarios_before_running() {
        let mut scenario =
            Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64));
        scenario.memory_mode = MemoryMode::Cache;
        assert!(Simulation::new().run(&scenario).is_err());
    }

    #[test]
    fn facade_runs_trace_and_multirank_scenarios() {
        let online = OnlineConfig::default().with_epoch_accesses(8_192);
        let phased = Scenario::phased(
            "rotating-triad",
            ByteSize::from_kib(16),
            ByteSize::from_kib(48),
        )
        .with_online(online.clone());
        let out = Simulation::new().run(&phased).unwrap();
        assert_eq!(out.approach, ApproachKind::Online);
        assert!(out.node.migrations > 0, "hot set rotates, objects move");
        assert!(out.node.fom > 0.0);

        let multirank = Scenario::multirank(
            MultiRankSelector::RankSkewTriad {
                array_size: ByteSize::from_kib(16),
                ranks: 4,
                skew: 4,
                passes: 10,
            },
            ArbiterPolicy::Global,
            ByteSize::from_kib(288),
        )
        .with_online(online);
        let out = Simulation::new().run(&multirank).unwrap();
        assert_eq!(out.per_rank.len(), 4);
        assert!(out.node.node_epochs > 0);
        assert!(out.node.migrations > 0);
        assert!(
            out.node.time
                >= out
                    .per_rank
                    .iter()
                    .map(|r| r.total_time)
                    .fold(Nanos::ZERO, Nanos::max)
        );
    }

    /// An online app scenario whose per-rank budget exceeds anything a node
    /// holds runs to completion: the analytic runner plans against the
    /// per-rank budget and never multiplies it by the rank count (SNAP runs
    /// 64 ranks).
    #[test]
    fn facade_runs_an_online_app_with_a_budget_beyond_any_node() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/snap-online.scn"
        ))
        .unwrap()
        .replace("\"256MiB\"", "\"1000000TiB\"");
        let scenario = Scenario::parse(&text).unwrap();
        assert_eq!(
            scenario.mcdram_budget,
            ByteSize::parse("1000000TiB").unwrap()
        );
        let outcome = Simulation::new().run(&scenario).unwrap();
        assert_eq!(outcome.approach, ApproachKind::Online);
        assert!(outcome.node.fom > 0.0);
    }
}
