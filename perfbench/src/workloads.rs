//! The four benchmark workloads: how each is prepared from a seed, what one
//! pass of its measured body runs, and which outputs each pass is checked
//! on.
//!
//! A *pass* is one full sweep over the workload's runs. The benchmark times
//! passes back to back (closed loop, one caller); only the libraries' own
//! `parallel_map` fans work out, capped at the machine's parallelism.

use crate::digest::{compare, fnv1a, Digest, Record};
use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmem_advisor::SelectionStrategy;
use hmem_core::{run_full_evaluation, ExperimentConfig, FrameworkPipeline, Scenario, Simulation};
use hmsim_analysis::FoldedTimeline;
use hmsim_apps::{
    all_apps, app_by_name, phased_workloads, AppSpec, MultiRankWorkload, PhasedWorkload,
};
use hmsim_common::{ByteSize, HmError, HmResult, Nanos};
use hmsim_machine::MachineConfig;
use hmsim_profiler::ProfilerConfig;
use hmsim_runtime::harness::{loaded_machine, provision};
use hmsim_runtime::{
    run_multirank, ArbiterPolicy, MultiRankConfig, MultiRankOutcome, MultiRankRuntime, OnlineConfig,
};
use hmsim_trace::TraceReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The seed whose outputs are pinned by the committed digests.
pub const DEFAULT_SEED: u64 = 1;

/// Bins of the Figure-5 style folded timeline.
pub const FOLD_BINS: usize = 16;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    OnlinePhased,
    MultirankChurn,
    ProfileSpill,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::OnlinePhased,
        Workload::MultirankChurn,
        Workload::ProfileSpill,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::OnlinePhased => "online-phased",
            Workload::MultirankChurn => "multirank-churn",
            Workload::ProfileSpill => "profile-spill",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale: `Full` is what the benchmark measures, `Tiny` keeps the
/// smoke tests quick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Derive an independent stream seed from the benchmark seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Directory for files a run writes (spilled traces, span dumps).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run names become digest keys: one token, no spaces.
fn key(parts: &[&str]) -> String {
    parts.join("/").replace(char::is_whitespace, "_")
}

/// A scenario handed to the program as `.scn` text, as a user would: the
/// benchmark builds it, serializes it, and the program parses and
/// validates it.
fn through_text(scenario: Scenario) -> HmResult<Scenario> {
    let parsed = Scenario::parse(&scenario.serialize())?;
    parsed.validate()?;
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One Figure-4 grid configuration, labelled as `run_app_experiment` labels
/// its result row.
pub struct GridRun {
    pub app: String,
    pub label: String,
    pub scenario: Scenario,
}

pub struct GridInput {
    pub config: ExperimentConfig,
    pub runs: Vec<GridRun>,
}

pub struct PhasedInput {
    /// Per phased workload: its online scenario, then its DDR reference.
    pub scenarios: Vec<Scenario>,
}

pub struct ChurnInput {
    pub workload: MultiRankWorkload,
    pub machine: MachineConfig,
    /// One configuration per arbitration policy.
    pub configs: Vec<MultiRankConfig>,
}

pub struct SpillInput {
    pub apps: Vec<AppSpec>,
    /// The pipeline without its spill path (set per run).
    pub pipeline: FrameworkPipeline,
    pub spill: PathBuf,
}

pub enum Input {
    Grid(GridInput),
    Phased(PhasedInput),
    Churn(ChurnInput),
    Spill(SpillInput),
}

/// Build a workload's inputs from `seed`. This is the set-up a first run
/// pays: scenario building, `.scn` parsing and validation, app-spec
/// lookup, heap provisioning and `MultiRankRuntime::new`.
pub fn prepare(workload: Workload, seed: u64, size: Size) -> HmResult<Input> {
    Ok(match workload {
        Workload::PaperGrid => Input::Grid(prepare_grid(seed, size)?),
        Workload::OnlinePhased => Input::Phased(prepare_phased(seed, size)?),
        Workload::MultirankChurn => Input::Churn(prepare_churn(seed, size)?),
        Workload::ProfileSpill => Input::Spill(prepare_spill(seed, size)?),
    })
}

fn grid_config(seed: u64, size: Size) -> ExperimentConfig {
    let mut config = ExperimentConfig {
        seed: mix(seed, 0x6121),
        ..ExperimentConfig::default()
    };
    if size == Size::Tiny {
        config.budgets = vec![ByteSize::from_mib(64)];
        config.single_process_budgets = vec![ByteSize::from_mib(256)];
        config.strategies = vec![SelectionStrategy::Density];
        config.iterations_override = Some(2);
    }
    config
}

fn prepare_grid(seed: u64, size: Size) -> HmResult<GridInput> {
    let config = grid_config(seed, size);
    let mut runs = Vec::new();
    for listed in all_apps() {
        let spec = app_by_name(listed.name)?;
        spec.validate()?;
        let mut push = |label: String, approach: PlacementApproach, budget: ByteSize| {
            let mut s = Scenario::app(spec.name, approach, budget).with_seed(config.seed);
            if let Some(it) = config.iterations_override {
                s = s.with_iterations(it);
            }
            runs.push(GridRun {
                app: spec.name.to_string(),
                label,
                scenario: through_text(s)?,
            });
            Ok::<(), HmError>(())
        };
        // The same configurations, labels and order as `run_app_experiment`.
        let share = config.fcfs_share(&spec);
        push(
            ApproachKind::Ddr.to_string(),
            PlacementApproach::DdrOnly,
            share,
        )?;
        for strategy in &config.strategies {
            for budget in config.budgets_for(&spec) {
                push(
                    format!("{strategy}/{budget}"),
                    PlacementApproach::framework(*strategy),
                    *budget,
                )?;
            }
        }
        for budget in config.budgets_for(&spec) {
            push(
                format!("{}/{budget}", ApproachKind::Online),
                PlacementApproach::Online,
                *budget,
            )?;
        }
        push(
            ApproachKind::Numactl.to_string(),
            PlacementApproach::NumactlPreferred,
            share,
        )?;
        push(
            format!("{}/1m", ApproachKind::AutoHbw),
            PlacementApproach::autohbw_1m(),
            share,
        )?;
        push(
            ApproachKind::Cache.to_string(),
            PlacementApproach::CacheMode,
            ByteSize::ZERO,
        )?;
    }
    Ok(GridInput { config, runs })
}

pub fn phased_array(size: Size) -> ByteSize {
    match size {
        Size::Full => ByteSize::from_kib(256),
        Size::Tiny => ByteSize::from_kib(16),
    }
}

fn prepare_phased(seed: u64, size: Size) -> HmResult<PhasedInput> {
    let array = phased_array(size);
    let machine = loaded_machine();
    let online = OnlineConfig {
        seed: mix(seed, 0x0E11),
        ..OnlineConfig::default()
    };
    let mut scenarios = Vec::new();
    for w in phased_workloads(array) {
        let budget = w.hot_set_size();
        let base = Scenario::phased(w.name, array, budget).with_seed(mix(seed, 0x5CE));
        let mut ddr = base.clone().with_name(format!("{}-ddr", w.name));
        ddr.approach = PlacementApproach::DdrOnly;
        scenarios.push(through_text(base.with_online(online.clone()))?);
        scenarios.push(through_text(ddr)?);
        // The heap each run provisions before its first access.
        provision(&w, &machine, budget)?;
    }
    Ok(PhasedInput { scenarios })
}

/// The churn bundle: a replicated sweeping stencil with many planes per
/// rank and short epochs (a 64-plane stencil has no `.scn` form, so it is
/// driven through `run_multirank` directly).
fn churn_workload(size: Size) -> (MultiRankWorkload, OnlineConfig) {
    let (array, planes, ranks, epoch) = match size {
        Size::Full => (ByteSize::from_kib(16), 64, 16, 1024),
        Size::Tiny => (ByteSize::from_kib(4), 8, 4, 512),
    };
    let stencil = PhasedWorkload::sweeping_stencil(array, planes, 2, 1);
    (
        MultiRankWorkload::replicated(stencil, ranks),
        OnlineConfig::default().with_epoch_accesses(epoch),
    )
}

fn prepare_churn(seed: u64, size: Size) -> HmResult<ChurnInput> {
    let (workload, online) = churn_workload(size);
    let online = OnlineConfig {
        seed: mix(seed, 0xC4),
        ..online
    };
    let machine = loaded_machine();
    let budget = workload.node_hot_set();
    let configs: Vec<MultiRankConfig> = ArbiterPolicy::ALL
        .iter()
        .map(|&policy| MultiRankConfig::new(policy, budget).with_online(online.clone()))
        .collect();
    for cfg in &configs {
        MultiRankRuntime::new(&workload, &machine, cfg.clone())?;
    }
    Ok(ChurnInput {
        workload,
        machine,
        configs,
    })
}

/// Dense profiling, as the Figure-5 folded timeline uses it.
fn dense_profiler(seed: u64) -> ProfilerConfig {
    ProfilerConfig {
        sampling_period: 4_001,
        counter_snapshot_interval: Nanos::from_millis(1.0),
        seed: mix(seed, 0xD5),
        ..ProfilerConfig::default()
    }
}

fn prepare_spill(seed: u64, size: Size) -> HmResult<SpillInput> {
    let (names, iterations): (&[&str], u32) = match size {
        Size::Full => (&["SNAP", "miniFE", "HPCG"], 20),
        Size::Tiny => (&["miniFE"], 2),
    };
    let apps = names
        .iter()
        .map(|n| {
            let spec = app_by_name(n)?;
            spec.validate()?;
            Ok(spec)
        })
        .collect::<HmResult<Vec<_>>>()?;
    let mut pipeline = FrameworkPipeline::new(
        ByteSize::from_mib(256),
        SelectionStrategy::Misses {
            threshold_percent: 0.0,
        },
    )
    .with_iterations(iterations)
    .with_profiler(dense_profiler(seed));
    pipeline.seed = mix(seed, 0x5B11);
    // One spill file per prepared input, so concurrent runs in one process
    // (the tests) never share a file.
    static SPILLS: AtomicUsize = AtomicUsize::new(0);
    let run = SPILLS.fetch_add(1, Ordering::Relaxed);
    Ok(SpillInput {
        apps,
        pipeline,
        spill: out_dir().join(format!("spill-{}-{}.hmtb", std::process::id(), run)),
    })
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// What one pass did.
#[derive(Default)]
pub struct Pass {
    /// Scenario runs attempted.
    pub runs: u64,
    /// Runs that errored or broke an invariant.
    pub errors: Vec<String>,
    /// Simulated memory accesses (trace workloads: accesses driven through
    /// the engine; analytic workloads: the model's L1 reference count).
    pub accesses: u64,
    /// Checked outputs.
    pub records: Digest,
    /// Simulated outcomes worth reporting (never performance).
    pub simulated: Vec<(String, f64)>,
}

impl Pass {
    fn error(&mut self, what: String, e: impl std::fmt::Display) {
        self.errors.push(format!("{what}: {e}"));
    }

    fn invariant(&mut self, what: &str, holds: bool, detail: impl FnOnce() -> String) {
        if !holds {
            self.errors
                .push(format!("{what}: invariant broken: {}", detail()));
        }
    }
}

/// One pass of the workload's measured body.
pub fn body(input: &Input) -> Pass {
    match input {
        Input::Grid(g) => grid_body(g),
        Input::Phased(p) => phased_body(p),
        // The shard fan-out spawns its workers anew every epoch; on a 2-vCPU
        // host that swings the pass time 2-3x with the host's load, so the
        // measured body runs the shards serially. The fan-out is checked
        // against it in `reference` and timed in the traced run.
        Input::Churn(c) => churn_body(c, true),
        Input::Spill(s) => spill_body(s),
    }
}

/// The grid's scenarios through `Simulation::run`, back to back on one
/// thread. `run_full_evaluation` runs the same scenarios over the machine's
/// cores; on a 2-vCPU host its pass time drifted by up to 45% between runs
/// with the host's load, so it runs once per run in `reference` instead,
/// where its rows are checked against these outcomes.
fn grid_body(input: &GridInput) -> Pass {
    let mut pass = Pass::default();
    for run in &input.runs {
        pass.runs += 1;
        let name = key(&[&run.app, &run.label]);
        match Simulation::new().run(&run.scenario) {
            Ok(out) => record_outcome(&mut pass, &name, &run.scenario, out.result()),
            Err(e) => pass.error(name, e),
        }
    }
    pass
}

/// Record one facade outcome of a single-process scenario and check its
/// invariants: no rejected move, and the fast tier stays within budget.
pub fn record_outcome(pass: &mut Pass, name: &str, scenario: &Scenario, r: &hmem_core::RunResult) {
    pass.invariant(name, r.migrations_rejected == 0, || {
        format!("{} rejected moves", r.migrations_rejected)
    });
    if scenario.approach != PlacementApproach::CacheMode {
        pass.invariant(name, r.mcdram_hwm <= scenario.mcdram_budget, || {
            format!(
                "hwm {} over budget {}",
                r.mcdram_hwm, scenario.mcdram_budget
            )
        });
    }
    pass.accesses += r.counters.l1_references;
    pass.records.insert(name.to_string(), Record::run_result(r));
}

fn phased_body(input: &PhasedInput) -> Pass {
    let mut pass = Pass::default();
    // (simulated time, migrations) per scenario, for the simulated section.
    let mut outcomes = Vec::new();
    for scenario in &input.scenarios {
        pass.runs += 1;
        match Simulation::new().run(scenario) {
            Ok(out) => {
                outcomes.push(Some((out.node.time.nanos(), out.node.migrations)));
                record_outcome(&mut pass, &scenario.name, scenario, out.result());
            }
            Err(e) => {
                outcomes.push(None);
                pass.error(scenario.name.clone(), e);
            }
        }
    }
    // Each workload's online run against its DDR reference, and the
    // migrations it made.
    for (pair, outcome) in input.scenarios.chunks(2).zip(outcomes.chunks(2)) {
        if let [Some((online, migrations)), Some((ddr, _))] = outcome {
            let name = &pair[0].name;
            pass.simulated
                .push((format!("{name}.online_vs_ddr"), ddr / online));
            pass.simulated
                .push((format!("{name}.migrations"), *migrations as f64));
        }
    }
    pass
}

/// Record one multi-rank outcome: a record per rank plus a node record, and
/// the node-budget invariants (no rejected move, no rank over the node
/// budget, final residency within it).
pub fn record_multirank(pass: &mut Pass, cfg: &MultiRankConfig, out: &MultiRankOutcome) {
    let policy = cfg.policy.to_string();
    let budget = cfg.node_fast_budget;
    let mut residency = ByteSize::ZERO;
    for r in &out.per_rank {
        let name = key(&[&policy, &format!("r{:02}", r.rank)]);
        pass.invariant(&name, r.stats.rejected_moves == 0, || {
            format!("{} rejected moves", r.stats.rejected_moves)
        });
        pass.invariant(&name, r.stats.fast_residency_peak <= budget, || {
            format!(
                "peak {} over node budget {budget}",
                r.stats.fast_residency_peak
            )
        });
        residency += r.fast_residency;
        pass.accesses += r.engine.counters.l1_references;
        let record = Record::default()
            .bits("time", r.time.nanos())
            .counters(&r.engine.counters)
            .field("epochs", r.stats.epochs)
            .field("samples", r.stats.samples)
            .field("migrations", r.stats.migrations)
            .field("bytes_moved", r.stats.bytes_migrated.bytes())
            .bits("migration_time", r.stats.migration_time.nanos())
            .field("rejected", r.stats.rejected_moves)
            .field("hwm", r.stats.fast_residency_peak.bytes())
            .field("residency", r.fast_residency.bytes());
        pass.records.insert(name, record);
    }
    pass.invariant(&policy, residency <= budget, || {
        format!("final node residency {residency} over budget {budget}")
    });
    pass.records.insert(
        key(&[&policy, "node"]),
        Record::default()
            .bits("time", out.node_time().nanos())
            .field("node_epochs", out.node_epochs)
            .field("migrations", out.total_migrations()),
    );
}

fn churn_body(input: &ChurnInput, serial: bool) -> Pass {
    let mut pass = Pass::default();
    let mut node_ms = Vec::new();
    for cfg in &input.configs {
        pass.runs += 1;
        let cfg = if serial {
            cfg.clone().serial()
        } else {
            cfg.clone()
        };
        match run_multirank(&input.workload, &input.machine, cfg.clone()) {
            Ok(out) => {
                record_multirank(&mut pass, &cfg, &out);
                pass.simulated.push((
                    format!("{}.migrations", cfg.policy),
                    out.total_migrations() as f64,
                ));
                node_ms.push((cfg.policy, out.node_time().millis()));
            }
            Err(e) => pass.error(cfg.policy.to_string(), e),
        }
    }
    let time_of = |p: ArbiterPolicy| node_ms.iter().find(|(q, _)| *q == p).map(|(_, t)| *t);
    if let (Some(part), Some(global)) = (
        time_of(ArbiterPolicy::Partition),
        time_of(ArbiterPolicy::Global),
    ) {
        pass.simulated
            .push(("global_vs_partition".to_string(), part / global));
    }
    pass
}

/// The fold-bin fields of a folded timeline, kept in a record of their own
/// so the Figure-5 output can be re-blessed apart from the run outcomes.
///
/// A bin's `dominant_routine` is left out: when two routines tie, the fold
/// picks whichever its hash map yields first, which differs from process to
/// process.
pub fn fold_record(folded: &FoldedTimeline) -> Record {
    let bins = fnv1a(folded.bins.iter().flat_map(|b| {
        [b.position, b.mips, b.miss_rate]
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .chain((b.sampled_addresses.len() as u64).to_le_bytes())
            .collect::<Vec<u8>>()
    }));
    Record::default()
        .field("instances", folded.instances)
        .bits("mean_duration", folded.mean_duration.nanos())
        .field("bins", format!("{bins:016x}"))
}

fn spill_body(input: &SpillInput) -> Pass {
    let mut pass = Pass::default();
    for spec in &input.apps {
        pass.runs += 1;
        let pipeline = input.pipeline.clone().with_trace_spill(&input.spill);
        let run = pipeline.run(spec).and_then(|fw| {
            let reader = TraceReader::open(&input.spill)?;
            let folded = FoldedTimeline::fold_try_stream(reader, "iteration", FOLD_BINS)?;
            Ok((fw, folded))
        });
        match run {
            Ok((fw, folded)) => {
                let name = key(&[spec.name, "pipeline"]);
                let r = &fw.result;
                pass.invariant(&name, r.migrations_rejected == 0, || {
                    format!("{} rejected moves", r.migrations_rejected)
                });
                pass.invariant(&name, r.mcdram_hwm <= input.pipeline.mcdram_budget, || {
                    format!("hwm {} over budget", r.mcdram_hwm)
                });
                pass.accesses += r.counters.l1_references;
                let record = Record::run_result(r)
                    .field("events", fw.trace_summary.events)
                    .field("samples", fw.trace_summary.samples)
                    .field("selected", fw.placement.entries.len());
                pass.records.insert(name, record);
                pass.records
                    .insert(key(&[spec.name, "fold"]), fold_record(&folded));
                pass.simulated.push((
                    format!("{}.trace_events", spec.name),
                    fw.trace_summary.events as f64,
                ));
                pass.simulated.push((
                    format!("{}.fold_instances", spec.name),
                    folded.instances as f64,
                ));
            }
            Err(e) => pass.error(spec.name.to_string(), e),
        }
    }
    let _ = std::fs::remove_file(&input.spill);
    pass
}

// ---------------------------------------------------------------------------
// Reference checks
// ---------------------------------------------------------------------------

/// What the once-per-run cross-check found.
pub struct Reference {
    /// Extra scenario runs the check needed.
    pub runs: u64,
    /// Runs that errored, broke an invariant or disagreed with another path
    /// to the same result.
    pub failures: Vec<String>,
    /// Simulated outcomes only the second path reports.
    pub simulated: Vec<(String, f64)>,
}

/// Cross-check the first pass against a second path to the same outputs,
/// for any seed:
/// - `paper-grid`: `run_full_evaluation` over the same grid, whose rows must
///   match the first pass's outcomes;
/// - `online-phased`: none (every pass is checked against the first);
/// - `multirank-churn`: every policy again with the shard fan-out on, which
///   must agree bit for bit with the serial pass;
/// - `profile-spill`: every pipeline again with the trace kept in memory,
///   which must produce the same report, placement and outcome.
pub fn reference(input: &Input, first: &Pass) -> Reference {
    let mut check = Pass::default();
    let mut failures = Vec::new();
    let mut simulated = Vec::new();
    match input {
        Input::Grid(g) => {
            let experiments = run_full_evaluation(&g.config);
            let mut rows = Digest::new();
            for exp in &experiments {
                for row in &exp.results {
                    let mut record = Record::default().bits("fom", row.fom);
                    // The cache row reports no footprint; every other row
                    // carries its run's high-water mark.
                    if row.label != ApproachKind::Cache.to_string() {
                        record = record.field("hwm", row.mcdram_hwm.bytes());
                    }
                    rows.insert(key(&[&exp.app, &row.label]), record);
                }
                simulated.push((
                    format!("{}.framework_vs_ddr", exp.app),
                    exp.framework_speedup(),
                ));
                if let Some(ratio) = exp.online_vs_static() {
                    simulated.push((format!("{}.online_vs_static", exp.app), ratio));
                }
            }
            check.runs = g.runs.len() as u64;
            failures.extend(compare("grid rows vs facade", &first.records, &rows));
        }
        Input::Phased(_) => {}
        Input::Churn(c) => {
            let parallel = churn_body(c, false);
            check.runs = parallel.runs;
            check.errors = parallel.errors;
            failures.extend(compare(
                "parallel vs serial",
                &first.records,
                &parallel.records,
            ));
        }
        Input::Spill(s) => {
            for spec in &s.apps {
                check.runs += 1;
                let in_memory = s.pipeline.run(spec);
                let spilled = s.pipeline.clone().with_trace_spill(&s.spill).run(spec);
                match (in_memory, spilled) {
                    (Ok(mem), Ok(disk)) => {
                        if mem.object_report != disk.object_report
                            || mem.placement.entries != disk.placement.entries
                            || Record::run_result(&mem.result) != Record::run_result(&disk.result)
                        {
                            failures.push(format!("{}: spilled pipeline != in-memory", spec.name));
                        }
                    }
                    (Err(e), _) | (_, Err(e)) => check.error(spec.name.to_string(), e),
                }
            }
            let _ = std::fs::remove_file(&s.spill);
        }
    }
    failures.extend(check.errors);
    Reference {
        runs: check.runs,
        failures,
        simulated,
    }
}

/// Split a digest into run outcomes and fold bins (the committed digests
/// keep the two apart, so a deliberate change to folding re-blesses only
/// the latter).
pub fn split_fold(digest: &Digest) -> (Digest, Digest) {
    digest
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .partition(|(k, _)| !k.ends_with("/fold"))
}
