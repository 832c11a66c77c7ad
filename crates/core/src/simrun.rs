//! Execution of one application model under one placement approach.
//!
//! The runner builds the simulated process (address space, tier allocators,
//! program image with ASLR), performs every allocation the application model
//! prescribes through the chosen [`AllocationRouter`], costs each kernel of
//! each iteration with the analytical machine engine, and optionally attaches
//! the Extrae-style profiler to produce a trace. It is used both for the
//! profiling run (step 1) and for the final, placement-honouring run (step 4)
//! as well as for every baseline.

use auto_hbwmalloc::{AllocationRouter, ApproachKind};
use hmsim_apps::{AllocTiming, AppSpec};
use hmsim_callstack::{AslrLayout, ProgramImage, Translator, Unwinder};
use hmsim_common::{Address, ByteSize, DetRng, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::{ObjectKind, ProcessHeap};
use hmsim_machine::{
    AnalyticEngine, MachineConfig, MemoryMode, ObjectTraffic, PerfCounters, PhaseProfile, Placement,
};
use hmsim_profiler::{Profiler, ProfilerConfig};
use hmsim_runtime::{
    execute_plan, ArbiterPolicy, MigrationCostModel, NodeArbiter, ObjectPlacement, OnlineConfig,
    PlacementController,
};
use hmsim_trace::{TraceFile, TraceMetadata};
use std::collections::HashMap;

/// Configuration of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Machine to run on (memory mode matters: cache-mode baselines flip it).
    pub machine: MachineConfig,
    /// Per-rank MCDRAM capacity available to the allocators (the budget for
    /// framework runs, the FCFS share for numactl/autohbw runs). Ignored in
    /// cache mode.
    pub mcdram_capacity: ByteSize,
    /// Override the number of main-loop iterations (None = the spec's value).
    pub iterations_override: Option<u32>,
    /// Attach the profiler and produce a trace.
    pub profile: Option<ProfilerConfig>,
    /// Knobs of the online migration runtime, used when the run executes
    /// under [`auto_hbwmalloc::PlacementApproach::Online`] (None =
    /// defaults). The analytic runner treats one main-loop iteration as one
    /// epoch.
    pub online: Option<OnlineConfig>,
    /// How the node-level MCDRAM pool (`mcdram_capacity × ranks`) is
    /// arbitrated between ranks for online runs. The per-epoch migration
    /// budget is drawn from a [`NodeArbiter`] rather than the raw per-rank
    /// capacity; the default static partition hands every rank exactly
    /// `mcdram_capacity` back, reproducing the per-rank budgets of the
    /// Figure-4 grid. The analytic runner models one process with symmetric
    /// peers — asymmetric (rank-skew) arbitration lives in the trace-driven
    /// multi-rank runner (`hmsim_runtime::multirank`).
    pub rank_policy: ArbiterPolicy,
    /// Master seed.
    pub seed: u64,
}

impl RunConfig {
    /// A flat-mode run on the paper's KNL node with the given per-rank
    /// MCDRAM capacity.
    pub fn flat(mcdram_capacity: ByteSize) -> RunConfig {
        RunConfig {
            machine: MachineConfig::knl_7250(),
            mcdram_capacity,
            iterations_override: None,
            profile: None,
            online: None,
            rank_policy: ArbiterPolicy::default(),
            seed: 0xC0FFEE,
        }
    }

    /// A cache-mode run.
    pub fn cache_mode() -> RunConfig {
        RunConfig {
            machine: MachineConfig::knl_7250().with_memory_mode(MemoryMode::Cache),
            mcdram_capacity: ByteSize::ZERO,
            iterations_override: None,
            profile: None,
            online: None,
            rank_policy: ArbiterPolicy::default(),
            seed: 0xC0FFEE,
        }
    }

    /// Attach a profiler.
    pub fn with_profiling(mut self, config: ProfilerConfig) -> Self {
        self.profile = Some(config);
        self
    }

    /// Override the iteration count (useful to keep tests fast).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations_override = Some(iterations);
        self
    }

    /// Configure the online migration runtime for this run.
    pub fn with_online(mut self, online: OnlineConfig) -> Self {
        self.online = Some(online);
        self
    }

    /// Choose how the node-level MCDRAM pool is arbitrated between ranks.
    pub fn with_rank_policy(mut self, policy: ArbiterPolicy) -> Self {
        self.rank_policy = policy;
        self
    }
}

/// Outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The application's figure of merit (higher is better).
    pub fom: f64,
    /// Total wall-clock time of the run.
    pub total_time: Nanos,
    /// Time spent in the main iteration loop only.
    pub loop_time: Nanos,
    /// High-water mark of dynamically allocated MCDRAM (per process), the
    /// quantity plotted in the middle column of Figure 4.
    pub mcdram_hwm: ByteSize,
    /// Aggregated hardware counters (node level).
    pub counters: PerfCounters,
    /// Per-kernel average time per iteration.
    pub kernel_times: Vec<(String, Nanos)>,
    /// Monitoring overhead fraction when profiling was attached.
    pub monitoring_overhead: f64,
    /// CPU time spent inside allocators and the interposition library.
    pub allocator_time: Nanos,
    /// Latency charged for online object migrations (zero for every static
    /// approach).
    pub migration_time: Nanos,
    /// Object migrations the online runtime executed.
    pub migrations: u64,
    /// Planned migrations the heap rejected (capacity races). The controller
    /// plans against the same occupancy the heap enforces, so anything
    /// non-zero here deserves investigation.
    pub migrations_rejected: u64,
    /// The trace, when profiling was attached.
    pub trace: Option<TraceFile>,
    /// The placement approach that produced this result (typed; its
    /// `Display` is the single source of the figure-legend names).
    pub approach: ApproachKind,
}

/// The runner for one (application, approach) pair.
pub struct AppRun<'a> {
    spec: &'a AppSpec,
    config: RunConfig,
}

struct LiveChurn {
    object_ids: Vec<(ObjectId, Address)>,
}

impl<'a> AppRun<'a> {
    /// Create a runner.
    pub fn new(spec: &'a AppSpec, config: RunConfig) -> Self {
        AppRun { spec, config }
    }

    /// Build the program image for this application: every function named in
    /// an allocation site becomes a symbol of the main module.
    pub fn program_image(spec: &AppSpec) -> ProgramImage {
        let mut functions: Vec<&str> = Vec::new();
        for o in &spec.objects {
            for f in o.site {
                if !functions.contains(f)
                    && !matches!(
                        *f,
                        "main"
                            | "initialize"
                            | "allocate_state"
                            | "finalize"
                            | "malloc"
                            | "kmp_malloc"
                            | "MPI_Init"
                            | "MPI_Allreduce"
                            | "MPI_Finalize"
                            | "calloc"
                            | "realloc"
                            | "posix_memalign"
                            | "free"
                            | "backtrace"
                            | "__kmp_fork_call"
                            | "__kmp_invoke_microtask"
                    )
                {
                    functions.push(f);
                }
            }
        }
        for k in &spec.kernels {
            if !functions.contains(&k.name) {
                functions.push(k.name);
            }
        }
        ProgramImage::synthetic_hpc_app(spec.name, &functions)
    }

    /// Build the unwinder/translator pair for one process instance of this
    /// application (a fresh ASLR layout per seed).
    pub fn callstack_machinery(spec: &AppSpec, seed: u64) -> (Unwinder, Translator) {
        let image = Self::program_image(spec);
        let mut rng = DetRng::new(seed).derive(&format!("aslr/{}", spec.name));
        let aslr = AslrLayout::randomized(&image, &mut rng);
        (
            Unwinder::new(image.clone(), aslr.clone()),
            Translator::new(image, aslr),
        )
    }

    fn cores_used(&self) -> u32 {
        let requested = self.spec.ranks * self.spec.threads_per_rank;
        requested.min(self.config.machine.cores * self.config.machine.threads_per_core)
    }

    /// Execute the run with the given router.
    pub fn execute(&self, mut router: AllocationRouter) -> HmResult<RunResult> {
        let spec = self.spec;
        let machine = &self.config.machine;
        let engine = AnalyticEngine::new(machine);
        let mut heap = ProcessHeap::new(machine)?;
        if machine.memory_mode == MemoryMode::Flat && !self.config.mcdram_capacity.is_zero() {
            heap.set_capacity_cap(TierId::MCDRAM, self.config.mcdram_capacity)?;
        } else if machine.memory_mode != MemoryMode::Flat {
            heap.set_capacity_cap(TierId::MCDRAM, machine.flat_mcdram_capacity())?;
        }

        let mut profiler = self.config.profile.clone().map(|cfg| {
            Profiler::new(
                TraceMetadata {
                    application: spec.name.to_string(),
                    ranks: spec.ranks,
                    threads_per_rank: spec.threads_per_rank,
                    rank: 0,
                    ..Default::default()
                },
                cfg,
            )
        });

        let mut now = Nanos::ZERO;
        let mut allocator_time = Nanos::ZERO;

        // The online migration runtime: the controller re-plans placement
        // after every main-loop iteration (the analytic engine's natural
        // epoch), and every move is charged bytes × per-tier bandwidth. The
        // per-epoch budget is drawn from the node arbiter over the whole
        // node's MCDRAM pool rather than taken as a fixed per-process
        // number; under the default static partition the arbiter hands back
        // exactly `mcdram_capacity` every epoch.
        let mut online = (router.kind() == ApproachKind::Online).then(|| {
            let cfg = self.config.online.clone().unwrap_or_default();
            let cost = MigrationCostModel::with_streams(machine, cfg.migration_streams);
            let ranks = spec.ranks.max(1);
            let node_pool = self.config.mcdram_capacity * u64::from(ranks);
            let arbiter = NodeArbiter::new(self.config.rank_policy, node_pool, ranks);
            (PlacementController::new(cfg), cost, arbiter)
        });
        let mut migration_time = Nanos::ZERO;
        let mut migrations = 0u64;
        let mut migrations_rejected = 0u64;
        let mut mcdram_migrated_peak = ByteSize::ZERO;

        // Canonical (ASLR-independent) site keys for every dynamic object:
        // derived through the same unwind/translate machinery the framework
        // uses, so the profiling trace, the advisor report and the
        // interposition library all speak the same site language.
        let (site_unwinder, site_translator) = Self::callstack_machinery(spec, self.config.seed);
        let canonical_sites: HashMap<&str, hmsim_callstack::SiteKey> = spec
            .objects
            .iter()
            .filter(|o| o.kind == ObjectKind::Dynamic && !o.site.is_empty())
            .filter_map(|o| {
                let (raw, _) = site_unwinder.unwind(o.site).ok()?;
                let (translated, _) = site_translator.translate(&raw);
                Some((o.name, translated.site_key()))
            })
            .collect();

        // ------------------------------------------------------------------
        // Initialisation: static/stack definitions and init-time allocations
        // in the order the application performs them.
        // ------------------------------------------------------------------
        let mut object_ids: HashMap<&str, ObjectId> = HashMap::new();
        for o in &spec.objects {
            match o.kind {
                ObjectKind::Static => {
                    let tier = router.static_tier(&heap, o.size);
                    let (id, _) = heap.define_static(o.name, o.size, tier, now)?;
                    object_ids.insert(o.name, id);
                    if let Some(p) = profiler.as_mut() {
                        if let Some(obj) = heap.registry().get(id) {
                            p.record_alloc(obj, now);
                        }
                    }
                }
                ObjectKind::Stack => {
                    let tier = router.stack_tier(&heap, o.size);
                    let (id, _) = heap.define_stack(o.name, o.size, tier, now)?;
                    object_ids.insert(o.name, id);
                }
                ObjectKind::Dynamic => {
                    if matches!(o.timing, AllocTiming::Init) {
                        let (id, _, cost) = router.malloc(
                            &mut heap,
                            o.size,
                            o.name,
                            o.site,
                            canonical_sites.get(o.name),
                            now,
                        )?;
                        allocator_time += cost;
                        object_ids.insert(o.name, id);
                        if let Some(p) = profiler.as_mut() {
                            if let Some(obj) = heap.registry().get(id) {
                                p.record_alloc(obj, now);
                            }
                        }
                    }
                }
            }
        }
        now += spec.init_time;

        // ------------------------------------------------------------------
        // Main iteration loop.
        // ------------------------------------------------------------------
        let iterations = self
            .config
            .iterations_override
            .unwrap_or(spec.iterations)
            .max(1);
        let ranks = u64::from(spec.ranks);
        let cores = self.cores_used();
        let node_instructions = spec.instructions_per_iteration * ranks;
        let node_misses = spec.misses_per_iteration * ranks;
        let working_set = ByteSize::from_bytes(spec.hot_working_set.bytes() * ranks);

        let mut counters = PerfCounters::default();
        let mut loop_time = Nanos::ZERO;
        let mut kernel_time_acc: Vec<(String, Nanos)> = if spec.kernels.is_empty() {
            vec![("iteration".to_string(), Nanos::ZERO)]
        } else {
            spec.kernels
                .iter()
                .map(|k| (k.name.to_string(), Nanos::ZERO))
                .collect()
        };

        for _iter in 0..iterations {
            if let Some(p) = profiler.as_mut() {
                p.phase_begin("iteration", now);
            }
            // Per-object LLC misses observed this iteration (the heat the
            // online controller consumes at the epoch boundary).
            let mut iter_heat: HashMap<ObjectId, u64> = HashMap::new();

            // Per-iteration churn allocations.
            let mut churn = LiveChurn {
                object_ids: Vec::new(),
            };
            for o in &spec.objects {
                if let AllocTiming::PerIteration {
                    allocs_per_iteration,
                } = o.timing
                {
                    for i in 0..allocs_per_iteration {
                        let (id, range, cost) = router.malloc(
                            &mut heap,
                            if i == 0 { o.size } else { o.min_size },
                            o.name,
                            o.site,
                            canonical_sites.get(o.name),
                            now,
                        )?;
                        allocator_time += cost;
                        churn.object_ids.push((id, range.start));
                        if i == 0 {
                            object_ids.insert(o.name, id);
                        }
                        if let Some(p) = profiler.as_mut() {
                            if let Some(obj) = heap.registry().get(id) {
                                p.record_alloc(obj, now);
                            }
                        }
                    }
                }
            }

            // Placement snapshot for this iteration.
            let mut placement = Placement::all_in(TierId::DDR);
            for (name, id) in &object_ids {
                if let Some(obj) = heap.registry().get(*id) {
                    let _ = name;
                    placement.place(*id, obj.tier);
                }
            }

            // Kernels: (name, instruction share, miss share, object weights).
            type KernelRow<'s> = (String, f64, f64, Vec<(&'s str, f64)>);
            let kernel_list: Vec<KernelRow<'_>> = if spec.kernels.is_empty() {
                vec![("iteration".to_string(), 1.0, 1.0, Vec::new())]
            } else {
                spec.kernels
                    .iter()
                    .map(|k| {
                        (
                            k.name.to_string(),
                            k.instruction_share,
                            k.miss_share,
                            k.object_weights.to_vec(),
                        )
                    })
                    .collect()
            };

            for (ki, (kname, instr_share, miss_share, weights)) in kernel_list.iter().enumerate() {
                // Distribute the kernel's misses over its objects.
                let kernel_misses_node = (node_misses as f64 * miss_share) as u64;
                // The profiler observes one monitored hardware thread's share
                // of the misses (each thread has its own PEBS counter), which
                // is what keeps Table I's sample counts in the tens of
                // thousands rather than the millions.
                let kernel_misses_process = (spec.misses_per_iteration as f64 * miss_share
                    / f64::from(spec.threads_per_rank.max(1)))
                    as u64;
                let distribution: Vec<(&str, f64)> = if weights.is_empty() {
                    let total: f64 = spec.objects.iter().map(|o| o.miss_share).sum();
                    spec.objects
                        .iter()
                        .map(|o| (o.name, o.miss_share / total.max(1e-12)))
                        .collect()
                } else {
                    let total: f64 = weights.iter().map(|(_, w)| w).sum();
                    weights
                        .iter()
                        .map(|(n, w)| (*n, w / total.max(1e-12)))
                        .collect()
                };

                let mut traffic = Vec::new();
                let mut profiler_misses: Vec<(ObjectId, u64)> = Vec::new();
                for (obj_name, frac) in &distribution {
                    let Some(id) = object_ids.get(obj_name) else {
                        continue;
                    };
                    let spec_obj = spec.objects.iter().find(|o| o.name == *obj_name);
                    let irregular = spec_obj.map(|o| o.irregular).unwrap_or(0.0);
                    let node = (kernel_misses_node as f64 * frac) as u64;
                    let process = (kernel_misses_process as f64 * frac) as u64;
                    traffic.push(ObjectTraffic::new(*id, node, irregular));
                    if online.is_some() {
                        *iter_heat.entry(*id).or_insert(0) += node;
                    }
                    profiler_misses.push((*id, process));
                }

                let phase = PhaseProfile {
                    name: kname.clone(),
                    instructions: (node_instructions as f64 * instr_share) as u64,
                    cores_used: cores,
                    traffic,
                };
                let cost = engine.cost_phase(&phase, &placement, working_set);
                counters.accumulate(&cost.counters);

                if let Some(p) = profiler.as_mut() {
                    p.phase_begin(kname.clone(), now);
                    let refs: Vec<(&hmsim_heap::DataObject, u64)> = profiler_misses
                        .iter()
                        .filter_map(|(id, m)| heap.registry().get(*id).map(|o| (o, *m)))
                        .collect();
                    p.record_interval(
                        now,
                        cost.time,
                        (spec.instructions_per_iteration as f64 * instr_share) as u64,
                        &refs,
                    );
                    p.phase_end(kname.clone(), now + cost.time);
                }

                now += cost.time;
                loop_time += cost.time;
                let slot = ki.min(kernel_time_acc.len().saturating_sub(1));
                kernel_time_acc[slot].1 += cost.time;
            }

            // Free the churn objects.
            for (id, addr) in churn.object_ids {
                if let Some(p) = profiler.as_mut() {
                    p.record_free(id, addr, now);
                }
                let (_, cost) = router.free(&mut heap, addr, now)?;
                allocator_time += cost;
            }

            // Online epoch boundary: fold this iteration's misses into the
            // controller's heat, re-run the selection against the budget and
            // execute the migration delta. The moved bytes are charged at
            // per-tier bandwidth and serialise into the loop time, exactly
            // like allocator overhead does.
            if let Some((controller, cost_model, arbiter)) = online.as_mut() {
                for (id, misses) in iter_heat.drain() {
                    controller.record(id, misses as f64);
                }
                let live = ObjectPlacement::snapshot_live(&heap);
                let epoch_budget = arbiter.analytic_budget(heap.tier_occupancy(TierId::MCDRAM));
                let plan = controller.end_epoch(&live, TierId::MCDRAM, epoch_budget);
                // The controller plans against the same occupancy the heap
                // enforces, so rejects are a should-not-happen path — but
                // they must stay observable.
                let exec = execute_plan(&mut heap, &plan, TierId::MCDRAM, TierId::DDR, cost_model);
                migrations += exec.moves();
                migrations_rejected += exec.rejected;
                now += exec.time;
                loop_time += exec.time;
                migration_time += exec.time;
                mcdram_migrated_peak =
                    mcdram_migrated_peak.max(heap.tier_occupancy(TierId::MCDRAM));
            }

            if let Some(p) = profiler.as_mut() {
                p.phase_end("iteration", now);
            }
        }

        // ------------------------------------------------------------------
        // Wrap-up: totals, FOM, overheads.
        // ------------------------------------------------------------------
        // Allocator/interposition CPU time is serial per process.
        let interposition = router.interposition_overhead();
        let per_process_overhead = allocator_time + interposition;
        loop_time += per_process_overhead;
        now += per_process_overhead;

        let monitoring_overhead = profiler
            .as_ref()
            .map(|p| p.overhead_fraction(loop_time))
            .unwrap_or(0.0);
        let monitored_loop_time = loop_time * (1.0 + monitoring_overhead);
        let total_time = spec.init_time + monitored_loop_time;

        let fom = spec.fom_work_per_iteration * f64::from(iterations)
            / monitored_loop_time.secs().max(1e-12);

        let kernel_times = kernel_time_acc
            .into_iter()
            .map(|(name, t)| (name, t / f64::from(iterations)))
            .collect();

        // Online runs never allocate in MCDRAM, so their footprint shows up
        // as migrated residency rather than allocator HWM.
        let mcdram_hwm = heap
            .allocator(TierId::MCDRAM)
            .map(|a| a.hwm())
            .unwrap_or(ByteSize::ZERO)
            .max(mcdram_migrated_peak);

        Ok(RunResult {
            fom,
            total_time,
            loop_time: monitored_loop_time,
            mcdram_hwm,
            counters,
            kernel_times,
            monitoring_overhead,
            allocator_time: per_process_overhead,
            migration_time,
            migrations,
            migrations_rejected,
            trace: profiler.map(|p| p.finish()),
            approach: router.kind(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use auto_hbwmalloc::PlacementApproach;
    use hmsim_apps::app_by_name;

    #[test]
    fn ddr_run_produces_sane_results() {
        let spec = app_by_name("miniFE").unwrap();
        let run = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(256)).with_iterations(10),
        );
        let result = run
            .execute(PlacementApproach::DdrOnly.router().unwrap())
            .unwrap();
        assert!(result.fom > 0.0);
        assert!(result.total_time > Nanos::ZERO);
        assert_eq!(result.mcdram_hwm, ByteSize::ZERO);
        assert!(result.counters.llc_misses > 0);
        assert_eq!(result.approach, ApproachKind::Ddr);
        assert!(result.trace.is_none());
    }

    #[test]
    fn numactl_run_uses_mcdram_and_beats_ddr() {
        let spec = app_by_name("miniFE").unwrap();
        let cfg = RunConfig::flat(ByteSize::from_mib(256)).with_iterations(10);
        let ddr = AppRun::new(&spec, cfg.clone())
            .execute(PlacementApproach::DdrOnly.router().unwrap())
            .unwrap();
        let numactl = AppRun::new(&spec, cfg)
            .execute(PlacementApproach::NumactlPreferred.router().unwrap())
            .unwrap();
        assert!(numactl.mcdram_hwm > ByteSize::ZERO);
        assert!(
            numactl.fom > ddr.fom,
            "numactl {} vs ddr {}",
            numactl.fom,
            ddr.fom
        );
    }

    #[test]
    fn cache_mode_run_beats_ddr_for_fitting_hot_sets() {
        let spec = app_by_name("miniFE").unwrap();
        let ddr = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(256)).with_iterations(10),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        let cache = AppRun::new(&spec, RunConfig::cache_mode().with_iterations(10))
            .execute(PlacementApproach::CacheMode.router().unwrap())
            .unwrap();
        assert!(
            cache.fom > ddr.fom,
            "cache {} vs ddr {}",
            cache.fom,
            ddr.fom
        );
        assert_eq!(cache.approach, ApproachKind::Cache);
    }

    #[test]
    fn profiled_run_produces_a_trace_with_samples_and_allocs() {
        let spec = app_by_name("HPCG").unwrap();
        let cfg = RunConfig::flat(ByteSize::from_mib(256))
            .with_iterations(5)
            .with_profiling(ProfilerConfig::default());
        let result = AppRun::new(&spec, cfg)
            .execute(PlacementApproach::DdrOnly.router().unwrap())
            .unwrap();
        let trace = result.trace.expect("trace present");
        assert!(trace.alloc_count() >= spec.dynamic_objects().count());
        assert!(trace.sample_count() > 0, "PEBS samples recorded");
        assert!(result.monitoring_overhead > 0.0 && result.monitoring_overhead < 0.2);
    }

    #[test]
    fn online_run_migrates_hot_objects_and_beats_ddr() {
        let spec = app_by_name("miniFE").unwrap();
        let cfg = RunConfig::flat(ByteSize::from_mib(256)).with_iterations(10);
        let ddr = AppRun::new(&spec, cfg.clone())
            .execute(PlacementApproach::DdrOnly.router().unwrap())
            .unwrap();
        let online = AppRun::new(&spec, cfg)
            .execute(PlacementApproach::Online.router().unwrap())
            .unwrap();
        assert_eq!(online.approach, ApproachKind::Online);
        assert!(online.migrations > 0, "the hot objects must migrate");
        assert!(online.migration_time > Nanos::ZERO);
        assert!(
            online.mcdram_hwm > ByteSize::ZERO,
            "migrated residency counts as footprint"
        );
        assert!(
            online.mcdram_hwm <= ByteSize::from_mib(256),
            "budget respected: {}",
            online.mcdram_hwm
        );
        assert!(
            online.fom > ddr.fom,
            "online {} vs ddr {}",
            online.fom,
            ddr.fom
        );
        // Static approaches never migrate.
        assert_eq!(ddr.migrations, 0);
        assert_eq!(ddr.migration_time, Nanos::ZERO);
    }

    #[test]
    fn rank_policies_wire_through_online_runs() {
        // The analytic runner models one process with symmetric peer ranks,
        // so every arbitration policy resolves to the same per-epoch budget
        // (the partition share) — bitwise. The wiring still matters: the
        // budget is drawn from the NodeArbiter each epoch, and the
        // trace-driven multi-rank runner shares the same arbiter for the
        // asymmetric cases.
        let spec = app_by_name("miniFE").unwrap();
        let base = RunConfig::flat(ByteSize::from_mib(256)).with_iterations(8);
        let reference = AppRun::new(&spec, base.clone())
            .execute(PlacementApproach::Online.router().unwrap())
            .unwrap();
        assert!(reference.migrations > 0);
        for policy in hmsim_runtime::ArbiterPolicy::ALL {
            let run = AppRun::new(&spec, base.clone().with_rank_policy(policy))
                .execute(PlacementApproach::Online.router().unwrap())
                .unwrap();
            assert_eq!(
                run.fom.to_bits(),
                reference.fom.to_bits(),
                "{policy}: symmetric ranks must make every policy equivalent"
            );
            assert_eq!(run.migrations, reference.migrations, "{policy}");
            assert!(run.mcdram_hwm <= ByteSize::from_mib(256), "{policy}");
        }
    }

    #[test]
    fn kernel_times_are_reported_per_kernel() {
        let spec = app_by_name("SNAP").unwrap();
        let result = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(256)).with_iterations(3),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        assert_eq!(result.kernel_times.len(), spec.kernels.len());
        assert!(result.kernel_times.iter().all(|(_, t)| *t > Nanos::ZERO));
    }

    #[test]
    fn iterations_override_scales_time_but_not_fom_much() {
        let spec = app_by_name("miniFE").unwrap();
        let short = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(128)).with_iterations(5),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        let long = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(128)).with_iterations(20),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap();
        assert!(long.loop_time > short.loop_time * 2.0);
        let rel = (long.fom - short.fom).abs() / long.fom;
        assert!(
            rel < 0.1,
            "FOM should be roughly iteration-count independent ({rel})"
        );
    }
}
