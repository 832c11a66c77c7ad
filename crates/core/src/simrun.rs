//! Execution of one application model under one placement approach.
//!
//! The runner builds the simulated process (address space, tier arenas,
//! program image with ASLR), performs every allocation the application model
//! prescribes through the chosen [`AllocationRouter`], costs each kernel of
//! each iteration with the analytical machine engine, and optionally attaches
//! the Extrae-style profiler, which keeps a trace or streams into any
//! [`EventSink`]. It is used both for the
//! profiling run (step 1) and for the final, placement-honouring run (step 4)
//! as well as for every baseline.

use auto_hbwmalloc::{AllocationRouter, ApproachKind};
use hmsim_apps::{AllocTiming, AppSpec, KernelSpec, ObjectSpec};
use hmsim_callstack::{AslrLayout, ProgramImage, SiteKey, Translator, Unwinder};
use hmsim_common::{Address, ByteSize, DetRng, HmError, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::{DataObject, ObjectKind, ProcessHeap};
use hmsim_machine::{
    AnalyticEngine, MachineConfig, MemoryMode, ObjectTraffic, PerfCounters, PhaseProfile, Placement,
};
use hmsim_profiler::{Profiler, ProfilerConfig, MIN_ALLOC_SIZE};
use hmsim_runtime::{ArbiterPolicy, Migrator, OnlineConfig, RuntimeStats};
use hmsim_trace::{EventSink, TraceFile, TraceMetadata};

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
    /// Ignored. The analytic runner models one process with symmetric
    /// peers, under which every arbitration policy hands each rank exactly
    /// `mcdram_capacity`, so online runs plan every epoch against
    /// `mcdram_capacity` directly. Arbitration between ranks lives in the
    /// trace-driven multi-rank runner (`hmsim_runtime::multirank`).
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

    /// Execute the run with the given router: initialise the process, run
    /// every main-loop iteration (one online epoch each), then total up.
    /// A profiled run keeps its trace in [`RunResult::trace`].
    pub fn execute(&self, router: AllocationRouter) -> HmResult<RunResult> {
        let profiler = self.config.profile.clone().map(|cfg| {
            let metadata = self.trace_metadata();
            Profiler::with_sink(&metadata, cfg, TraceFile::new(metadata.clone()))
        });
        let (mut result, trace) = self.run(router, profiler)?;
        result.trace = trace;
        Ok(result)
    }

    /// Execute a profiled run whose profile streams into `sink` as it is
    /// emitted instead of being kept: the result carries no trace, and the
    /// sink comes back holding whatever it made of the events. The run must
    /// be configured with profiling ([`RunConfig::with_profiling`]).
    pub fn execute_into<S: EventSink>(
        &self,
        router: AllocationRouter,
        sink: S,
    ) -> HmResult<(RunResult, S)> {
        let config = self.config.profile.clone().ok_or_else(|| {
            HmError::InvalidState("a run streaming its profile needs a profiler".into())
        })?;
        let profiler = Profiler::with_sink(&self.trace_metadata(), config, sink);
        let (result, sink) = self.run(router, Some(profiler))?;
        Ok((result, sink.expect("a profiled run hands back its sink")))
    }

    /// The header of a profile of this run: the process it describes and
    /// how the configured profiler (the default one, if none) samples it.
    pub fn trace_metadata(&self) -> TraceMetadata {
        let profiler = self.config.profile.clone().unwrap_or_default();
        TraceMetadata {
            application: self.spec.name.to_string(),
            ranks: self.spec.ranks,
            threads_per_rank: self.spec.threads_per_rank,
            sampling_period: profiler.sampling_period,
            min_alloc_size: MIN_ALLOC_SIZE.bytes(),
            rank: 0,
        }
    }

    fn run<S: EventSink>(
        &self,
        router: AllocationRouter,
        profiler: Option<Profiler<S>>,
    ) -> HmResult<(RunResult, Option<S>)> {
        self.spec.validate()?;
        let iterations = self
            .config
            .iterations_override
            .unwrap_or(self.spec.iterations)
            .max(1);
        let mut run = Run::new(self.spec, &self.config, self.cores_used(), router, profiler)?;
        run.init()?;
        for _ in 0..iterations {
            run.iteration()?;
        }
        Ok(run.finish(iterations))
    }
}

/// The kernel of an application that declares none: the whole iteration,
/// touching every object by its global miss share.
const WHOLE_ITERATION: KernelSpec = KernelSpec {
    name: "iteration",
    instruction_share: 1.0,
    miss_share: 1.0,
    object_weights: &[],
};

/// One kernel of the iteration, resolved once per run.
struct Kernel {
    /// What the engine costs; `traffic` is refilled with the current object
    /// ids every iteration, because churn objects get a new id each time.
    phase: PhaseProfile,
    /// Instructions one process retires in the kernel.
    process_instructions: u64,
    /// Per object touched: (spec index, node misses, process misses,
    /// irregular fraction).
    traffic: Vec<(usize, u64, u64, f64)>,
    /// Time spent in the kernel over all iterations so far.
    time: Nanos,
}

/// Distribute every kernel's instructions and misses over the node and its
/// objects. Nothing here changes between iterations.
fn kernel_table(spec: &AppSpec, cores_used: u32) -> Vec<Kernel> {
    let ranks = u64::from(spec.ranks);
    let kernels = match &spec.kernels[..] {
        [] => std::slice::from_ref(&WHOLE_ITERATION),
        kernels => kernels,
    };
    let index = |name| spec.objects.iter().position(|o| o.name == name);
    let table = kernels.iter().map(|k| {
        let node_misses = ((spec.misses_per_iteration * ranks) as f64 * k.miss_share) as u64;
        // The profiler observes one monitored hardware thread's share of the
        // misses (each thread has its own PEBS counter), which is what keeps
        // Table I's sample counts in the tens of thousands rather than the
        // millions.
        let process_misses = (spec.misses_per_iteration as f64 * k.miss_share
            / f64::from(spec.threads_per_rank.max(1))) as u64;
        // `AppSpec::validate` guarantees every weighted name resolves.
        let weights: Vec<(usize, f64)> = match k.object_weights {
            [] => spec
                .objects
                .iter()
                .map(|o| o.miss_share)
                .enumerate()
                .collect(),
            named => named
                .iter()
                .filter_map(|&(n, w)| Some((index(n)?, w)))
                .collect(),
        };
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let traffic = weights.into_iter().map(|(object, w)| {
            let frac = w / total.max(1e-12);
            let part = |misses: u64| (misses as f64 * frac) as u64;
            let irregular = spec.objects[object].irregular;
            (object, part(node_misses), part(process_misses), irregular)
        });
        let instructions = |per_iteration: u64| (per_iteration as f64 * k.instruction_share) as u64;
        Kernel {
            phase: PhaseProfile {
                name: k.name.to_string(),
                instructions: instructions(spec.instructions_per_iteration * ranks),
                cores_used,
                traffic: Vec::new(),
            },
            process_instructions: instructions(spec.instructions_per_iteration),
            traffic: traffic.collect(),
            time: Nanos::ZERO,
        }
    });
    table.collect()
}

/// The canonical (ASLR-independent) site key of a dynamic spec object with
/// a call-path, derived through one process instance's unwinder and
/// translator.
fn canonical_site(unwinder: &Unwinder, translator: &Translator, o: &ObjectSpec) -> Option<SiteKey> {
    if o.kind != ObjectKind::Dynamic || o.site.is_empty() {
        return None;
    }
    let (raw, _) = unwinder.unwind(o.site).ok()?;
    Some(translator.translate(&raw).0.site_key())
}

/// Everything one run carries from initialisation to wrap-up; a profiled
/// run emits into `S`.
struct Run<'a, S> {
    spec: &'a AppSpec,
    engine: AnalyticEngine,
    working_set: ByteSize,
    router: AllocationRouter,
    heap: ProcessHeap,
    profiler: Option<Profiler<S>>,
    /// The online runtime's commit half and each spec object's node misses
    /// per epoch: the heat it records at every boundary.
    online: Option<(Migrator, Vec<u64>)>,
    kernels: Vec<Kernel>,
    /// Canonical (ASLR-independent) site key of each dynamic spec object.
    sites: Vec<Option<SiteKey>>,
    /// Current heap id of each spec object (`None` until first allocated).
    ids: Vec<Option<ObjectId>>,
    now: Nanos,
    loop_time: Nanos,
    allocator_time: Nanos,
    counters: PerfCounters,
}

impl<'a, S: EventSink> Run<'a, S> {
    /// Build the simulated process: heap, online runtime, kernel table and
    /// canonical allocation sites, around `profiler`. Nothing is allocated
    /// yet.
    fn new(
        spec: &'a AppSpec,
        config: &RunConfig,
        cores_used: u32,
        router: AllocationRouter,
        profiler: Option<Profiler<S>>,
    ) -> HmResult<Self> {
        let machine = &config.machine;
        let mut heap = ProcessHeap::new(machine)?;
        if machine.memory_mode == MemoryMode::Flat && !config.mcdram_capacity.is_zero() {
            heap.set_capacity_cap(TierId::MCDRAM, config.mcdram_capacity)?;
        } else if machine.memory_mode != MemoryMode::Flat {
            heap.set_capacity_cap(TierId::MCDRAM, machine.flat_mcdram_capacity())?;
        }

        let kernels = kernel_table(spec, cores_used);
        // The online migration runtime: the migrator re-plans placement
        // after every main-loop iteration (the analytic engine's natural
        // epoch) against the per-rank budget `mcdram_capacity`, and every
        // move is charged bytes × per-tier bandwidth.
        let online = (router.kind() == ApproachKind::Online).then(|| {
            let mut heat = vec![0; spec.objects.len()];
            for &(object, node, ..) in kernels.iter().flat_map(|k| &k.traffic) {
                heat[object] += node;
            }
            let cfg = config.online.clone().unwrap_or_default();
            (Migrator::new(machine, config.mcdram_capacity, cfg), heat)
        });

        // Site keys derived through the same unwind/translate machinery the
        // framework uses, so the profiling trace, the advisor report and the
        // interposition library all speak the same site language.
        let (unwinder, translator) = AppRun::callstack_machinery(spec, config.seed);
        let site = |o: &ObjectSpec| canonical_site(&unwinder, &translator, o);

        Ok(Run {
            spec,
            engine: AnalyticEngine::new(machine),
            working_set: ByteSize::from_bytes(spec.hot_working_set.bytes() * u64::from(spec.ranks)),
            router,
            heap,
            profiler,
            online,
            kernels,
            sites: spec.objects.iter().map(site).collect(),
            ids: vec![None; spec.objects.len()],
            now: Nanos::ZERO,
            loop_time: Nanos::ZERO,
            allocator_time: Nanos::ZERO,
            counters: PerfCounters::default(),
        })
    }

    /// Initialisation: the static/stack definitions and init-time
    /// allocations, in the order the application performs them.
    fn init(&mut self) -> HmResult<()> {
        let spec = self.spec;
        for (object, o) in spec.objects.iter().enumerate() {
            let id = match (o.kind, o.timing) {
                (ObjectKind::Static, _) => {
                    let tier = self.router.static_tier(&self.heap, o.size);
                    let (id, _) = self.heap.define_static(o.name, o.size, tier, self.now)?;
                    self.record_alloc(id);
                    id
                }
                (ObjectKind::Stack, _) => {
                    let tier = self.router.stack_tier(&self.heap, o.size);
                    self.heap.define_stack(o.name, o.size, tier, self.now)?.0
                }
                (ObjectKind::Dynamic, AllocTiming::Init) => self.malloc(object, o.size)?.0,
                (ObjectKind::Dynamic, AllocTiming::PerIteration { .. }) => continue,
            };
            self.ids[object] = Some(id);
        }
        self.now += spec.init_time;
        Ok(())
    }

    /// Allocate spec object `object` through the router and log it to the
    /// profiler; the allocator's CPU time accrues to the run.
    fn malloc(&mut self, object: usize, size: ByteSize) -> HmResult<(ObjectId, Address)> {
        let o = &self.spec.objects[object];
        let site = self.sites[object].as_ref();
        let (id, range, cost) =
            self.router
                .malloc(&mut self.heap, size, o.name, o.site, site, self.now)?;
        self.allocator_time += cost;
        self.record_alloc(id);
        Ok((id, range.start))
    }

    /// Log a freshly defined or allocated object to the profiler, when one
    /// is attached.
    fn record_alloc(&mut self, id: ObjectId) {
        if let (Some(p), Some(obj)) = (self.profiler.as_mut(), self.heap.registry().get(id)) {
            p.record_alloc(obj, self.now);
        }
    }

    /// One main-loop iteration: churn allocations, every kernel, churn frees
    /// and, for online runs, the epoch boundary.
    fn iteration(&mut self) -> HmResult<()> {
        if let Some(p) = self.profiler.as_mut() {
            p.phase_begin("iteration", self.now);
        }
        let mut churn = Vec::new();
        for (object, o) in self.spec.objects.iter().enumerate() {
            let AllocTiming::PerIteration {
                allocs_per_iteration,
            } = o.timing
            else {
                continue;
            };
            for i in 0..allocs_per_iteration {
                let (id, addr) = self.malloc(object, if i == 0 { o.size } else { o.min_size })?;
                churn.push((id, addr));
                if i == 0 {
                    self.ids[object] = Some(id);
                }
            }
        }

        self.run_kernels();

        for (id, addr) in churn {
            if let Some(p) = self.profiler.as_mut() {
                p.record_free(id, addr, self.now);
            }
            self.allocator_time += self.router.free(&mut self.heap, addr)?;
        }

        self.epoch_boundary();
        if let Some(p) = self.profiler.as_mut() {
            p.phase_end("iteration", self.now);
        }
        Ok(())
    }

    /// Cost every kernel against this iteration's placement snapshot.
    fn run_kernels(&mut self) {
        let mut placement = Placement::all_in(TierId::DDR);
        for &id in self.ids.iter().flatten() {
            if let Some(obj) = self.heap.registry().get(id) {
                placement.place(id, obj.tier);
            }
        }

        let (ids, heap) = (&self.ids, &self.heap);
        for k in &mut self.kernels {
            k.phase.traffic.clear();
            k.phase
                .traffic
                .extend(k.traffic.iter().filter_map(|&(o, node, _, irregular)| {
                    Some(ObjectTraffic::new(ids[o]?, node, irregular))
                }));
            let cost = self
                .engine
                .cost_phase(&k.phase, &placement, self.working_set);
            self.counters.accumulate(&cost.counters);

            if let Some(p) = self.profiler.as_mut() {
                p.phase_begin(k.phase.name.as_str(), self.now);
                let refs: Vec<(&DataObject, u64)> = k
                    .traffic
                    .iter()
                    .filter_map(|&(o, _, process, _)| {
                        Some((heap.registry().get(ids[o]?)?, process))
                    })
                    .collect();
                p.record_interval(self.now, cost.time, k.process_instructions, &refs);
                p.phase_end(k.phase.name.as_str(), self.now + cost.time);
            }

            self.now += cost.time;
            self.loop_time += cost.time;
            k.time += cost.time;
        }
    }

    /// Online epoch boundary: record this iteration's misses as each
    /// object's heat and let the migrator commit the epoch. The moves'
    /// latency serialises into the loop time, exactly like allocator
    /// overhead does. The analytic engine simulates no single accesses or
    /// samples, so the epoch is booked with none.
    fn epoch_boundary(&mut self) {
        let Some((migrator, heat)) = self.online.as_mut() else {
            return;
        };
        for (id, misses) in self.ids.iter().zip(heat.iter()) {
            if let Some(id) = id {
                migrator.record(*id, *misses as f64);
            }
        }
        let time = migrator.commit(&mut self.heap, 0, 0);
        self.now += time;
        self.loop_time += time;
    }

    /// Wrap-up: totals, FOM, overheads, and the profiler's sink (the
    /// result's `trace` is left empty).
    fn finish(self, iterations: u32) -> (RunResult, Option<S>) {
        // Allocator/interposition CPU time is serial per process.
        let allocator_time = self.allocator_time + self.router.interposition_overhead();
        let loop_time = self.loop_time + allocator_time;
        let monitoring_overhead = self
            .profiler
            .as_ref()
            .map_or(0.0, |p| p.overhead_fraction(loop_time));
        let monitored_loop_time = loop_time * (1.0 + monitoring_overhead);
        let fom = self.spec.fom_work_per_iteration * f64::from(iterations)
            / monitored_loop_time.secs().max(1e-12);
        // Online runs never allocate in MCDRAM, so their footprint shows up
        // as migrated residency rather than allocator HWM. A static run
        // books no migration.
        let allocator_hwm = self.heap.allocated_hwm(TierId::MCDRAM);
        let static_run = RuntimeStats::default();
        let online = self.online.as_ref().map_or(&static_run, |(m, _)| m.stats());
        let per_iteration = |k: Kernel| (k.phase.name, k.time / f64::from(iterations));
        let result = RunResult {
            fom,
            total_time: self.spec.init_time + monitored_loop_time,
            loop_time: monitored_loop_time,
            mcdram_hwm: allocator_hwm.max(online.fast_residency_peak),
            counters: self.counters,
            kernel_times: self.kernels.into_iter().map(per_iteration).collect(),
            monitoring_overhead,
            allocator_time,
            migration_time: online.migration_time,
            migrations: online.migrations,
            migrations_rejected: online.rejected_moves,
            trace: None,
            approach: self.router.kind(),
        };
        (result, self.profiler.map(Profiler::finish))
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

    /// Every application under every budget of the default experiment
    /// grid: the analytic online run never has a planned move rejected and
    /// never holds more MCDRAM than its budget.
    #[test]
    fn online_runs_reject_no_move_and_stay_within_every_grid_budget() {
        let grid = crate::experiment::ExperimentConfig::default();
        let mut migrated = 0;
        for spec in hmsim_apps::all_apps() {
            for &budget in grid.budgets_for(&spec) {
                let result = AppRun::new(&spec, RunConfig::flat(budget).with_iterations(3))
                    .execute(PlacementApproach::Online.router().unwrap())
                    .unwrap();
                let at = format!("{} at {budget}", spec.name);
                assert_eq!(result.migrations_rejected, 0, "{at}");
                assert!(result.mcdram_hwm <= budget, "{at}: {}", result.mcdram_hwm);
                migrated += usize::from(result.migrations > 0);
            }
        }
        assert!(migrated > 0, "no online run migrated anything");
    }

    #[test]
    fn rank_policies_wire_through_online_runs() {
        // The analytic runner models one process with symmetric peer ranks
        // and plans every epoch against the per-rank budget, so it ignores
        // the arbitration policy — bitwise. (`Scenario::validate` rejects a
        // non-partition policy outside multi-rank workloads.)
        let spec = app_by_name("miniFE").unwrap();
        let base = RunConfig::flat(ByteSize::from_mib(256)).with_iterations(8);
        let reference = AppRun::new(&spec, base.clone())
            .execute(PlacementApproach::Online.router().unwrap())
            .unwrap();
        assert!(reference.migrations > 0);
        for policy in hmsim_runtime::ArbiterPolicy::ALL {
            let config = RunConfig {
                rank_policy: policy,
                ..base.clone()
            };
            let run = AppRun::new(&spec, config)
                .execute(PlacementApproach::Online.router().unwrap())
                .unwrap();
            assert_eq!(
                run.fom.to_bits(),
                reference.fom.to_bits(),
                "{policy}: the analytic runner must ignore the policy"
            );
            assert_eq!(run.migrations, reference.migrations, "{policy}");
            assert!(run.mcdram_hwm <= ByteSize::from_mib(256), "{policy}");
        }
    }

    #[test]
    fn duplicate_object_names_are_rejected_before_running() {
        // Kernels resolve their weights by name: a duplicate would pair one
        // object's id with another's traffic shape.
        let mut spec = app_by_name("SNAP").unwrap();
        spec.objects[1].name = spec.objects[0].name;
        let err = AppRun::new(
            &spec,
            RunConfig::flat(ByteSize::from_mib(256)).with_iterations(2),
        )
        .execute(PlacementApproach::DdrOnly.router().unwrap())
        .unwrap_err();
        assert!(matches!(err, hmsim_common::HmError::Config(_)), "{err}");
    }

    /// The runner hands the framework's interposition library the site key
    /// it derived under its own ASLR layout, and the library records it
    /// instead of deriving one under the re-run's layout: the two must agree
    /// for every allocation site of every application.
    #[test]
    fn canonical_site_keys_agree_across_aslr_layouts() {
        let (seed, rerun_seed) = (0xBA5E, 0xBA5E ^ 0x5a5a_5a5a);
        let (mut matched, mut moved) = (0, 0);
        for spec in hmsim_apps::all_apps() {
            let (unwinder, translator) = AppRun::callstack_machinery(&spec, seed);
            let (rerun_unwinder, rerun_translator) = AppRun::callstack_machinery(&spec, rerun_seed);
            for o in spec
                .objects
                .iter()
                .filter(|o| o.kind == ObjectKind::Dynamic)
            {
                let key = canonical_site(&unwinder, &translator, o);
                let rerun_key = canonical_site(&rerun_unwinder, &rerun_translator, o);
                assert_eq!(key, rerun_key, "{}/{}", spec.name, o.name);
                assert_eq!(
                    key.is_some(),
                    !o.site.is_empty(),
                    "{}/{}",
                    spec.name,
                    o.name
                );
                if key.is_some() {
                    matched += 1;
                    let raw = |u: &Unwinder| u.unwind(o.site).unwrap().0;
                    moved += usize::from(raw(&unwinder) != raw(&rerun_unwinder));
                }
            }
        }
        assert_eq!(matched, 48, "dynamic sites across the 8 applications");
        assert_eq!(
            moved, matched,
            "each layout places every call-path elsewhere"
        );
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

    /// Sparser sampling costs less and captures fewer samples, but the
    /// attribution stays stable: `A.coefs` is miniFE's hottest object at
    /// every period.
    #[test]
    fn sampling_period_trades_samples_for_overhead_without_moving_attribution() {
        let spec = app_by_name("miniFE").unwrap();
        let profiled = |period| {
            let run = AppRun::new(
                &spec,
                RunConfig::flat(ByteSize::from_mib(256))
                    .with_iterations(5)
                    .with_profiling(ProfilerConfig::dense(period)),
            )
            .execute(PlacementApproach::DdrOnly.router().unwrap())
            .unwrap();
            let trace = run.trace.expect("profiled run keeps its trace");
            let hottest = hmsim_analysis::analyze_trace(&trace).objects[0]
                .name
                .clone();
            (trace.sample_count(), run.monitoring_overhead, hottest)
        };
        let runs: Vec<_> = [4_001, 37_589, 300_007].map(profiled).into();
        for pair in runs.windows(2) {
            let ((dense_samples, dense_cost, _), (sparse_samples, sparse_cost, _)) =
                (&pair[0], &pair[1]);
            assert!(sparse_samples < dense_samples, "{runs:?}");
            assert!(sparse_cost < dense_cost, "{runs:?}");
        }
        for (_, _, hottest) in &runs {
            assert_eq!(hottest, "A.coefs", "{runs:?}");
        }
    }
}
