//! The traced run: a per-layer ledger measured from the outside in.
//!
//! Every workload's body is re-driven single-threaded, one layer at a time,
//! with a span around each call into a layer's public entry point. Where
//! the measured body calls a facade (`Simulation::run`,
//! `FrameworkPipeline::run`, `run_multirank`), the ledger calls it too and
//! then re-drives the stages behind it by hand, checking that the hand-driven
//! path reproduces the facade's outcome bit for bit. Spans stay in memory
//! and are written to `out/` when the run ends.
//!
//! A trace run always covers all four workloads, so every per-layer metric
//! is present whichever workload is named; the named workload also gets one
//! untraced pass, and the ratio of its traced to untraced wall time is the
//! tracing overhead.

use crate::digest::{compare, Digest, Record};
use crate::workloads::{
    self, fold_record, record_multirank, Input, Pass, Size, Workload, FOLD_BINS,
};
use crate::{host, json_num, json_obj, json_str, Metric, RunOutput};
use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec};
use hmem_core::{AppRun, RunConfig, RunResult, Scenario, Simulation};
use hmsim_analysis::{analyze_stream, analyze_trace, FoldedTimeline};
use hmsim_apps::{phased_workload_by_name, AppSpec};
use hmsim_common::{Address, ByteSize, DetRng, HmError, HmResult, Nanos, TierId};
use hmsim_machine::{MemoryMode, TraceEngine};
use hmsim_pebs::{PebsEvent, PebsSampler, ProcessorFamily, RawSample};
use hmsim_profiler::ProfilerConfig;
use hmsim_runtime::harness::{loaded_machine, provision};
use hmsim_runtime::{MultiRankRuntime, OnlineRuntime};
use hmsim_trace::{write_binary_to, TraceEvent, TraceReader};
use std::io::Write;
use std::time::Instant;

/// Migration round trips per object in the `heap.migrate` probe.
const MIGRATE_ROUNDS: usize = 20;

/// One recorded span.
struct Span {
    name: String,
    workload: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            workload: self.workload,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// A span around one call.
    fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Self times of the spans of one workload and name.
    fn self_times(&self, workload: Workload, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.workload == workload.name() && s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Total self time, in ns, of one workload's spans of `name`.
    fn total(&self, workload: Workload, name: &str) -> f64 {
        self.self_times(workload, name).iter().sum()
    }

    /// Mean self time, in ns, of one workload's spans of `name`.
    fn mean(&self, workload: Workload, name: &str) -> f64 {
        let t = self.self_times(workload, name);
        t.iter().sum::<f64>() / t.len().max(1) as f64
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json_obj(&[
                    ("id".into(), id.to_string()),
                    ("name".into(), json_str(&s.name)),
                    ("workload".into(), json_str(s.workload)),
                    (
                        "parent".into(),
                        s.parent.map_or("null".into(), |p| p.to_string()),
                    ),
                    ("start_ns".into(), s.start_ns.to_string()),
                    ("end_ns".into(), s.end_ns.to_string()),
                ])
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Exact work counts of the ledger; the per-unit metrics divide by these.
#[derive(Default)]
struct Counts {
    /// Facade-level runs (`Simulation::run`, `run_multirank`,
    /// `FrameworkPipeline::run`).
    scenario_runs: u64,
    /// Accesses the layer replay drove through the trace engine.
    accesses: u64,
    /// LLC misses the replay collected (the sampler's input).
    llc_misses: u64,
    /// PEBS samples the replay produced (the registry's input).
    samples: u64,
    /// Online-runtime epochs driven by hand.
    epochs: u64,
    /// Migrations of the hand-driven online runs and serial multi-rank runs.
    migrations: u64,
    /// Profiling-trace events of the spill probe.
    trace_events: u64,
    /// Grid main-loop iterations simulated by hand-driven `AppRun`s.
    iterations: u64,
    /// Objects the grid's advisor calls ranked.
    advised_objects: u64,
    /// Bytes the `heap.migrate` probe moved.
    migrated_bytes: u64,
    /// Spilled trace bytes.
    trace_bytes: u64,
    /// Node epochs of the serial multi-rank runs, per policy.
    node_epochs: Vec<(String, u64)>,
}

/// Comparison of a hand-driven path against the facade.
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn same(&mut self, what: String, facade: Record, hand: Record) {
        self.attempted += 1;
        let (mut want, mut got) = (Digest::new(), Digest::new());
        want.insert(what.clone(), facade);
        got.insert(what, hand);
        self.failures
            .extend(compare("hand-driven vs facade", &want, &got));
    }

    fn holds(&mut self, what: String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures
                .push(format!("hand-driven vs facade: {what} differs"));
        }
    }
}

fn scenario_via_text(t: &mut Tracer, scenario: &Scenario) -> HmResult<Scenario> {
    let text = scenario.serialize();
    t.time("core.scenario.parse", || Scenario::parse(&text))
}

/// The run configuration `FrameworkPipeline` gives both of its runs.
fn pipeline_config(budget: ByteSize, seed: u64, iterations: Option<u32>) -> RunConfig {
    let mut cfg = RunConfig::flat(budget);
    cfg.seed = seed;
    cfg.iterations_override = iterations;
    cfg
}

/// The four framework stages driven by hand, exactly as
/// `FrameworkPipeline::run` chains them.
fn framework_by_hand(
    t: &mut Tracer,
    c: &mut Counts,
    spec: &AppSpec,
    cfg: RunConfig,
    profiler: ProfilerConfig,
    strategy: hmem_advisor::SelectionStrategy,
) -> HmResult<(
    hmsim_analysis::ObjectReport,
    hmem_advisor::PlacementReport,
    RunResult,
)> {
    let profile_cfg = cfg.clone().with_profiling(profiler);
    let mut profiled = t.time("core.pipeline.profile", || {
        AppRun::new(spec, profile_cfg).execute(PlacementApproach::DdrOnly.router()?)
    })?;
    let trace = profiled
        .trace
        .take()
        .ok_or_else(|| HmError::InvalidState("profiling run produced no trace".into()))?;
    let report = t.time("core.pipeline.analyze", || analyze_trace(&trace));
    drop(trace);
    let placement = t.time("core.pipeline.advise", || {
        Advisor::new().advise(
            &report,
            &MemorySpec::knl_budget(cfg.mcdram_capacity),
            strategy,
        )
    })?;
    c.advised_objects += report.objects.len() as u64;
    let result = rerun(t, spec, placement.clone(), cfg)?;
    Ok((report, placement, result))
}

/// Stage 4: the re-run with auto-hbwmalloc interposed under a fresh ASLR
/// layout, on the budget and seed of `cfg`.
fn rerun(
    t: &mut Tracer,
    spec: &AppSpec,
    placement: hmem_advisor::PlacementReport,
    cfg: RunConfig,
) -> HmResult<RunResult> {
    let id = t.enter("core.pipeline.rerun");
    let (unwinder, translator) = t.time("callstack.machinery", || {
        AppRun::callstack_machinery(spec, cfg.seed ^ 0x5a5a_5a5a)
    });
    let library =
        AutoHbwMalloc::new(placement, unwinder, translator).with_budget(cfg.mcdram_capacity);
    let result = AppRun::new(spec, cfg).execute(AllocationRouter::framework(library));
    t.exit(id);
    result
}

fn grid(t: &mut Tracer, c: &mut Counts, k: &mut Checks, seed: u64, size: Size) -> HmResult<()> {
    let Input::Grid(input) = workloads::prepare(Workload::PaperGrid, seed, size)? else {
        unreachable!("paper-grid prepares a grid");
    };
    for run in &input.runs {
        let s = scenario_via_text(t, &run.scenario)?;
        let facade = t.time("core.session.run", || Simulation::new().run(&s))?;
        c.scenario_runs += 1;
        let spec = hmsim_apps::app_by_name(&run.app)?;
        let iterations = s.iterations.unwrap_or(spec.iterations).max(1);
        let name = format!("{}/{}", run.app, run.label);
        let hand = if let PlacementApproach::Framework { strategy } = s.approach {
            let cfg = pipeline_config(s.mcdram_budget, s.seed, s.iterations);
            let profiler = s.profiling.clone().unwrap_or_default();
            let (report, placement, result) =
                framework_by_hand(t, c, &spec, cfg, profiler, strategy)?;
            c.iterations += 2 * u64::from(iterations);
            let fw = facade.framework.as_ref();
            k.holds(
                format!("{name} object report"),
                fw.is_some_and(|f| f.object_report == report),
            );
            k.holds(
                format!("{name} placement"),
                fw.is_some_and(|f| f.placement.entries == placement.entries),
            );
            result
        } else {
            let config = RunConfig {
                machine: s.machine.config().with_memory_mode(s.memory_mode),
                mcdram_capacity: if s.memory_mode == MemoryMode::Flat {
                    s.mcdram_budget
                } else {
                    ByteSize::ZERO
                },
                iterations_override: s.iterations,
                profile: s.profiling.clone(),
                online: s.online.clone(),
                rank_policy: s.rank_policy,
                seed: s.seed,
            };
            let span = format!("core.simrun.execute.{}", s.approach.kind().key());
            c.iterations += u64::from(iterations);
            t.time(&span, || {
                AppRun::new(&spec, config).execute(s.approach.router()?)
            })?
        };
        k.same(
            name,
            Record::run_result(facade.result()),
            Record::run_result(&hand),
        );
    }
    Ok(())
}

fn phased(t: &mut Tracer, c: &mut Counts, k: &mut Checks, seed: u64, size: Size) -> HmResult<()> {
    let Input::Phased(input) = workloads::prepare(Workload::OnlinePhased, seed, size)? else {
        unreachable!("online-phased prepares phased scenarios");
    };
    let machine = loaded_machine();
    let array = workloads::phased_array(size);
    for pair in input.scenarios.chunks(2) {
        let online = scenario_via_text(t, &pair[0])?;
        let ddr = scenario_via_text(t, &pair[1])?;
        let facade_online = t.time("core.session.run", || Simulation::new().run(&online))?;
        let facade_ddr = t.time("core.session.run", || Simulation::new().run(&ddr))?;
        c.scenario_runs += 2;
        let hmem_core::WorkloadSelector::Phased { name, .. } = &online.workload else {
            unreachable!("phased scenarios select a phased workload");
        };
        let w = phased_workload_by_name(name, array)
            .ok_or_else(|| HmError::Config(format!("unknown phased workload {name}")))?;
        let budget = online.mcdram_budget;
        let cfg = online.online.clone().unwrap_or_default();

        // The online runtime, its observe and commit halves driven by hand.
        let mut p = t.time("heap.provision", || provision(&w, &machine, budget))?;
        let mut rt = t.time("runtime.new", || {
            OnlineRuntime::new(&machine, budget, cfg.clone())
        });
        let mut stream = w.stream(&p.ranges);
        let mut sampled: Vec<RawSample> = Vec::new();
        loop {
            let consumed = t.time("runtime.observe", || {
                rt.observe_epoch(&mut stream, &p.heap, &mut sampled)
            });
            if consumed == 0 {
                break;
            }
            t.time("runtime.commit", || {
                rt.commit_epoch(&mut p.heap, consumed, &sampled)
            });
            if consumed < cfg.epoch_accesses {
                break;
            }
        }
        let stats = rt.stats();
        c.epochs += stats.epochs;
        c.migrations += stats.migrations;
        k.same(
            online.name.clone(),
            Record::run_result(facade_online.result()),
            Record::default()
                .bits("time", rt.total_time().nanos())
                .counters(&rt.engine_stats().counters)
                .field("migrations", stats.migrations)
                .bits("migration_time", stats.migration_time.nanos())
                .field("rejected", stats.rejected_moves)
                .field("hwm", stats.fast_residency_peak.bytes()),
        );

        // Layer replay of the stream over the DDR placement: the engine
        // collects the miss addresses, the sampler observes them, and the
        // registry resolves the samples.
        let p = t.time("heap.provision", || provision(&w, &machine, budget))?;
        let mut engine = TraceEngine::new(&machine);
        let mut misses: Vec<Address> = Vec::new();
        t.time("machine.engine", || {
            for acc in w.stream(&p.ranges) {
                engine.access_with(&acc, p.heap.page_table(), |a| misses.push(a));
            }
        });
        k.same(
            ddr.name.clone(),
            Record::run_result(facade_ddr.result()),
            Record::default()
                .bits("time", engine.stats().time.nanos())
                .counters(&engine.stats().counters),
        );
        let mut sampler = PebsSampler::new(
            ProcessorFamily::KnightsLanding,
            PebsEvent::LlcLoadMiss,
            cfg.pebs_period,
            DetRng::new(cfg.seed),
        );
        let samples: Vec<RawSample> = t.time("pebs.sampler", || {
            misses
                .iter()
                .filter_map(|a| sampler.observe(Nanos::ZERO, *a))
                .collect()
        });
        let found = t.time("heap.registry", || {
            samples
                .iter()
                .filter(|s| p.heap.registry().find_containing(s.address).is_some())
                .count()
        });
        k.holds(
            format!("{} samples resolve to objects", ddr.name),
            found == samples.len(),
        );
        c.accesses += engine.stats().counters.l1_references;
        c.llc_misses += misses.len() as u64;
        c.samples += samples.len() as u64;
    }
    Ok(())
}

fn churn(t: &mut Tracer, c: &mut Counts, k: &mut Checks, seed: u64, size: Size) -> HmResult<()> {
    let Input::Churn(input) = workloads::prepare(Workload::MultirankChurn, seed, size)? else {
        unreachable!("multirank-churn prepares a bundle");
    };
    for cfg in &input.configs {
        let policy = cfg.policy;
        let serial_cfg = cfg.clone().serial();
        let rt = t.time("runtime.multirank.provision", || {
            MultiRankRuntime::new(&input.workload, &input.machine, serial_cfg.clone())
        })?;
        let serial = t.time(&format!("runtime.multirank.run.serial.{policy}"), || {
            rt.run()
        });
        let rt = t.time("runtime.multirank.provision", || {
            MultiRankRuntime::new(&input.workload, &input.machine, cfg.clone())
        })?;
        let parallel = t.time(&format!("runtime.multirank.run.parallel.{policy}"), || {
            rt.run()
        });
        c.scenario_runs += 2;
        c.migrations += serial.total_migrations();
        c.node_epochs.push((policy.to_string(), serial.node_epochs));
        let (mut a, mut b) = (Pass::default(), Pass::default());
        record_multirank(&mut a, &serial_cfg, &serial);
        record_multirank(&mut b, cfg, &parallel);
        k.attempted += 1;
        k.failures
            .extend(compare("serial vs parallel", &a.records, &b.records));
        k.failures.extend(a.errors);
    }

    // `migrate_object` round trips over one rank's objects.
    let w = input.workload.rank(0);
    let total: ByteSize = w.objects().iter().map(|(_, s)| *s).sum();
    let mut p = t.time("heap.provision", || provision(w, &input.machine, total))?;
    let moved = t.time("heap.migrate", || -> HmResult<u64> {
        let mut moved = 0;
        for _ in 0..MIGRATE_ROUNDS {
            for tier in [TierId::MCDRAM, TierId::DDR] {
                for id in &p.ids {
                    moved += p.heap.migrate_object(*id, tier)?.bytes();
                }
            }
        }
        Ok(moved)
    })?;
    c.migrated_bytes += moved;
    Ok(())
}

fn spill(t: &mut Tracer, c: &mut Counts, k: &mut Checks, seed: u64, size: Size) -> HmResult<()> {
    let Input::Spill(input) = workloads::prepare(Workload::ProfileSpill, seed, size)? else {
        unreachable!("profile-spill prepares pipelines");
    };
    let pipeline = &input.pipeline;
    let path = &input.spill;
    for spec in &input.apps {
        // The measured body's calls: the spilling pipeline, then the fold
        // streamed from the spilled file.
        let fw = t.time("core.pipeline.run_spilled", || {
            pipeline.clone().with_trace_spill(path).run(spec)
        })?;
        let folded_disk = t.time("analysis.fold_spilled", || {
            FoldedTimeline::fold_try_stream(TraceReader::open(path)?, "iteration", FOLD_BINS)
        })?;
        c.scenario_runs += 1;

        // The same stages by hand, each layer on its own.
        let cfg = pipeline_config(
            pipeline.mcdram_budget,
            pipeline.seed,
            pipeline.iterations_override,
        );
        let profile_cfg = cfg.clone().with_profiling(pipeline.profiler.clone());
        let mut profiled = t.time("profiler.profile", || {
            AppRun::new(spec, profile_cfg).execute(PlacementApproach::DdrOnly.router()?)
        })?;
        let trace = profiled
            .trace
            .take()
            .ok_or_else(|| HmError::InvalidState("profiling run produced no trace".into()))?;
        c.trace_events += trace.len() as u64;
        t.time("trace.binary.write", || -> HmResult<()> {
            let file = std::fs::File::create(path)?;
            write_binary_to(std::io::BufWriter::new(file), &trace)?.flush()?;
            Ok(())
        })?;
        let application = trace.metadata.application.clone();
        drop(trace);
        c.trace_bytes += std::fs::metadata(path)?.len();
        let events: Vec<TraceEvent> = t.time("trace.binary.read", || {
            TraceReader::open(path)?.collect::<HmResult<Vec<_>>>()
        })?;
        let report = t.time("analysis.analyze", || analyze_stream(application, &events));
        let folded = t.time("analysis.fold", || {
            FoldedTimeline::fold_stream(&events, "iteration", FOLD_BINS)
        });
        drop(events);
        let placement = t.time("core.pipeline.advise", || {
            Advisor::new().advise(
                &report,
                &MemorySpec::knl_budget(pipeline.mcdram_budget),
                pipeline.strategy,
            )
        })?;
        k.holds(
            format!("{} spilled report", spec.name),
            report == fw.object_report,
        );
        k.holds(
            format!("{} placement", spec.name),
            placement.entries == fw.placement.entries,
        );
        let result = rerun(t, spec, placement, cfg)?;
        k.same(
            format!("{}/pipeline", spec.name),
            Record::run_result(&fw.result),
            Record::run_result(&result),
        );
        k.same(
            format!("{}/fold", spec.name),
            fold_record(&folded_disk),
            fold_record(&folded),
        );
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Run the traced ledger; `named` also gets one untraced pass for the
/// overhead ratio.
pub fn run(named: Workload, seed: u64, size: Size) -> HmResult<RunOutput> {
    std::fs::create_dir_all(workloads::out_dir())?;
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let mut k = Checks {
        attempted: 0,
        failures: Vec::new(),
    };
    let mut walls = Vec::new();
    for w in Workload::ALL {
        t.workload = w.name();
        let root = t.enter(w.name());
        match w {
            Workload::PaperGrid => grid(&mut t, &mut c, &mut k, seed, size)?,
            Workload::OnlinePhased => phased(&mut t, &mut c, &mut k, seed, size)?,
            Workload::MultirankChurn => churn(&mut t, &mut c, &mut k, seed, size)?,
            Workload::ProfileSpill => spill(&mut t, &mut c, &mut k, seed, size)?,
        }
        t.exit(root);
        walls.push((w, root));
    }

    // Coverage: the share of each workload's traced wall time that its
    // layer spans account for.
    let own = t.self_ns();
    let coverage: Vec<(Workload, f64, f64)> = walls
        .iter()
        .map(|&(w, root)| {
            let wall = t.spans[root].ns() as f64;
            (w, 1.0 - own[root] as f64 / wall.max(1.0), wall / 1e9)
        })
        .collect();
    let traced_wall = coverage
        .iter()
        .find(|(w, _, _)| *w == named)
        .map_or(0.0, |(_, _, s)| *s);
    let input = workloads::prepare(named, seed, size)?;
    let (pass, untraced) = host::measure(|| workloads::body(&input));
    k.attempted += pass.runs;
    k.failures.extend(pass.errors);

    let spans_path = workloads::out_dir().join(format!("spans-{}-{seed}.json", named.name()));
    std::fs::write(&spans_path, t.to_json())?;

    let metrics = layer_metrics(&t, &c, &coverage, traced_wall / untraced.wall_s);
    let cov: Vec<(String, String)> = coverage
        .iter()
        .map(|(w, share, _)| (w.name().to_string(), json_num(*share)))
        .collect();
    let traced: Vec<(String, String)> = coverage
        .iter()
        .map(|(w, _, s)| (w.name().to_string(), json_num(*s)))
        .collect();
    let report = vec![
        ("coverage".into(), json_obj(&cov)),
        ("traced_wall_s".into(), json_obj(&traced)),
        ("untraced_wall_s".into(), json_num(untraced.wall_s)),
        ("spans".into(), t.spans.len().to_string()),
        (
            "spans_file".into(),
            json_str(&spans_path.display().to_string()),
        ),
    ];
    Ok(RunOutput {
        attempted: k.attempted,
        failures: k.failures,
        metrics,
        report,
    })
}

fn layer_metrics(
    t: &Tracer,
    c: &Counts,
    coverage: &[(Workload, f64, f64)],
    overhead: f64,
) -> Vec<Metric> {
    use Workload::*;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let session = t.self_times(PaperGrid, "core.session.run");
    let session_ms: Vec<f64> = session.iter().map(|ns| ns / 1e6).collect();
    let parse_ns: f64 = [PaperGrid, OnlinePhased]
        .iter()
        .flat_map(|&w| t.self_times(w, "core.scenario.parse"))
        .sum();
    let parses = t
        .spans
        .iter()
        .filter(|s| s.name == "core.scenario.parse")
        .count() as u64;
    let simrun_ns: f64 = ["ddr", "numactl", "autohbw", "cache", "online"]
        .iter()
        .map(|k| t.total(PaperGrid, &format!("core.simrun.execute.{k}")))
        .sum::<f64>()
        + t.total(PaperGrid, "core.pipeline.profile")
        + t.total(PaperGrid, "core.pipeline.rerun");
    let observe = t.total(OnlinePhased, "runtime.observe");
    let commit = t.total(OnlinePhased, "runtime.commit");
    let run_ns = |mode: &str| -> f64 {
        c.node_epochs
            .iter()
            .map(|(p, _)| t.total(MultirankChurn, &format!("runtime.multirank.run.{mode}.{p}")))
            .sum()
    };
    let events = c.trace_events;

    let mut m = vec![
        Metric::new("core.scenario.parse_us", per(parse_ns, parses) / 1e3, "us"),
        Metric::new(
            "core.session.run_ms.p50",
            host::percentile(&session_ms, 0.5),
            "ms",
        ),
        Metric::new(
            "core.session.run_ms.p90",
            host::percentile(&session_ms, 0.9),
            "ms",
        ),
    ];
    for kind in ["ddr", "numactl", "autohbw", "cache", "online"] {
        m.push(Metric::new(
            format!("core.simrun.execute_ms.{kind}"),
            t.mean(PaperGrid, &format!("core.simrun.execute.{kind}")) / 1e6,
            "ms",
        ));
    }
    m.extend([
        Metric::new(
            "core.simrun.us_per_iteration",
            per(simrun_ns, c.iterations) / 1e3,
            "us",
        ),
        Metric::new(
            "core.pipeline.profile_ms",
            t.mean(PaperGrid, "core.pipeline.profile") / 1e6,
            "ms",
        ),
        Metric::new(
            "core.pipeline.analyze_ms",
            t.mean(PaperGrid, "core.pipeline.analyze") / 1e6,
            "ms",
        ),
        Metric::new(
            "core.pipeline.advise_us",
            t.mean(PaperGrid, "core.pipeline.advise") / 1e3,
            "us",
        ),
        Metric::new(
            "core.pipeline.rerun_ms",
            t.mean(PaperGrid, "core.pipeline.rerun") / 1e6,
            "ms",
        ),
        Metric::new(
            "callstack.machinery_us",
            t.mean(PaperGrid, "callstack.machinery") / 1e3,
            "us",
        ),
        Metric::new(
            "advisor.us_per_object",
            per(
                t.total(PaperGrid, "core.pipeline.advise"),
                c.advised_objects,
            ) / 1e3,
            "us",
        ),
        Metric::new(
            "machine.engine.ns_per_access",
            per(t.total(OnlinePhased, "machine.engine"), c.accesses),
            "ns",
        ),
        Metric::new(
            "pebs.sampler.ns_per_miss",
            per(t.total(OnlinePhased, "pebs.sampler"), c.llc_misses),
            "ns",
        ),
        Metric::new(
            "heap.registry.ns_per_lookup",
            per(t.total(OnlinePhased, "heap.registry"), c.samples),
            "ns",
        ),
        Metric::new(
            "runtime.observe_ns_per_access",
            per(observe, c.accesses),
            "ns",
        ),
        Metric::new(
            "runtime.commit_us_per_epoch",
            per(commit, c.epochs) / 1e3,
            "us",
        ),
        Metric::new(
            "runtime.commit_share",
            commit / (observe + commit).max(1.0),
            "ratio",
        ),
        Metric::new(
            "heap.migrate_us_per_mib",
            t.total(MultirankChurn, "heap.migrate")
                / 1e3
                / (c.migrated_bytes as f64 / (1 << 20) as f64).max(1e-9),
            "us",
        ),
        Metric::new(
            "runtime.multirank.provision_ms",
            t.mean(MultirankChurn, "runtime.multirank.provision") / 1e6,
            "ms",
        ),
    ]);
    for (policy, epochs) in &c.node_epochs {
        m.push(Metric::new(
            format!("runtime.multirank.us_per_node_epoch.{policy}"),
            per(
                t.total(
                    MultirankChurn,
                    &format!("runtime.multirank.run.serial.{policy}"),
                ),
                *epochs,
            ) / 1e3,
            "us",
        ));
    }
    m.extend([
        Metric::new(
            "runtime.multirank.fanout_speedup",
            run_ns("serial") / run_ns("parallel").max(1.0),
            "x",
        ),
        Metric::new(
            "profiler.ns_per_event",
            per(t.total(ProfileSpill, "profiler.profile"), events),
            "ns",
        ),
        Metric::new(
            "trace.binary.write_ns_per_event",
            per(t.total(ProfileSpill, "trace.binary.write"), events),
            "ns",
        ),
        Metric::new(
            "trace.binary.read_ns_per_event",
            per(t.total(ProfileSpill, "trace.binary.read"), events),
            "ns",
        ),
        Metric::new(
            "trace.binary.bytes_per_event",
            per(c.trace_bytes as f64, events),
            "B",
        ),
        Metric::new(
            "analysis.analyze_ns_per_event",
            per(t.total(ProfileSpill, "analysis.analyze"), events),
            "ns",
        ),
        Metric::new(
            "analysis.fold_ns_per_event",
            per(t.total(ProfileSpill, "analysis.fold"), events),
            "ns",
        ),
        Metric::new("count.scenario_runs", c.scenario_runs as f64, "count"),
        Metric::new("count.accesses", c.accesses as f64, "count"),
        Metric::new("count.llc_misses", c.llc_misses as f64, "count"),
        Metric::new("count.samples", c.samples as f64, "count"),
        Metric::new("count.epochs", c.epochs as f64, "count"),
        Metric::new("count.migrations", c.migrations as f64, "count"),
        Metric::new("count.trace_events", events as f64, "count"),
        Metric::new(
            "trace.coverage",
            coverage
                .iter()
                .map(|(_, share, _)| *share)
                .fold(1.0, f64::min),
            "ratio",
        ),
        Metric::new("trace.overhead_ratio", overhead, "ratio"),
    ]);
    m
}
