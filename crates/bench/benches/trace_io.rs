//! Trace I/O throughput: binary serialise/parse, streamed folding, streamed
//! object analysis, and the framework's profile → analysis hand-off.
//!
//! This bench serialises a profiler-shaped trace through the chunked binary
//! format, times both directions, and times the single-pass folding and
//! per-object analysis of the event stream. Before any timing, the binary
//! round-trip is asserted to reproduce the original trace exactly, the fold
//! is asserted to visit each event exactly once, and the streamed analysis
//! is asserted to equal the in-memory one.
//!
//! The hand-off rows time stages 1 and 2 of the framework pipeline on every
//! application at the paper's sampling period, both ways: with the trace
//! materialised (recorded, then summarised and analysed) and streamed (the
//! profiler emitting straight into the analysis, as `FrameworkPipeline`
//! does). Both include the profiled run itself; the two results are
//! asserted equal before the sides are timed in interleaved pairs.
//!
//! The target writes `BENCH_trace.json` at the repository root (binary
//! throughputs, folding and analysis events/sec, hand-off ns per sample, all
//! on one thread) so the trace-path perf trajectory is tracked alongside
//! `BENCH_engine.json`.

use auto_hbwmalloc::PlacementApproach;
use hmem_advisor::SelectionStrategy;
use hmem_core::pipeline::FrameworkPipeline;
use hmem_core::simrun::{AppRun, RunConfig};
use hmsim_analysis::{
    analyze_stream, analyze_trace, FoldAccumulator, FoldedTimeline, ObjectReport,
    ObjectStatsBuilder,
};
use hmsim_bench::{best_of, median_of_pairs, write_artifact};
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, ByteSize, DetRng, Nanos, ObjectId};
use hmsim_trace::{
    read_binary, write_binary, AllocationRecord, CounterSnapshot, EventSink, ObjectClass,
    SampleRecord, TraceEvent, TraceFile, TraceMetadata, TraceReader, TraceSummary,
    TraceSummaryBuilder,
};

/// A profiler-shaped trace: a handful of hot objects, repeated iterations
/// with nested kernels, PEBS samples and periodic counter snapshots — the
/// event mix the real pipeline produces, at a size where parse cost matters.
fn synthetic_trace(events_target: usize) -> TraceFile {
    let mut rng = DetRng::new(0x7ACE10).derive("trace_io");
    let mut t = TraceFile::new(TraceMetadata {
        application: "trace_io synthetic".to_string(),
        ranks: 1,
        threads_per_rank: 4,
        sampling_period: 37_589,
        min_alloc_size: 4096,
        rank: 0,
    });
    let objects: Vec<(ObjectId, Address, u64)> = (0..8u32)
        .map(|i| {
            (
                ObjectId(i),
                Address(0x10_0000_0000 + u64::from(i) * 0x1000_0000),
                64 << 20,
            )
        })
        .collect();
    for (id, addr, size) in &objects {
        t.push(TraceEvent::Alloc(AllocationRecord {
            time: Nanos::ZERO,
            object: *id,
            class: ObjectClass::Dynamic,
            name: format!("array_{}", id.index()),
            site: Some(SiteKey::from_text(format!(
                "app!alloc_array{}+0x40|libc.so.6!malloc+0x1d",
                id.index()
            ))),
            address: *addr,
            size: ByteSize::from_bytes(*size),
        }));
    }
    let mut clock = 0.0f64;
    while t.len() < events_target {
        clock += 1.0;
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(clock),
            name: "iteration".to_string(),
        });
        let iter_start = clock;
        for kernel in ["spmv", "dot", "axpy"] {
            clock += 0.5;
            t.push(TraceEvent::PhaseBegin {
                time: Nanos::from_millis(clock),
                name: kernel.to_string(),
            });
            for _ in 0..20 {
                clock += 0.05;
                let (id, addr, size) = objects[rng.uniform_range(0, objects.len() as u64) as usize];
                t.push(TraceEvent::Sample(SampleRecord {
                    time: Nanos::from_millis(clock),
                    address: addr.offset(rng.uniform_range(0, size)),
                    object: rng.chance(0.9).then_some(id),
                    weight: 37_589,
                    latency_cycles: rng.chance(0.3).then(|| rng.uniform_range(100, 600) as u32),
                }));
            }
            clock += 0.5;
            t.push(TraceEvent::PhaseEnd {
                time: Nanos::from_millis(clock),
                name: kernel.to_string(),
            });
            t.push(TraceEvent::Counters(CounterSnapshot {
                time: Nanos::from_millis(clock),
                instructions: rng.uniform_range(1_000_000, 50_000_000),
                llc_misses: rng.uniform_range(10_000, 500_000),
            }));
        }
        clock += 1.0;
        t.push(TraceEvent::PhaseEnd {
            time: Nanos::from_millis(clock),
            name: "iteration".to_string(),
        });
        let _ = iter_start;
    }
    t
}

struct Throughputs {
    events: usize,
    binary_bytes: usize,
    binary_write_eps: f64,
    binary_read_eps: f64,
    fold_eps: f64,
    analyze_eps: f64,
    handoff: Handoff,
}

/// Stages 1 and 2 over every application, both ways.
struct Handoff {
    samples: usize,
    materialized_ns_per_sample: f64,
    streamed_ns_per_sample: f64,
    /// Median over the pairs of materialised / streamed time.
    speedup: f64,
}

/// What stages 1 and 2 produce for one application.
type Stage2Output = (TraceSummary, ObjectReport, u64);

fn handoff(iterations: Option<u32>, pairs: usize) -> Handoff {
    let apps = hmsim_apps::all_apps();
    let mut pipeline = FrameworkPipeline::new(ByteSize::from_mib(128), SelectionStrategy::Density);
    pipeline.iterations_override = iterations;
    let materialized = || -> Vec<Stage2Output> {
        apps.iter()
            .map(|spec| {
                let mut cfg = RunConfig::flat(pipeline.mcdram_budget);
                cfg.seed = pipeline.seed;
                cfg.iterations_override = pipeline.iterations_override;
                let cfg = cfg.with_profiling(pipeline.profiler.clone());
                let mut run = AppRun::new(spec, cfg)
                    .execute(PlacementApproach::DdrOnly.router().unwrap())
                    .unwrap();
                let trace = run.trace.take().expect("profiled run keeps its trace");
                let mut summary = TraceSummaryBuilder::default();
                for e in trace.events() {
                    summary.event(e);
                }
                let summary = summary.finish();
                let report = analyze_trace(&trace);
                (summary, report, run.monitoring_overhead.to_bits())
            })
            .collect()
    };
    let streamed = || -> Vec<Stage2Output> {
        apps.iter()
            .map(|spec| {
                let p = pipeline.profile(spec).unwrap();
                (
                    p.trace_summary,
                    p.object_report,
                    p.profiling_overhead.to_bits(),
                )
            })
            .collect()
    };
    let expected = materialized();
    assert_eq!(streamed(), expected, "streamed hand-off diverged");
    let samples: usize = expected.iter().map(|(s, ..)| s.samples).sum();
    let paired = median_of_pairs(pairs, materialized, streamed);
    let per_sample = |s: f64| s * 1e9 / samples as f64;
    Handoff {
        samples,
        materialized_ns_per_sample: per_sample(paired.first_s),
        streamed_ns_per_sample: per_sample(paired.second_s),
        speedup: paired.ratio,
    }
}

fn write_baseline(t: &Throughputs) {
    let json = format!(
        "{{\n  \"bench\": \"trace_io\",\n  \"threads\": 1,\n  \"events\": {},\n  \"binary_bytes\": {},\n  \"binary\": {{\n    \"serialize_events_per_sec\": {:.0},\n    \"parse_events_per_sec\": {:.0}\n  }},\n  \"folding\": {{\n    \"events_per_sec\": {:.0},\n    \"single_pass\": true\n  }},\n  \"analysis\": {{\n    \"events_per_sec\": {:.0}\n  }},\n  \"handoff\": {{\n    \"samples\": {},\n    \"materialized_ns_per_sample\": {:.1},\n    \"streamed_ns_per_sample\": {:.1},\n    \"speedup\": {:.3}\n  }}\n}}\n",
        t.events,
        t.binary_bytes,
        t.binary_write_eps,
        t.binary_read_eps,
        t.fold_eps,
        t.analyze_eps,
        t.handoff.samples,
        t.handoff.materialized_ns_per_sample,
        t.handoff.streamed_ns_per_sample,
        t.handoff.speedup,
    );
    write_artifact("BENCH_trace.json", &json);
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let events_target = if test_mode { 5_000 } else { 400_000 };
    let reps = if test_mode { 1 } else { 5 };
    let trace = synthetic_trace(events_target);
    let n = trace.len();

    // Equivalence gates: the binary format reproduces the trace exactly, and
    // the fold is one visit per event, before any number is reported.
    let binary = write_binary(&trace);
    {
        let from_binary = read_binary(&binary).expect("binary reads");
        assert_eq!(from_binary.events(), trace.events(), "binary diverged");
        assert_eq!(from_binary.metadata, trace.metadata);
        let mut fold = FoldAccumulator::new("iteration", 64);
        for e in trace.events() {
            fold.push(e);
        }
        assert_eq!(fold.events_visited(), n as u64, "fold is not single-pass");
        assert!(fold.finish().instances > 0);
        let report = analyze_trace(&trace);
        assert!(!report.objects.is_empty());
        let app = &trace.metadata.application;
        assert_eq!(
            analyze_stream(app, trace.events()),
            report,
            "streamed analysis diverged"
        );
        let mut from_reader = ObjectStatsBuilder::new(app.clone());
        for e in TraceReader::new(binary.as_slice()).unwrap() {
            from_reader.event(&e.unwrap());
        }
        assert_eq!(
            from_reader.finish(),
            report,
            "analysis of the binary trace diverged"
        );
    }

    let binary_write = best_of(reps, || write_binary(&trace));
    let binary_read = best_of(reps, || {
        let mut count = 0usize;
        for e in TraceReader::new(binary.as_slice()).unwrap() {
            std::hint::black_box(e.unwrap());
            count += 1;
        }
        count
    });
    let fold_time = best_of(reps, || FoldedTimeline::fold(&trace, "iteration", 64));
    let analyze_time = best_of(reps, || {
        analyze_stream(trace.metadata.application.as_str(), trace.events())
    });

    let handoff = if test_mode {
        handoff(Some(2), 1)
    } else {
        handoff(None, 15)
    };

    let results = Throughputs {
        events: n,
        binary_bytes: binary.len(),
        binary_write_eps: n as f64 / binary_write,
        binary_read_eps: n as f64 / binary_read,
        fold_eps: n as f64 / fold_time,
        analyze_eps: n as f64 / analyze_time,
        handoff,
    };
    println!(
        "trace_io: {} events | binary {:.1} MiB | write {:.2} Mev/s, parse {:.2} Mev/s | \
         fold {:.2} Mev/s | analyze {:.2} Mev/s | hand-off {:.0} ns/sample materialised, \
         {:.0} streamed",
        n,
        results.binary_bytes as f64 / (1 << 20) as f64,
        results.binary_write_eps / 1e6,
        results.binary_read_eps / 1e6,
        results.fold_eps / 1e6,
        results.analyze_eps / 1e6,
        results.handoff.materialized_ns_per_sample,
        results.handoff.streamed_ns_per_sample,
    );
    if !test_mode {
        write_baseline(&results);
    }
}
