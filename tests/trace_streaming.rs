//! End-to-end equivalence of the out-of-core trace path: a rank's trace
//! produced by the profiler, written to the chunked binary format, read back
//! through the streaming reader and consumed by the streaming folding /
//! object-stats passes — all of which must match the in-memory path bitwise.

use hmsim_analysis::{
    analyze_stream, analyze_trace, FoldAccumulator, FoldedTimeline, ObjectStatsBuilder,
};
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, Nanos, ObjectId, TierId};
use hmsim_heap::{DataObject, ObjectKind};
use hmsim_profiler::{Profiler, ProfilerConfig};
use hmsim_trace::{BinaryWriter, EventSink, TraceEvent, TraceFile, TraceMetadata, TraceReader};

const ITERATIONS: usize = 6;
/// An iteration length whose multiples are not exact in binary, so the
/// fixture has to derive shared boundaries from one expression.
const ITER_MS: f64 = 10.7;

fn object(id: u32, mib: u64) -> DataObject {
    DataObject {
        id: ObjectId(id),
        name: format!("grid_{id}"),
        kind: ObjectKind::Dynamic,
        site: Some(SiteKey::from_text(format!("app!alloc_grid{id}+0x10"))),
        range: AddressRange::new(
            Address(0x10_0000_0000 | (u64::from(id) << 28)),
            ByteSize::from_mib(mib),
        ),
        tier: TierId::DDR,
        allocated_at: Nanos::ZERO,
    }
}

fn boundary(i: usize) -> Nanos {
    Nanos::from_millis(i as f64 * ITER_MS)
}

/// A profiled pseudo-run: repeated iterations over two objects of different
/// heat.
fn trace() -> TraceFile {
    let metadata = TraceMetadata {
        application: "streamed-app".to_string(),
        sampling_period: 997,
        ..Default::default()
    };
    let mut p = Profiler::with_sink(
        &metadata,
        ProfilerConfig::dense(997),
        TraceFile::new(metadata.clone()),
    );
    let hot = object(0, 64);
    let cold = object(1, 16);
    p.record_alloc(&hot, Nanos::ZERO);
    p.record_alloc(&cold, Nanos::ZERO);
    for i in 0..ITERATIONS {
        // Both ends come from `boundary`, so consecutive iterations share
        // bit-identical timestamps (`i*ITER_MS + ITER_MS` and
        // `(i+1)*ITER_MS` can differ by an ULP, which would open a gap
        // between one iteration's end and the next one's begin).
        let start = boundary(i);
        let end = boundary(i + 1);
        let kernel_at = start + Nanos::from_millis(ITER_MS * 0.6);
        p.phase_begin("iteration", start);
        p.record_interval(
            start,
            Nanos::from_millis(ITER_MS * 0.6),
            4_000_000,
            &[(&hot, 30_000), (&cold, 3_000)],
        );
        p.phase_begin("kernel", kernel_at);
        p.record_interval(kernel_at, end - kernel_at, 500_000, &[(&hot, 20_000)]);
        p.phase_end("kernel", end);
        p.phase_end("iteration", end);
    }
    p.finish()
}

fn binary_file(trace: &TraceFile) -> Vec<u8> {
    let mut w = BinaryWriter::new(Vec::new(), &trace.metadata).unwrap();
    for e in trace.events() {
        w.event(e);
    }
    w.finish().unwrap()
}

fn streamed(bytes: &[u8]) -> impl Iterator<Item = TraceEvent> + '_ {
    TraceReader::new(bytes).unwrap().map(|e| e.unwrap())
}

/// The fixture exercises the fold's boundary handling: every iteration ends
/// at exactly the timestamp where the next one begins.
#[test]
fn fixture_iterations_share_boundary_timestamps() {
    let trace = trace();
    let marks = |begin: bool| -> Vec<u64> {
        trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseBegin { time, name } if begin && name == "iteration" => {
                    Some(time.nanos().to_bits())
                }
                TraceEvent::PhaseEnd { time, name } if !begin && name == "iteration" => {
                    Some(time.nanos().to_bits())
                }
                _ => None,
            })
            .collect()
    };
    let (begins, ends) = (marks(true), marks(false));
    assert_eq!(begins.len(), ITERATIONS);
    assert_eq!(
        ends[..ITERATIONS - 1],
        begins[1..],
        "boundaries must be shared"
    );
}

#[test]
fn streamed_folding_matches_in_memory_folding() {
    let trace = trace();
    let bytes = binary_file(&trace);
    let streamed_fold = FoldedTimeline::fold_try_stream(
        TraceReader::new(bytes.as_slice()).unwrap(),
        "iteration",
        16,
    )
    .unwrap();
    let in_memory_fold = FoldedTimeline::fold(&trace, "iteration", 16);
    assert_eq!(streamed_fold, in_memory_fold, "folding paths diverged");
    assert_eq!(streamed_fold.instances, ITERATIONS);
    assert!(streamed_fold.bins.iter().any(|b| b.mips > 0.0));
}

#[test]
fn streamed_object_stats_match_in_memory() {
    let trace = trace();
    let bytes = binary_file(&trace);
    let streamed = analyze_stream("streamed-app", streamed(&bytes));
    assert_eq!(
        streamed,
        analyze_trace(&trace),
        "object-stats paths diverged"
    );

    // Both sites are reported and the hot one out-misses the cold one.
    assert_eq!(streamed.objects.len(), 2);
    let hot = streamed.by_name("grid_0").expect("hot object reported");
    let cold = streamed.by_name("grid_1").expect("cold object reported");
    assert!(hot.llc_misses > cold.llc_misses);
    assert!(streamed.total_misses > 0);
}

/// The folding pass visits each event exactly once — O(events), not
/// O(instances x events) as before the streaming rewrite.
#[test]
fn fold_is_a_single_pass_over_events() {
    let trace = trace();
    let bytes = binary_file(&trace);
    let mut fold = FoldAccumulator::new("iteration", 16);
    let mut stats = ObjectStatsBuilder::new("streamed-app");
    let mut total = 0u64;
    for event in streamed(&bytes) {
        fold.push(&event);
        stats.event(&event);
        total += 1;
    }
    assert_eq!(fold.events_visited(), total);
    assert_eq!(stats.events_seen(), total);
    assert_eq!(fold.finish().instances, ITERATIONS);
    // One visit per event despite the trace holding several instances of
    // the folded region.
    assert_eq!(total, trace.len() as u64);
}
