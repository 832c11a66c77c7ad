//! DetRng-driven round-trip fuzzing of the binary trace format.
//!
//! Random traces — including hostile names full of separators, escape
//! characters and control characters — must survive binary→read
//! identically, event for event and metadata field for metadata field.

use hmsim_callstack::SiteKey;
use hmsim_common::{Address, ByteSize, DetRng, Nanos, ObjectId};
use hmsim_trace::{
    binary, AllocationRecord, CounterSnapshot, EventSink, ObjectClass, SampleRecord, TraceEvent,
    TraceFile, TraceMetadata, TraceReader,
};

/// Fragments chosen to break naive escaping: field separators, the escape
/// character, partial escape sequences, header syntax, whitespace and
/// line-break controls, unicode.
const HOSTILE_FRAGMENTS: &[&str] = &[
    ":", "%", "%3A", "%0", " ", "\t", "\n", "\r", "\r\n", "=", "#", "app=x", "::", "100%", "é✓",
    "名前", "A:1:2",
];

fn random_name(rng: &mut DetRng) -> String {
    let mut name = String::new();
    let pieces = rng.uniform_range(0, 6);
    for _ in 0..pieces {
        if rng.chance(0.5) {
            name.push_str(
                HOSTILE_FRAGMENTS[rng.uniform_range(0, HOSTILE_FRAGMENTS.len() as u64) as usize],
            );
        } else {
            for _ in 0..rng.uniform_range(1, 8) {
                name.push((b'a' + rng.uniform_range(0, 26) as u8) as char);
            }
        }
    }
    name
}

fn random_site(rng: &mut DetRng) -> Option<SiteKey> {
    if rng.chance(0.4) {
        return None;
    }
    let depth = rng.uniform_range(1, 4);
    let frames: Vec<String> = (0..depth)
        .map(|i| {
            format!(
                "mod{}!{}+0x{:x}",
                i,
                random_name(rng),
                rng.uniform_range(0, 1 << 16)
            )
        })
        .collect();
    Some(SiteKey::from_text(frames.join("|")))
}

fn random_event(rng: &mut DetRng, time: Nanos) -> TraceEvent {
    match rng.uniform_range(0, 6) {
        0 => TraceEvent::Alloc(AllocationRecord {
            time,
            object: ObjectId(rng.uniform_range(0, 100) as u32),
            class: match rng.uniform_range(0, 3) {
                0 => ObjectClass::Static,
                1 => ObjectClass::Dynamic,
                _ => ObjectClass::Stack,
            },
            name: random_name(rng),
            site: random_site(rng),
            address: Address(rng.uniform_range(0, u64::MAX / 2)),
            size: ByteSize::from_bytes(rng.uniform_range(0, 1 << 40)),
        }),
        1 => TraceEvent::Free {
            time,
            object: ObjectId(rng.uniform_range(0, 100) as u32),
            address: Address(rng.uniform_range(0, u64::MAX / 2)),
        },
        2 => TraceEvent::Sample(SampleRecord {
            time,
            address: Address(rng.uniform_range(0, u64::MAX / 2)),
            object: rng
                .chance(0.5)
                .then(|| ObjectId(rng.uniform_range(0, 100) as u32)),
            weight: rng.uniform_range(1, 100_000),
            latency_cycles: rng.chance(0.5).then(|| rng.uniform_range(0, 5_000) as u32),
        }),
        3 => TraceEvent::PhaseBegin {
            time,
            name: random_name(rng),
        },
        4 => TraceEvent::PhaseEnd {
            time,
            name: random_name(rng),
        },
        _ => TraceEvent::Counters(CounterSnapshot {
            time,
            instructions: rng.uniform_range(0, u64::MAX / 2),
            llc_misses: rng.uniform_range(0, 1 << 40),
        }),
    }
}

fn random_trace(rng: &mut DetRng) -> TraceFile {
    let mut t = TraceFile::new(TraceMetadata {
        application: random_name(rng),
        ranks: rng.uniform_range(1, 128) as u32,
        threads_per_rank: rng.uniform_range(1, 16) as u32,
        sampling_period: rng.uniform_range(1, 100_000),
        min_alloc_size: rng.uniform_range(0, 1 << 20),
        rank: rng.uniform_range(0, 128) as u32,
    });
    let events = rng.uniform_range(0, 200);
    let mut clock = 0.0f64;
    for _ in 0..events {
        clock += rng.uniform() * 1e6;
        t.push(random_event(rng, Nanos(clock)));
    }
    t
}

#[test]
fn random_traces_survive_binary_round_trip() {
    let mut rng = DetRng::new(0xF0221).derive("binary-roundtrip");
    for case in 0..50 {
        let original = random_trace(&mut rng);
        let bytes = binary::write_binary(&original);
        let back = binary::read_binary(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: binary read failed: {e}"));
        assert_eq!(back.metadata, original.metadata, "case {case} metadata");
        assert_eq!(back.events(), original.events(), "case {case} events");
    }
}

#[test]
fn streaming_reader_with_tiny_chunks_matches_materialised_read() {
    let mut rng = DetRng::new(0xF0221).derive("tiny-chunks");
    for _ in 0..10 {
        let original = random_trace(&mut rng);
        let mut w = hmsim_trace::BinaryWriter::with_chunk_capacity(
            Vec::new(),
            &original.metadata,
            rng.uniform_range(1, 256) as usize,
        )
        .unwrap();
        for e in original.events() {
            w.event(e);
        }
        let bytes = w.finish().unwrap();
        let streamed: Vec<TraceEvent> = TraceReader::new(bytes.as_slice())
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(streamed.as_slice(), original.events());
    }
}
