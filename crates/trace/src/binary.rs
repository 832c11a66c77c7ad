//! Compact chunked binary serialisation of traces.
//!
//! Real Extrae emits binary intermediate traces because capture must keep up
//! with the application. This module provides the analogue:
//!
//! ```text
//! [magic "HMTB"][version u16]
//! [metadata: app len+bytes, ranks u32, threads u32, period u64,
//!            minalloc u64, rank u32]
//! chunk*  where chunk = [payload_len u32][event_count u32][payload]
//! [terminator: payload_len = 0, event_count = 0]
//! ```
//!
//! All integers are little-endian; timestamps are the raw `f64` nanosecond
//! bits, so round-trips are bit-exact. Events are grouped into chunks of
//! roughly [`DEFAULT_CHUNK_BYTES`] so the writer performs one `write` per
//! chunk (not per event) and the reader holds one chunk in memory at a time —
//! [`TraceReader`] streams events without ever materialising the file.
//!
//! Per-event payload, led by a tag byte:
//!
//! | tag | record | fields |
//! |---|---|---|
//! | `1` | Alloc | time f64, object u32, class u8, address u64, size u64, name str, site opt-str |
//! | `2` | Free | time f64, object u32, address u64 |
//! | `3` | Sample | time f64, address u64, object opt-u32, weight u64, latency opt-u32 |
//! | `4` | PhaseBegin | time f64, name str |
//! | `5` | PhaseEnd | time f64, name str |
//! | `6` | Counters | time f64, instructions u64, llc_misses u64 |
//!
//! where `str` is `[len u32][utf8 bytes]` and `opt-*` is a presence byte
//! followed by the value when present.

use crate::event::{AllocationRecord, CounterSnapshot, ObjectClass, SampleRecord, TraceEvent};
use crate::sink::EventSink;
use crate::trace_file::{sort_by_time, TraceFile, TraceMetadata};
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, ByteSize, HmError, HmResult, Nanos, ObjectId};
use std::io::{Read, Write};

/// File magic leading every binary trace.
pub const MAGIC: [u8; 4] = *b"HMTB";
/// Current format version.
pub const VERSION: u16 = 1;
/// Default chunk payload size the writer aims for (it flushes the current
/// chunk once the buffered payload crosses this threshold).
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

const TAG_ALLOC: u8 = 1;
const TAG_FREE: u8 = 2;
const TAG_SAMPLE: u8 = 3;
const TAG_PHASE_BEGIN: u8 = 4;
const TAG_PHASE_END: u8 = 5;
const TAG_COUNTERS: u8 = 6;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn encode_event(buf: &mut Vec<u8>, e: &TraceEvent) {
    match e {
        TraceEvent::Alloc(a) => {
            buf.push(TAG_ALLOC);
            put_f64(buf, a.time.nanos());
            put_u32(buf, a.object.0);
            buf.push(match a.class {
                ObjectClass::Static => 0,
                ObjectClass::Dynamic => 1,
                ObjectClass::Stack => 2,
            });
            put_u64(buf, a.address.value());
            put_u64(buf, a.size.bytes());
            put_str(buf, &a.name);
            match &a.site {
                Some(site) => {
                    buf.push(1);
                    put_str(buf, site.as_str());
                }
                None => buf.push(0),
            }
        }
        TraceEvent::Free {
            time,
            object,
            address,
        } => {
            buf.push(TAG_FREE);
            put_f64(buf, time.nanos());
            put_u32(buf, object.0);
            put_u64(buf, address.value());
        }
        TraceEvent::Sample(s) => {
            buf.push(TAG_SAMPLE);
            put_f64(buf, s.time.nanos());
            put_u64(buf, s.address.value());
            match s.object {
                Some(o) => {
                    buf.push(1);
                    put_u32(buf, o.0);
                }
                None => buf.push(0),
            }
            put_u64(buf, s.weight);
            match s.latency_cycles {
                Some(l) => {
                    buf.push(1);
                    put_u32(buf, l);
                }
                None => buf.push(0),
            }
        }
        TraceEvent::PhaseBegin { time, name } => {
            buf.push(TAG_PHASE_BEGIN);
            put_f64(buf, time.nanos());
            put_str(buf, name);
        }
        TraceEvent::PhaseEnd { time, name } => {
            buf.push(TAG_PHASE_END);
            put_f64(buf, time.nanos());
            put_str(buf, name);
        }
        TraceEvent::Counters(c) => {
            buf.push(TAG_COUNTERS);
            put_f64(buf, c.time.nanos());
            put_u64(buf, c.instructions);
            put_u64(buf, c.llc_misses);
        }
    }
}

/// Chunked, buffered writer of the binary trace format, and an
/// [`EventSink`]: it stores each interval's samples in time order, as a
/// [`TraceFile`] does, and emits one I/O write per chunk. The first I/O
/// error stops all writes and is returned by [`finish`](Self::finish), which
/// flushes the tail chunk and the terminator — dropping the writer without
/// calling it produces a truncated (unreadable) trace.
pub struct BinaryWriter<W: Write> {
    sink: W,
    chunk: Vec<u8>,
    chunk_events: u32,
    chunk_capacity: usize,
    /// One interval's samples in time order, reused across intervals.
    sorted: Vec<TraceEvent>,
    error: Option<HmError>,
}

impl<W: Write> BinaryWriter<W> {
    /// Start a binary trace on `sink`, writing the header immediately.
    pub fn new(sink: W, metadata: &TraceMetadata) -> HmResult<Self> {
        Self::with_chunk_capacity(sink, metadata, DEFAULT_CHUNK_BYTES)
    }

    /// Like [`new`](Self::new) with an explicit chunk-payload threshold
    /// (tests, tuning).
    pub fn with_chunk_capacity(
        mut sink: W,
        metadata: &TraceMetadata,
        chunk_capacity: usize,
    ) -> HmResult<Self> {
        let mut header = Vec::with_capacity(64 + metadata.application.len());
        header.extend_from_slice(&MAGIC);
        put_u16(&mut header, VERSION);
        put_str(&mut header, &metadata.application);
        put_u32(&mut header, metadata.ranks);
        put_u32(&mut header, metadata.threads_per_rank);
        put_u64(&mut header, metadata.sampling_period);
        put_u64(&mut header, metadata.min_alloc_size);
        put_u32(&mut header, metadata.rank);
        sink.write_all(&header)?;
        Ok(BinaryWriter {
            sink,
            chunk: Vec::with_capacity(chunk_capacity + 256),
            chunk_events: 0,
            chunk_capacity: chunk_capacity.max(1),
            sorted: Vec::new(),
            error: None,
        })
    }

    fn flush_chunk(&mut self) {
        if self.chunk_events > 0 && self.error.is_none() {
            let mut frame = [0u8; 8];
            frame[..4].copy_from_slice(&(self.chunk.len() as u32).to_le_bytes());
            frame[4..].copy_from_slice(&self.chunk_events.to_le_bytes());
            let written = self
                .sink
                .write_all(&frame)
                .and_then(|()| self.sink.write_all(&self.chunk));
            self.error = written.err().map(HmError::from);
        }
        self.chunk.clear();
        self.chunk_events = 0;
    }

    /// Flush the tail chunk, write the terminator and return the sink, or
    /// the first I/O error the writer met.
    pub fn finish(mut self) -> HmResult<W> {
        self.flush_chunk();
        if let Some(e) = self.error {
            return Err(e);
        }
        self.sink.write_all(&[0u8; 8])?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write> EventSink for BinaryWriter<W> {
    fn event(&mut self, event: &TraceEvent) {
        encode_event(&mut self.chunk, event);
        self.chunk_events += 1;
        if self.chunk.len() >= self.chunk_capacity {
            self.flush_chunk();
        }
    }

    fn samples(&mut self, samples: &[SampleRecord]) {
        let mut sorted = std::mem::take(&mut self.sorted);
        sorted.extend(samples.iter().cloned().map(TraceEvent::Sample));
        sort_by_time(&mut sorted);
        for event in sorted.drain(..) {
            self.event(&event);
        }
        self.sorted = sorted;
    }
}

/// Write a whole in-memory trace through the chunked writer into `sink`,
/// returning the sink.
pub fn write_binary_to<W: Write>(sink: W, trace: &TraceFile) -> HmResult<W> {
    let mut w = BinaryWriter::new(sink, &trace.metadata)?;
    for e in trace.events() {
        w.event(e);
    }
    w.finish()
}

/// Serialise a whole in-memory trace to binary bytes (convenience wrapper
/// over [`write_binary_to`]).
pub fn write_binary(trace: &TraceFile) -> Vec<u8> {
    write_binary_to(Vec::new(), trace).expect("Vec<u8> sink cannot fail")
}

/// Materialise a binary trace into a [`TraceFile`] (convenience wrapper over
/// [`TraceReader`]; prefer streaming for large traces).
pub fn read_binary(bytes: &[u8]) -> HmResult<TraceFile> {
    let reader = TraceReader::new(bytes)?;
    let mut t = TraceFile::new(reader.metadata().clone());
    for e in reader {
        t.push(e?);
    }
    Ok(t)
}

/// Streaming reader of the binary format: an `Iterator` over
/// `HmResult<TraceEvent>` holding at most one chunk in memory.
pub struct TraceReader<R: Read> {
    source: R,
    metadata: TraceMetadata,
    chunk: Vec<u8>,
    cursor: usize,
    chunk_events_left: u32,
    done: bool,
}

impl TraceReader<std::io::BufReader<std::fs::File>> {
    /// Open a binary trace file for streaming.
    pub fn open(path: impl AsRef<std::path::Path>) -> HmResult<Self> {
        let file = std::fs::File::open(path)?;
        TraceReader::new(std::io::BufReader::new(file))
    }
}

impl<R: Read> TraceReader<R> {
    /// Read the header from `source` and prepare to stream events.
    pub fn new(mut source: R) -> HmResult<Self> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(HmError::parse(format!(
                "not a binary hmsim trace (magic {magic:02x?})"
            )));
        }
        let mut v = [0u8; 2];
        source.read_exact(&mut v)?;
        let version = u16::from_le_bytes(v);
        if version != VERSION {
            return Err(HmError::parse(format!(
                "unsupported binary trace version {version} (expected {VERSION})"
            )));
        }
        let application = read_str(&mut source)?;
        let mut fixed = [0u8; 28];
        source.read_exact(&mut fixed)?;
        let metadata = TraceMetadata {
            application,
            ranks: u32::from_le_bytes(fixed[0..4].try_into().unwrap()),
            threads_per_rank: u32::from_le_bytes(fixed[4..8].try_into().unwrap()),
            sampling_period: u64::from_le_bytes(fixed[8..16].try_into().unwrap()),
            min_alloc_size: u64::from_le_bytes(fixed[16..24].try_into().unwrap()),
            rank: u32::from_le_bytes(fixed[24..28].try_into().unwrap()),
        };
        Ok(TraceReader {
            source,
            metadata,
            chunk: Vec::new(),
            cursor: 0,
            chunk_events_left: 0,
            done: false,
        })
    }

    /// The trace metadata from the header.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    fn load_next_chunk(&mut self) -> HmResult<bool> {
        let mut frame = [0u8; 8];
        self.source.read_exact(&mut frame)?;
        let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        let event_count = u32::from_le_bytes(frame[4..].try_into().unwrap());
        if payload_len == 0 && event_count == 0 {
            return Ok(false);
        }
        if payload_len == 0 || event_count == 0 {
            return Err(HmError::parse(format!(
                "corrupt chunk frame: {payload_len} bytes / {event_count} events"
            )));
        }
        read_len(&mut self.source, payload_len, &mut self.chunk)?;
        self.cursor = 0;
        self.chunk_events_left = event_count;
        Ok(true)
    }

    fn decode_event(&mut self) -> HmResult<TraceEvent> {
        let tag = self.take_u8()?;
        let time = Nanos(f64::from_le_bytes(self.take::<8>()?));
        let event = match tag {
            TAG_ALLOC => {
                let object = ObjectId(u32::from_le_bytes(self.take::<4>()?));
                let class = match self.take_u8()? {
                    0 => ObjectClass::Static,
                    1 => ObjectClass::Dynamic,
                    2 => ObjectClass::Stack,
                    other => {
                        return Err(HmError::parse(format!("unknown object class tag {other}")))
                    }
                };
                let address = Address(u64::from_le_bytes(self.take::<8>()?));
                let size = ByteSize::from_bytes(u64::from_le_bytes(self.take::<8>()?));
                let name = self.take_str()?;
                let site = if self.take_u8()? != 0 {
                    Some(SiteKey::from_text(self.take_str()?))
                } else {
                    None
                };
                TraceEvent::Alloc(AllocationRecord {
                    time,
                    object,
                    class,
                    name,
                    site,
                    address,
                    size,
                })
            }
            TAG_FREE => TraceEvent::Free {
                time,
                object: ObjectId(u32::from_le_bytes(self.take::<4>()?)),
                address: Address(u64::from_le_bytes(self.take::<8>()?)),
            },
            TAG_SAMPLE => {
                let address = Address(u64::from_le_bytes(self.take::<8>()?));
                let object = if self.take_u8()? != 0 {
                    Some(ObjectId(u32::from_le_bytes(self.take::<4>()?)))
                } else {
                    None
                };
                let weight = u64::from_le_bytes(self.take::<8>()?);
                let latency_cycles = if self.take_u8()? != 0 {
                    Some(u32::from_le_bytes(self.take::<4>()?))
                } else {
                    None
                };
                TraceEvent::Sample(SampleRecord {
                    time,
                    address,
                    object,
                    weight,
                    latency_cycles,
                })
            }
            TAG_PHASE_BEGIN => TraceEvent::PhaseBegin {
                time,
                name: self.take_str()?,
            },
            TAG_PHASE_END => TraceEvent::PhaseEnd {
                time,
                name: self.take_str()?,
            },
            TAG_COUNTERS => TraceEvent::Counters(CounterSnapshot {
                time,
                instructions: u64::from_le_bytes(self.take::<8>()?),
                llc_misses: u64::from_le_bytes(self.take::<8>()?),
            }),
            other => return Err(HmError::parse(format!("unknown event tag {other}"))),
        };
        Ok(event)
    }

    fn take<const N: usize>(&mut self) -> HmResult<[u8; N]> {
        let end = self.cursor + N;
        let slice = self
            .chunk
            .get(self.cursor..end)
            .ok_or_else(|| HmError::parse("truncated event inside chunk"))?;
        self.cursor = end;
        Ok(slice.try_into().unwrap())
    }

    fn take_u8(&mut self) -> HmResult<u8> {
        Ok(self.take::<1>()?[0])
    }

    fn take_str(&mut self) -> HmResult<String> {
        let len = u32::from_le_bytes(self.take::<4>()?) as usize;
        let end = self.cursor + len;
        let bytes = self
            .chunk
            .get(self.cursor..end)
            .ok_or_else(|| HmError::parse("truncated string inside chunk"))?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| HmError::parse("invalid UTF-8 in trace string"))?
            .to_string();
        self.cursor = end;
        Ok(s)
    }
}

fn read_str<R: Read>(source: &mut R) -> HmResult<String> {
    let mut len = [0u8; 4];
    source.read_exact(&mut len)?;
    let mut bytes = Vec::new();
    read_len(source, u32::from_le_bytes(len) as usize, &mut bytes)?;
    String::from_utf8(bytes).map_err(|_| HmError::parse("invalid UTF-8 in trace header"))
}

/// Replace `buf`'s contents with the next `len` bytes of `source`. The
/// buffer grows only as bytes arrive, so a corrupt length that claims more
/// than the stream holds fails without allocating for the claim.
fn read_len<R: Read>(source: &mut R, len: usize, buf: &mut Vec<u8>) -> HmResult<()> {
    buf.clear();
    source.take(len as u64).read_to_end(buf)?;
    if buf.len() < len {
        let got = buf.len();
        return Err(HmError::parse(format!(
            "truncated trace: {got} of {len} bytes"
        )));
    }
    Ok(())
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = HmResult<TraceEvent>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.chunk_events_left == 0 {
            match self.load_next_chunk() {
                Ok(true) => {}
                Ok(false) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
        self.chunk_events_left -= 1;
        let event = self.decode_event();
        self.done = event.is_err();
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceFile {
        let mut t = TraceFile::new(TraceMetadata {
            application: "SNAP: hostile % name".to_string(),
            ranks: 8,
            threads_per_rank: 2,
            sampling_period: 37_589,
            min_alloc_size: 4096,
            rank: 5,
        });
        t.push(TraceEvent::PhaseBegin {
            time: Nanos(10.0),
            name: "iter:0\nweird".to_string(),
        });
        t.push(TraceEvent::Alloc(AllocationRecord {
            time: Nanos(20.5),
            object: ObjectId(3),
            class: ObjectClass::Dynamic,
            name: "flux buffer".to_string(),
            site: Some(SiteKey::from_text("snap!alloc+0x40|libc!malloc+0x1d")),
            address: Address(0x7f00_0000_0000),
            size: ByteSize::from_mib(64),
        }));
        t.push(TraceEvent::Sample(SampleRecord {
            time: Nanos(30.0),
            address: Address(0x7f00_0000_1000),
            object: Some(ObjectId(3)),
            weight: 37_589,
            latency_cycles: None,
        }));
        t.push(TraceEvent::Counters(CounterSnapshot {
            time: Nanos(40.0),
            instructions: 123_456_789,
            llc_misses: 98_765,
        }));
        t.push(TraceEvent::Free {
            time: Nanos(50.0),
            object: ObjectId(3),
            address: Address(0x7f00_0000_0000),
        });
        t.push(TraceEvent::PhaseEnd {
            time: Nanos(60.0),
            name: "iter:0\nweird".to_string(),
        });
        t
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let original = sample_trace();
        let bytes = write_binary(&original);
        let back = read_binary(&bytes).unwrap();
        assert_eq!(back.metadata, original.metadata);
        assert_eq!(back.events(), original.events());
    }

    #[test]
    fn streaming_reader_never_needs_the_whole_file() {
        let original = sample_trace();
        // Tiny chunks force many chunk boundaries.
        let mut w = BinaryWriter::with_chunk_capacity(Vec::new(), &original.metadata, 16).unwrap();
        for e in original.events() {
            w.event(e);
        }
        let bytes = w.finish().unwrap();
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.metadata().rank, 5);
        let events: Vec<TraceEvent> = reader.by_ref().map(|e| e.unwrap()).collect();
        assert_eq!(events.as_slice(), original.events());
        // At any point the reader held at most one (tiny) chunk.
        assert!(reader.chunk.capacity() < 1024);
    }

    #[test]
    fn bad_magic_and_truncation_are_errors() {
        assert!(TraceReader::new(&b"NOPE"[..]).is_err());
        let bytes = write_binary(&sample_trace());
        // Chop the terminator and part of the last chunk.
        let truncated = &bytes[..bytes.len() - 12];
        let reader = TraceReader::new(truncated).unwrap();
        let result: HmResult<Vec<TraceEvent>> = reader.collect();
        assert!(result.is_err(), "truncated stream must surface an error");
    }

    /// A frame header followed by 16 payload bytes, claiming `claimed`.
    fn lying_frame(claimed: u32) -> Vec<u8> {
        let mut bytes = write_binary(&TraceFile::new(TraceMetadata::default()));
        bytes.truncate(bytes.len() - 8);
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        bytes
    }

    #[test]
    fn a_frame_claiming_more_than_the_stream_holds_allocates_only_what_arrives() {
        let bytes = lying_frame(64 << 20);
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        let err = reader.next().expect("an item").unwrap_err();
        assert!(
            matches!(&err, HmError::Parse { message, .. } if message.contains("16 of 67108864")),
            "{err:?}"
        );
        assert!(reader.next().is_none(), "the reader stops after the error");
        assert!(
            reader.chunk.capacity() < 1 << 20,
            "{}",
            reader.chunk.capacity()
        );
    }

    #[test]
    fn a_header_name_claiming_more_than_the_stream_holds_is_an_error() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(b"short name");
        let err = TraceReader::new(bytes.as_slice()).err().expect("refused");
        assert!(
            matches!(&err, HmError::Parse { message, .. } if message.contains("10 of 4294967295")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceFile::new(TraceMetadata::default());
        let back = read_binary(&write_binary(&t)).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.metadata, t.metadata);
    }

    #[test]
    fn emitted_samples_are_written_in_the_recorded_trace_order() {
        let metadata = sample_trace().metadata;
        let sample = |ns: f64, object: u32| SampleRecord {
            time: Nanos(ns),
            address: Address(0x1000),
            object: Some(ObjectId(object)),
            weight: 997,
            latency_cycles: None,
        };
        let batches = [
            vec![
                sample(5.0, 0),
                sample(9.0, 0),
                sample(2.0, 1),
                sample(5.0, 1),
            ],
            vec![sample(12.0, 1), sample(11.0, 0)],
        ];
        let writer = |capacity| BinaryWriter::with_chunk_capacity(Vec::new(), &metadata, capacity);
        let mut emitted = (TraceFile::new(metadata.clone()), writer(16).unwrap());
        for (batch, end) in batches.iter().zip([10.0, 13.0]) {
            emitted.samples(batch);
            emitted.event(&TraceEvent::PhaseEnd {
                time: Nanos(end),
                name: "iteration".to_string(),
            });
        }
        let (trace, emitted) = (emitted.0, emitted.1.finish().unwrap());
        let times: Vec<f64> = trace.events().iter().map(|e| e.time().nanos()).collect();
        assert_eq!(times, [2.0, 5.0, 5.0, 9.0, 10.0, 11.0, 12.0, 13.0]);
        let mut recorded = writer(16).unwrap();
        for e in trace.events() {
            recorded.event(e);
        }
        assert_eq!(emitted, recorded.finish().unwrap());
    }

    /// Accepts `budget` bytes, then fails this and every later write with a
    /// numbered error.
    struct FailingAfter {
        budget: usize,
        writes: usize,
        failures: usize,
    }

    impl Write for FailingAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.failures > 0 || buf.len() > self.budget {
                self.failures += 1;
                return Err(std::io::Error::other(format!("failure {}", self.failures)));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_first_io_error_stops_the_writer_and_is_returned_by_finish() {
        let trace = sample_trace();
        let mut sink = FailingAfter {
            budget: 100,
            writes: 0,
            failures: 0,
        };
        let mut w = BinaryWriter::with_chunk_capacity(&mut sink, &trace.metadata, 16).unwrap();
        for e in trace.events() {
            w.event(e);
        }
        w.samples(&[SampleRecord {
            time: Nanos(70.0),
            address: Address(0x7f00_0000_1000),
            object: None,
            weight: 1,
            latency_cycles: None,
        }]);
        let err = w.finish().err().expect("the sink failed");
        assert_eq!(err, HmError::Io("failure 1".to_string()));
        assert_eq!(sink.failures, 1, "no write after the failure");
        assert!(sink.writes > 2, "the header and a chunk went through");
    }
}
