//! Whole-trace summary statistics (the numbers reported per application in
//! Table I of the paper: allocations per second, samples per process, …).

use crate::event::{SampleRecord, TraceEvent};
use crate::sink::EventSink;
use hmsim_common::{ByteSize, Nanos};

/// Aggregate statistics of one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Allocation records.
    pub allocations: usize,
    /// Deallocation records.
    pub frees: usize,
    /// PEBS samples.
    pub samples: usize,
    /// Trace duration.
    pub duration: Nanos,
    /// Allocations per second of traced execution.
    pub allocations_per_second: f64,
    /// Samples per second of traced execution.
    pub samples_per_second: f64,
    /// Total bytes requested by the recorded allocations.
    pub allocated_bytes: ByteSize,
    /// Total LLC misses represented by the samples (samples × weight).
    pub sampled_misses: u64,
}

/// Computes a [`TraceSummary`]: an [`EventSink`] that takes events one at
/// a time (or a profile as it is emitted), then [`finish`](Self::finish).
#[derive(Clone, Debug, Default)]
pub struct TraceSummaryBuilder {
    events: usize,
    allocations: usize,
    frees: usize,
    samples: usize,
    duration: Nanos,
    allocated_bytes: ByteSize,
    sampled_misses: u64,
}

impl TraceSummaryBuilder {
    fn sample(&mut self, s: &SampleRecord) {
        self.samples += 1;
        self.sampled_misses += s.weight;
    }

    /// The summary of the events consumed.
    pub fn finish(self) -> TraceSummary {
        let secs = self.duration.secs();
        let rate = |count: usize| if secs > 0.0 { count as f64 / secs } else { 0.0 };
        TraceSummary {
            events: self.events,
            allocations: self.allocations,
            frees: self.frees,
            samples: self.samples,
            duration: self.duration,
            allocations_per_second: rate(self.allocations),
            samples_per_second: rate(self.samples),
            allocated_bytes: self.allocated_bytes,
            sampled_misses: self.sampled_misses,
        }
    }
}

impl EventSink for TraceSummaryBuilder {
    fn event(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Alloc(a) => {
                self.allocations += 1;
                self.allocated_bytes += a.size;
            }
            TraceEvent::Free { .. } => self.frees += 1,
            TraceEvent::Sample(s) => self.sample(s),
            _ => {}
        }
        self.events += 1;
        self.duration = self.duration.max(event.time());
    }

    fn samples(&mut self, samples: &[SampleRecord]) {
        for s in samples {
            self.sample(s);
            self.duration = self.duration.max(s.time);
        }
        self.events += samples.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AllocationRecord, ObjectClass, SampleRecord};
    use crate::trace_file::{TraceFile, TraceMetadata};
    use hmsim_common::{Address, ObjectId};

    fn summarise(t: &TraceFile) -> TraceSummary {
        let mut builder = TraceSummaryBuilder::default();
        for e in t.events() {
            builder.event(e);
        }
        builder.finish()
    }

    #[test]
    fn summary_counts_and_rates() {
        let mut t = TraceFile::new(TraceMetadata::default());
        for i in 0..4u64 {
            t.push(TraceEvent::Alloc(AllocationRecord {
                time: Nanos::from_secs(i as f64 * 0.5),
                object: ObjectId(i as u32),
                class: ObjectClass::Dynamic,
                name: format!("obj{i}"),
                site: None,
                address: Address(0x1000 * (i + 1)),
                size: ByteSize::from_mib(1),
            }));
        }
        t.push(TraceEvent::Free {
            time: Nanos::from_secs(1.9),
            object: ObjectId(0),
            address: Address(0x1000),
        });
        for i in 0..8u64 {
            t.push(TraceEvent::Sample(SampleRecord {
                time: Nanos::from_secs(i as f64 * 0.25),
                address: Address(0x1000),
                object: None,
                weight: 37_589,
                latency_cycles: None,
            }));
        }
        t.sort_by_time();
        let s = summarise(&t);
        assert_eq!(s.allocations, 4);
        assert_eq!(s.frees, 1);
        assert_eq!(s.samples, 8);
        assert_eq!(s.allocated_bytes, ByteSize::from_mib(4));
        assert_eq!(s.sampled_misses, 8 * 37_589);
        assert!((s.duration.secs() - 1.9).abs() < 1e-9);
        assert!((s.allocations_per_second - 4.0 / 1.9).abs() < 1e-9);
        assert!((s.samples_per_second - 8.0 / 1.9).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_summary_is_zero() {
        let t = TraceFile::new(TraceMetadata::default());
        let s = summarise(&t);
        assert_eq!(s.events, 0);
        assert_eq!(s.allocations_per_second, 0.0);
        assert_eq!(s.sampled_misses, 0);
    }
}
