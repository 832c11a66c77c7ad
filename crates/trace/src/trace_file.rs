//! In-memory trace container with metadata.

use crate::event::{SampleRecord, TraceEvent};
use crate::sink::EventSink;

/// Metadata describing how a trace was captured.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMetadata {
    /// Application name.
    pub application: String,
    /// Number of MPI ranks in the run this trace represents.
    pub ranks: u32,
    /// Threads per rank.
    pub threads_per_rank: u32,
    /// PEBS sampling period (one sample every `sampling_period` LLC misses).
    pub sampling_period: u64,
    /// Minimum allocation size instrumented (bytes).
    pub min_alloc_size: u64,
    /// The rank this trace belongs to.
    pub rank: u32,
}

impl Default for TraceMetadata {
    fn default() -> Self {
        TraceMetadata {
            application: "unknown".to_string(),
            ranks: 1,
            threads_per_rank: 1,
            // The paper samples one out of every 37,589 L2 misses.
            sampling_period: 37_589,
            // And only instruments allocations larger than 4 KiB.
            min_alloc_size: 4096,
            rank: 0,
        }
    }
}

/// A trace: metadata plus a time-ordered list of events.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// Capture metadata.
    pub metadata: TraceMetadata,
    events: Vec<TraceEvent>,
}

impl Default for TraceFile {
    fn default() -> Self {
        TraceFile::new(TraceMetadata::default())
    }
}

impl TraceFile {
    /// Create an empty trace with the given metadata.
    pub fn new(metadata: TraceMetadata) -> Self {
        TraceFile {
            metadata,
            events: Vec::new(),
        }
    }

    /// Append an event (events are expected in non-decreasing time order;
    /// the writer does not reorder).
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of sample events.
    pub fn sample_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_sample()).count()
    }

    /// Count of allocation events.
    pub fn alloc_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_alloc()).count()
    }

    /// Sort events by timestamp (stable), for traces assembled out of order.
    pub fn sort_by_time(&mut self) {
        sort_by_time(&mut self.events);
    }
}

/// The trace stores time order, so it merges each interval's per-object
/// sample runs as they arrive.
impl EventSink for TraceFile {
    fn event(&mut self, event: &TraceEvent) {
        self.push(event.clone());
    }

    fn samples(&mut self, samples: &[SampleRecord]) {
        let start = self.events.len();
        self.events
            .extend(samples.iter().cloned().map(TraceEvent::Sample));
        // Each object's samples are already in time order; the stable sort
        // merges those runs and keeps same-instant samples in object order,
        // exactly where a stable sort of the whole trace would put them.
        sort_by_time(&mut self.events[start..]);
    }
}

/// Stable sort by timestamp: the order a trace, and a binary trace, keeps.
pub(crate) fn sort_by_time(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| a.time().partial_cmp(&b.time()).expect("no NaN timestamps"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterSnapshot, SampleRecord};
    use hmsim_common::{Address, Nanos};

    #[test]
    fn push_and_query() {
        let mut t = TraceFile::new(TraceMetadata::default());
        assert!(t.is_empty());
        t.push(TraceEvent::PhaseBegin {
            time: Nanos::from_millis(1.0),
            name: "main".to_string(),
        });
        t.push(TraceEvent::Sample(SampleRecord {
            time: Nanos::from_millis(2.0),
            address: Address(0x1000),
            object: None,
            weight: 37_589,
            latency_cycles: None,
        }));
        t.push(TraceEvent::Counters(CounterSnapshot {
            time: Nanos::from_millis(3.0),
            instructions: 1000,
            llc_misses: 10,
        }));
        assert_eq!(t.len(), 3);
        assert_eq!(t.sample_count(), 1);
        assert_eq!(t.alloc_count(), 0);
    }

    #[test]
    fn default_metadata_matches_paper_settings() {
        let m = TraceMetadata::default();
        assert_eq!(m.sampling_period, 37_589);
        assert_eq!(m.min_alloc_size, 4096);
    }

    #[test]
    fn sort_by_time_orders_events() {
        let mut t = TraceFile::new(TraceMetadata::default());
        for ms in [5.0, 1.0, 3.0] {
            t.push(TraceEvent::PhaseBegin {
                time: Nanos::from_millis(ms),
                name: format!("p{ms}"),
            });
        }
        t.sort_by_time();
        let times: Vec<f64> = t.events().iter().map(|e| e.time().millis()).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }
}
