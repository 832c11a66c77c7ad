//! Where a profile goes as it is emitted.
//!
//! The profiler writes to an [`EventSink`] rather than to a trace, so the
//! consumer decides what to keep. [`TraceFile`](crate::TraceFile) stores
//! every event in time order, and the [`BinaryWriter`](crate::BinaryWriter)
//! encodes them straight to disk; the analysis stage can take the events as
//! they come and never materialise the trace at all. Events are passed by
//! reference, so only a sink that stores them pays for a copy. A pair of
//! sinks is a sink that feeds both halves.

use crate::event::{SampleRecord, TraceEvent};

/// A consumer of a profile as the profiler emits it.
///
/// Events arrive in non-decreasing time order. The PEBS samples of one
/// execution interval arrive together through [`samples`](Self::samples) as
/// per-object runs: each object's samples in time order, one object after
/// another in the order the interval lists them, so the batch as a whole is
/// not time-ordered. Every sample of an interval is no earlier than the
/// event before the batch and no later than the event after it, and no
/// allocation or free falls inside an interval. A consumer that needs the
/// samples in time order merges the runs itself.
pub trait EventSink {
    /// Consume one event.
    fn event(&mut self, event: &TraceEvent);

    /// Consume one interval's samples, grouped by object.
    fn samples(&mut self, samples: &[SampleRecord]);
}

/// Both sinks receive every event and every batch, `A` before `B`.
impl<A: EventSink, B: EventSink> EventSink for (A, B) {
    fn event(&mut self, event: &TraceEvent) {
        self.0.event(event);
        self.1.event(event);
    }

    fn samples(&mut self, samples: &[SampleRecord]) {
        self.0.samples(samples);
        self.1.samples(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AllocationRecord;
    use crate::event::ObjectClass;
    use crate::trace_file::{TraceFile, TraceMetadata};
    use hmsim_common::{Address, ByteSize, Nanos, ObjectId};

    fn sample(ns: f64, object: u32) -> SampleRecord {
        SampleRecord {
            time: Nanos(ns),
            address: Address(0x1000 * u64::from(object + 1)),
            object: Some(ObjectId(object)),
            weight: 997,
            latency_cycles: None,
        }
    }

    /// Emit a small profile with two out-of-order interval batches.
    fn emit(sink: &mut impl EventSink) {
        sink.event(&TraceEvent::PhaseBegin {
            time: Nanos(0.0),
            name: "iteration".to_string(),
        });
        for object in 0..2 {
            sink.event(&TraceEvent::Alloc(AllocationRecord {
                time: Nanos(1.0),
                object: ObjectId(object),
                class: ObjectClass::Dynamic,
                name: format!("obj{object}"),
                site: None,
                address: Address(0x1000 * u64::from(object + 1)),
                size: ByteSize::from_kib(4),
            }));
        }
        sink.samples(&[
            sample(5.0, 0),
            sample(9.0, 0),
            sample(2.0, 1),
            sample(7.0, 1),
        ]);
        sink.event(&TraceEvent::PhaseEnd {
            time: Nanos(10.0),
            name: "iteration".to_string(),
        });
        sink.samples(&[sample(12.0, 1), sample(11.0, 0), sample(11.0, 1)]);
    }

    #[test]
    fn each_half_of_a_pair_sees_what_a_lone_sink_sees() {
        let metadata = TraceMetadata {
            application: "pair".to_string(),
            ..Default::default()
        };
        let mut lone = TraceFile::new(metadata.clone());
        emit(&mut lone);
        let mut pair = (TraceFile::new(metadata.clone()), TraceFile::new(metadata));
        emit(&mut pair);
        assert_eq!(lone.len(), 11);
        for half in [&pair.0, &pair.1] {
            assert_eq!(half.events(), lone.events());
            assert_eq!(half.metadata, lone.metadata);
        }
    }
}
