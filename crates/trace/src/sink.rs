//! Where a profile goes as it is emitted.
//!
//! The profiler writes to an [`EventSink`] rather than to a trace, so the
//! consumer decides what to keep. [`TraceFile`](crate::TraceFile) stores
//! every event in time order; the analysis stage can take the events as
//! they come and never materialise the trace at all.

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
    fn event(&mut self, event: TraceEvent);

    /// Consume one interval's samples, grouped by object.
    fn samples(&mut self, samples: &[SampleRecord]);
}
