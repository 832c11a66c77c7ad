//! # hmsim-trace
//!
//! The trace-file substrate standing in for Extrae's Paraver traces.
//!
//! A trace is a time-ordered sequence of events describing one simulated
//! process execution: dynamic-memory allocations and deallocations (with
//! their call-stacks and sizes), static-variable definitions, PEBS samples of
//! LLC misses (with the referenced address and, when the object is known, the
//! object it falls in), phase begin/end markers and periodic performance-
//! counter snapshots. The analysis stage (`hmsim-analysis`, our Paramedir)
//! consumes these traces; the profiler (`hmsim-profiler`, our Extrae)
//! produces them.
//!
//! Traces exist in two representations:
//!
//! * **In memory** as a [`TraceFile`] — convenient for tests and small runs.
//!   It is one [`EventSink`], the interface the profiler emits through; a
//!   consumer that needs only aggregates (the framework's analysis stage)
//!   takes the events as they are emitted and keeps no trace.
//! * **Binary** ([`binary`]): a compact chunked record format with a
//!   buffered [`BinaryWriter`] and a streaming [`TraceReader`] that iterates
//!   events while holding one chunk in memory — the out-of-core capture
//!   format, sized for traces that do not fit in RAM. The writer is an
//!   [`EventSink`] too, so a profile can go straight to disk without ever
//!   being held in memory.
//!
//! A trace holds one rank: the pipeline profiles a single representative
//! MPI process and places its objects per process, so there is no
//! cross-rank merge step.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod event;
pub mod sink;
pub mod summary;
pub mod trace_file;

pub use binary::{read_binary, write_binary, write_binary_to, BinaryWriter, TraceReader};
pub use event::{AllocationRecord, CounterSnapshot, ObjectClass, SampleRecord, TraceEvent};
pub use sink::EventSink;
pub use summary::{TraceSummary, TraceSummaryBuilder};
pub use trace_file::{TraceFile, TraceMetadata};
