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
//! Traces exist in three representations:
//!
//! * **In memory** as a [`TraceFile`] — convenient for tests and small runs.
//! * **Text** (`.prv`-like, [`mod@format`]): one record per line with
//!   colon-separated, percent-escaped fields and a `#` header. Human-readable
//!   interchange format.
//! * **Binary** ([`binary`]): a compact chunked record format with a
//!   buffered [`BinaryWriter`] and a streaming [`TraceReader`] that iterates
//!   events while holding one chunk in memory — the out-of-core capture
//!   format, sized for traces that do not fit in RAM.
//!
//! Per-rank streams can be combined with [`merge`]: a k-way, O(ranks)-memory
//! merge that time-orders events from any number of rank traces into one
//! logical multi-rank stream of [`RankedEvent`]s, mirroring Extrae's
//! `.mpits` merge step.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binary;
pub mod event;
pub mod format;
pub mod merge;
pub mod summary;
pub mod trace_file;

pub use binary::{read_binary, write_binary, write_binary_to, BinaryWriter, TraceReader};
pub use event::{AllocationRecord, CounterSnapshot, ObjectClass, SampleRecord, TraceEvent};
pub use merge::{merge_traces, MergedStream, RankedEvent};
pub use summary::TraceSummary;
pub use trace_file::{TraceFile, TraceMetadata};
