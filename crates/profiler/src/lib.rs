//! # hmsim-profiler
//!
//! The Extrae analogue: step 1 of the paper's framework.
//!
//! The profiler observes a simulated application run and emits, into an
//! [`EventSink`](hmsim_trace::EventSink) (by default a Paraver-like trace),
//!
//! * allocation/deallocation events for every dynamic allocation of at
//!   least [`MIN_ALLOC_SIZE`] (the paper's 4 KiB), identified by their
//!   allocation call-stack, plus static/stack definitions;
//! * PEBS samples of LLC misses (one out of every 37,589 by default), each
//!   carrying the referenced address and the data object it falls in;
//! * phase markers and periodic performance-counter snapshots used by the
//!   Folding-style timeline of Figure 5;
//!
//! and it models the monitoring overhead the instrumentation imposes on the
//! application (Table I reports 0.15 %–4.1 %).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod overhead;
pub mod profiler;

pub use config::{ProfilerConfig, MIN_ALLOC_SIZE};
pub use overhead::OverheadModel;
pub use profiler::Profiler;
