//! # hmsim-analysis
//!
//! The Paramedir analogue: step 2 of the paper's framework.
//!
//! Given a trace produced by the profiler, this crate computes, for every
//! application data object, "(1) the cost of the memory accesses, and (2) the
//! size of the object" (paper §III, step 2). The cost is approximated by the
//! number of LLC misses attributed to the object (sample weights summed);
//! dynamically-allocated objects are identified by their allocation
//! call-stack, and when one site allocates repeatedly (a loop), the report
//! carries the *maximum* requested size observed for that site.
//!
//! The result is an [`ObjectReport`], the hand-off between Paramedir and
//! `hmem_advisor`, plus a [`folding`] module reproducing the coarse-grained
//! performance timeline of the paper's Figure 5.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod folding;
pub mod object_stats;

pub use analyzer::{analyze_stream, analyze_trace, ObjectStatsBuilder};
pub use folding::{FoldAccumulator, FoldedBin, FoldedTimeline};
pub use object_stats::{ObjectReport, ObjectStats, ReportedKind};
