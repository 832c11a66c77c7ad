//! # auto-hbwmalloc
//!
//! Step 4 of the paper's framework: the interposition library that re-runs
//! the unmodified application binary and transparently redirects the dynamic
//! allocations selected by `hmem_advisor` to the MCDRAM allocator.
//!
//! The centre-piece is [`interpose::AutoHbwMalloc`], a faithful
//! implementation of the paper's Algorithm 1: size pre-filtering with the
//! advisor's `lb_size`/`ub_size`, call-stack unwinding, a decision cache
//! keyed by the raw (ASLR-dependent) addresses, call-stack translation on
//! cache misses, matching against the report, a capacity check against the
//! advisor's budget, and per-allocator book-keeping (allocation counts,
//! requested bytes, high-water marks, objects that did not fit).
//!
//! The crate also implements the *other* placement approaches the paper
//! compares against, behind a single [`router::AllocationRouter`] interface:
//! everything-in-DDR, `numactl -p 1` (first-come-first-served MCDRAM with DDR
//! fall-back, including static and stack data), memkind's `autohbw` library
//! (promote every dynamic allocation above a size threshold) and MCDRAM cache
//! mode (placement-transparent; the machine model does the work).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod interpose;
pub mod router;

pub use interpose::{AutoHbwMalloc, InterpositionStats};
pub use router::{AllocationRouter, ApproachKind, PlacementApproach};
