//! # hmem-advisor
//!
//! Step 3 of the paper's framework and its primary algorithmic contribution:
//! given the per-object LLC-miss report produced by the analysis stage and a
//! description of the machine's memory tiers, decide which data objects
//! should be promoted to fast memory.
//!
//! Following the paper (§III, step 3), the problem is a relaxation of the 0/1
//! *multiple* knapsack problem — one knapsack per memory subsystem, solved in
//! descending order of memory performance, at memory-page granularity — and
//! two independent greedy relaxations are provided:
//!
//! * **Misses(t%)** — objects are considered in descending order of LLC
//!   misses; objects contributing less than `t` percent of the total misses
//!   are never promoted (the threshold "allows preventing that rarely
//!   referenced objects … are promoted to fast-memory");
//! * **Density** — objects are considered in descending order of
//!   misses-per-byte, favouring small, hot objects.
//!
//! An exact dynamic-programming 0/1 knapsack is also included; the paper
//! notes it is impractical for realistic object counts and memory sizes,
//! which the `knapsack_exact_vs_greedy` ablation bench demonstrates.
//!
//! [`select`] is the one dispatch over these strategies: the advisor runs it
//! per tier, and the online runtime's controller re-runs it every epoch.
//!
//! The output is a human-readable [`report::PlacementReport`]: the list of
//! selected objects, which of them `auto-hbwmalloc` can handle automatically
//! (dynamic ones), and the size bounds it should use as a fast pre-filter.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod advisor;
pub mod greedy;
pub mod knapsack;
pub mod memspec;
pub mod report;
pub mod strategy;

pub use advisor::Advisor;
pub use greedy::Candidate;
pub use memspec::{MemorySpec, TierBudget};
pub use report::{PlacementReport, SelectionEntry};
pub use strategy::{select, SelectionStrategy};
