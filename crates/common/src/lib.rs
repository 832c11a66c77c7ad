//! # hmsim-common
//!
//! Shared foundation types for the hybrid-memory placement framework
//! reproduction (Servat et al., *Automating the Application Data Placement in
//! Hybrid Memory Systems*, CLUSTER 2017).
//!
//! This crate deliberately contains no simulation logic; it provides the
//! vocabulary the rest of the workspace speaks:
//!
//! * [`units`] — strongly-typed byte sizes, addresses, pages, times and rates;
//! * [`ids`] — opaque identifiers for tiers, data objects, allocation sites,
//!   ranks, cores and threads;
//! * [`rng`] — deterministic, seed-derivable random number generation so every
//!   experiment in the evaluation is reproducible bit-for-bit;
//! * [`stats`] — running statistics, high-water-mark tracking, histograms and
//!   percentile helpers used by the profiler, the allocators and the
//!   experiment driver;
//! * [`error`] — the shared error type;
//! * [`json`] — the minimal recursive-descent JSON reader shared by the
//!   bench schema check and the scenario loader (no serde in the offline
//!   build);
//! * [`par`] — the scoped-thread work-sharing fan-out used by the experiment
//!   grid;
//! * [`table`] — plain-text table/CSV rendering used to print the paper's
//!   tables and figure series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod ids;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;

pub use error::{HmError, HmResult};
pub use ids::{CoreId, ObjectId, RankId, SiteId, ThreadId, TierId};
pub use par::parallel_map;
pub use rng::DetRng;
pub use stats::{HighWaterMark, Histogram, RunningStats};
pub use units::{Address, AddressRange, ByteSize, Cycles, Nanos, Page, PAGE_SIZE};
