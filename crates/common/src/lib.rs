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
//! * [`ids`] — opaque identifiers for tiers and data objects, and the
//!   [`IdMap`] keyed by them;
//! * [`rng`] — deterministic, seed-derivable random number generation so every
//!   experiment in the evaluation is reproducible bit-for-bit;
//! * [`stats`] — high-water-mark tracking used by the allocators;
//! * [`error`] — the shared error type;
//! * [`json`] — the minimal recursive-descent JSON reader shared by the
//!   bench schema check and the scenario loader (no serde in the offline
//!   build);
//! * [`table`] — plain-text table rendering used to print the paper's
//!   tables and figure series.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod ids;
pub mod json;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;

pub use error::{HmError, HmResult};
pub use ids::{IdHasher, IdMap, ObjectId, TierId};
pub use rng::DetRng;
pub use stats::HighWaterMark;
pub use units::{Address, AddressRange, ByteSize, Nanos, Page, PAGE_SIZE};
