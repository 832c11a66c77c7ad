//! # hmsim-machine
//!
//! A hybrid-memory machine model patterned after the Intel Xeon Phi 7250
//! ("Knights Landing", KNL) node used in the paper's evaluation: 68 cores at
//! 1.4 GHz, 96 GiB of DDR4 at ~90 GB/s and 16 GiB of on-package MCDRAM at
//! ~450 GB/s, with the MCDRAM configurable in *flat* mode (separate part of
//! the physical address space) or *cache* mode (a direct-mapped memory-side
//! cache in front of DDR) — the two modes the paper's node runs in. The mesh
//! is modelled in quadrant clustering, the paper's setting; the KNL's hybrid
//! MCDRAM split and the other clustering modes are not modelled.
//!
//! The node has exactly two memory tiers, held by
//! [`config::MachineConfig`] as its `ddr` and `mcdram` fields
//! ([`TierId::DDR`](hmsim_common::TierId::DDR) and
//! [`TierId::MCDRAM`](hmsim_common::TierId::MCDRAM)). A page mapped to any
//! other id is served by DDR
//! ([`MachineConfig::serving_tier`](config::MachineConfig::serving_tier)),
//! in both engines, the bandwidth model and the migration cost model.
//!
//! The crate provides two complementary execution engines:
//!
//! * a **trace-driven engine** ([`engine::TraceEngine`]) that pushes every
//!   simulated memory access through a set-associative L1/L2 hierarchy and a
//!   page table mapping pages to tiers — faithful but only practical for
//!   micro-kernels (STREAM, unit tests, ablations). It simulates flat mode
//!   only and refuses a cache-mode machine;
//! * an **analytical engine** ([`analytic`]) that computes phase execution
//!   times from per-object traffic/miss profiles with a roofline-style
//!   bandwidth/latency model — this is what makes the full Figure-4 grid
//!   (8 apps × 4 budgets × 4 strategies × 4 baselines × 64 ranks) run in
//!   seconds. It costs both modes; cache mode's hit rate comes from
//!   [`mcdram_cache::McdramCacheModel`].
//!
//! Both engines agree on the same [`config::MachineConfig`] and the same
//! [`page_table::PageTable`] notion of data placement, so the rest of the
//! framework does not care which one produced a flat-mode number.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod analytic;
pub mod bandwidth;
pub mod cache;
pub mod config;
pub mod counters;
pub mod engine;
pub mod mcdram_cache;
pub mod page_table;
pub mod tier;

pub use access::{AccessKind, AccessPattern, AccessStream, MemoryAccess};
pub use analytic::{AnalyticEngine, ObjectTraffic, PhaseCost, PhaseProfile, Placement};
pub use bandwidth::BandwidthModel;
pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use config::{MachineConfig, MemoryMode};
pub use counters::PerfCounters;
pub use engine::{EngineStats, TierTraffic, TraceEngine};
pub use mcdram_cache::McdramCacheModel;
pub use page_table::PageTable;
pub use tier::TierSpec;
