//! # hmsim-apps
//!
//! Declarative workload models of the eight applications evaluated in the
//! paper (Table I) plus the STREAM Triad kernel used in Figure 1.
//!
//! Each application is described by an [`spec::AppSpec`]: its execution
//! geometry, figure of merit, per-iteration instruction and LLC-miss volume,
//! and — most importantly — its inventory of data objects (sizes, static vs
//! dynamic vs stack, allocation call-paths, allocation timing, and each
//! object's share of the LLC misses together with how irregular its accesses
//! are). The numbers are derived from Table I of the paper (memory
//! high-water marks, allocation statement counts, allocation rates) and from
//! the per-application discussion in §IV (which objects matter, whether the
//! hot data is static, whether allocation happens inside the iteration loop,
//! where the cache/framework/numactl approaches win and why).
//!
//! The models are *behavioural*, not numerical clones: they are built so that
//! the placement-relevant structure of each application is preserved —
//! because that structure, not the absolute GFLOPS, is what drives every
//! conclusion in the paper's evaluation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod multirank;
pub mod phased;
pub mod registry;
pub mod spec;
pub mod stream;

pub use multirank::MultiRankWorkload;
pub use phased::{phased_workload_by_name, phased_workloads, PhasedStream, PhasedWorkload};
pub use registry::{all_apps, app_by_name};
pub use spec::{AllocTiming, AppSpec, KernelSpec, ObjectSpec};
pub use stream::{StreamBenchmark, StreamResult};
