//! # hmsim-runtime
//!
//! The online placement runtime: the layer that turns the paper's one-shot
//! profile → advise → re-run pipeline into a closed *observation → control*
//! loop. Instead of deciding data placement once, offline, the runtime
//! interleaves simulation with decision-making:
//!
//! 1. **observe** — an epoch of execution runs on the trace engine while a
//!    PEBS sampler watches the LLC-miss stream;
//! 2. **aggregate** — samples resolve to live data objects through the heap
//!    registry and accumulate into exponentially-decayed per-object heat;
//! 3. **decide** — the advisor's knapsack/greedy selection re-runs against
//!    the fast-tier budget, with hysteresis (minimum residency, a heat
//!    deadband protecting incumbents) so phase noise cannot thrash;
//! 4. **act** — the placement delta executes as `ProcessHeap::migrate_object`
//!    calls, each charged as bytes moved × per-tier bandwidth through the
//!    [`MigrationCostModel`] and added to the run's latency.
//!
//! With the per-epoch move budget set to zero the runtime degenerates to the
//! static engine — bit-for-bit, which is what the equivalence tests pin.
//!
//! The [`controller`] half (heat, hysteresis, selection) is engine-agnostic:
//! `hmem-core` drives the same [`PlacementController`] from the analytical
//! engine, with one application iteration as its epoch, which is how
//! `PlacementApproach::Online` joins the Figure-4 experiment grid.
//!
//! The [`multirank`] module scales the loop from one process to a node: R
//! independent shards (engine + heap + sampler per rank) advance in
//! lock-step epochs under a shared fast-tier budget split by the
//! [`arbiter`]'s policies — FCFS (`numactl`/first-touch), static per-rank
//! partition (the paper's deployment mode) or a node-global selection over
//! heat folded across ranks. With one rank every policy collapses to
//! [`OnlineRuntime`] bitwise.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arbiter;
pub mod config;
pub mod controller;
pub mod cost;
pub mod harness;
pub mod multirank;
pub mod runtime;

pub use arbiter::{ArbiterPolicy, NodeArbiter};
pub use config::OnlineConfig;
pub use controller::{
    execute_plan, EpochPlan, ObjectPlacement, PlacementController, PlanExecution,
};
pub use cost::MigrationCostModel;
pub use multirank::{
    run_multirank, MultiRankConfig, MultiRankOutcome, MultiRankRuntime, RankOutcome,
};
pub use runtime::{EpochRecord, OnlineRuntime, RuntimeStats};
