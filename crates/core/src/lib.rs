//! # hmem-core
//!
//! The top of the reproduction: this crate wires the substrates together into
//! the four-stage framework of the paper and drives the whole evaluation.
//!
//! * [`scenario`] — declarative, serializable simulation sessions: one
//!   [`Scenario`] value describes workload, machine, memory mode, placement
//!   approach (configuration embedded as enum payload), online knobs,
//!   arbitration, profiling and seed, and round-trips through the `.scn`
//!   text format;
//! * [`session`] — the [`Simulation`] facade dispatching a scenario to the
//!   analytic runner, the online runtime or the multi-rank runtime and
//!   returning one unified [`Outcome`];
//! * [`simrun`] — executes one application model on the machine model under a
//!   chosen placement approach, producing a figure of merit, MCDRAM usage and
//!   (optionally) an Extrae-style trace;
//! * [`pipeline`] — the profile → analyse → advise → re-run loop (steps 1–4
//!   of the paper);
//! * [`experiment`] — the Figure-4 grid: every application × MCDRAM budget ×
//!   selection strategy, plus the DDR / `numactl` / `autohbw` / cache-mode
//!   baselines;
//! * [`metrics`] — the ΔFOM/MByte efficiency metric (the paper's fourth
//!   contribution);
//! * [`figures`] — generators that print the data behind Figure 1, Figure 3,
//!   Figure 5 and Table I;
//! * [`report`] — text rendering of all of the above.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod pipeline;

pub mod report;
pub mod scenario;
pub mod session;
pub mod simrun;

pub use experiment::{
    run_app_experiment, run_full_evaluation, AppExperiment, ApproachResult, ExperimentConfig,
    GridRow,
};
pub use metrics::delta_fom_per_mbyte;
pub use pipeline::{FrameworkOutcome, FrameworkPipeline, Profile};
pub use scenario::{
    committed_scenarios, MachineSelector, MultiRankSelector, Scenario, WorkloadSelector,
};
pub use session::{NodeAggregates, Outcome, Simulation};
pub use simrun::{AppRun, RunConfig, RunResult};
