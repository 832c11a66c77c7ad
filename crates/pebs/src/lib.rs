//! # hmsim-pebs
//!
//! A model of Intel's Precise Event-Based Sampling (PEBS) as the paper uses
//! it: a hardware counter is armed with a *sampling period*; every time the
//! chosen event (LLC load misses here) has occurred `period` times, the PMU
//! captures a record containing the referenced data address — on the Xeon
//! Phi (KNL) modelled here, nothing else. The sampler hands each record
//! straight to its caller, the profiler or the online runtime.
//!
//! The paper samples one out of every 37,589 L2 misses on the Xeon Phi,
//! keeping the monitoring overhead "typically below 1 %".

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counter;
pub mod sampler;

pub use counter::{PebsEvent, ProcessorFamily};
pub use sampler::{PebsSampler, RawSample};
