//! # hmsim-callstack
//!
//! Call-stack machinery for the hybrid-memory placement framework.
//!
//! The paper identifies dynamically-allocated data objects *by the call-stack
//! of their allocation site* (captured with glibc's `backtrace()` and
//! translated to symbols with binutils). Because ASLR randomises where
//! libraries land in the address space, the `auto-hbwmalloc` interposition
//! library must first *unwind* the raw return addresses and then *translate*
//! them back to module-relative symbols before it can match them against the
//! advisor's report; the cost of those two steps as a function of call-stack
//! depth is the paper's Figure 3.
//!
//! This crate simulates that machinery end to end:
//!
//! * [`module`] / [`symbols`] — a program image made of modules, each with a
//!   symbol table mapping offsets to function names and source lines;
//! * [`aslr`] — per-module load slides, randomised per process;
//! * [`stack`] — raw (runtime-address) and translated call-stacks, and the
//!   stable [`stack::SiteKey`] used to key placement decisions;
//! * [`unwind`] / [`translate`] — the unwinder and translator, performing
//!   real work proportional to call-stack depth plus calibrated cost models
//!   used by the simulator's time accounting;
//! * [`site_cache`] — the small cache of already-decided allocation sites
//!   used by Algorithm 1 of the paper;
//! * [`cost`] — the calibrated Figure-3 cost model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aslr;
pub mod cost;
pub mod module;
pub mod site_cache;
pub mod stack;
pub mod symbols;
pub mod translate;
pub mod unwind;

pub use aslr::AslrLayout;
pub use cost::CallstackCostModel;
pub use module::{Module, ProgramImage};
pub use site_cache::SiteCache;
pub use stack::{CallStack, Frame, SiteKey, TranslatedCallStack, TranslatedFrame};
pub use symbols::{Symbol, SymbolTable};
pub use translate::Translator;
pub use unwind::Unwinder;
