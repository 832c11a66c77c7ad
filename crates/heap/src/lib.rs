//! # hmsim-heap
//!
//! The simulated process memory substrate: a virtual address space carved
//! into static/stack regions and one heap region for each of the machine's
//! two tiers (DDR, MCDRAM), a first-fit free-list allocator per heap arena,
//! a registry of live data objects (what Extrae's allocation instrumentation
//! sees), the allocation-cost models of glibc and memkind's `hbw_malloc`,
//! and the process-level heap façade that `auto-hbwmalloc` interposes on.
//! [`ProcessHeap`] is the single owner of per-tier residency: capacity caps,
//! occupancy and admission live there.
//!
//! Everything placement-related is reflected into an `hmsim-machine`
//! [`hmsim_machine::PageTable`] so that both execution engines know which
//! tier serves which page.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod address_space;
pub mod freelist;
pub mod object;
pub mod process_heap;
pub mod registry;
pub mod tier_alloc;

pub use address_space::{AddressSpace, RegionKind};
pub use freelist::FreeListAllocator;
pub use object::{DataObject, ObjectKind};
pub use process_heap::ProcessHeap;
pub use registry::LiveObjectRegistry;
pub use tier_alloc::AllocCostModel;
