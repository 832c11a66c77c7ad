//! Per-tier allocators with capacity caps, statistics and allocation-cost
//! models.
//!
//! One `TierAllocator` stands in for glibc malloc (DDR) and another for
//! memkind's `hbw_malloc` (MCDRAM). Besides handing out address ranges it
//! models the *CPU cost* of each allocation call, including the anomaly the
//! paper observed: "allocations ranging from 1 to 2 Mbytes through memkind
//! are more expensive than regular allocations" — the effect that makes
//! `autohbw` a net loss on LULESH.

use crate::freelist::FreeListAllocator;
use hmsim_common::{Address, AddressRange, ByteSize, HmResult, Nanos, TierId};

/// Cost model for one allocator's malloc/free calls.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AllocCostModel {
    /// Fixed cost of a small allocation.
    pub base: Nanos,
    /// Additional cost per MiB requested (page faulting / arena growth).
    pub per_mib: Nanos,
    /// Extra penalty applied to allocations in the anomaly window.
    pub anomaly_penalty: Nanos,
    /// Anomaly window lower bound (inclusive).
    pub anomaly_lo: ByteSize,
    /// Anomaly window upper bound (exclusive).
    pub anomaly_hi: ByteSize,
}

impl AllocCostModel {
    /// glibc-like cost model: cheap, no anomaly.
    pub fn glibc() -> Self {
        AllocCostModel {
            base: Nanos(120.0),
            per_mib: Nanos(650.0),
            anomaly_penalty: Nanos::ZERO,
            anomaly_lo: ByteSize::ZERO,
            anomaly_hi: ByteSize::ZERO,
        }
    }

    /// memkind-like cost model with the 1–2 MiB anomaly reported in §IV-C of
    /// the paper ("allocations ranging from 1 to 2 Mbytes through memkind are
    /// more expensive than regular allocations"). The penalty is calibrated
    /// so that LULESH-style per-iteration churn through memkind costs the
    /// ~8 % the paper measured for the autohbw baseline.
    pub fn memkind() -> Self {
        AllocCostModel {
            base: Nanos(450.0),
            per_mib: Nanos(900.0),
            anomaly_penalty: Nanos(5_000_000.0),
            anomaly_lo: ByteSize::from_mib(1),
            anomaly_hi: ByteSize::from_mib(2),
        }
    }

    /// Cost of allocating `size` bytes under this model.
    pub fn alloc_cost(&self, size: ByteSize) -> Nanos {
        let mut cost = self.base + self.per_mib * size.mib();
        if size >= self.anomaly_lo && size < self.anomaly_hi && !self.anomaly_hi.is_zero() {
            cost += self.anomaly_penalty;
        }
        cost
    }

    /// Cost of freeing an allocation of `size` bytes (roughly half the
    /// allocation base cost, independent of size).
    pub fn free_cost(&self, _size: ByteSize) -> Nanos {
        self.base * 0.5
    }
}

/// Statistics kept by one tier allocator — the metrics `auto-hbwmalloc`
/// reports "upon user request … the number of allocations, the average
/// allocation size, the observed High-Water Mark and whether any variable did
/// not fit into memory due to user size limitations".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TierAllocStats {
    /// Successful allocations.
    pub allocations: u64,
    /// Frees.
    pub frees: u64,
    /// Requests rejected because they exceeded the capacity cap.
    pub rejected: u64,
    /// Total bytes requested by successful allocations.
    pub total_requested: u64,
    /// High-water mark of live bytes.
    pub hwm: u64,
    /// Accumulated allocator CPU time (alloc + free costs).
    pub cpu_time_ns: f64,
}

/// An allocator bound to one memory tier, with an optional capacity cap below
/// the tier's physical size (the per-rank MCDRAM budget of the experiments).
#[derive(Clone, Debug)]
pub struct TierAllocator {
    tier: TierId,
    name: String,
    freelist: FreeListAllocator,
    /// Cap on live bytes (the advisor/auto-hbwmalloc budget); `None` means
    /// only the arena size limits allocations.
    capacity_cap: Option<ByteSize>,
    cost_model: AllocCostModel,
    stats: TierAllocStats,
}

impl TierAllocator {
    /// Create an allocator for `tier` over `arena`.
    pub fn new(
        tier: TierId,
        name: impl Into<String>,
        arena: AddressRange,
        cost_model: AllocCostModel,
    ) -> Self {
        TierAllocator {
            tier,
            name: name.into(),
            freelist: FreeListAllocator::new(arena),
            capacity_cap: None,
            cost_model,
            stats: TierAllocStats::default(),
        }
    }

    /// Apply a capacity cap (live bytes will never exceed it).
    pub fn with_capacity_cap(mut self, cap: ByteSize) -> Self {
        self.capacity_cap = Some(cap);
        self
    }

    /// The tier this allocator serves.
    pub fn tier(&self) -> TierId {
        self.tier
    }

    /// The allocator's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The capacity cap, if any.
    pub fn capacity_cap(&self) -> Option<ByteSize> {
        self.capacity_cap
    }

    /// Whether an allocation of `size` would fit under the cap right now
    /// (Algorithm 1 line 12, `alloc→FITS(size)`).
    pub fn fits(&self, size: ByteSize) -> bool {
        match self.capacity_cap {
            Some(cap) => self.freelist.used_bytes() + size <= cap,
            None => size <= self.freelist.free_bytes(),
        }
    }

    /// Allocate `size` bytes. On success returns the range and the CPU cost
    /// of the call; a request that does not fit is counted as rejected.
    pub fn alloc(&mut self, size: ByteSize) -> HmResult<(AddressRange, Nanos)> {
        if !self.fits(size) {
            self.stats.rejected += 1;
            return Err(hmsim_common::HmError::OutOfMemory {
                tier: self.name.clone(),
                requested: size.bytes(),
                available: self
                    .capacity_cap
                    .map(|c| c.saturating_sub(self.freelist.used_bytes()).bytes())
                    .unwrap_or(self.freelist.free_bytes().bytes()),
            });
        }
        let range = match self.freelist.alloc(size) {
            Ok(r) => r,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e);
            }
        };
        let cost = self.cost_model.alloc_cost(size);
        self.stats.allocations += 1;
        self.stats.total_requested += size.bytes();
        self.stats.hwm = self.stats.hwm.max(self.freelist.used_bytes().bytes());
        self.stats.cpu_time_ns += cost.nanos();
        Ok((range, cost))
    }

    /// Count a request the heap façade rejected before reaching the arena
    /// (e.g. migrated-in residency filled the tier's capacity cap).
    pub(crate) fn note_rejected(&mut self) {
        self.stats.rejected += 1;
    }

    /// Free the allocation starting at `addr`; returns its size and the CPU
    /// cost of the call.
    pub fn free(&mut self, addr: Address) -> HmResult<(ByteSize, Nanos)> {
        let size = self.freelist.free(addr)?;
        let cost = self.cost_model.free_cost(size);
        self.stats.frees += 1;
        self.stats.cpu_time_ns += cost.nanos();
        Ok((size, cost))
    }

    /// Whether this allocator owns the allocation starting at `addr`.
    pub fn owns(&self, addr: Address) -> bool {
        self.freelist.owns(addr)
    }

    /// Live bytes currently allocated.
    pub fn used_bytes(&self) -> ByteSize {
        self.freelist.used_bytes()
    }

    /// Peak live bytes.
    pub fn hwm(&self) -> ByteSize {
        ByteSize::from_bytes(self.stats.hwm)
    }

    /// The statistics block.
    pub fn stats(&self) -> TierAllocStats {
        self.stats
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> AllocCostModel {
        self.cost_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcdram_alloc(cap_mib: u64) -> TierAllocator {
        TierAllocator::new(
            TierId::MCDRAM,
            "memkind/hbw",
            AddressRange::new(Address(0x7e10_0000_0000), ByteSize::from_gib(16)),
            AllocCostModel::memkind(),
        )
        .with_capacity_cap(ByteSize::from_mib(cap_mib))
    }

    #[test]
    fn capacity_cap_limits_live_bytes() {
        let mut a = mcdram_alloc(64);
        assert!(a.fits(ByteSize::from_mib(64)));
        let (r1, _) = a.alloc(ByteSize::from_mib(40)).unwrap();
        assert!(!a.fits(ByteSize::from_mib(32)));
        assert!(a.alloc(ByteSize::from_mib(32)).is_err());
        assert_eq!(a.stats().rejected, 1);
        // After freeing, the space can be used again.
        a.free(r1.start).unwrap();
        assert!(a.alloc(ByteSize::from_mib(60)).is_ok());
    }

    #[test]
    fn memkind_anomaly_makes_1_to_2_mib_expensive() {
        let m = AllocCostModel::memkind();
        let below = m.alloc_cost(ByteSize::from_kib(512));
        let inside = m.alloc_cost(ByteSize::from_mib(1) + ByteSize::from_kib(512));
        let above = m.alloc_cost(ByteSize::from_mib(4));
        assert!(inside > below * 10.0);
        assert!(inside.nanos() > above.nanos(), "anomaly window dominates");
        // glibc has no such anomaly.
        let g = AllocCostModel::glibc();
        assert!(g.alloc_cost(ByteSize::from_mib(1) + ByteSize::from_kib(512)) < inside);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = mcdram_alloc(256);
        let (r1, c1) = a.alloc(ByteSize::from_mib(10)).unwrap();
        let (_r2, c2) = a.alloc(ByteSize::from_mib(30)).unwrap();
        let (_, cf) = a.free(r1.start).unwrap();
        let s = a.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.total_requested, ByteSize::from_mib(40).bytes());
        assert_eq!(a.hwm(), ByteSize::from_mib(40));
        assert_eq!(a.used_bytes(), ByteSize::from_mib(30));
        let expected = c1.nanos() + c2.nanos() + cf.nanos();
        assert!((s.cpu_time_ns - expected).abs() < 1e-6);
    }

    #[test]
    fn uncapped_allocator_limited_only_by_arena() {
        let mut a = TierAllocator::new(
            TierId::DDR,
            "glibc",
            AddressRange::new(Address(0x7f10_0000_0000), ByteSize::from_mib(8)),
            AllocCostModel::glibc(),
        );
        assert!(a.fits(ByteSize::from_mib(8)));
        assert!(!a.fits(ByteSize::from_mib(9)));
        assert!(a.alloc(ByteSize::from_mib(4)).is_ok());
        assert!(a.alloc(ByteSize::from_mib(5)).is_err());
    }

    #[test]
    fn ownership_is_tracked() {
        let mut a = mcdram_alloc(64);
        let (r, _) = a.alloc(ByteSize::from_mib(1)).unwrap();
        assert!(a.owns(r.start));
        assert!(!a.owns(Address(0x1234)));
    }
}
