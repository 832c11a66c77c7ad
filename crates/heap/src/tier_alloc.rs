//! Allocation-cost models.
//!
//! Every heap allocation pays glibc's cost (the heap charges
//! [`AllocCostModel::glibc`]); an interposition layer that forwards a call
//! to memkind's `hbw_malloc` adds [`AllocCostModel::memkind_surcharge`] on
//! top. The memkind model carries the anomaly the paper observed:
//! "allocations ranging from 1 to 2 Mbytes through memkind are more
//! expensive than regular allocations" — the effect that makes `autohbw` a
//! net loss on LULESH.

use hmsim_common::{ByteSize, Nanos};

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

    /// Cost of freeing an allocation (roughly half the allocation base
    /// cost, independent of size).
    pub fn free_cost(&self) -> Nanos {
        self.base * 0.5
    }

    /// What allocating `size` bytes through memkind costs beyond glibc. It
    /// is positive for every size: memkind's base and per-MiB costs are
    /// both higher.
    pub fn memkind_surcharge(size: ByteSize) -> Nanos {
        Self::memkind().alloc_cost(size) - Self::glibc().alloc_cost(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn memkind_surcharge_is_positive_at_every_size() {
        for size in [0, 1, 4096, 1 << 20, 3 << 19, 1 << 21, 1 << 34] {
            let size = ByteSize::from_bytes(size);
            assert!(
                AllocCostModel::memkind_surcharge(size) > Nanos::ZERO,
                "{size}"
            );
        }
    }
}
