//! First-fit free-list allocator with coalescing.
//!
//! Each memory tier's heap arena is managed by one of these. It hands out
//! address ranges from a fixed arena, merges adjacent free blocks on `free`,
//! and tracks the bytes in use and their peak. The goal is behavioural
//! fidelity (addresses are stable, reuse happens, fragmentation exists)
//! rather than raw speed.

use hmsim_common::{Address, AddressRange, ByteSize, HighWaterMark, HmError, HmResult};
use std::collections::BTreeMap;

/// Allocation granularity (16 bytes, glibc-like minimum alignment). Every
/// block starts and ends on this boundary, so every block is aligned to it.
const MIN_ALIGN: u64 = 16;

/// A free-list allocator over one contiguous arena.
#[derive(Clone, Debug)]
pub struct FreeListAllocator {
    arena: AddressRange,
    /// Free blocks keyed by start address → length.
    free: BTreeMap<u64, u64>,
    /// Live blocks keyed by start address → length (needed to validate and
    /// size `free()` calls, like malloc's hidden header).
    live: BTreeMap<u64, u64>,
    hwm: HighWaterMark,
}

impl FreeListAllocator {
    /// Create an allocator owning `arena`.
    pub fn new(arena: AddressRange) -> Self {
        let mut free = BTreeMap::new();
        free.insert(arena.start.value(), arena.len.bytes());
        FreeListAllocator {
            arena,
            free,
            live: BTreeMap::new(),
            hwm: HighWaterMark::new(),
        }
    }

    /// The arena this allocator manages.
    pub fn arena(&self) -> AddressRange {
        self.arena
    }

    /// The bytes an allocation of `size` reserves: `size` rounded up to the
    /// allocation granularity, at least one granule.
    pub fn reserved(size: ByteSize) -> ByteSize {
        ByteSize::from_bytes(size.bytes().max(1).next_multiple_of(MIN_ALIGN))
    }

    /// Allocate `size` bytes (first-fit), or `None` when no free block is
    /// large enough. The returned range has the requested length; the
    /// rounding up to [`reserved`](Self::reserved) is hidden, like malloc.
    pub fn alloc(&mut self, size: ByteSize) -> Option<AddressRange> {
        let need = Self::reserved(size).bytes();
        let (&start, &len) = self.free.iter().find(|(_, &len)| len >= need)?;
        self.free.remove(&start);
        if len > need {
            self.free.insert(start + need, len - need);
        }
        self.live.insert(start, need);
        self.hwm.grow(ByteSize::from_bytes(need));
        Some(AddressRange::new(Address(start), size))
    }

    /// Free a previously allocated block by its start address. Returns the
    /// number of bytes released.
    pub fn free(&mut self, addr: Address) -> HmResult<ByteSize> {
        let start = addr.value();
        let len = self
            .live
            .remove(&start)
            .ok_or(HmError::UnknownAddress(start))?;
        self.hwm.shrink(ByteSize::from_bytes(len));
        // Insert and coalesce with neighbours.
        let mut new_start = start;
        let mut new_len = len;
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                new_start = prev_start;
                new_len += prev_len;
            }
        }
        if let Some((&next_start, &next_len)) = self.free.range(start + len..).next() {
            if start + len == next_start {
                self.free.remove(&next_start);
                new_len += next_len;
            }
        }
        self.free.insert(new_start, new_len);
        Ok(ByteSize::from_bytes(len))
    }

    /// Whether `addr` is the start of a live allocation.
    pub fn owns(&self, addr: Address) -> bool {
        self.live.contains_key(&addr.value())
    }

    /// The size recorded for a live allocation.
    pub fn size_of(&self, addr: Address) -> Option<ByteSize> {
        self.live
            .get(&addr.value())
            .map(|l| ByteSize::from_bytes(*l))
    }

    /// Bytes currently allocated (after internal rounding).
    pub fn used_bytes(&self) -> ByteSize {
        self.hwm.current()
    }

    /// Peak bytes ever allocated.
    pub fn hwm(&self) -> ByteSize {
        self.hwm.peak()
    }

    /// Bytes currently free: the arena minus what is allocated.
    pub fn free_bytes(&self) -> ByteSize {
        self.arena.len - self.used_bytes()
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Number of distinct free blocks (fragmentation indicator).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::DetRng;

    fn arena(size_kib: u64) -> FreeListAllocator {
        FreeListAllocator::new(AddressRange::new(
            Address(0x1000_0000),
            ByteSize::from_kib(size_kib),
        ))
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut a = arena(64);
        let total_free = a.free_bytes();
        let r = a.alloc(ByteSize::from_kib(4)).unwrap();
        assert!(a.owns(r.start));
        assert_eq!(a.size_of(r.start), Some(ByteSize::from_kib(4)));
        assert_eq!(a.live_count(), 1);
        a.free(r.start).unwrap();
        assert_eq!(a.free_bytes(), total_free);
        assert_eq!(a.live_count(), 0);
        assert_eq!(a.fragments(), 1, "coalescing must restore a single block");
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = arena(64);
        let mut ranges = Vec::new();
        for i in 1..=10u64 {
            ranges.push(a.alloc(ByteSize::from_bytes(i * 100)).unwrap());
        }
        for (i, r1) in ranges.iter().enumerate() {
            for r2 in &ranges[i + 1..] {
                assert!(!r1.overlaps(r2), "{r1:?} overlaps {r2:?}");
            }
        }
    }

    #[test]
    fn free_coalesces_with_both_neighbours() {
        let mut a = arena(64);
        let r1 = a.alloc(ByteSize::from_kib(1)).unwrap();
        let r2 = a.alloc(ByteSize::from_kib(1)).unwrap();
        let r3 = a.alloc(ByteSize::from_kib(1)).unwrap();
        a.free(r1.start).unwrap();
        a.free(r3.start).unwrap();
        // Freeing the middle block must merge all three plus the tail.
        a.free(r2.start).unwrap();
        assert_eq!(a.fragments(), 1);
    }

    #[test]
    fn out_of_memory_reports_failure() {
        let mut a = arena(8);
        assert!(a.alloc(ByteSize::from_kib(4)).is_some());
        let used = a.used_bytes();
        assert_eq!(a.alloc(ByteSize::from_kib(16)), None);
        assert_eq!(a.used_bytes(), used, "a refused request reserves nothing");
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a = arena(16);
        let r = a.alloc(ByteSize::from_kib(1)).unwrap();
        a.free(r.start).unwrap();
        assert!(matches!(a.free(r.start), Err(HmError::UnknownAddress(_))));
        assert!(matches!(
            a.free(Address(0x42)),
            Err(HmError::UnknownAddress(_))
        ));
    }

    #[test]
    fn hwm_tracks_peak_usage() {
        let mut a = arena(64);
        let r1 = a.alloc(ByteSize::from_kib(8)).unwrap();
        let r2 = a.alloc(ByteSize::from_kib(8)).unwrap();
        a.free(r1.start).unwrap();
        let _r3 = a.alloc(ByteSize::from_kib(2)).unwrap();
        assert_eq!(a.hwm(), ByteSize::from_kib(16));
        assert_eq!(a.used_bytes(), ByteSize::from_kib(10));
        a.free(r2.start).unwrap();
        assert_eq!(a.used_bytes(), ByteSize::from_kib(2));
        assert_eq!(a.hwm(), ByteSize::from_kib(16));
    }

    #[test]
    fn freed_space_is_reused() {
        let mut a = arena(8);
        let r1 = a.alloc(ByteSize::from_kib(4)).unwrap();
        a.free(r1.start).unwrap();
        let r2 = a.alloc(ByteSize::from_kib(4)).unwrap();
        assert_eq!(r1.start, r2.start, "first-fit must reuse the freed block");
    }

    /// Random alloc/free sequences: after every step the O(1) `free_bytes`
    /// equals the sum of the free blocks, used and free bytes partition the
    /// arena, and every block is 16-aligned.
    #[test]
    fn free_bytes_and_used_bytes_partition_the_arena_under_random_operations() {
        let mut rng = DetRng::new(0xF4EE_1157);
        for round in 0..20 {
            let mut a = arena(256);
            let len = ByteSize::from_kib(256);
            let mut live = Vec::new();
            for step in 0..400 {
                if live.is_empty() || rng.chance(0.55) {
                    let size = ByteSize::from_bytes(rng.uniform_range(1, 9000));
                    if let Some(r) = a.alloc(size) {
                        assert_eq!(r.start.value() % MIN_ALIGN, 0);
                        live.push(r.start);
                    }
                } else {
                    let i = rng.uniform_range(0, live.len() as u64) as usize;
                    a.free(live.swap_remove(i)).unwrap();
                }
                let free_sum: u64 = a.free.values().sum();
                assert_eq!(
                    a.free_bytes().bytes(),
                    free_sum,
                    "round {round} step {step}"
                );
                assert_eq!(
                    a.used_bytes() + a.free_bytes(),
                    len,
                    "round {round} step {step}"
                );
                assert_eq!(a.live_count(), live.len());
            }
            for addr in live {
                a.free(addr).unwrap();
            }
            assert_eq!(a.free_bytes(), len);
            assert_eq!(a.fragments(), 1, "round {round}: everything coalesces back");
        }
    }
}
