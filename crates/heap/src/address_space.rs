//! Layout of the simulated process virtual address space.
//!
//! The space is carved into fixed, non-overlapping regions mirroring a Linux
//! process image: static data (`.data`/`.bss`), the thread stacks, and one
//! heap arena for each of the two memory tiers (glibc's DDR heap and
//! memkind's MCDRAM heap live in different parts of the address space, which
//! is how the profiler can tell them apart by address alone).

use hmsim_common::{Address, AddressRange, ByteSize, HmError, HmResult, TierId};

/// Kind of an address-space region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Statically allocated data (`.data`, `.bss`, Fortran COMMON blocks).
    Static,
    /// Thread stacks (automatic variables, register spill slots).
    Stack,
    /// The dynamic heap arena backed by the given tier.
    Heap(TierId),
}

/// One contiguous region of the simulated address space.
#[derive(Clone, Debug)]
struct Region {
    kind: RegionKind,
    range: AddressRange,
    /// Bump cursor used when carving object ranges out of static/stack
    /// regions (heap regions are managed by the free-list allocators).
    cursor: u64,
}

/// The full address-space layout of one simulated process.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// Static, stack, DDR heap and MCDRAM heap, in that order.
    regions: [Region; 4],
}

impl AddressSpace {
    /// Base of the static data region.
    pub const STATIC_BASE: u64 = 0x0000_0060_0000;
    /// Base of the stack region (grows upwards in the model for simplicity).
    pub const STACK_BASE: u64 = 0x7ffd_0000_0000;
    /// Base of the DDR heap arena.
    pub const DDR_HEAP_BASE: u64 = 0x7f10_0000_0000;
    /// Base of the MCDRAM (memkind) heap arena.
    pub const MCDRAM_HEAP_BASE: u64 = 0x7e10_0000_0000;
    /// Create a layout with the given region capacities; the two heap
    /// arenas are sized like their tiers.
    pub fn new(
        static_size: ByteSize,
        stack_size: ByteSize,
        ddr_heap_size: ByteSize,
        mcdram_heap_size: ByteSize,
    ) -> HmResult<AddressSpace> {
        let region = |kind, base, size| Region {
            kind,
            range: AddressRange::new(Address(base), size),
            cursor: 0,
        };
        let regions = [
            region(RegionKind::Static, Self::STATIC_BASE, static_size),
            region(RegionKind::Stack, Self::STACK_BASE, stack_size),
            region(
                RegionKind::Heap(TierId::DDR),
                Self::DDR_HEAP_BASE,
                ddr_heap_size,
            ),
            region(
                RegionKind::Heap(TierId::MCDRAM),
                Self::MCDRAM_HEAP_BASE,
                mcdram_heap_size,
            ),
        ];
        // Verify no overlaps: the sizes are the machine's public tier
        // capacities.
        for (i, a) in regions.iter().enumerate() {
            for b in &regions[i + 1..] {
                if a.range.overlaps(&b.range) {
                    return Err(HmError::Config(format!(
                        "address-space regions overlap: {:?} and {:?}",
                        a.kind, b.kind
                    )));
                }
            }
        }
        Ok(AddressSpace { regions })
    }

    /// The full range of a region.
    pub fn region(&self, kind: RegionKind) -> Option<AddressRange> {
        self.regions
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| r.range)
    }

    /// The ranges of the two heap arenas, indexed by [`TierId`] (DDR,
    /// MCDRAM).
    pub fn heap_regions(&self) -> [AddressRange; 2] {
        [self.regions[2].range, self.regions[3].range]
    }

    /// Carve a new sub-range out of the static or stack region (bump
    /// allocation; static/automatic variables are never freed individually).
    pub fn carve(&mut self, kind: RegionKind, size: ByteSize) -> HmResult<AddressRange> {
        if matches!(kind, RegionKind::Heap(_)) {
            return Err(HmError::InvalidState(
                "heap regions are managed by the heap arenas, not carved".into(),
            ));
        }
        let region = self
            .regions
            .iter_mut()
            .find(|r| r.kind == kind)
            .ok_or_else(|| HmError::NotFound(format!("region {kind:?}")))?;
        let aligned = size.page_aligned();
        if region.cursor + aligned.bytes() > region.range.len.bytes() {
            return Err(HmError::OutOfMemory {
                tier: format!("{kind:?}"),
                requested: aligned.bytes(),
                available: region.range.len.bytes() - region.cursor,
            });
        }
        let start = region.range.start.offset(region.cursor);
        region.cursor += aligned.bytes();
        Ok(AddressRange::new(start, size))
    }

    /// Bytes already carved from a region.
    pub fn carved(&self, kind: RegionKind) -> ByteSize {
        self.regions
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| ByteSize::from_bytes(r.cursor))
            .unwrap_or(ByteSize::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layout sized for the KNL node used in the paper: 2 GiB static,
    /// 512 MiB of stacks, heap arenas matching the tier capacities.
    fn knl_default() -> AddressSpace {
        AddressSpace::new(
            ByteSize::from_gib(2),
            ByteSize::from_mib(512),
            ByteSize::from_gib(96),
            ByteSize::from_gib(16),
        )
        .expect("default layout is consistent")
    }

    /// Which region an address belongs to.
    fn region_of(a: &AddressSpace, addr: Address) -> Option<RegionKind> {
        a.regions
            .iter()
            .find(|r| r.range.contains(addr))
            .map(|r| r.kind)
    }

    #[test]
    fn default_layout_has_all_regions() {
        let a = knl_default();
        assert!(a.region(RegionKind::Static).is_some());
        assert!(a.region(RegionKind::Stack).is_some());
        assert!(a.region(RegionKind::Heap(TierId::DDR)).is_some());
        assert!(a.region(RegionKind::Heap(TierId::MCDRAM)).is_some());
        assert!(a.region(RegionKind::Heap(TierId(2))).is_none());
        assert_eq!(
            a.heap_regions(),
            [TierId::DDR, TierId::MCDRAM].map(|t| a.region(RegionKind::Heap(t)).unwrap())
        );
    }

    #[test]
    fn regions_do_not_overlap_and_classify_addresses() {
        let a = knl_default();
        let ddr = a.region(RegionKind::Heap(TierId::DDR)).unwrap();
        let mc = a.region(RegionKind::Heap(TierId::MCDRAM)).unwrap();
        assert!(!ddr.overlaps(&mc));
        assert_eq!(
            region_of(&a, ddr.start),
            Some(RegionKind::Heap(TierId::DDR))
        );
        assert_eq!(
            region_of(&a, mc.start),
            Some(RegionKind::Heap(TierId::MCDRAM))
        );
        assert_eq!(region_of(&a, Address(0x10)), None);
    }

    #[test]
    fn carving_static_ranges_bumps_cursor() {
        let mut a = knl_default();
        let r1 = a.carve(RegionKind::Static, ByteSize::from_mib(1)).unwrap();
        let r2 = a.carve(RegionKind::Static, ByteSize::from_mib(2)).unwrap();
        assert!(!r1.overlaps(&r2));
        assert_eq!(region_of(&a, r1.start), Some(RegionKind::Static));
        assert_eq!(a.carved(RegionKind::Static), ByteSize::from_mib(3));
    }

    #[test]
    fn carving_beyond_capacity_fails() {
        let mut a = AddressSpace::new(
            ByteSize::from_mib(1),
            ByteSize::from_mib(1),
            ByteSize::from_mib(8),
            ByteSize::ZERO,
        )
        .unwrap();
        assert!(a.carve(RegionKind::Static, ByteSize::from_mib(2)).is_err());
        assert!(a
            .carve(RegionKind::Heap(TierId::DDR), ByteSize::from_kib(4))
            .is_err());
    }
}
