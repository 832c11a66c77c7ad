//! The process-level heap façade and the single owner of per-tier
//! residency.
//!
//! `ProcessHeap` glues together the address-space layout, one private arena
//! per memory tier (a [`FreeListAllocator`] plus an optional capacity cap),
//! the live-object registry and a machine-level page table. It is the thing
//! `auto-hbwmalloc` interposes on: every simulated `malloc`/`free` flows
//! through here, and placement is reflected into the page table so the
//! execution engines charge the right tier. Admission — Algorithm 1's
//! `alloc→FITS(size)` and its migration counterpart — is answered here and
//! nowhere else.

use crate::address_space::{AddressSpace, RegionKind};
use crate::freelist::FreeListAllocator;
use crate::object::{DataObject, ObjectKind};
use crate::registry::LiveObjectRegistry;
use crate::tier_alloc::AllocCostModel;
use hmsim_callstack::SiteKey;
use hmsim_common::{Address, AddressRange, ByteSize, HmError, HmResult, Nanos, ObjectId, TierId};
use hmsim_machine::{MachineConfig, PageTable};

/// One tier's heap arena: the free list that hands out its addresses and
/// the optional cap on bytes resident in the tier.
#[derive(Clone, Debug)]
struct Arena {
    tier: TierId,
    /// The machine's name for the tier (error messages).
    name: String,
    freelist: FreeListAllocator,
    /// Cap on resident bytes (the per-rank MCDRAM budget of the
    /// experiments); `None` means only the arena size limits allocations.
    cap: Option<ByteSize>,
}

/// The simulated process heap: arenas, live objects and page placement.
#[derive(Clone, Debug)]
pub struct ProcessHeap {
    address_space: AddressSpace,
    arenas: Vec<Arena>,
    registry: LiveObjectRegistry,
    page_table: PageTable,
    /// Net bytes migrated into (positive) or out of (negative) each tier,
    /// indexed by tier id. An arena's used bytes track where objects were
    /// *allocated*; this overlay tracks where their pages currently
    /// *reside* after [`migrate_object`](Self::migrate_object) calls, so
    /// capacity enforcement sees the physical occupancy.
    migration_delta: Vec<i64>,
}

impl ProcessHeap {
    /// Build a heap for the given machine: one uncapped arena per tier,
    /// over that tier's heap region.
    ///
    /// Every allocation is charged glibc's cost. Page placement (where the
    /// object lands) is orthogonal to which allocator *API* served the call:
    /// `numactl -p 1` places glibc allocations in MCDRAM without paying
    /// memkind's costs, so the extra cost of going through
    /// memkind/hbw_malloc is charged by the interposition layers
    /// (auto-hbwmalloc, autohbw) on top.
    pub fn new(machine: &MachineConfig) -> HmResult<ProcessHeap> {
        let tiers: Vec<(TierId, ByteSize)> =
            machine.tiers.iter().map(|t| (t.id, t.capacity)).collect();
        let address_space =
            AddressSpace::new(ByteSize::from_gib(2), ByteSize::from_mib(512), &tiers)?;
        let arenas = machine
            .tiers
            .iter()
            .map(|t| {
                let region = address_space
                    .region(RegionKind::Heap(t.id))
                    .ok_or_else(|| HmError::NotFound(format!("heap region for {:?}", t.id)))?;
                Ok(Arena {
                    tier: t.id,
                    name: t.name.clone(),
                    freelist: FreeListAllocator::new(region),
                    cap: None,
                })
            })
            .collect::<HmResult<_>>()?;
        Ok(ProcessHeap {
            address_space,
            arenas,
            registry: LiveObjectRegistry::new(),
            page_table: PageTable::new(TierId::DDR),
            migration_delta: Vec::new(),
        })
    }

    fn arena(&self, tier: TierId) -> Option<&Arena> {
        self.arenas.iter().find(|a| a.tier == tier)
    }

    /// Cap the bytes resident in `tier` (the per-rank MCDRAM budget of the
    /// experiments).
    pub fn set_capacity_cap(&mut self, tier: TierId, cap: ByteSize) -> HmResult<()> {
        let arena = self
            .arenas
            .iter_mut()
            .find(|a| a.tier == tier)
            .ok_or_else(|| HmError::NotFound(format!("heap arena for {tier:?}")))?;
        arena.cap = Some(cap);
        Ok(())
    }

    /// Whether an allocation of `size` bytes currently fits in `tier`
    /// (Algorithm 1 line 12, `alloc→FITS(size)`). A capped tier checks both
    /// its arena's allocated bytes and its resident bytes (which count
    /// objects migrated in) against the cap; an uncapped one checks the
    /// arena's free bytes. Both charge the bytes the arena will reserve,
    /// `size` rounded up to its granularity.
    pub fn fits(&self, tier: TierId, size: ByteSize) -> bool {
        let Some(arena) = self.arena(tier) else {
            return false;
        };
        let size = FreeListAllocator::reserved(size);
        match arena.cap {
            Some(cap) => {
                arena.freelist.used_bytes() + size <= cap && self.tier_occupancy(tier) + size <= cap
            }
            None => size <= arena.freelist.free_bytes(),
        }
    }

    /// Whether `tier` can physically absorb `size` migrated bytes under its
    /// capacity cap. Tiers without a cap (DDR) always admit migrations: the
    /// move consumes no arena address space, only physical residency.
    pub fn migration_admits(&self, tier: TierId, size: ByteSize) -> bool {
        match self.arena(tier) {
            Some(Arena { cap: Some(cap), .. }) => self.tier_occupancy(tier) + size <= *cap,
            Some(_) => true,
            None => false,
        }
    }

    /// The refusal of `size` bytes in `tier`. `available` is the headroom
    /// under the cap, or the arena's free bytes when the tier is uncapped.
    fn out_of_memory(&self, tier: TierId, size: ByteSize) -> HmError {
        let (tier_name, available) = match self.arena(tier) {
            Some(a) => {
                let available = match a.cap {
                    Some(cap) => cap.saturating_sub(self.tier_occupancy(tier)),
                    None => a.freelist.free_bytes(),
                };
                (a.name.clone(), available.bytes())
            }
            None => (tier.to_string(), 0),
        };
        HmError::OutOfMemory {
            tier: tier_name,
            requested: size.bytes(),
            available,
        }
    }

    /// Dynamically allocate `size` bytes in `tier`, registering the object
    /// and mapping its pages. Returns the object id, its range and the CPU
    /// cost of the allocator call. The capacity check sees migrated-in
    /// residency, so a tier cannot be overcommitted through malloc while
    /// migrated objects occupy it.
    pub fn malloc(
        &mut self,
        size: ByteSize,
        tier: TierId,
        name: impl Into<String>,
        site: Option<SiteKey>,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange, Nanos)> {
        // Refused when the tier is full, or when no free block of its arena
        // is large enough.
        let range = if self.fits(tier, size) {
            let arena = self.arenas.iter_mut().find(|a| a.tier == tier);
            arena.and_then(|a| a.freelist.alloc(size))
        } else {
            None
        };
        let range = range.ok_or_else(|| self.out_of_memory(tier, size))?;
        let id = self.registry.next_id();
        self.registry.insert(DataObject {
            id,
            name: name.into(),
            kind: ObjectKind::Dynamic,
            site,
            range,
            tier,
            allocated_at: now,
        })?;
        self.page_table.map_range(range, tier);
        Ok((id, range, AllocCostModel::glibc().alloc_cost(size)))
    }

    /// Free the dynamic allocation starting at `addr`. Returns the freed
    /// object and the CPU cost of the call.
    pub fn free(&mut self, addr: Address) -> HmResult<(DataObject, Nanos)> {
        // The owning arena identifies the object's home tier (migration moves
        // pages, never addresses).
        let arena = self
            .arenas
            .iter_mut()
            .find(|a| a.freelist.owns(addr))
            .ok_or(HmError::UnknownAddress(addr.value()))?;
        let home = arena.tier;
        arena.freelist.free(addr)?;
        let obj = self.registry.remove_by_start(addr)?;
        // If the object had been migrated away from its home tier, unwind the
        // residency overlay so the destination tier's capacity is released.
        if obj.tier != home {
            self.shift_migration_delta(obj.tier, home, obj.size());
        }
        self.page_table.unmap_range(obj.range);
        Ok((obj, AllocCostModel::glibc().free_cost()))
    }

    /// Register a static (named) variable, carving it from the static region
    /// and mapping its pages to `tier` (DDR normally; MCDRAM under
    /// `numactl -p 1`).
    pub fn define_static(
        &mut self,
        name: impl Into<String>,
        size: ByteSize,
        tier: TierId,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange)> {
        self.define(
            RegionKind::Static,
            ObjectKind::Static,
            name,
            size,
            tier,
            now,
        )
    }

    /// Register a stack (automatic) region, e.g. per-thread stacks or the
    /// register-spill area of a hot routine.
    pub fn define_stack(
        &mut self,
        name: impl Into<String>,
        size: ByteSize,
        tier: TierId,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange)> {
        self.define(RegionKind::Stack, ObjectKind::Stack, name, size, tier, now)
    }

    fn define(
        &mut self,
        region: RegionKind,
        kind: ObjectKind,
        name: impl Into<String>,
        size: ByteSize,
        tier: TierId,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange)> {
        let range = self.address_space.carve(region, size)?;
        let id = self.registry.next_id();
        self.registry.insert(DataObject {
            id,
            name: name.into(),
            kind,
            site: None,
            range,
            tier,
            allocated_at: now,
        })?;
        self.page_table.map_range(range, tier);
        Ok((id, range))
    }

    fn shift_migration_delta(&mut self, from: TierId, to: TierId, size: ByteSize) {
        let slots = from.index().max(to.index()) + 1;
        if self.migration_delta.len() < slots {
            self.migration_delta.resize(slots, 0);
        }
        self.migration_delta[from.index()] -= size.bytes() as i64;
        self.migration_delta[to.index()] += size.bytes() as i64;
    }

    /// Bytes physically resident in `tier` right now: what its arena handed
    /// out, adjusted by the net effect of object migrations. (Objects placed
    /// in a tier without going through its arena — statics under
    /// `numactl -p 1` — are outside both terms, mirroring how the capacity
    /// cap has always been enforced.)
    pub fn tier_occupancy(&self, tier: TierId) -> ByteSize {
        let allocated = self
            .arena(tier)
            .map_or(0, |a| a.freelist.used_bytes().bytes() as i64);
        let delta = self.migration_delta.get(tier.index()).copied().unwrap_or(0);
        ByteSize::from_bytes((allocated + delta).max(0) as u64)
    }

    /// Peak bytes ever allocated from `tier`'s arena (after internal
    /// rounding). Migrated-in residency is not counted.
    pub fn allocated_hwm(&self, tier: TierId) -> ByteSize {
        self.arena(tier)
            .map_or(ByteSize::ZERO, |a| a.freelist.hwm())
    }

    /// Move every page of a live object to another tier (what `numactl`-style
    /// policies or the online migration runtime do). Enforces the destination
    /// tier's capacity cap: a move that does not fit fails with
    /// [`HmError::OutOfMemory`] and leaves the placement, the page table and
    /// the occupancy accounting untouched; an id that is not live fails
    /// with [`HmError::NotFound`]. Returns the bytes moved
    /// ([`ByteSize::ZERO`] when the object already lives in `tier`).
    pub fn migrate_object(&mut self, id: ObjectId, tier: TierId) -> HmResult<ByteSize> {
        let obj = self
            .registry
            .get(id)
            .ok_or_else(|| HmError::NotFound(format!("{id:?}")))?;
        let (from, range, size) = (obj.tier, obj.range, obj.size());
        if from == tier {
            return Ok(ByteSize::ZERO);
        }
        if !self.migration_admits(tier, size) {
            return Err(self.out_of_memory(tier, size));
        }
        self.page_table.map_range(range, tier);
        self.registry.set_tier(id, tier)?;
        self.shift_migration_delta(from, tier, size);
        Ok(size)
    }

    /// The live-object registry.
    pub fn registry(&self) -> &LiveObjectRegistry {
        &self.registry
    }

    /// The page table reflecting current placement.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Total live bytes across all tiers (dynamic allocations only).
    pub fn live_dynamic_bytes(&self) -> ByteSize {
        self.arenas.iter().map(|a| a.freelist.used_bytes()).sum()
    }

    /// Total live bytes including static and stack objects.
    pub fn working_set(&self) -> ByteSize {
        self.registry.live_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::DetRng;
    use hmsim_machine::MachineConfig;

    fn heap() -> ProcessHeap {
        ProcessHeap::new(&MachineConfig::knl_7250()).unwrap()
    }

    #[test]
    fn malloc_registers_object_and_maps_pages() {
        let mut h = heap();
        let (id, range, cost) = h
            .malloc(
                ByteSize::from_mib(8),
                TierId::MCDRAM,
                "matrix",
                Some(SiteKey::from_text("app!alloc_matrix+0x10")),
                Nanos::ZERO,
            )
            .unwrap();
        assert!(cost.nanos() > 0.0);
        assert_eq!(h.registry().get(id).unwrap().tier, TierId::MCDRAM);
        assert_eq!(h.page_table().tier_of(range.start), TierId::MCDRAM);
        assert_eq!(
            h.registry()
                .find_containing(range.start.offset(4096))
                .unwrap()
                .id,
            id
        );
        assert_eq!(h.live_dynamic_bytes(), ByteSize::from_mib(8));
    }

    #[test]
    fn free_unmaps_and_unregisters() {
        let mut h = heap();
        let (_, range, _) = h
            .malloc(
                ByteSize::from_mib(4),
                TierId::MCDRAM,
                "buf",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let (freed, _) = h.free(range.start).unwrap();
        assert_eq!(freed.size(), ByteSize::from_mib(4));
        assert_eq!(freed.name, "buf");
        assert!(h.registry().find_containing(range.start).is_none());
        assert_eq!(
            h.page_table().tier_of(range.start),
            TierId::DDR,
            "falls back to default"
        );
        assert!(h.free(range.start).is_err(), "double free rejected");
    }

    #[test]
    fn capacity_cap_forces_fallback_decisions() {
        let mut h = heap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(32))
            .unwrap();
        assert!(h.fits(TierId::MCDRAM, ByteSize::from_mib(32)));
        h.malloc(
            ByteSize::from_mib(30),
            TierId::MCDRAM,
            "a",
            None,
            Nanos::ZERO,
        )
        .unwrap();
        assert!(!h.fits(TierId::MCDRAM, ByteSize::from_mib(8)));
        let err = h
            .malloc(
                ByteSize::from_mib(8),
                TierId::MCDRAM,
                "b",
                None,
                Nanos::ZERO,
            )
            .unwrap_err();
        // The refusal names the tier and the headroom left under the cap.
        assert_eq!(
            err,
            HmError::OutOfMemory {
                tier: "MCDRAM".to_string(),
                requested: ByteSize::from_mib(8).bytes(),
                available: ByteSize::from_mib(2).bytes(),
            }
        );
        // DDR still accepts it.
        assert!(h
            .malloc(ByteSize::from_mib(8), TierId::DDR, "b", None, Nanos::ZERO)
            .is_ok());
    }

    #[test]
    fn static_and_stack_objects_are_not_promotable_but_can_be_placed() {
        let mut h = heap();
        let (sid, srange) = h
            .define_static(
                "common_block",
                ByteSize::from_mib(100),
                TierId::MCDRAM,
                Nanos::ZERO,
            )
            .unwrap();
        let (kid, krange) = h
            .define_stack(
                "omp_stacks",
                ByteSize::from_mib(16),
                TierId::DDR,
                Nanos::ZERO,
            )
            .unwrap();
        assert!(!h.registry().get(sid).unwrap().promotable());
        assert!(!h.registry().get(kid).unwrap().promotable());
        assert_eq!(h.page_table().tier_of(srange.start), TierId::MCDRAM);
        assert_eq!(h.page_table().tier_of(krange.start), TierId::DDR);
        assert_eq!(h.working_set(), ByteSize::from_mib(116));
        assert_eq!(h.live_dynamic_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn migrate_object_remaps_pages() {
        let mut h = heap();
        let (id, range) = h
            .define_static("grid", ByteSize::from_mib(10), TierId::DDR, Nanos::ZERO)
            .unwrap();
        let moved = h.migrate_object(id, TierId::MCDRAM).unwrap();
        assert_eq!(moved, ByteSize::from_mib(10));
        assert_eq!(
            h.page_table()
                .tier_of(range.start.offset(range.len.bytes() - 1)),
            TierId::MCDRAM
        );
        assert_eq!(h.registry().get(id).unwrap().tier, TierId::MCDRAM);
        assert_eq!(h.tier_occupancy(TierId::MCDRAM), ByteSize::from_mib(10));
        // Migrating to the tier it already lives in is a free no-op.
        assert_eq!(
            h.migrate_object(id, TierId::MCDRAM).unwrap(),
            ByteSize::ZERO
        );
        assert!(h.migrate_object(ObjectId(999), TierId::DDR).is_err());
    }

    #[test]
    fn migration_into_full_tier_fails_without_corrupting_accounting() {
        let mut h = heap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(32))
            .unwrap();
        // Fill MCDRAM with a native allocation, leaving 8 MiB headroom.
        h.malloc(
            ByteSize::from_mib(24),
            TierId::MCDRAM,
            "resident",
            None,
            Nanos::ZERO,
        )
        .unwrap();
        let (big_id, big_range, _) = h
            .malloc(
                ByteSize::from_mib(16),
                TierId::DDR,
                "too_big",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let occupancy_before = h.tier_occupancy(TierId::MCDRAM);
        let mapped_before = h.page_table().mapped_bytes(TierId::MCDRAM);
        let err = h.migrate_object(big_id, TierId::MCDRAM).unwrap_err();
        assert!(matches!(err, HmError::OutOfMemory { .. }), "{err}");
        // Nothing moved: placement, page table and occupancy are untouched.
        assert_eq!(h.registry().get(big_id).unwrap().tier, TierId::DDR);
        assert_eq!(h.page_table().tier_of(big_range.start), TierId::DDR);
        assert_eq!(h.tier_occupancy(TierId::MCDRAM), occupancy_before);
        assert_eq!(h.page_table().mapped_bytes(TierId::MCDRAM), mapped_before);
        // A smaller object still fits in the 8 MiB headroom afterwards.
        let (small_id, _, _) = h
            .malloc(
                ByteSize::from_mib(4),
                TierId::DDR,
                "fits",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(
            h.migrate_object(small_id, TierId::MCDRAM).unwrap(),
            ByteSize::from_mib(4)
        );
        assert_eq!(
            h.tier_occupancy(TierId::MCDRAM),
            occupancy_before + ByteSize::from_mib(4)
        );
    }

    #[test]
    fn re_migration_back_restores_mapping_and_leaks_nothing() {
        let mut h = heap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(16))
            .unwrap();
        let (id, range, _) = h
            .malloc(
                ByteSize::from_mib(8),
                TierId::DDR,
                "ping",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let ddr_mapped = h.page_table().mapped_bytes(TierId::DDR);
        // Round-trip repeatedly: the occupancy overlay must not drift, or the
        // runtime's hysteresis loop would slowly wedge the fast tier shut.
        for _ in 0..10 {
            h.migrate_object(id, TierId::MCDRAM).unwrap();
            assert_eq!(h.tier_occupancy(TierId::MCDRAM), ByteSize::from_mib(8));
            h.migrate_object(id, TierId::DDR).unwrap();
            assert_eq!(h.tier_occupancy(TierId::MCDRAM), ByteSize::ZERO);
        }
        // Original page mapping is fully restored.
        for page in range.pages() {
            assert_eq!(h.page_table().tier_of_page(page), TierId::DDR);
        }
        assert_eq!(h.page_table().mapped_bytes(TierId::DDR), ddr_mapped);
        assert_eq!(h.registry().get(id).unwrap().tier, TierId::DDR);
    }

    #[test]
    fn malloc_cannot_overcommit_a_tier_holding_migrated_objects() {
        let mut h = heap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(32))
            .unwrap();
        let (id, _, _) = h
            .malloc(
                ByteSize::from_mib(24),
                TierId::DDR,
                "migrant",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        h.migrate_object(id, TierId::MCDRAM).unwrap();
        // The MCDRAM allocator's own arena is empty, but 24 MiB of migrated
        // residency occupies the tier: a 16 MiB native allocation must be
        // refused, an 8 MiB one still fits.
        assert!(!h.fits(TierId::MCDRAM, ByteSize::from_mib(16)));
        assert!(matches!(
            h.malloc(
                ByteSize::from_mib(16),
                TierId::MCDRAM,
                "native",
                None,
                Nanos::ZERO
            ),
            Err(HmError::OutOfMemory { .. })
        ));
        h.malloc(
            ByteSize::from_mib(8),
            TierId::MCDRAM,
            "native",
            None,
            Nanos::ZERO,
        )
        .unwrap();
        assert_eq!(h.tier_occupancy(TierId::MCDRAM), ByteSize::from_mib(32));
    }

    /// Migrated-in residency counts exact bytes, the arena rounds up to 16:
    /// a malloc of exactly the remaining headroom would reserve more than
    /// the headroom and must be refused.
    #[test]
    fn malloc_of_exactly_the_headroom_is_charged_its_rounded_size() {
        let mut h = heap();
        let cap = ByteSize::from_kib(64);
        h.set_capacity_cap(TierId::MCDRAM, cap).unwrap();
        let (id, _, _) = h
            .malloc(
                ByteSize::from_bytes(100),
                TierId::DDR,
                "migrant",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        h.migrate_object(id, TierId::MCDRAM).unwrap();
        let headroom = cap - h.tier_occupancy(TierId::MCDRAM);
        assert_eq!(headroom.bytes() % 16, 12);
        assert!(!h.fits(TierId::MCDRAM, headroom));
        assert!(matches!(
            h.malloc(headroom, TierId::MCDRAM, "exact", None, Nanos::ZERO),
            Err(HmError::OutOfMemory { .. })
        ));
        let largest = ByteSize::from_bytes(headroom.bytes() / 16 * 16);
        h.malloc(largest, TierId::MCDRAM, "rounded", None, Nanos::ZERO)
            .unwrap();
        assert!(h.tier_occupancy(TierId::MCDRAM) <= cap);
    }

    #[test]
    fn freeing_a_migrated_object_releases_fast_tier_occupancy() {
        let mut h = heap();
        h.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(16))
            .unwrap();
        let (id, range, _) = h
            .malloc(
                ByteSize::from_mib(12),
                TierId::DDR,
                "hot_then_dead",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        h.migrate_object(id, TierId::MCDRAM).unwrap();
        assert!(!h.migration_admits(TierId::MCDRAM, ByteSize::from_mib(8)));
        h.free(range.start).unwrap();
        assert_eq!(h.tier_occupancy(TierId::MCDRAM), ByteSize::ZERO);
        assert!(h.migration_admits(TierId::MCDRAM, ByteSize::from_mib(8)));
        // A freed object is gone: migrating it finds nothing.
        assert!(matches!(
            h.migrate_object(id, TierId::DDR),
            Err(HmError::NotFound(_))
        ));
    }

    /// Random malloc/free/migrate on a capped MCDRAM tier: occupancy never
    /// exceeds the cap, a refused malloc or migration changes neither the
    /// occupancy nor the mapped bytes, and freeing everything returns every
    /// tier to zero.
    #[test]
    fn occupancy_stays_under_the_cap_under_random_operations() {
        let cap = ByteSize::from_mib(8);
        let mut rng = DetRng::new(0x0CC0_9A7C);
        for round in 0..10 {
            let mut h = heap();
            h.set_capacity_cap(TierId::MCDRAM, cap).unwrap();
            let mut live: Vec<(ObjectId, Address)> = Vec::new();
            for step in 0..300 {
                let at = format!("round {round} step {step}");
                let before = [TierId::DDR, TierId::MCDRAM]
                    .map(|t| (h.tier_occupancy(t), h.page_table().mapped_bytes(t)));
                let unchanged = |h: &ProcessHeap| {
                    [TierId::DDR, TierId::MCDRAM]
                        .map(|t| (h.tier_occupancy(t), h.page_table().mapped_bytes(t)))
                        == before
                };
                let tier = if rng.chance(0.5) {
                    TierId::MCDRAM
                } else {
                    TierId::DDR
                };
                match rng.uniform_range(0, 3) {
                    0 => {
                        let size = ByteSize::from_bytes(rng.uniform_range(1, 3 << 20));
                        match h.malloc(size, tier, "obj", None, Nanos::ZERO) {
                            Ok((id, range, _)) => live.push((id, range.start)),
                            Err(e) => {
                                assert!(matches!(e, HmError::OutOfMemory { .. }), "{at}: {e}");
                                assert!(unchanged(&h), "{at}: refused malloc moved state");
                            }
                        }
                    }
                    1 if !live.is_empty() => {
                        let i = rng.uniform_range(0, live.len() as u64) as usize;
                        let (id, addr) = live.swap_remove(i);
                        let (freed, _) = h.free(addr).unwrap();
                        assert_eq!(freed.id, id, "{at}");
                    }
                    _ if !live.is_empty() => {
                        let (id, _) = live[rng.uniform_range(0, live.len() as u64) as usize];
                        if let Err(e) = h.migrate_object(id, tier) {
                            assert!(matches!(e, HmError::OutOfMemory { .. }), "{at}: {e}");
                            assert!(unchanged(&h), "{at}: refused migration moved state");
                        }
                    }
                    _ => {}
                }
                assert!(h.tier_occupancy(TierId::MCDRAM) <= cap, "{at}");
            }
            for (_, addr) in live {
                h.free(addr).unwrap();
            }
            for tier in [TierId::DDR, TierId::MCDRAM] {
                assert_eq!(h.tier_occupancy(tier), ByteSize::ZERO, "round {round}");
            }
        }
    }
}
