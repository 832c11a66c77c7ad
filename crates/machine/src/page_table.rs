//! Page-granularity mapping of the simulated address space to memory tiers.
//!
//! The framework's whole purpose is to decide which pages live in which tier;
//! this structure records that decision and answers "where does this address
//! live" for both engines. `hmem_advisor` packs objects into tiers at page
//! granularity (paper §III step 3), so pages are also our unit here.
//!
//! # Representation
//!
//! Placement is decided per object, so the table stores *extents*: a `Vec`
//! of disjoint page-number ranges `[lo, hi)` sorted by `lo`, each tagged with
//! its tier; other pages belong to the default tier. Mapping or unmapping a
//! range clips or splits the extents it overlaps, merges the result with
//! same-tier neighbours and splices the vector once: a binary search and one
//! splice per object, not one write per 4 KiB page. Remapping exactly one
//! extent (object migration) retiers it in place. Per-tier footprint and the
//! mapped-page count move by whole extent overlaps.
//!
//! A lookup is a binary search. The trace engine's one-entry translation
//! cache (a TLB analogue, keyed by [`PageTable::translation_key`]) holds the
//! whole extent or gap [`PageTable::extent_of_page`] returns, so a sweep
//! translates once per same-tier run of objects, not once per page.

use hmsim_common::{AddressRange, ByteSize, Page, TierId, PAGE_SIZE};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of per-instance identifiers, so engine-side translation
/// caches can tell two page tables (or a table and its clone) apart.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// Pages `[lo, hi)` explicitly mapped to `tier`.
#[derive(Clone, Copy, Debug, Default)]
struct Extent {
    lo: u64,
    hi: u64,
    tier: TierId,
}

/// The extent `[lo, hi)` in `tier`, unless it is empty.
fn extent(lo: u64, hi: u64, tier: TierId) -> Option<Extent> {
    (lo < hi).then_some(Extent { lo, hi, tier })
}

/// Maps pages to tiers, with a default tier for unmapped pages.
#[derive(Debug)]
pub struct PageTable {
    default_tier: TierId,
    /// Disjoint and sorted by `lo`.
    extents: Vec<Extent>,
    /// Bytes mapped per tier (page-granular accounting), indexed by tier id.
    footprint: Vec<u64>,
    /// Unique instance id (fresh per construction and per clone).
    table_id: u64,
    /// Bumped on every mutation; see [`translation_key`](Self::translation_key).
    epoch: u64,
}

impl Clone for PageTable {
    fn clone(&self) -> Self {
        PageTable {
            default_tier: self.default_tier,
            extents: self.extents.clone(),
            footprint: self.footprint.clone(),
            // A clone can diverge from the original, so it gets its own
            // identity: cached translations for the original must not apply.
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
        }
    }
}

impl PageTable {
    /// Create a page table whose unmapped pages belong to `default_tier`
    /// (normally DDR).
    pub fn new(default_tier: TierId) -> Self {
        PageTable {
            default_tier,
            extents: Vec::new(),
            footprint: Vec::new(),
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: 0,
        }
    }

    /// The default tier for unmapped pages.
    pub fn default_tier(&self) -> TierId {
        self.default_tier
    }

    /// Identity + mutation counter of this table. A cached translation is
    /// valid exactly as long as this key is unchanged.
    pub fn translation_key(&self) -> (u64, u64) {
        (self.table_id, self.epoch)
    }

    fn footprint_slot(&mut self, tier: TierId) -> &mut u64 {
        let idx = tier.index();
        if idx >= self.footprint.len() {
            self.footprint.resize(idx + 1, 0);
        }
        &mut self.footprint[idx]
    }

    /// Map every page covered by `range` (the pages [`AddressRange::pages`]
    /// yields) to `tier`; a page shared with another object goes to the last
    /// writer.
    pub fn map_range(&mut self, range: AddressRange, tier: TierId) {
        self.epoch += 1;
        let pages = range.page_span();
        let hit = self.overlapping(&pages);
        match &mut self.extents[hit.clone()] {
            // Exact remap (object migration): retier in place.
            [e] if e.lo == pages.start && e.hi == pages.end => {
                let old = std::mem::replace(&mut e.tier, tier);
                *self.footprint_slot(old) -= (pages.end - pages.start) * PAGE_SIZE;
                *self.footprint_slot(tier) += (pages.end - pages.start) * PAGE_SIZE;
            }
            _ => self.replace(hit, &pages, Some(tier)),
        }
    }

    /// Remove the explicit mapping of every page in `range` (they fall back
    /// to the default tier). Pages shared with another object are cleared
    /// too.
    pub fn unmap_range(&mut self, range: AddressRange) {
        self.epoch += 1;
        let pages = range.page_span();
        self.replace(self.overlapping(&pages), &pages, None);
    }

    /// Indices of the extents intersecting `pages`.
    fn overlapping(&self, pages: &Range<u64>) -> Range<usize> {
        let start = self.extents.partition_point(|e| e.hi <= pages.start);
        let len = self.extents[start..].partition_point(|e| e.lo < pages.end);
        start..start + len
    }

    /// Cut `pages` out of the extents at `hit`, keeping what lies outside
    /// it, and map the hole to `tier` (or leave it unmapped). Touching
    /// extents of one tier around the hole merge, so a run of same-tier
    /// objects translates as one extent.
    fn replace(&mut self, hit: Range<usize>, pages: &Range<u64>, tier: Option<TierId>) {
        for i in hit.clone() {
            let e = self.extents[i];
            *self.footprint_slot(e.tier) -=
                (e.hi.min(pages.end) - e.lo.max(pages.start)) * PAGE_SIZE;
        }
        if let Some(tier) = tier {
            *self.footprint_slot(tier) += (pages.end - pages.start) * PAGE_SIZE;
        }
        let around = hit.start.saturating_sub(1)..(hit.end + 1).min(self.extents.len());
        let old = &self.extents[hit.clone()];
        let pieces = [
            self.extents[around.start..hit.start].first().copied(),
            old.first().and_then(|e| extent(e.lo, pages.start, e.tier)),
            tier.and_then(|t| extent(pages.start, pages.end, t)),
            old.last().and_then(|e| extent(pages.end, e.hi, e.tier)),
            self.extents[hit.end..around.end].first().copied(),
        ];
        // A fixed buffer: this runs for every allocation and migration.
        let (mut merged, mut n) = ([Extent::default(); 5], 0);
        for e in pieces.into_iter().flatten() {
            match merged[..n].last_mut() {
                Some(m) if m.hi == e.lo && m.tier == e.tier => m.hi = e.hi,
                _ => {
                    merged[n] = e;
                    n += 1;
                }
            }
        }
        self.extents.splice(around, merged[..n].iter().copied());
    }

    /// The tier a page currently lives in.
    #[inline]
    pub fn tier_of_page(&self, page: Page) -> TierId {
        self.extent_of_page(page).2
    }

    /// The run of pages around `page` that translate alike, as page numbers
    /// `[lo, hi)` plus their tier: the mapped extent holding `page`, or else
    /// the unmapped gap between its neighbouring extents (default tier).
    #[inline]
    pub fn extent_of_page(&self, page: Page) -> (u64, u64, TierId) {
        let next = self.extents.partition_point(|e| e.lo <= page.0);
        let prev = next.checked_sub(1).map(|i| self.extents[i]);
        match prev {
            Some(e) if e.hi > page.0 => (e.lo, e.hi, e.tier),
            _ => (
                prev.map_or(0, |e| e.hi),
                self.extents.get(next).map_or(u64::MAX, |e| e.lo),
                self.default_tier,
            ),
        }
    }

    /// The tier the page containing `addr` lives in.
    #[inline]
    pub fn tier_of(&self, addr: hmsim_common::Address) -> TierId {
        self.tier_of_page(addr.page())
    }

    /// Bytes explicitly mapped to `tier` (page-granular; excludes the default
    /// tier's implicit coverage).
    pub fn mapped_bytes(&self, tier: TierId) -> ByteSize {
        ByteSize::from_bytes(self.footprint.get(tier.index()).copied().unwrap_or(0))
    }

    /// Number of explicitly mapped pages.
    pub fn mapped_pages(&self) -> usize {
        (self.footprint.iter().sum::<u64>() / PAGE_SIZE) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::{Address, ByteSize, PAGE_SIZE};

    #[test]
    fn unmapped_addresses_use_default_tier() {
        let pt = PageTable::new(TierId::DDR);
        assert_eq!(pt.tier_of(Address(0x1234)), TierId::DDR);
        assert_eq!(pt.default_tier(), TierId::DDR);
    }

    #[test]
    fn mapping_a_range_covers_all_its_pages() {
        let mut pt = PageTable::new(TierId::DDR);
        let range = AddressRange::new(Address(PAGE_SIZE / 2), ByteSize::from_bytes(PAGE_SIZE * 2));
        pt.map_range(range, TierId::MCDRAM);
        assert_eq!(pt.tier_of(Address(PAGE_SIZE / 2)), TierId::MCDRAM);
        assert_eq!(pt.tier_of(Address(PAGE_SIZE + 5)), TierId::MCDRAM);
        assert_eq!(pt.tier_of(Address(PAGE_SIZE * 2 + 1)), TierId::MCDRAM);
        assert_eq!(pt.tier_of(Address(PAGE_SIZE * 4)), TierId::DDR);
    }

    #[test]
    fn footprint_accounting_tracks_mapping_and_unmapping() {
        let mut pt = PageTable::new(TierId::DDR);
        let range = AddressRange::new(Address(0), ByteSize::from_bytes(PAGE_SIZE * 3));
        pt.map_range(range, TierId::MCDRAM);
        assert_eq!(
            pt.mapped_bytes(TierId::MCDRAM),
            ByteSize::from_bytes(PAGE_SIZE * 3)
        );
        pt.unmap_range(AddressRange::new(
            Address(0),
            ByteSize::from_bytes(PAGE_SIZE),
        ));
        assert_eq!(
            pt.mapped_bytes(TierId::MCDRAM),
            ByteSize::from_bytes(PAGE_SIZE * 2)
        );
        assert_eq!(pt.mapped_pages(), 2);
    }

    /// The `n` pages starting at page `lo`.
    fn pages(lo: u64, n: u64) -> AddressRange {
        AddressRange::new(Page(lo).base(), ByteSize::from_bytes(n * PAGE_SIZE))
    }

    #[test]
    fn remapping_moves_footprint_between_tiers() {
        let mut pt = PageTable::new(TierId::DDR);
        pt.map_range(pages(7, 1), TierId::DDR);
        pt.map_range(pages(7, 1), TierId::MCDRAM);
        assert_eq!(pt.mapped_bytes(TierId::MCDRAM).bytes(), PAGE_SIZE);
        assert_eq!(pt.mapped_bytes(TierId::DDR).bytes(), 0);
        // Re-mapping to the same tier is a no-op for accounting.
        pt.map_range(pages(7, 1), TierId::MCDRAM);
        assert_eq!(pt.mapped_bytes(TierId::MCDRAM).bytes(), PAGE_SIZE);
    }

    #[test]
    fn mapping_inside_an_extent_splits_it() {
        let mut pt = PageTable::new(TierId::DDR);
        let range = AddressRange::new(Address(0), ByteSize::from_bytes(PAGE_SIZE * 8));
        pt.map_range(range, TierId::MCDRAM);
        pt.map_range(pages(3, 1), TierId(2));
        assert_eq!(pt.extent_of_page(Page(2)), (0, 3, TierId::MCDRAM));
        assert_eq!(pt.extent_of_page(Page(3)), (3, 4, TierId(2)));
        assert_eq!(pt.extent_of_page(Page(4)), (4, 8, TierId::MCDRAM));
        assert_eq!(pt.mapped_bytes(TierId::MCDRAM).bytes(), PAGE_SIZE * 7);
        assert_eq!(pt.mapped_bytes(TierId(2)).bytes(), PAGE_SIZE);
        assert_eq!(pt.mapped_pages(), 8);
        // Unmapping across the split clears all three pieces it touches.
        pt.unmap_range(AddressRange::new(
            Address(PAGE_SIZE * 2),
            ByteSize::from_bytes(PAGE_SIZE * 3),
        ));
        assert_eq!(pt.extent_of_page(Page(1)), (0, 2, TierId::MCDRAM));
        assert_eq!(pt.extent_of_page(Page(3)), (2, 5, TierId::DDR));
        assert_eq!(pt.extent_of_page(Page(5)), (5, 8, TierId::MCDRAM));
        assert_eq!(pt.extent_of_page(Page(9)), (8, u64::MAX, TierId::DDR));
        assert_eq!(pt.mapped_bytes(TierId(2)).bytes(), 0);
        assert_eq!(pt.mapped_pages(), 5);
    }

    #[test]
    fn adjacent_same_tier_ranges_merge_into_one_extent() {
        let mut pt = PageTable::new(TierId::DDR);
        pt.map_range(pages(0, 2), TierId::DDR);
        pt.map_range(pages(4, 2), TierId::DDR);
        pt.map_range(pages(2, 2), TierId::DDR);
        assert_eq!(pt.extent_of_page(Page(3)), (0, 6, TierId::DDR));
        pt.map_range(pages(2, 2), TierId::MCDRAM);
        assert_eq!(pt.extent_of_page(Page(1)), (0, 2, TierId::DDR));
        assert_eq!(pt.extent_of_page(Page(3)), (2, 4, TierId::MCDRAM));
        assert_eq!(pt.extent_of_page(Page(5)), (4, 6, TierId::DDR));
        assert_eq!(pt.mapped_bytes(TierId::DDR).bytes(), PAGE_SIZE * 4);
        assert_eq!(pt.mapped_pages(), 6);
    }

    #[test]
    fn sub_page_objects_share_their_page_with_the_last_writer() {
        let mut pt = PageTable::new(TierId::DDR);
        let a = AddressRange::new(Address(0), ByteSize::from_bytes(100));
        let b = AddressRange::new(Address(100), ByteSize::from_bytes(0));
        pt.map_range(a, TierId::MCDRAM);
        pt.map_range(b, TierId(2));
        assert_eq!(pt.tier_of_page(Page(0)), TierId(2));
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.mapped_bytes(TierId::MCDRAM).bytes(), 0);
        pt.unmap_range(a);
        assert_eq!(pt.tier_of_page(Page(0)), TierId::DDR);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn translation_key_changes_on_mutation_and_differs_per_clone() {
        let mut pt = PageTable::new(TierId::DDR);
        let k0 = pt.translation_key();
        pt.map_range(pages(1, 1), TierId::MCDRAM);
        let k1 = pt.translation_key();
        assert_ne!(k0, k1);

        let clone = pt.clone();
        assert_ne!(clone.translation_key().0, pt.translation_key().0);
        // Clone still answers identically.
        assert_eq!(clone.tier_of_page(Page(1)), TierId::MCDRAM);
        assert_eq!(clone.mapped_pages(), 1);
        assert_eq!(clone.mapped_bytes(TierId::MCDRAM).bytes(), PAGE_SIZE);
    }

    #[test]
    fn unmap_of_an_unmapped_range_is_a_noop() {
        let mut pt = PageTable::new(TierId::DDR);
        pt.unmap_range(AddressRange::new(Address(0), ByteSize::from_mib(64)));
        assert_eq!(pt.mapped_pages(), 0);
        assert_eq!(pt.mapped_bytes(TierId::DDR).bytes(), 0);
    }
}
