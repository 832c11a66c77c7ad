//! Algorithm 1: the interposed `malloc`.

use hmem_advisor::PlacementReport;
use hmsim_callstack::{SiteCache, SiteKey, Translator, Unwinder};
use hmsim_common::{Address, AddressRange, ByteSize, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::{AllocCostModel, ProcessHeap};

/// Book-keeping of one interposed run (per allocator and overall), matching
/// the metrics the paper says the library captures "upon user request".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct InterpositionStats {
    /// Allocations routed to the alternate (MCDRAM) allocator.
    pub promoted_allocations: u64,
    /// Allocations that matched the report but did not fit under the budget.
    pub did_not_fit: u64,
    /// Allocations served by the default allocator.
    pub default_allocations: u64,
    /// Allocations that skipped all inspection thanks to the size pre-filter.
    pub size_filtered: u64,
    /// Decision-cache hits.
    pub cache_hits: u64,
    /// Decision-cache misses (full unwind + translate path taken).
    pub cache_misses: u64,
    /// Accumulated interposition CPU overhead (unwind, translate, lookups).
    pub overhead_ns: f64,
    /// Bytes currently promoted to the alternate allocator.
    pub promoted_bytes: u64,
    /// High-water mark of promoted bytes.
    pub promoted_hwm: u64,
}

impl InterpositionStats {
    /// The interposition overhead as a `Nanos` duration.
    pub fn overhead(&self) -> Nanos {
        Nanos(self.overhead_ns)
    }
}

/// The auto-hbwmalloc interposition library.
pub struct AutoHbwMalloc {
    report: PlacementReport,
    unwinder: Unwinder,
    translator: Translator,
    cache: SiteCache,
    /// Budget for the alternate allocator (the advisor's memory limit);
    /// `None` lets the heap's own capacity cap decide.
    budget: Option<ByteSize>,
    stats: InterpositionStats,
}

impl AutoHbwMalloc {
    /// Create the interposition library for a process whose call-stacks are
    /// produced by `unwinder`/`translator`, honouring `report`.
    pub fn new(report: PlacementReport, unwinder: Unwinder, translator: Translator) -> Self {
        AutoHbwMalloc {
            report,
            unwinder,
            translator,
            cache: SiteCache::default(),
            budget: None,
            stats: InterpositionStats::default(),
        }
    }

    /// Cap the amount of memory the library will place in the fast tier.
    pub fn with_budget(mut self, budget: ByteSize) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The statistics gathered so far.
    pub fn stats(&self) -> InterpositionStats {
        self.stats
    }

    /// The placement report in force.
    pub fn report(&self) -> &PlacementReport {
        &self.report
    }

    fn fits_budget(&self, heap: &ProcessHeap, size: ByteSize) -> bool {
        let heap_ok = heap.fits(TierId::MCDRAM, size);
        match self.budget {
            Some(budget) => {
                heap_ok && ByteSize::from_bytes(self.stats.promoted_bytes) + size <= budget
            }
            None => heap_ok,
        }
    }

    /// The interposed `malloc` (Algorithm 1). `logical_stack` is the
    /// application's call-path to the allocation call (outermost first),
    /// which the simulated unwinder converts into raw return addresses.
    ///
    /// `canonical_site` is the ASLR-independent site key of that call-path
    /// when the caller already knows it; the object records it as its site.
    /// Without one, the library derives the key with a second unwind and
    /// translate. Either way the placement decision and the modelled
    /// overhead come from Algorithm 1's own unwind, cache lookup and
    /// on-miss translate.
    ///
    /// Returns the object id, its address range, and the *total* CPU cost of
    /// the call (allocator cost plus interposition overhead).
    pub fn malloc(
        &mut self,
        heap: &mut ProcessHeap,
        size: ByteSize,
        name: &str,
        logical_stack: &[&str],
        canonical_site: Option<&SiteKey>,
        now: Nanos,
    ) -> HmResult<(ObjectId, AddressRange, Nanos)> {
        let mut overhead = Nanos::ZERO;
        let mut promote = false;

        // Line 3: size pre-filter.
        let within_size_window = (size >= self.report.lb_size && size <= self.report.ub_size)
            || self.report.ub_size.is_zero();
        if within_size_window && !self.report.entries.is_empty() {
            // Line 4: unwind.
            let (raw_stack, unwind_cost) = self.unwinder.unwind(logical_stack)?;
            overhead += unwind_cost;
            // Line 5: cache search.
            match self.cache.lookup(&raw_stack) {
                Some(decision) => {
                    self.stats.cache_hits += 1;
                    overhead += Nanos::from_micros(0.15);
                    promote = decision;
                }
                None => {
                    self.stats.cache_misses += 1;
                    // Line 7: translate.
                    let (translated, translate_cost) = self.translator.translate(&raw_stack);
                    overhead += translate_cost;
                    // Line 8: match against the report.
                    promote = self.report.tier_for_site(&translated.site_key()).is_some();
                    // Line 9: annotate the cache.
                    self.cache.annotate(&raw_stack, promote);
                }
            }
        } else {
            self.stats.size_filtered += 1;
        }

        self.stats.overhead_ns += overhead.nanos();

        // Lines 11-18: allocate from the alternate allocator if selected and
        // it fits; otherwise fall back to the default allocator.
        let site = match canonical_site {
            Some(site) => site.clone(),
            None => self.site_key_of(logical_stack)?,
        };
        if promote {
            if self.fits_budget(heap, size) {
                let (id, range, alloc_cost) =
                    heap.malloc(size, TierId::MCDRAM, name, Some(site), now)?;
                // Promoted allocations go through memkind's hbw_malloc, which
                // is costlier than glibc (dramatically so in the 1-2 MiB
                // anomaly window the paper reports).
                let memkind_surcharge = AllocCostModel::memkind_surcharge(size);
                self.stats.overhead_ns += memkind_surcharge.nanos();
                self.stats.promoted_allocations += 1;
                self.stats.promoted_bytes += size.bytes();
                self.stats.promoted_hwm = self.stats.promoted_hwm.max(self.stats.promoted_bytes);
                return Ok((id, range, alloc_cost + overhead + memkind_surcharge));
            }
            self.stats.did_not_fit += 1;
        }

        // Lines 20-23: default (DDR) path.
        let (id, range, alloc_cost) = heap.malloc(size, TierId::DDR, name, Some(site), now)?;
        self.stats.default_allocations += 1;
        Ok((id, range, alloc_cost + overhead))
    }

    /// The interposed `free`: routes the call to whichever allocator owns the
    /// pointer (the library "keep\[s\] a relation of which allocations have
    /// been done by the alternate allocators"). Returns the CPU cost of the
    /// call.
    pub fn free(&mut self, heap: &mut ProcessHeap, addr: Address) -> HmResult<Nanos> {
        let (freed, cost) = heap.free(addr)?;
        if freed.tier == TierId::MCDRAM {
            self.stats.promoted_bytes = self
                .stats
                .promoted_bytes
                .saturating_sub(freed.size().bytes());
        }
        Ok(cost)
    }

    fn site_key_of(&self, logical_stack: &[&str]) -> HmResult<SiteKey> {
        let (raw, _) = self.unwinder.unwind(logical_stack)?;
        let (translated, _) = self.translator.translate(&raw);
        Ok(translated.site_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmem_advisor::{MemorySpec, PlacementReport, SelectionEntry, SelectionStrategy};
    use hmsim_callstack::{AslrLayout, ProgramImage};
    use hmsim_common::DetRng;
    use hmsim_heap::ProcessHeap;
    use hmsim_machine::MachineConfig;

    const KERNELS: &[&str] = &["alloc_matrix", "alloc_vectors", "alloc_workspace"];

    fn setup(selected: &[(&str, u64)], budget_mib: u64) -> (AutoHbwMalloc, ProcessHeap) {
        let image = ProgramImage::synthetic_hpc_app("app.x", KERNELS);
        let aslr = AslrLayout::randomized(&image, &mut DetRng::new(17));
        let unwinder = Unwinder::new(image.clone(), aslr.clone());
        let translator = Translator::new(image, aslr);

        // Build the report with the *translated* site keys the unwinder will
        // produce for ["main", <fn>, "malloc"].
        let entries: Vec<SelectionEntry> = selected
            .iter()
            .map(|(f, mib)| {
                let (raw, _) = unwinder.unwind(&["main", f, "malloc"]).unwrap();
                let (tr, _) = translator.translate(&raw);
                SelectionEntry {
                    name: f.to_string(),
                    site: Some(tr.site_key()),
                    tier: TierId::MCDRAM,
                    tier_name: "MCDRAM".to_string(),
                    size: ByteSize::from_mib(*mib),
                    llc_misses: 1_000_000,
                    automatic: true,
                }
            })
            .collect();
        let sizes: Vec<ByteSize> = entries.iter().map(|e| e.size).collect();
        let report = PlacementReport {
            application: "test".to_string(),
            strategy: SelectionStrategy::Density,
            memspec: MemorySpec::knl_budget(ByteSize::from_mib(budget_mib)),
            entries,
            lb_size: sizes.iter().copied().min().unwrap_or(ByteSize::ZERO),
            ub_size: sizes.iter().copied().max().unwrap_or(ByteSize::ZERO),
        };
        let lib = AutoHbwMalloc::new(report, unwinder, translator)
            .with_budget(ByteSize::from_mib(budget_mib));
        let mut heap = ProcessHeap::new(&MachineConfig::knl_7250()).unwrap();
        heap.set_capacity_cap(TierId::MCDRAM, ByteSize::from_mib(budget_mib))
            .unwrap();
        (lib, heap)
    }

    #[test]
    fn selected_sites_are_promoted_and_others_are_not() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 64)], 256);
        let (_, range, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "matrix",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::MCDRAM);

        let (_, range2, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "other",
                &["main", "alloc_vectors", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range2.start), TierId::DDR);

        let s = lib.stats();
        assert_eq!(s.promoted_allocations, 1);
        assert_eq!(s.default_allocations, 1);
        assert_eq!(s.promoted_bytes, ByteSize::from_mib(64).bytes());
    }

    #[test]
    fn a_given_site_key_is_recorded_and_the_decision_cost_is_unchanged() {
        let stack = &["main", "alloc_matrix", "malloc"];
        let (mut derived, mut heap) = setup(&[("alloc_matrix", 8)], 1024);
        let (id, ..) = derived
            .malloc(
                &mut heap,
                ByteSize::from_mib(8),
                "m",
                stack,
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let key = heap.registry().get(id).unwrap().site.clone().unwrap();
        assert_eq!(key, derived.report().entries[0].site.clone().unwrap());

        let (mut given, mut heap) = setup(&[("alloc_matrix", 8)], 1024);
        let label = SiteKey::from_text("caller!label+0x1");
        let (id, ..) = given
            .malloc(
                &mut heap,
                ByteSize::from_mib(8),
                "m",
                stack,
                Some(&label),
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.registry().get(id).unwrap().site.as_ref(), Some(&label));
        // The placement and its modelled cost still come from Algorithm 1.
        assert_eq!(given.stats(), derived.stats());
        assert_eq!(given.stats().promoted_allocations, 1);
    }

    #[test]
    fn decision_cache_avoids_repeated_translation() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 8)], 1024);
        for i in 0..10 {
            lib.malloc(
                &mut heap,
                ByteSize::from_mib(8),
                &format!("m{i}"),
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        }
        let s = lib.stats();
        assert_eq!(s.cache_misses, 1, "only the first call translates");
        assert_eq!(s.cache_hits, 9);
        assert_eq!(s.promoted_allocations, 10);
    }

    #[test]
    fn budget_limits_promotion_and_counts_misfits() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 64)], 100);
        // Two 64 MiB allocations from the selected site: the second does not
        // fit in the 100 MiB budget and falls back to DDR.
        let (_, r1, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "a",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let (_, r2, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "b",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(r1.start), TierId::MCDRAM);
        assert_eq!(heap.page_table().tier_of(r2.start), TierId::DDR);
        assert_eq!(lib.stats().did_not_fit, 1);
        assert_eq!(lib.stats().promoted_hwm, ByteSize::from_mib(64).bytes());
    }

    #[test]
    fn freeing_promoted_memory_releases_budget() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 64)], 100);
        let (_, r1, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "a",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        lib.free(&mut heap, r1.start).unwrap();
        // Budget is available again: the next allocation is promoted.
        let (_, r2, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(64),
                "b",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::from_millis(2.0),
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(r2.start), TierId::MCDRAM);
        assert_eq!(lib.stats().did_not_fit, 0);
    }

    #[test]
    fn size_filter_skips_inspection_outside_the_window() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 64)], 1024);
        // 4 KiB allocation: well below lb_size (64 MiB), skipped entirely.
        let (_, range, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_kib(4),
                "tiny",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::DDR);
        assert_eq!(lib.stats().size_filtered, 1);
        assert_eq!(lib.stats().cache_misses, 0, "no unwind happened");
    }

    #[test]
    fn overhead_accumulates_and_is_larger_on_cache_misses() {
        let (mut lib, mut heap) = setup(&[("alloc_matrix", 8)], 1024);
        lib.malloc(
            &mut heap,
            ByteSize::from_mib(8),
            "a",
            &["main", "alloc_matrix", "malloc"],
            None,
            Nanos::ZERO,
        )
        .unwrap();
        let after_miss = lib.stats().overhead_ns;
        lib.malloc(
            &mut heap,
            ByteSize::from_mib(8),
            "b",
            &["main", "alloc_matrix", "malloc"],
            None,
            Nanos::ZERO,
        )
        .unwrap();
        let after_hit = lib.stats().overhead_ns - after_miss;
        assert!(
            after_miss > after_hit,
            "miss {after_miss} vs hit {after_hit}"
        );
        assert!(lib.stats().overhead() > Nanos::ZERO);
    }

    #[test]
    fn empty_report_routes_everything_to_ddr_without_overhead() {
        let (mut lib, mut heap) = setup(&[], 256);
        let (_, range, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(16),
                "x",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::DDR);
        assert_eq!(lib.stats().cache_misses, 0);
        assert_eq!(lib.stats().promoted_allocations, 0);
    }

    #[test]
    fn report_sites_match_across_different_aslr_layouts() {
        // Build the report under one ASLR layout and the library under a
        // different one: translation must still match the site.
        let image = ProgramImage::synthetic_hpc_app("app.x", KERNELS);
        let aslr_profile = AslrLayout::randomized(&image, &mut DetRng::new(100));
        let unwinder_p = Unwinder::new(image.clone(), aslr_profile.clone());
        let translator_p = Translator::new(image.clone(), aslr_profile);
        let (raw, _) = unwinder_p
            .unwind(&["main", "alloc_matrix", "malloc"])
            .unwrap();
        let (tr, _) = translator_p.translate(&raw);
        let profiled_site: SiteKey = tr.site_key();

        let report = PlacementReport {
            application: "x".to_string(),
            strategy: SelectionStrategy::Density,
            memspec: MemorySpec::knl_budget(ByteSize::from_mib(256)),
            entries: vec![SelectionEntry {
                name: "matrix".to_string(),
                site: Some(profiled_site),
                tier: TierId::MCDRAM,
                tier_name: "MCDRAM".to_string(),
                size: ByteSize::from_mib(32),
                llc_misses: 1,
                automatic: true,
            }],
            lb_size: ByteSize::from_mib(32),
            ub_size: ByteSize::from_mib(32),
        };

        let aslr_run = AslrLayout::randomized(&image, &mut DetRng::new(999));
        let unwinder_r = Unwinder::new(image.clone(), aslr_run.clone());
        let translator_r = Translator::new(image, aslr_run);
        let mut lib = AutoHbwMalloc::new(report, unwinder_r, translator_r);
        let mut heap = ProcessHeap::new(&MachineConfig::knl_7250()).unwrap();
        let (_, range, _) = lib
            .malloc(
                &mut heap,
                ByteSize::from_mib(32),
                "matrix",
                &["main", "alloc_matrix", "malloc"],
                None,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(heap.page_table().tier_of(range.start), TierId::MCDRAM);
    }
}
