//! Trace-driven execution engine.
//!
//! Pushes every simulated memory access through an L1 → L2 (LLC) hierarchy;
//! LLC misses are served by the memory tier owning the page. The engine
//! simulates flat mode only: MCDRAM cache mode is costed by the analytic
//! engine ([`crate::analytic`]), and [`TraceEngine::new`] refuses a
//! cache-mode machine. The engine accumulates [`PerfCounters`], per-tier
//! traffic and an execution-time estimate, and can invoke a callback on
//! every LLC miss so the PEBS sampler and the profiler can observe the miss
//! stream exactly the way the hardware exposes it.
//!
//! # Hot path
//!
//! `access_with` runs once per simulated memory access — billions of times in
//! a paper-scale sweep. It is the engine's one per-access path: it books
//! each access's counters and charges as it goes, and `run_stream` is a
//! plain loop over it, so every caller accumulates bit-identical statistics.
//! Everything it touches is allocation-free and array-indexed:
//!
//! * consecutive touches of one cache line (the common case of a sweep)
//!   short-circuit through each cache's one-line buffer;
//! * page→tier translation goes through a one-entry last-translation cache (a
//!   TLB analogue, validated against [`PageTable::translation_key`]) holding
//!   the whole page extent around the last miss, before falling back to the
//!   page table's binary search;
//! * per-tier traffic lives in a fixed two-entry [`TierTraffic`] array
//!   indexed by [`TierId`], not a `HashMap`;
//! * the miss charges of the two tiers are precomputed at engine
//!   construction into a two-entry table, as are the reciprocal
//!   MLP/frequency factors.

use crate::access::{AccessKind, MemoryAccess};
use crate::bandwidth::BandwidthModel;
use crate::cache::{CacheConfig, SetAssocCache};
use crate::config::{MachineConfig, MemoryMode};
use crate::counters::PerfCounters;
use crate::page_table::PageTable;
use hmsim_common::{Address, Nanos, Page, TierId};

/// Bytes of traffic served by each memory tier, held in a fixed array indexed
/// by [`TierId`] (DDR, MCDRAM) so the per-miss update is a single indexed add.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierTraffic {
    bytes: [u64; 2],
}

impl TierTraffic {
    /// Bytes served by `tier` so far (0 for an id other than DDR or MCDRAM).
    pub fn bytes(&self, tier: TierId) -> u64 {
        self.bytes.get(tier.index()).copied().unwrap_or(0)
    }

    /// Record `bytes` of traffic to `tier`, which is DDR or MCDRAM.
    #[inline]
    pub fn add(&mut self, tier: TierId, bytes: u64) {
        self.bytes[tier.index()] += bytes;
    }

    /// Total bytes over all tiers.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Iterate over the tiers that saw traffic.
    pub fn iter(&self) -> impl Iterator<Item = (TierId, u64)> + '_ {
        self.bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, b)| (TierId::from_index(i), *b))
    }
}

/// Statistics accumulated by the trace engine.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Performance counters over the simulated interval.
    pub counters: PerfCounters,
    /// Bytes of traffic served by each memory tier.
    pub tier_traffic: TierTraffic,
    /// Estimated execution time of the access stream on one core.
    pub time: Nanos,
}

/// Precomputed cost of one access at a given service level. Latencies are
/// constants per level/tier, so the whole effective-time / cycle computation
/// (MLP overlap, frequency conversion, truncation, the `max(1)` floor) runs
/// once at engine construction instead of once per access; the per-access
/// charge collapses to one f64 add and one or two integer adds, with results
/// bit-identical to the per-access computation.
#[derive(Clone, Copy, Debug)]
struct Charge {
    /// Effective (overlap-adjusted) nanoseconds added to the time estimate.
    time_ns: f64,
    /// Truncated cycle count before the `max(1)` floor (what stalls charge).
    cycles_raw: u64,
    /// Cycle count with the `max(1)` floor applied (what `cycles` charges).
    cycles: u64,
}

impl Charge {
    fn new(latency: Nanos, overlap_divisor: f64, frequency_hz: f64) -> Self {
        let time_ns = latency.nanos() / overlap_divisor;
        // Use the exact historical expression `effective.secs() * frequency`
        // (not an algebraically equivalent reordering): f64 truncation is
        // sensitive to association, and the equivalence gates assert
        // bit-identical cycle counters against the seed formula.
        let cycles_raw = (time_ns / 1e9 * frequency_hz) as u64;
        Charge {
            time_ns,
            cycles_raw,
            cycles: cycles_raw.max(1),
        }
    }
}

/// Instructions charged per memory access (models the surrounding
/// arithmetic).
const INSTRUCTIONS_PER_ACCESS: u64 = 2;

/// The trace-driven engine simulating one core's cache hierarchy.
pub struct TraceEngine {
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// Bytes each LLC miss moves from its memory tier.
    line_size: u64,
    stats: EngineStats,
    /// One-entry last-translation cache: (page table identity key, page
    /// extent `[lo, hi)`, tier). Invalidated whenever the page table mutates
    /// or a different table is passed in.
    tlb: Option<((u64, u64), u64, u64, TierId)>,
    /// L1-hit charge, precomputed.
    l1_charge: Charge,
    /// LLC-hit charge, precomputed.
    l2_charge: Charge,
    /// Miss charge of the serving tier, indexed by `TierId` (DDR, MCDRAM),
    /// precomputed.
    mem_charge: [Charge; 2],
}

impl TraceEngine {
    /// Create an engine for the given flat-mode machine.
    ///
    /// # Panics
    ///
    /// If the machine runs MCDRAM in cache mode: the trace engine simulates
    /// flat mode only, and cache mode is costed by the analytic engine.
    pub fn new(config: &MachineConfig) -> Self {
        assert!(
            config.memory_mode == MemoryMode::Flat,
            "the trace engine simulates flat-mode machines only; \
             cost cache mode with the analytic engine"
        );
        let l1 = SetAssocCache::new(CacheConfig::new(
            config.l1_size,
            config.line_size,
            config.l1_ways,
        ));
        let l2 = SetAssocCache::new(CacheConfig::new(
            config.l2_size,
            config.line_size,
            config.l2_ways,
        ));

        let bandwidth = BandwidthModel::new(config);
        // Cache-level latencies are mostly hidden by out-of-order execution
        // and pipelining (charge a quarter); memory latency is overlapped by
        // MLP. Mirrors the historical per-access `charge_time`.
        let cache_charge = |l: Nanos| Charge::new(l, 4.0, config.frequency_hz);
        let mem_charge_of = |l: Nanos| Charge::new(l, config.mlp, config.frequency_hz);

        TraceEngine {
            l1,
            l2,
            line_size: config.line_size,
            stats: EngineStats::default(),
            tlb: None,
            l1_charge: cache_charge(config.l1_latency),
            l2_charge: cache_charge(config.l2_latency),
            mem_charge: [
                mem_charge_of(bandwidth.latency(&config.ddr)),
                mem_charge_of(bandwidth.latency(&config.mcdram)),
            ],
        }
    }

    /// Translate `addr` through the one-entry TLB, falling back to the page
    /// table's extent lookup.
    #[inline]
    fn translate(&mut self, addr: Address, page_table: &PageTable) -> TierId {
        let page = addr.page();
        let key = page_table.translation_key();
        if let Some((k, lo, hi, tier)) = self.tlb {
            if k == key && (lo..hi).contains(&page.0) {
                return tier;
            }
        }
        self.refill_tlb(page, page_table)
    }

    /// TLB miss: cache the extent around `page`. Kept out of line so the
    /// hit path stays small inside the per-access loops.
    #[cold]
    #[inline(never)]
    fn refill_tlb(&mut self, page: Page, page_table: &PageTable) -> TierId {
        let (lo, hi, tier) = page_table.extent_of_page(page);
        self.tlb = Some((page_table.translation_key(), lo, hi, tier));
        tier
    }

    /// Process one access, invoking `on_llc_miss` with the address whenever
    /// the access misses the LLC (this is the hook the PEBS sampler uses).
    /// `page_table` supplies the placement: an LLC miss is served by the
    /// tier owning the page.
    ///
    /// This is the engine's only per-access path: every counter and charge
    /// of an access is booked here, as it happens, so any loop over it (see
    /// [`run_stream`](Self::run_stream)) accumulates identical statistics.
    #[inline]
    pub fn access_with<F: FnMut(Address)>(
        &mut self,
        acc: &MemoryAccess,
        page_table: &PageTable,
        mut on_llc_miss: F,
    ) {
        let is_store = acc.kind == AccessKind::Store;
        let c = &mut self.stats.counters;
        c.instructions += INSTRUCTIONS_PER_ACCESS;
        c.l1_references += 1;
        if self.l1.access(acc.address, is_store) {
            self.charge_cache(self.l1_charge);
            return;
        }
        c.l1_misses += 1;
        c.llc_references += 1;
        if self.l2.access(acc.address, is_store) {
            self.charge_cache(self.l2_charge);
            return;
        }
        c.llc_misses += 1;
        on_llc_miss(acc.address);

        let served_by = MachineConfig::serving_tier(self.translate(acc.address, page_table));
        self.stats.tier_traffic.add(served_by, self.line_size);
        self.charge_memory(self.mem_charge[served_by.index()]);
    }

    /// Run an access sequence through [`access_with`](Self::access_with),
    /// returning the number of LLC misses it produced. Generators (see
    /// `hmsim_apps`) yield accesses one at a time, so a billion-access run
    /// needs no multi-GiB vector.
    pub fn run_stream<I>(&mut self, accesses: I, page_table: &PageTable) -> u64
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let before = self.stats.counters.llc_misses;
        for a in accesses {
            self.access_with(&a, page_table, |_| {});
        }
        self.stats.counters.llc_misses - before
    }

    #[inline]
    fn charge_cache(&mut self, charge: Charge) {
        self.stats.time.0 += charge.time_ns;
        self.stats.counters.cycles += charge.cycles;
    }

    #[inline]
    fn charge_memory(&mut self, charge: Charge) {
        self.stats.time.0 += charge.time_ns;
        self.stats.counters.cycles += charge.cycles;
        self.stats.counters.stall_cycles += charge.cycles_raw;
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use hmsim_common::{AddressRange, ByteSize, PAGE_SIZE};

    /// One access per element over the range, e.g. one STREAM kernel pass
    /// over an array.
    fn sequential_sweep(
        range: AddressRange,
        element_size: u16,
        kind: AccessKind,
    ) -> Vec<MemoryAccess> {
        let n = range.len.bytes() / u64::from(element_size);
        (0..n)
            .map(|i| MemoryAccess {
                address: range.start.offset(i * u64::from(element_size)),
                size: element_size,
                kind,
            })
            .collect()
    }

    fn flat_engine() -> (TraceEngine, PageTable) {
        let cfg = MachineConfig::tiny_test();
        (TraceEngine::new(&cfg), PageTable::new(TierId::DDR))
    }

    /// Load `addr` once and return the tier that served it, or `None` if
    /// the caches did.
    fn served_by(e: &mut TraceEngine, addr: Address, pt: &PageTable) -> Option<TierId> {
        let before = e.stats().tier_traffic;
        e.access_with(&MemoryAccess::load(addr, 8), pt, |_| {});
        let after = e.stats().tier_traffic;
        [TierId::DDR, TierId::MCDRAM]
            .into_iter()
            .find(|t| after.bytes(*t) > before.bytes(*t))
    }

    #[test]
    fn small_working_set_stays_in_l1() {
        let (mut e, pt) = flat_engine();
        let range = AddressRange::new(Address(0x1000), ByteSize::from_kib(2));
        let sweep = sequential_sweep(range, 8, AccessKind::Load);
        e.run_stream(sweep.iter().copied(), &pt);
        let first_pass_misses = e.stats().counters.llc_misses;
        e.run_stream(sweep.iter().copied(), &pt);
        // Second pass: everything fits in the 4 KiB L1 -> no new LLC misses.
        assert_eq!(e.stats().counters.llc_misses, first_pass_misses);
    }

    #[test]
    fn large_working_set_misses_llc_and_hits_memory_tier() {
        let (mut e, mut pt) = flat_engine();
        // 1 MiB working set vs 64 KiB L2.
        let range = AddressRange::new(Address(0x10_0000), ByteSize::from_mib(1));
        pt.map_range(range, TierId::MCDRAM);
        let sweep = sequential_sweep(range, 8, AccessKind::Load);
        let misses = e.run_stream(sweep.iter().copied(), &pt);
        assert!(misses > 0);
        let traffic = e.stats().tier_traffic.bytes(TierId::MCDRAM);
        assert_eq!(traffic, misses * 64);
        assert_eq!(e.stats().tier_traffic.bytes(TierId::DDR), 0);
    }

    #[test]
    fn llc_miss_callback_fires_per_miss() {
        let (mut e, pt) = flat_engine();
        let range = AddressRange::new(Address(0x20_0000), ByteSize::from_kib(256));
        let sweep = sequential_sweep(range, 8, AccessKind::Load);
        let mut observed = 0u64;
        for a in &sweep {
            e.access_with(a, &pt, |_| observed += 1);
        }
        assert_eq!(observed, e.stats().counters.llc_misses);
        assert!(observed > 0);
    }

    #[test]
    #[should_panic(expected = "flat-mode machines only")]
    fn cache_mode_machines_are_refused() {
        TraceEngine::new(&MachineConfig::tiny_test().with_memory_mode(MemoryMode::Cache));
    }

    #[test]
    fn time_and_counters_accumulate() {
        let (mut e, pt) = flat_engine();
        let range = AddressRange::new(Address(0x80_0000), ByteSize::from_kib(128));
        let sweep = sequential_sweep(range, 8, AccessKind::Store);
        e.run_stream(sweep.iter().copied(), &pt);
        let s = e.stats();
        assert!(s.time.nanos() > 0.0);
        assert!(s.counters.instructions >= sweep.len() as u64);
        assert!(s.counters.cycles > 0);
        assert!(s.counters.llc_misses > 0);
    }

    #[test]
    fn tlb_tracks_page_table_mutations() {
        let (mut e, mut pt) = flat_engine();
        let range = AddressRange::new(Address(0x100_0000), ByteSize::from_kib(512));
        pt.map_range(range, TierId::MCDRAM);
        // Thrash the LLC so repeated accesses to the probe page keep missing:
        // two conflicting far-apart pages plus the probe page.
        let probe = Address(0x100_0000);
        let drive = |e: &mut TraceEngine, pt: &PageTable| -> Option<TierId> {
            // Evict the probe line from L1/L2 by sweeping > L2 capacity.
            let evict = sequential_sweep(
                AddressRange::new(Address(0x800_0000), ByteSize::from_kib(256)),
                8,
                AccessKind::Load,
            );
            e.run_stream(evict.iter().copied(), pt);
            served_by(e, probe, pt)
        };
        assert_eq!(drive(&mut e, &pt), Some(TierId::MCDRAM));
        // Mutate the placement: the cached translation must be dropped.
        pt.unmap_range(range);
        assert_eq!(drive(&mut e, &pt), Some(TierId::DDR));
        pt.map_range(AddressRange::new(probe, ByteSize::ZERO), TierId::MCDRAM);
        assert_eq!(drive(&mut e, &pt), Some(TierId::MCDRAM));

        // Back-to-back cold misses with no mutation in between: the cached
        // extent's bounds alone must notice each step out of it, from an
        // extent into the gap above it, on into the next extent, and back
        // below the first one.
        let (mut e, mut pt) = flat_engine();
        let pages = |first: u64, n: u64| {
            AddressRange::new(Page(first).base(), ByteSize::from_bytes(n * PAGE_SIZE))
        };
        pt.map_range(pages(0x2000, 2), TierId::MCDRAM);
        pt.map_range(pages(0x2003, 1), TierId::MCDRAM);
        for (addr, tier) in [
            (Page(0x2000).base(), TierId::MCDRAM),
            (Page(0x2001).base().offset(PAGE_SIZE - 64), TierId::MCDRAM),
            (Page(0x2002).base(), TierId::DDR),
            (Page(0x2002).base().offset(PAGE_SIZE - 64), TierId::DDR),
            (Page(0x2003).base(), TierId::MCDRAM),
            (Page(0x1fff).base(), TierId::DDR),
        ] {
            assert_eq!(
                served_by(&mut e, addr, &pt),
                Some(tier),
                "access at {addr:?}"
            );
        }
    }

    #[test]
    fn unknown_tier_is_served_by_ddr() {
        let (mut e, mut pt) = flat_engine();
        // Map a page to a tier id the tiny machine does not have.
        let page = Page(0x5000);
        pt.map_range(AddressRange::new(page.base(), ByteSize::ZERO), TierId(3));
        // Force an LLC miss by touching it cold.
        assert_eq!(served_by(&mut e, page.base(), &pt), Some(TierId::DDR));
        assert!(e.stats().tier_traffic.bytes(TierId::DDR) > 0);
    }

    #[test]
    fn tier_traffic_iterates_non_zero_entries() {
        let mut t = TierTraffic::default();
        t.add(TierId::MCDRAM, 128);
        t.add(TierId::MCDRAM, 64);
        assert_eq!(t.bytes(TierId::MCDRAM), 192);
        assert_eq!(t.bytes(TierId::DDR), 0);
        assert_eq!(t.total(), 192);
        let entries: Vec<_> = t.iter().collect();
        assert_eq!(entries, vec![(TierId::MCDRAM, 192)]);
        // Out-of-range ids read as zero instead of panicking.
        assert_eq!(t.bytes(TierId(100)), 0);
    }
}
