//! Equivalence regression tests for the trace-engine hot path.
//!
//! The engine's translation path (sorted page extents + a one-entry TLB that
//! caches a whole extent) and counter storage (fixed per-tier arrays) are
//! performance rewrites of straightforward code, and `run_stream` is a loop
//! over the per-access `access_with`. These tests pin the invariant that
//! makes that safe: the *simulation results are identical* — same
//! [`PerfCounters`], same per-tier traffic, same time bits, same sequence of
//! LLC misses (which access missed, at which address) — between per-access
//! calls, `run_stream` and a naive per-page `HashMap` page-table mirror, for
//! deterministic `DetRng`-seeded access streams and random map/unmap/remap
//! sequences, including the PEBS bulk-observation residual carry-over. The
//! engine simulates flat mode only, so every stream runs on a flat-mode
//! machine.

use hmem_repro::machine::{
    AccessPattern, AccessStream, MachineConfig, MemoryAccess, PageTable, PerfCounters, TraceEngine,
};
use hmem_repro::pebs::{PebsEvent, PebsSampler, ProcessorFamily};
use hmsim_common::{Address, AddressRange, ByteSize, DetRng, Nanos, Page, TierId, PAGE_SIZE};
use std::collections::HashMap;

/// A deterministic access stream covering every generator pattern: one
/// sequential, one strided, one random and one hot-spot segment over a
/// working set that spans both tiers and far exceeds the caches.
fn mixed_stream(seed: u64, len: usize) -> Vec<MemoryAccess> {
    let ws = AddressRange::new(Address(0x4000_0000), ByteSize::from_mib(8));
    let rng = DetRng::new(seed);
    let segments: [AccessStream; 4] = [
        AccessStream::new(ws, AccessPattern::Sequential, 8, 0.25, rng.derive("seq")),
        AccessStream::new(
            ws,
            AccessPattern::Strided { stride: 192 },
            8,
            0.1,
            rng.derive("str"),
        ),
        AccessStream::new(ws, AccessPattern::Random, 8, 0.4, rng.derive("rnd")),
        AccessStream::new(
            ws,
            AccessPattern::HotSpot { hot_fraction: 0.1 },
            8,
            0.0,
            rng.derive("hot"),
        ),
    ];
    let per_segment = len / segments.len();
    segments
        .into_iter()
        .flat_map(|s| s.take(per_segment))
        .collect()
}

/// The placement both the optimized page table and the naive mirror encode:
/// interleaved MCDRAM/DDR stripes plus an explicit unmapping, so translation
/// exercises mapped, remapped and default-tier pages.
fn placements() -> (PageTable, HashMap<Page, TierId>) {
    let mut pt = PageTable::new(TierId::DDR);
    let mut mirror: HashMap<Page, TierId> = HashMap::new();
    let base = Address(0x4000_0000);
    // 8 MiB working set in 1 MiB stripes, alternating tiers.
    for stripe in 0..8u64 {
        let range = AddressRange::new(base.offset(stripe * (1 << 20)), ByteSize::from_mib(1));
        let tier = if stripe % 2 == 0 {
            TierId::MCDRAM
        } else {
            TierId::DDR
        };
        pt.map_range(range, tier);
        for page in range.pages() {
            mirror.insert(page, tier);
        }
    }
    // Remap one stripe and unmap another: the page table must track both.
    let remap = AddressRange::new(base.offset(2 << 20), ByteSize::from_mib(1));
    pt.map_range(remap, TierId::DDR);
    for page in remap.pages() {
        mirror.insert(page, TierId::DDR);
    }
    let unmap = AddressRange::new(base.offset(4 << 20), ByteSize::from_mib(1));
    pt.unmap_range(unmap);
    for page in unmap.pages() {
        mirror.remove(&page);
    }
    (pt, mirror)
}

/// Every LLC miss the callback saw, as (access index, address).
type MissLog = Vec<(usize, Address)>;

/// Drive `accesses` one `access_with` call at a time, returning the miss log
/// and the statistics.
fn scalar_run(
    config: &MachineConfig,
    accesses: &[MemoryAccess],
    pt: &PageTable,
) -> (MissLog, PerfCounters, Vec<(TierId, u64)>, Nanos) {
    let mut engine = TraceEngine::new(config);
    let mut misses = Vec::new();
    for (i, a) in accesses.iter().enumerate() {
        engine.access_with(a, pt, |addr| misses.push((i, addr)));
    }
    let stats = engine.stats();
    (
        misses,
        stats.counters,
        stats.tier_traffic.iter().collect(),
        stats.time,
    )
}

#[test]
fn page_index_agrees_with_naive_hashmap_mirror() {
    let (pt, mirror) = placements();
    let accesses = mixed_stream(0xE0_01, 40_000);
    for a in &accesses {
        let expected = mirror
            .get(&a.address.page())
            .copied()
            .unwrap_or(TierId::DDR);
        assert_eq!(
            pt.tier_of(a.address),
            expected,
            "translation diverged for {:?}",
            a.address
        );
    }
    // Footprint accounting agrees with the mirror's tally.
    for tier in [TierId::DDR, TierId::MCDRAM] {
        let mirror_bytes = mirror.values().filter(|t| **t == tier).count() as u64 * 4096;
        assert_eq!(
            pt.mapped_bytes(tier).bytes(),
            mirror_bytes,
            "footprint for {tier}"
        );
    }
    assert_eq!(pt.mapped_pages(), mirror.len());
}

/// Random map, unmap and remap operations against a per-page `HashMap`
/// mirror: sub-page, zero-length, overlapping and extent-splitting ranges,
/// plus exact remaps and unmaps of recently mapped ranges. After every
/// operation the table's translation, per-tier footprint and page count
/// match the mirror, and every page inside each `[lo, hi)` that
/// `extent_of_page` reports has the reported tier, since the engine's TLB
/// trusts those bounds.
#[test]
fn extent_table_agrees_with_per_page_mirror_under_random_operations() {
    const SPAN_PAGES: u64 = 64;
    let tiers = [TierId::DDR, TierId::MCDRAM, TierId(2)];
    let first = Page(0x1_0000);
    // Every range ends below `first + 2 * SPAN_PAGES`; check a margin around.
    let window = first.0 - 2..first.0 + 2 * SPAN_PAGES;
    let mut rng = DetRng::new(0xE0_07);
    let mut pt = PageTable::new(TierId::DDR);
    let mut mirror: HashMap<Page, TierId> = HashMap::new();
    let mut mapped: Vec<AddressRange> = Vec::new();
    for step in 0..2_000 {
        let start = first
            .base()
            .offset(rng.uniform_range(0, SPAN_PAGES * PAGE_SIZE));
        let range = match rng.uniform_range(0, 4) {
            0 if !mapped.is_empty() => {
                let recent = mapped.len().min(8) as u64;
                mapped[mapped.len() - 1 - rng.uniform_range(0, recent) as usize]
            }
            1 => AddressRange::new(start, ByteSize::from_bytes(rng.uniform_range(0, 200))),
            _ => AddressRange::new(
                start,
                ByteSize::from_bytes(rng.uniform_range(1, SPAN_PAGES * PAGE_SIZE / 4)),
            ),
        };
        if rng.chance(0.3) {
            pt.unmap_range(range);
            for page in range.pages() {
                mirror.remove(&page);
            }
        } else {
            let tier = tiers[rng.uniform_range(0, tiers.len() as u64) as usize];
            pt.map_range(range, tier);
            for page in range.pages() {
                mirror.insert(page, tier);
            }
            mapped.push(range);
        }

        let expected = |p: u64| mirror.get(&Page(p)).copied().unwrap_or(TierId::DDR);
        let mut p = window.start;
        while p < window.end {
            assert_eq!(
                pt.tier_of_page(Page(p)),
                expected(p),
                "step {step}, page {p:#x}"
            );
            let (lo, hi, tier) = pt.extent_of_page(Page(p));
            assert!(
                lo <= p && p < hi,
                "step {step}: {p:#x} outside [{lo:#x}, {hi:#x})"
            );
            for q in p..hi.min(window.end) {
                assert_eq!(
                    expected(q),
                    tier,
                    "step {step}: page {q:#x} in [{lo:#x}, {hi:#x})"
                );
            }
            p = hi;
        }
        for tier in tiers {
            let pages = mirror.values().filter(|t| **t == tier).count() as u64;
            assert_eq!(
                pt.mapped_bytes(tier).bytes(),
                pages * PAGE_SIZE,
                "step {step}, {tier}"
            );
        }
        assert_eq!(pt.mapped_pages(), mirror.len(), "step {step}");
    }
}

#[test]
fn scalar_and_streaming_paths_produce_identical_results() {
    let (pt, _) = placements();
    let accesses = mixed_stream(0xE0_02, 60_000);
    // The knl machine's charges are not dyadic, so summing them in another
    // order than access by access would show in the time bits.
    for (name, config) in [
        ("tiny_test", MachineConfig::tiny_test()),
        ("knl_7250", MachineConfig::knl_7250()),
    ] {
        let (misses_seen, counters, traffic, time) = scalar_run(&config, &accesses, &pt);

        let mut streaming = TraceEngine::new(&config);
        let misses = streaming.run_stream(accesses.iter().copied(), &pt);

        assert_eq!(
            streaming.stats().counters,
            counters,
            "{name}: PerfCounters diverged"
        );
        assert_eq!(
            streaming.stats().tier_traffic.iter().collect::<Vec<_>>(),
            traffic,
            "{name}: tier traffic diverged"
        );
        assert_eq!(misses, counters.llc_misses, "{name}");
        assert_eq!(
            misses_seen.len() as u64,
            misses,
            "{name}: callback missed a miss"
        );
        assert_eq!(
            streaming.stats().time.nanos().to_bits(),
            time.nanos().to_bits(),
            "{name}: time diverged: {} against {}",
            streaming.stats().time.nanos(),
            time.nanos()
        );

        // Both tiers must serve misses for this to be a meaningful
        // equivalence.
        for tier in [TierId::MCDRAM, TierId::DDR] {
            assert!(
                streaming.stats().tier_traffic.bytes(tier) > 0,
                "{name}: no {tier} traffic"
            );
        }
    }
}

#[test]
fn identically_seeded_runs_are_deterministic() {
    let config = MachineConfig::tiny_test();
    let (pt, _) = placements();
    let a = mixed_stream(0xE0_03, 30_000);
    let b = mixed_stream(0xE0_03, 30_000);
    assert_eq!(a, b, "DetRng-seeded generation must be reproducible");

    let ra = scalar_run(&config, &a, &pt);
    let rb = scalar_run(&config, &b, &pt);
    assert_eq!(ra.0, rb.0, "LLC-miss sequence diverged");
    assert_eq!(ra.1, rb.1);
    assert_eq!(ra.2, rb.2);
    assert_eq!(ra.3, rb.3);
}

#[test]
fn mutating_the_page_table_mid_run_keeps_paths_equivalent() {
    // Guards the TLB invalidation: a placement change between (and during)
    // runs must be visible to the scalar and streaming paths alike.
    let config = MachineConfig::tiny_test();
    let (mut pt, _) = placements();
    let accesses = mixed_stream(0xE0_05, 20_000);

    let mut scalar = TraceEngine::new(&config);
    let mut streaming = TraceEngine::new(&config);
    for chunk in accesses.chunks(5_000) {
        for a in chunk {
            scalar.access_with(a, &pt, |_| {});
        }
        streaming.run_stream(chunk.iter().copied(), &pt);
        // Flip one stripe's placement between chunks.
        pt.map_range(
            AddressRange::new(Address(0x4000_0000), ByteSize::from_mib(1)),
            TierId::DDR,
        );
    }
    assert_eq!(scalar.stats().counters, streaming.stats().counters);
    assert_eq!(
        scalar.stats().tier_traffic.iter().collect::<Vec<_>>(),
        streaming.stats().tier_traffic.iter().collect::<Vec<_>>()
    );
}

#[test]
fn pebs_bulk_observation_carries_residual_like_scalar_observation() {
    let period = 1_000u64;
    let make = || {
        PebsSampler::new(
            ProcessorFamily::KnightsLanding,
            PebsEvent::LlcLoadMiss,
            period,
            DetRng::new(42),
        )
    };

    // Scalar: one observe() per event.
    let mut scalar = make();
    let mut scalar_samples = 0u64;
    let total_events = 12_345u64;
    for i in 0..total_events {
        if scalar
            .observe(Nanos(i as f64), Address(0x1000 + i))
            .is_some()
        {
            scalar_samples += 1;
        }
    }

    // Bulk with awkward chunk sizes: the residual must carry across calls so
    // the emitted sample count matches the scalar path exactly.
    let mut bulk = make();
    let mut bulk_samples = 0u64;
    let mut remaining = total_events;
    let mut chunk = 1u64;
    while remaining > 0 {
        let n = chunk.min(remaining);
        bulk_samples += bulk
            .observe_bulk(Nanos::ZERO, Nanos(1.0), n, |rng| {
                Address(rng.uniform_range(0x1000, 0x2000))
            })
            .len() as u64;
        remaining -= n;
        chunk = (chunk * 7 + 3) % 2_048 + 1;
    }

    assert_eq!(bulk.total_events(), scalar.total_events());
    assert_eq!(bulk.total_samples(), scalar.total_samples());
    assert_eq!(bulk_samples, scalar_samples);

    // A different chunking yields the same counts again.
    let mut bulk2 = make();
    let mut fed = 0u64;
    while fed < total_events {
        let n = 997u64.min(total_events - fed);
        bulk2.observe_bulk(Nanos::ZERO, Nanos(1.0), n, |_| Address(0x1000));
        fed += n;
    }
    assert_eq!(bulk2.total_samples(), scalar.total_samples());
}
