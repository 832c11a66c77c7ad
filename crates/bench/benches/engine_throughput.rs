//! Trace-engine hot-path throughput: the before/after number for the
//! page-index + allocation-free-counter overhaul.
//!
//! The `naive` module below preserves the pre-refactor hot path exactly as
//! the seed shipped it — `HashMap<Page, TierId>` page translation with
//! SipHash, `HashMap::entry` per-miss tier-traffic updates, per-probe
//! division/modulo set indexing and a `TierSet` walk + bandwidth-model call
//! per LLC miss. Both paths consume the *same* pre-generated access stream,
//! and the equivalence of their simulation results is asserted before any
//! timing happens, so the measured ratio is pure hot-path cost.
//!
//! The target writes `BENCH_engine.json` at the repository root with
//! accesses/sec for both paths so the perf trajectory is tracked.

use hmsim_bench::{best_of, write_artifact};
use hmsim_common::{Address, AddressRange, ByteSize, DetRng, TierId};
use hmsim_machine::{
    AccessPattern, AccessStream, MachineConfig, MemoryAccess, PageTable, ServiceLevel, TraceEngine,
};

/// Faithful reimplementation of the seed's trace-engine hot path, kept as the
/// "naive" baseline the speedup is measured against.
mod naive {
    use hmsim_common::{Address, Nanos, Page, TierId};
    use hmsim_machine::{AccessKind, BandwidthModel, MachineConfig, MemoryAccess, PerfCounters};
    use std::collections::HashMap;

    pub struct NaivePageTable {
        default_tier: TierId,
        pages: HashMap<Page, TierId>,
    }

    impl NaivePageTable {
        pub fn new(default_tier: TierId) -> Self {
            NaivePageTable {
                default_tier,
                pages: HashMap::new(),
            }
        }

        pub fn map_page(&mut self, page: Page, tier: TierId) {
            self.pages.insert(page, tier);
        }

        fn tier_of(&self, addr: Address) -> TierId {
            self.pages
                .get(&addr.page())
                .copied()
                .unwrap_or(self.default_tier)
        }
    }

    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        last_use: u64,
    }

    /// Set-associative cache with division/modulo set indexing (the
    /// pre-refactor `set_range`) and the seed's per-access hit/miss/writeback
    /// statistics.
    struct NaiveCache {
        line_size: u64,
        sets: u64,
        ways: usize,
        lines: Vec<Line>,
        clock: u64,
        hits: u64,
        misses: u64,
        writebacks: u64,
    }

    impl NaiveCache {
        fn new(size: u64, line_size: u64, ways: u32) -> Self {
            let sets = size / (line_size * u64::from(ways));
            let total = (sets * u64::from(ways)) as usize;
            NaiveCache {
                line_size,
                sets,
                ways: ways as usize,
                lines: (0..total)
                    .map(|_| Line {
                        tag: 0,
                        valid: false,
                        dirty: false,
                        last_use: 0,
                    })
                    .collect(),
                clock: 0,
                hits: 0,
                misses: 0,
                writebacks: 0,
            }
        }

        fn access(&mut self, addr: Address, is_store: bool) -> bool {
            self.clock += 1;
            let line_addr = addr.value() / self.line_size;
            let set = (line_addr % self.sets) as usize;
            let tag = line_addr / self.sets;
            let base = set * self.ways;
            let slots = &mut self.lines[base..base + self.ways];
            if let Some(line) = slots.iter_mut().find(|l| l.valid && l.tag == tag) {
                line.last_use = self.clock;
                line.dirty |= is_store;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            let victim = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| if l.valid { l.last_use + 1 } else { 0 })
                .map(|(i, _)| i)
                .expect("cache set has at least one way");
            let line = &mut slots[victim];
            if line.valid && line.dirty {
                self.writebacks += 1;
            }
            *line = Line {
                tag,
                valid: true,
                dirty: is_store,
                last_use: self.clock,
            };
            false
        }
    }

    /// The seed's flat-mode engine loop: per-miss HashMap lookups for both
    /// translation and traffic, per-miss tier walk + latency computation.
    pub struct NaiveEngine {
        config: MachineConfig,
        bandwidth: BandwidthModel,
        l1: NaiveCache,
        l2: NaiveCache,
        pub counters: PerfCounters,
        pub tier_traffic: HashMap<TierId, u64>,
        pub time: Nanos,
    }

    impl NaiveEngine {
        pub fn new(config: &MachineConfig) -> Self {
            NaiveEngine {
                bandwidth: BandwidthModel::new(config),
                l1: NaiveCache::new(config.l1_size.bytes(), config.line_size, config.l1_ways),
                l2: NaiveCache::new(config.l2_size.bytes(), config.line_size, config.l2_ways),
                counters: PerfCounters::default(),
                tier_traffic: HashMap::new(),
                time: Nanos::ZERO,
                config: config.clone(),
            }
        }

        fn charge_time(&mut self, latency: Nanos, is_memory: bool) {
            let effective = if is_memory {
                latency / self.config.mlp
            } else {
                latency / 4.0
            };
            self.time += effective;
            let cycles = (effective.secs() * self.config.frequency_hz) as u64;
            self.counters.cycles += cycles.max(1);
            if is_memory {
                self.counters.stall_cycles += cycles;
            }
        }

        fn access(&mut self, acc: &MemoryAccess, page_table: &NaivePageTable) {
            let is_store = acc.kind == AccessKind::Store;
            self.counters.instructions += 2;
            self.counters.l1_references += 1;
            if self.l1.access(acc.address, is_store) {
                self.charge_time(self.config.l1_latency, false);
                return;
            }
            self.counters.l1_misses += 1;
            self.counters.llc_references += 1;
            if self.l2.access(acc.address, is_store) {
                self.charge_time(self.config.l2_latency, false);
                return;
            }
            self.counters.llc_misses += 1;
            let tier_id = page_table.tier_of(acc.address);
            let tier = self
                .config
                .tiers
                .get(tier_id)
                .unwrap_or_else(|| self.config.tiers.slowest().expect("tiers non-empty"));
            let served_by = tier.id;
            let latency = self.bandwidth.latency(tier);
            *self.tier_traffic.entry(served_by).or_insert(0) += self.config.line_size;
            self.charge_time(latency, true);
        }

        pub fn run(&mut self, accesses: &[MemoryAccess], page_table: &NaivePageTable) -> u64 {
            let before = self.counters.llc_misses;
            for a in accesses {
                self.access(a, page_table);
            }
            self.counters.llc_misses - before
        }
    }
}

/// Build the page tables both engines translate through: an 8 MiB working
/// set with its lower half placed in MCDRAM.
fn page_tables() -> (AddressRange, PageTable, naive::NaivePageTable) {
    let ws = AddressRange::new(Address(0x4000_0000), ByteSize::from_mib(8));
    let mcdram_half = AddressRange::new(ws.start, ByteSize::from_mib(4));

    let mut page_table = PageTable::new(TierId::DDR);
    page_table.map_range(mcdram_half, TierId::MCDRAM);
    let mut naive_pt = naive::NaivePageTable::new(TierId::DDR);
    for page in mcdram_half.pages() {
        naive_pt.map_page(page, TierId::MCDRAM);
    }
    (ws, page_table, naive_pt)
}

/// `stream`: a store-carrying sequential sweep over the working set — the
/// paper's dominant trace-driven pattern (STREAM Triad, Figure 1) and the
/// headline workload of `BENCH_engine.json`.
fn stream_workload(ws: AddressRange, accesses: usize) -> Vec<MemoryAccess> {
    AccessStream::new(ws, AccessPattern::Sequential, 8, 0.3, DetRng::new(1))
        .take(accesses)
        .collect()
}

/// `miss_stream`: a line-stride (64 B) streaming sweep — every access opens a
/// new cache line and, with the working set far beyond the L2, misses all the
/// way to memory. This is the page-translation / tier-traffic stress case the
/// tentpole targeted: the pre-refactor path paid a SipHash page lookup, a
/// `HashMap::entry` traffic update, a `TierSet` walk and floating-point
/// latency math on *every* access here.
fn miss_stream_workload(ws: AddressRange, accesses: usize) -> Vec<MemoryAccess> {
    AccessStream::new(
        ws,
        AccessPattern::Strided { stride: 64 },
        8,
        0.3,
        DetRng::new(1),
    )
    .take(accesses)
    .collect()
}

/// `mixed`: the sequential sweep interleaved 1:1 with an irregular gather,
/// keeping every structural feature of the hot path (both cache levels,
/// translation of non-resident pages, both tiers' traffic counters) hot.
fn mixed_workload(ws: AddressRange, accesses: usize) -> Vec<MemoryAccess> {
    let sequential = AccessStream::new(ws, AccessPattern::Sequential, 8, 0.3, DetRng::new(1));
    let random = AccessStream::new(ws, AccessPattern::Random, 8, 0.1, DetRng::new(2));
    sequential
        .zip(random)
        .flat_map(|(s, r)| [s, r])
        .take(accesses)
        .collect()
}

struct Measured {
    name: &'static str,
    naive_aps: f64,
    optimized_aps: f64,
}

impl Measured {
    fn speedup(&self) -> f64 {
        self.optimized_aps / self.naive_aps
    }
}

fn write_baseline(accesses: usize, results: &[Measured]) {
    let mut workloads = String::new();
    for (i, m) in results.iter().enumerate() {
        if i > 0 {
            workloads.push_str(",\n");
        }
        workloads.push_str(&format!(
            "    \"{}\": {{\n      \"naive_accesses_per_sec\": {:.0},\n      \"optimized_accesses_per_sec\": {:.0},\n      \"speedup\": {:.2}\n    }}",
            m.name, m.naive_aps, m.optimized_aps, m.speedup()
        ));
    }
    // Both engines are driven on the calling thread only.
    let json = format!(
        "{{\n  \"bench\": \"engine_throughput\",\n  \"machine\": \"tiny_test, 8 MiB working set, 50% MCDRAM\",\n  \"threads\": 1,\n  \"accesses\": {accesses},\n  \"headline_speedup\": {:.2},\n  \"workloads\": {{\n{workloads}\n  }}\n}}\n",
        results[0].speedup()
    );
    write_artifact("BENCH_engine.json", &json);
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n: usize = if test_mode { 100_000 } else { 4_000_000 };
    let (ws, page_table, naive_pt) = page_tables();
    let config = MachineConfig::tiny_test();
    let reps = if test_mode { 1 } else { 3 };

    let mut results = Vec::new();
    // `stream` (the Figure-1 STREAM Triad pattern, the ISSUE's motivating
    // workload) is the headline entry; the others track the miss-path and
    // irregular regimes.
    for (name, accesses) in [
        ("stream", stream_workload(ws, n)),
        ("miss_stream", miss_stream_workload(ws, n)),
        ("mixed", mixed_workload(ws, n)),
    ] {
        // Equivalence gate: identical counters and per-tier traffic before
        // any number is reported.
        {
            let mut fast = TraceEngine::new(&config);
            let mut slow = naive::NaiveEngine::new(&config);
            fast.run(&accesses, &page_table);
            slow.run(&accesses, &naive_pt);
            assert_eq!(fast.stats().counters, slow.counters, "hot paths diverged");
            assert!(
                fast.stats().counters.llc_misses > 0,
                "workload produced no LLC misses"
            );
            for tier in [TierId::DDR, TierId::MCDRAM] {
                assert_eq!(
                    fast.stats().tier_traffic.bytes(tier),
                    slow.tier_traffic.get(&tier).copied().unwrap_or(0),
                    "tier traffic diverged for {tier}"
                );
            }
        }

        // Direct measurement for the JSON baseline (best of `reps` runs).
        let t_naive = best_of(reps, || {
            let mut e = naive::NaiveEngine::new(&config);
            e.run(&accesses, &naive_pt)
        });
        let t_fast = best_of(reps, || {
            let mut e = TraceEngine::new(&config);
            e.run(&accesses, &page_table)
        });
        let m = Measured {
            name,
            naive_aps: n as f64 / t_naive,
            optimized_aps: n as f64 / t_fast,
        };
        println!(
            "engine throughput [{name}]: naive {:.2} Macc/s, optimized {:.2} Macc/s, speedup {:.2}x",
            m.naive_aps / 1e6,
            m.optimized_aps / 1e6,
            m.speedup()
        );
        results.push(m);
    }
    if !test_mode {
        write_baseline(n, &results);
    }

    // Cheap end-to-end smoke that also runs in --test mode: a cold miss to a
    // mapped page must be served by the mapped tier.
    let mut e = TraceEngine::new(&config);
    let mut pt = PageTable::new(TierId::DDR);
    pt.map_range(
        AddressRange::new(Address(0x9000_0000), ByteSize::from_kib(4)),
        TierId::MCDRAM,
    );
    let level = e.access(&MemoryAccess::load(Address(0x9000_0000), 8), &pt);
    assert_eq!(level, ServiceLevel::Memory(TierId::MCDRAM));
}
