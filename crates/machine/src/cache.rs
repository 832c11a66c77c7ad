//! Set-associative cache simulator with LRU replacement.
//!
//! Used for the L1 and L2 (LLC) levels of the trace-driven engine and, with
//! one way per set, as the direct-mapped reference simulator the analytical
//! MCDRAM cache-mode hit rate is tested against.

use hmsim_common::{Address, ByteSize};

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set); 1 = direct mapped.
    pub ways: u32,
}

impl CacheConfig {
    /// Build a configuration; panics on degenerate geometry. The number of
    /// sets must come out a power of two so set selection can be a shift and
    /// a mask instead of a division and a modulo on the access hot path.
    pub fn new(size: ByteSize, line_size: u64, ways: u32) -> Self {
        assert!(
            line_size.is_power_of_two() && line_size > 0,
            "line size must be a power of two"
        );
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            size.bytes().is_multiple_of(line_size * u64::from(ways)),
            "cache size must be a multiple of line_size * ways"
        );
        let sets = size.bytes() / (line_size * u64::from(ways));
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two (got {sets})"
        );
        CacheConfig {
            size: size.bytes(),
            line_size,
            ways,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.line_size * u64::from(self.ways))
    }
}

/// Hit/miss counters of one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Line-state encoding: `meta` holds `tag << 2 | dirty << 1 | valid`, so the
/// hit check collapses to a single masked compare, and a whole 8-way set's
/// metadata spans one host cache line. The LRU ages live in a parallel array
/// (structure-of-arrays) so the victim scan reads one contiguous line too.
const LINE_VALID: u64 = 1;
const LINE_DIRTY: u64 = 2;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per-line `tag << 2 | dirty << 1 | valid`, sets stored contiguously.
    meta: Vec<u64>,
    /// Per-line logical timestamp of the last touch, for LRU.
    age: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    /// log2(line_size), precomputed for the hot path.
    line_shift: u32,
    /// log2(sets), precomputed for the hot path.
    set_shift: u32,
    /// sets - 1, precomputed for the hot path.
    set_mask: u64,
    /// Line address of the most recently touched (resident) line — a
    /// line-buffer fast path: consecutive accesses to one line skip the set
    /// scan. `u64::MAX` = invalid.
    last_line: u64,
    /// Index of that line in `meta`/`age`.
    last_idx: u32,
}

impl SetAssocCache {
    /// Create an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let total_lines = (config.sets() * u64::from(config.ways)) as usize;
        SetAssocCache {
            config,
            meta: vec![0; total_lines],
            age: vec![0; total_lines],
            clock: 0,
            stats: CacheStats::default(),
            line_shift: config.line_size.trailing_zeros(),
            set_shift: config.sets().trailing_zeros(),
            set_mask: config.sets() - 1,
            last_line: u64::MAX,
            last_idx: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn set_range(&self, addr: Address) -> (usize, u64) {
        let line_addr = addr.value() >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        (set, tag)
    }

    /// Access the cache at `addr`. Returns `true` on hit. On a miss the line
    /// is installed (write-allocate), possibly evicting the LRU way.
    ///
    /// Consecutive accesses to one line (the dominant pattern of a sequential
    /// sweep: 8 element touches per 64 B line) short-circuit through the line
    /// buffer. Collapsing consecutive touches of a line leaves the relative
    /// LRU order of every set unchanged, so hit/miss/writeback behaviour is
    /// identical to the fully scanned simulation.
    #[inline(always)]
    pub fn access(&mut self, addr: Address, is_store: bool) -> bool {
        let line_addr = addr.value() >> self.line_shift;
        if line_addr == self.last_line {
            self.stats.hits += 1;
            // Branchless dirty update: an unconditional RMW on a cached
            // line beats a 30%-taken branch.
            self.meta[self.last_idx as usize] |= u64::from(is_store) << 1;
            return true;
        }
        self.access_uncached(line_addr, is_store)
    }

    #[inline]
    fn access_uncached(&mut self, line_addr: u64, is_store: bool) -> bool {
        // Monomorphize the set scan over the common associativities so the
        // fused hit/victim loop fully unrolls with a known trip count.
        match self.config.ways {
            1 => self.scan_set::<1>(line_addr, is_store),
            2 => self.scan_set::<2>(line_addr, is_store),
            4 => self.scan_set::<4>(line_addr, is_store),
            8 => self.scan_set::<8>(line_addr, is_store),
            16 => self.scan_set::<16>(line_addr, is_store),
            _ => self.scan_set_dyn(line_addr, is_store),
        }
    }

    #[inline]
    fn scan_set<const W: usize>(&mut self, line_addr: u64, is_store: bool) -> bool {
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let base = set * W;
        let metas: &mut [u64; W] = (&mut self.meta[base..base + W]).try_into().unwrap();
        let ages: &mut [u64; W] = (&mut self.age[base..base + W]).try_into().unwrap();
        // Valid line with this tag, dirty bit don't-care: one compare per way.
        let want = tag << 2 | LINE_DIRTY | LINE_VALID;

        // One fused pass: find the hit, tracking the LRU victim (first
        // minimal, invalid ways counting as age 0) on the way.
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for way in 0..W {
            let m = metas[way];
            if (m | LINE_DIRTY) == want {
                metas[way] = m | u64::from(is_store) << 1;
                ages[way] = self.clock;
                self.stats.hits += 1;
                self.last_line = line_addr;
                self.last_idx = (base + way) as u32;
                return true;
            }
            // Branchless LRU tracking: the comparison outcome is
            // data-dependent and would mispredict, so compile it to selects.
            let key = if m & LINE_VALID != 0 {
                ages[way] + 1
            } else {
                0
            };
            let better = key < victim_key;
            victim = if better { way } else { victim };
            victim_key = if better { key } else { victim_key };
        }

        self.stats.misses += 1;
        if metas[victim] & (LINE_VALID | LINE_DIRTY) == (LINE_VALID | LINE_DIRTY) {
            self.stats.writebacks += 1;
        }
        metas[victim] = tag << 2 | u64::from(is_store) << 1 | LINE_VALID;
        ages[victim] = self.clock;
        self.last_line = line_addr;
        self.last_idx = (base + victim) as u32;
        false
    }

    /// Fallback for unusual associativities; same algorithm over slices.
    fn scan_set_dyn(&mut self, line_addr: u64, is_store: bool) -> bool {
        self.clock += 1;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let metas = &mut self.meta[base..base + ways];
        let ages = &mut self.age[base..base + ways];
        let want = tag << 2 | LINE_DIRTY | LINE_VALID;

        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for way in 0..ways {
            let m = metas[way];
            if (m | LINE_DIRTY) == want {
                metas[way] = m | u64::from(is_store) << 1;
                ages[way] = self.clock;
                self.stats.hits += 1;
                self.last_line = line_addr;
                self.last_idx = (base + way) as u32;
                return true;
            }
            let key = if m & LINE_VALID != 0 {
                ages[way] + 1
            } else {
                0
            };
            let better = key < victim_key;
            victim = if better { way } else { victim };
            victim_key = if better { key } else { victim_key };
        }

        self.stats.misses += 1;
        if metas[victim] & (LINE_VALID | LINE_DIRTY) == (LINE_VALID | LINE_DIRTY) {
            self.stats.writebacks += 1;
        }
        metas[victim] = tag << 2 | u64::from(is_store) << 1 | LINE_VALID;
        ages[victim] = self.clock;
        self.last_line = line_addr;
        self.last_idx = (base + victim) as u32;
        false
    }

    /// Whether the line containing `addr` is currently resident (does not
    /// update statistics or LRU state).
    pub fn probe(&self, addr: Address) -> bool {
        let (set, tag) = self.set_range(addr);
        let ways = self.config.ways as usize;
        let base = set * ways;
        let want = tag << 2 | LINE_DIRTY | LINE_VALID;
        self.meta[base..base + ways]
            .iter()
            .any(|m| (m | LINE_DIRTY) == want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::ByteSize;

    fn small_cache(ways: u32) -> SetAssocCache {
        // 4 KiB, 64 B lines => 64 lines total.
        SetAssocCache::new(CacheConfig::new(ByteSize::from_kib(4), 64, ways))
    }

    #[test]
    fn geometry_is_computed_correctly() {
        let c = CacheConfig::new(ByteSize::from_kib(32), 64, 8);
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(ByteSize::from_kib(4), 48, 4);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache(4);
        assert!(!c.access(Address(0x1000), false));
        assert!(c.access(Address(0x1000), false));
        assert!(c.access(Address(0x1008), false), "same line must hit");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = small_cache(4);
        // 4 KiB cache, touch 2 KiB repeatedly.
        for pass in 0..3 {
            for i in 0..32u64 {
                let hit = c.access(Address(i * 64), false);
                if pass > 0 {
                    assert!(hit, "pass {pass} line {i} should hit");
                }
            }
        }
        assert_eq!(c.stats().misses, 32);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = small_cache(4);
        // Touch 16 KiB (4x capacity) with LRU + sequential = always miss
        // after the first pass too.
        for _ in 0..3 {
            for i in 0..256u64 {
                c.access(Address(i * 64), false);
            }
        }
        let s = c.stats();
        assert!(s.misses * 100 > s.accesses() * 95, "{s:?}");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Direct conflict scenario in a 2-way cache: three lines mapping to
        // the same set.
        let mut c = small_cache(2);
        let sets = c.config().sets();
        let stride = sets * 64; // same set, different tag
        let a = Address(0);
        let b = Address(stride);
        let d = Address(stride * 2);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn writebacks_counted_for_dirty_evictions() {
        let mut c = small_cache(1); // direct-mapped
        let sets = c.config().sets();
        let stride = sets * 64;
        c.access(Address(0), true); // dirty
        c.access(Address(stride), false); // evicts dirty line
        assert_eq!(c.stats().writebacks, 1);
        c.access(Address(0), false); // clean
        c.access(Address(stride), false); // evicts clean line
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn direct_mapped_conflict_misses() {
        // Two addresses mapping to the same set of a direct-mapped cache
        // alternate: every access misses. With 2 ways they all hit.
        let mut dm = small_cache(1);
        let sets = dm.config().sets();
        let stride = sets * 64;
        for _ in 0..10 {
            dm.access(Address(0), false);
            dm.access(Address(stride), false);
        }
        assert_eq!(dm.stats().hits, 0);

        let mut two_way = small_cache(2);
        for _ in 0..10 {
            two_way.access(Address(0), false);
            two_way.access(Address(stride), false);
        }
        assert_eq!(two_way.stats().misses, 2);
        assert_eq!(two_way.stats().hits, 18);
    }
}
