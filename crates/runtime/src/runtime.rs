//! The trace-driven online placement runtime.
//!
//! Each epoch the runtime (1) drives the [`TraceEngine`] over the next
//! window of accesses while a [`PebsSampler`] observes the LLC-miss stream,
//! (2) aggregates the samples into per-object heat through the heap's
//! live-object registry, (3) re-runs the advisor's selection against the
//! fast-tier budget, and (4) executes the migration delta through
//! [`execute_plan`], charging every move through the
//! [`MigrationCostModel`] and adding it to the run's latency.

use crate::controller::{
    execute_plan, EpochPlan, ObjectPlacement, PlacementController, PlanExecution,
};
use crate::cost::MigrationCostModel;
use crate::OnlineConfig;
use hmsim_common::{ByteSize, Nanos, TierId};
use hmsim_heap::ProcessHeap;
use hmsim_machine::{EngineStats, MachineConfig, MemoryAccess, TraceEngine};
use hmsim_pebs::{PebsEvent, PebsSampler, ProcessorFamily, RawSample};

/// What one epoch did.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochRecord {
    /// Accesses simulated this epoch.
    pub accesses: u64,
    /// PEBS samples captured this epoch.
    pub samples: u64,
    /// Objects promoted to the fast tier.
    pub promotions: u32,
    /// Objects demoted out of the fast tier.
    pub demotions: u32,
    /// Bytes moved by this epoch's migrations.
    pub bytes_moved: u64,
    /// Latency charged for this epoch's migrations.
    pub migration_time: Nanos,
}

/// Aggregate statistics of one online run.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Epochs executed (including the final partial one).
    pub epochs: u64,
    /// Total accesses simulated.
    pub accesses: u64,
    /// Total PEBS samples observed.
    pub samples: u64,
    /// Migrations executed (promotions + demotions).
    pub migrations: u64,
    /// Total bytes moved between tiers.
    pub bytes_migrated: ByteSize,
    /// Total latency charged for migrations.
    pub migration_time: Nanos,
    /// Planned moves that the heap rejected (capacity races); the plan is
    /// conservative, so this should stay at zero.
    pub rejected_moves: u64,
    /// Moves executed *after* this runtime's stream drained (a node-level
    /// planner demoting a finished rank's residency to make room for active
    /// ranks). Counted separately because they are housekeeping off this
    /// rank's critical path: their latency accrues to
    /// [`background_migration_time`](Self::background_migration_time), not
    /// to the run's [`total_time`](super::OnlineRuntime::total_time).
    pub background_migrations: u64,
    /// Latency of the background moves (not part of the rank's time).
    pub background_migration_time: Nanos,
    /// Peak fast-tier residency observed at commit boundaries (migrations
    /// only happen there, so this is the exact high-water mark of a
    /// trace-driven run whose heap sees no allocations mid-epoch).
    pub fast_residency_peak: ByteSize,
    /// Per-epoch log (one entry per epoch; epochs are coarse, so this stays
    /// small even for paper-scale runs).
    pub epoch_log: Vec<EpochRecord>,
}

/// The epoch-driven online placement engine.
pub struct OnlineRuntime {
    engine: TraceEngine,
    sampler: PebsSampler,
    controller: PlacementController,
    cost: MigrationCostModel,
    fast_budget: ByteSize,
    stats: RuntimeStats,
}

impl OnlineRuntime {
    /// Build a runtime for `machine` with `fast_budget` bytes of MCDRAM at
    /// its disposal; plans promote into MCDRAM and demote to DDR.
    pub fn new(machine: &MachineConfig, fast_budget: ByteSize, cfg: OnlineConfig) -> Self {
        let sampler = PebsSampler::new(
            ProcessorFamily::KnightsLanding,
            PebsEvent::LlcLoadMiss,
            cfg.pebs_period,
            hmsim_common::DetRng::new(cfg.seed),
        );
        OnlineRuntime {
            engine: TraceEngine::new(machine),
            sampler,
            cost: MigrationCostModel::new(machine),
            controller: PlacementController::new(cfg),
            fast_budget,
            stats: RuntimeStats::default(),
        }
    }

    /// The fast-tier budget the next epoch's selection packs against.
    pub fn fast_budget(&self) -> ByteSize {
        self.fast_budget
    }

    /// Re-arm the fast-tier budget. The multi-rank shard runner calls this
    /// every epoch with whatever the node arbiter granted this rank.
    pub fn set_fast_budget(&mut self, budget: ByteSize) {
        self.fast_budget = budget;
    }

    /// The configuration driving the epoch loop.
    pub fn config(&self) -> &OnlineConfig {
        self.controller.config()
    }

    /// The engine's accumulated simulation statistics.
    pub fn engine_stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// The runtime's own statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Total simulated latency: the engine's execution-time estimate plus
    /// every migration charge incurred while the stream was running
    /// (background housekeeping moves are excluded — see
    /// [`RuntimeStats::background_migration_time`]).
    pub fn total_time(&self) -> Nanos {
        self.engine.stats().time + self.stats.migration_time
    }

    /// Drive the whole access stream through the epoch loop, mutating the
    /// heap's placement as the controller decides. Returns the total number
    /// of LLC misses, mirroring [`TraceEngine::run_stream`].
    pub fn run<I>(&mut self, accesses: I, heap: &mut ProcessHeap) -> u64
    where
        I: IntoIterator<Item = MemoryAccess>,
    {
        let mut it = accesses.into_iter();
        let misses_before = self.engine.stats().counters.llc_misses;
        let epoch_len = self.controller.config().epoch_accesses;
        // Scratch buffer for the epoch's samples, reused across epochs.
        let mut sampled: Vec<RawSample> = Vec::new();

        loop {
            let consumed = self.observe_epoch(&mut it, heap, &mut sampled);
            if consumed == 0 {
                break;
            }
            self.commit_epoch(heap, consumed, &sampled);
            if consumed < epoch_len {
                break;
            }
        }
        self.engine.stats().counters.llc_misses - misses_before
    }

    /// Drive up to one epoch's worth of accesses from `it` through the
    /// engine, with the PEBS sampler observing the LLC-miss stream into
    /// `sampled` (cleared first, so callers can reuse one buffer across
    /// epochs). Returns how many accesses were consumed. Pure observation:
    /// placement is untouched, so the multi-rank runner observes each
    /// shard's epoch in turn, serially, and only then arbitrates.
    pub fn observe_epoch<I>(
        &mut self,
        it: &mut I,
        heap: &ProcessHeap,
        sampled: &mut Vec<RawSample>,
    ) -> u64
    where
        I: Iterator<Item = MemoryAccess>,
    {
        let epoch_len = self.controller.config().epoch_accesses;
        sampled.clear();
        let epoch_start = self.engine.stats().time;
        let mut consumed = 0u64;
        let engine = &mut self.engine;
        let sampler = &mut self.sampler;
        let page_table = heap.page_table();
        while consumed < epoch_len {
            let Some(acc) = it.next() else { break };
            consumed += 1;
            engine.access_with(&acc, page_table, |addr| {
                if let Some(s) = sampler.observe(epoch_start, addr) {
                    sampled.push(s);
                }
            });
        }
        consumed
    }

    /// Close one observed epoch: aggregate the samples into heat, re-run the
    /// controller's selection against [`fast_budget`](Self::fast_budget) and
    /// execute the migration delta.
    pub fn commit_epoch(&mut self, heap: &mut ProcessHeap, consumed: u64, sampled: &[RawSample]) {
        for s in sampled {
            if let Some(obj) = heap.registry().find_containing(s.address) {
                self.controller.record(obj.id, s.weight as f64);
            }
        }
        let live = ObjectPlacement::snapshot_live(heap);
        let plan = self.controller.end_epoch(&live, self.fast_budget);
        self.commit_epoch_with_plan(heap, consumed, sampled.len() as u64, &plan);
    }

    /// Close one observed epoch by executing `plan` and booking the epoch
    /// into the statistics. [`commit_epoch`](Self::commit_epoch) passes its
    /// own controller's plan; the node-global planner passes its slice.
    pub fn commit_epoch_with_plan(
        &mut self,
        heap: &mut ProcessHeap,
        accesses: u64,
        samples: u64,
        plan: &EpochPlan,
    ) {
        let exec = self.execute(heap, plan);
        self.stats.accesses += accesses;
        self.stats.epochs += 1;
        self.stats.samples += samples;
        self.stats.migrations += exec.moves();
        self.stats.bytes_migrated += ByteSize::from_bytes(exec.bytes_moved);
        self.stats.migration_time += exec.time;
        self.stats.epoch_log.push(EpochRecord {
            accesses,
            samples,
            promotions: exec.promotions,
            demotions: exec.demotions,
            bytes_moved: exec.bytes_moved,
            migration_time: exec.time,
        });
    }

    /// Execute a node-planner slice on a runtime whose stream has already
    /// drained. The moves happen (and are counted as background moves), but
    /// no epoch is booked and the latency does not extend
    /// [`total_time`](Self::total_time): demoting a finished rank's
    /// residency is housekeeping off that rank's critical path.
    pub fn commit_background_plan(&mut self, heap: &mut ProcessHeap, plan: &EpochPlan) {
        let exec = self.execute(heap, plan);
        self.stats.background_migrations += exec.moves();
        self.stats.background_migration_time += exec.time;
    }

    /// Execute a plan between MCDRAM and DDR, booking rejects and the
    /// MCDRAM residency peak.
    fn execute(&mut self, heap: &mut ProcessHeap, plan: &EpochPlan) -> PlanExecution {
        let exec = execute_plan(heap, plan, &self.cost);
        self.stats.rejected_moves += exec.rejected;
        self.stats.fast_residency_peak = self
            .stats
            .fast_residency_peak
            .max(heap.tier_occupancy(TierId::MCDRAM));
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::AddressRange;

    fn machine() -> MachineConfig {
        crate::harness::loaded_machine()
    }

    /// A heap with two 128 KiB objects in DDR and a 128 KiB MCDRAM budget.
    fn two_object_heap(m: &MachineConfig) -> (ProcessHeap, AddressRange, AddressRange) {
        let mut heap = ProcessHeap::new(m).unwrap();
        heap.set_capacity_cap(TierId::MCDRAM, ByteSize::from_kib(128))
            .unwrap();
        let (_, hot, _) = heap
            .malloc(
                ByteSize::from_kib(128),
                TierId::DDR,
                "hot",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        let (_, cold, _) = heap
            .malloc(
                ByteSize::from_kib(128),
                TierId::DDR,
                "cold",
                None,
                Nanos::ZERO,
            )
            .unwrap();
        (heap, hot, cold)
    }

    fn hammer(range: AddressRange, passes: u32) -> impl Iterator<Item = MemoryAccess> {
        (0..passes).flat_map(move |_| {
            let elements = range.len.bytes() / 8;
            (0..elements).map(move |i| MemoryAccess::load(range.start.offset(i * 8), 8))
        })
    }

    #[test]
    fn runtime_promotes_the_hammered_object() {
        let m = machine();
        let (mut heap, hot, _) = two_object_heap(&m);
        let cfg = OnlineConfig::default().with_epoch_accesses(16_384);
        let mut rt = OnlineRuntime::new(&m, ByteSize::from_kib(128), cfg);
        let misses = rt.run(hammer(hot, 20), &mut heap);
        assert!(misses > 0);
        assert_eq!(heap.page_table().tier_of(hot.start), TierId::MCDRAM);
        let s = rt.stats();
        assert!(s.migrations >= 1);
        assert_eq!(s.rejected_moves, 0);
        assert!(s.samples > 0);
        assert!(s.migration_time > Nanos::ZERO);
        assert_eq!(s.epoch_log.len() as u64, s.epochs);
        assert!(rt.total_time() > rt.engine_stats().time);
        // Fast-tier traffic flows once the object has been promoted.
        assert!(rt.engine_stats().tier_traffic.bytes(TierId::MCDRAM) > 0);
    }

    #[test]
    fn disabled_runtime_never_touches_placement() {
        let m = machine();
        let (mut heap, hot, cold) = two_object_heap(&m);
        let cfg = OnlineConfig::disabled().with_epoch_accesses(8_192);
        let mut rt = OnlineRuntime::new(&m, ByteSize::from_kib(128), cfg);
        rt.run(hammer(hot, 10).chain(hammer(cold, 2)), &mut heap);
        assert_eq!(heap.page_table().tier_of(hot.start), TierId::DDR);
        assert_eq!(heap.page_table().tier_of(cold.start), TierId::DDR);
        assert_eq!(rt.stats().migrations, 0);
        assert_eq!(rt.stats().migration_time, Nanos::ZERO);
        assert_eq!(rt.total_time(), rt.engine_stats().time);
    }

    #[test]
    fn migration_charges_accumulate_into_total_time() {
        let m = machine();
        let (mut heap, hot, cold) = two_object_heap(&m);
        let cfg = OnlineConfig::default().with_epoch_accesses(16_384);
        let mut rt = OnlineRuntime::new(&m, ByteSize::from_kib(128), cfg);
        // Hammer A, then B: the hot set flips once, forcing a swap.
        rt.run(hammer(hot, 12).chain(hammer(cold, 12)), &mut heap);
        let s = rt.stats().clone();
        assert!(
            s.migrations >= 2,
            "expected at least promote + swap, got {}",
            s.migrations
        );
        let logged: f64 = s.epoch_log.iter().map(|e| e.migration_time.nanos()).sum();
        assert!((logged - s.migration_time.nanos()).abs() < 1e-6);
        let logged_bytes: u64 = s.epoch_log.iter().map(|e| e.bytes_moved).sum();
        assert_eq!(logged_bytes, s.bytes_migrated.bytes());
        // After the flip, the second object owns the fast tier.
        assert_eq!(heap.page_table().tier_of(cold.start), TierId::MCDRAM);
        assert_eq!(heap.page_table().tier_of(hot.start), TierId::DDR);
    }
}
