//! The trace-driven online placement runtime and the commit half every
//! online run shares.
//!
//! Each epoch the [`OnlineRuntime`] (1) drives the [`TraceEngine`] over the
//! next window of accesses while a [`PebsSampler`] observes the LLC-miss
//! stream, (2) aggregates the samples into per-object heat through the
//! heap's live-object registry, then hands the epoch to its [`Migrator`],
//! which (3) re-runs the controller's selection over the heap's live
//! objects, read in place from the registry, against the fast-tier budget
//! and (4) executes the migration delta, charging every move through the
//! [`MigrationCostModel`] and booking it into [`RuntimeStats`].
//!
//! The [`Migrator`] is the one place migrations are booked: the analytic
//! runner in `hmem-core` drives the same one, with one application iteration
//! as its epoch and each object's misses as its heat.

use crate::controller::{EpochPlan, PlacementController};
use crate::cost::MigrationCostModel;
use crate::OnlineConfig;
use hmsim_common::{ByteSize, Nanos, ObjectId, TierId};
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

impl EpochRecord {
    /// Moves executed (promotions + demotions).
    pub fn moves(&self) -> u64 {
        u64::from(self.promotions) + u64::from(self.demotions)
    }
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

/// The commit half of an online run: it takes each epoch's heat, plans the
/// placement delta against the fast-tier budget, executes it between MCDRAM
/// and DDR and books the epoch into its [`RuntimeStats`].
pub struct Migrator {
    controller: PlacementController,
    cost: MigrationCostModel,
    fast_budget: ByteSize,
    stats: RuntimeStats,
}

impl Migrator {
    /// A migrator for `machine` with `fast_budget` bytes of MCDRAM at its
    /// disposal; plans promote into MCDRAM and demote to DDR.
    pub fn new(machine: &MachineConfig, fast_budget: ByteSize, cfg: OnlineConfig) -> Self {
        Migrator {
            controller: PlacementController::new(cfg),
            cost: MigrationCostModel::new(machine),
            fast_budget,
            stats: RuntimeStats::default(),
        }
    }

    /// Accumulate `weight` units of heat on object `id` for the current
    /// epoch (a PEBS sample weight or a miss count).
    pub fn record(&mut self, id: ObjectId, weight: f64) {
        self.controller.record(id, weight);
    }

    /// Close one epoch of `accesses` accesses and `samples` samples:
    /// re-run the selection over the recorded heat and `heap`'s live
    /// objects, each under its own id, against the fast-tier budget,
    /// execute the delta on `heap` and book it. Returns the latency
    /// charged for the epoch's moves.
    pub fn commit(&mut self, heap: &mut ProcessHeap, accesses: u64, samples: u64) -> Nanos {
        let live: Vec<_> = heap.registry().live().map(|o| (o.id, o)).collect();
        let plan = self.controller.end_epoch(&live, self.fast_budget);
        self.commit_plan(heap, accesses, samples, &plan)
    }

    /// The statistics booked so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Close one epoch by executing `plan` (the node-global planner's slice
    /// for this rank) and booking the epoch. Returns the moves' latency.
    pub(crate) fn commit_plan(
        &mut self,
        heap: &mut ProcessHeap,
        accesses: u64,
        samples: u64,
        plan: &EpochPlan,
    ) -> Nanos {
        let record = EpochRecord {
            accesses,
            samples,
            ..self.execute(heap, plan)
        };
        let stats = &mut self.stats;
        stats.epochs += 1;
        stats.accesses += accesses;
        stats.samples += samples;
        stats.migrations += record.moves();
        stats.bytes_migrated += ByteSize::from_bytes(record.bytes_moved);
        stats.migration_time += record.migration_time;
        stats.epoch_log.push(record);
        record.migration_time
    }

    /// Execute a node-planner slice for a rank whose stream has already
    /// drained. The moves happen and count as background moves, but no
    /// epoch is booked and their latency is not the rank's: demoting a
    /// finished rank's residency is housekeeping off its critical path.
    pub(crate) fn commit_background(&mut self, heap: &mut ProcessHeap, plan: &EpochPlan) {
        let record = self.execute(heap, plan);
        self.stats.background_migrations += record.moves();
        self.stats.background_migration_time += record.migration_time;
    }

    /// Execute `plan` on `heap`: the demotions to DDR first, freeing the
    /// capacity the promotions to MCDRAM consume. Every move is charged
    /// through the cost model. A move the heap rejects is not fatal: it
    /// counts in `rejected_moves`. The MCDRAM residency left afterwards
    /// updates `fast_residency_peak`.
    fn execute(&mut self, heap: &mut ProcessHeap, plan: &EpochPlan) -> EpochRecord {
        let mut record = EpochRecord::default();
        for (ids, from, to) in [
            (&plan.demotions, TierId::MCDRAM, TierId::DDR),
            (&plan.promotions, TierId::DDR, TierId::MCDRAM),
        ] {
            for id in ids {
                match heap.migrate_object(*id, to) {
                    Ok(bytes) => {
                        if to == TierId::MCDRAM {
                            record.promotions += 1;
                        } else {
                            record.demotions += 1;
                        }
                        record.bytes_moved += bytes.bytes();
                        record.migration_time += self.cost.charge(bytes, from, to);
                    }
                    Err(_) => self.stats.rejected_moves += 1,
                }
            }
        }
        let occupancy = heap.tier_occupancy(TierId::MCDRAM);
        self.stats.fast_residency_peak = self.stats.fast_residency_peak.max(occupancy);
        record
    }
}

/// The epoch-driven online placement engine: the observe half (engine and
/// sampler) in front of a [`Migrator`].
pub struct OnlineRuntime {
    engine: TraceEngine,
    sampler: PebsSampler,
    pub(crate) migrator: Migrator,
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
            migrator: Migrator::new(machine, fast_budget, cfg),
        }
    }

    /// Re-arm the fast-tier budget. The multi-rank shard runner calls this
    /// every epoch with whatever the node arbiter granted this rank.
    pub fn set_fast_budget(&mut self, budget: ByteSize) {
        self.migrator.fast_budget = budget;
    }

    /// The engine's accumulated simulation statistics.
    pub fn engine_stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// The runtime's own statistics.
    pub fn stats(&self) -> &RuntimeStats {
        self.migrator.stats()
    }

    /// Total simulated latency: the engine's execution-time estimate plus
    /// every migration charge incurred while the stream was running
    /// (background housekeeping moves are excluded — see
    /// [`RuntimeStats::background_migration_time`]).
    pub fn total_time(&self) -> Nanos {
        self.engine.stats().time + self.stats().migration_time
    }

    fn epoch_len(&self) -> u64 {
        self.migrator.controller.config().epoch_accesses
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
        let epoch_len = self.epoch_len();
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
        let epoch_len = self.epoch_len();
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

    /// Close one observed epoch: resolve each sample to the live object it
    /// falls in, record its weight as heat and let the [`Migrator`] commit.
    pub fn commit_epoch(&mut self, heap: &mut ProcessHeap, consumed: u64, sampled: &[RawSample]) {
        for s in sampled {
            if let Some(obj) = heap.registry().find_containing(s.address) {
                self.migrator.record(obj.id, s.weight as f64);
            }
        }
        self.migrator.commit(heap, consumed, sampled.len() as u64);
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
