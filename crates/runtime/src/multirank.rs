//! The rank-sharded simulation path.
//!
//! An MPI run is R independent processes sharing one node; this module
//! simulates it as R independent shards — each with its own
//! [`TraceEngine`](hmsim_machine::TraceEngine), [`ProcessHeap`] and PEBS
//! sampler, wrapped in an [`OnlineRuntime`] — advancing in lock-step epochs
//! under a shared node-level fast-tier budget enforced by the
//! [`NodeArbiter`].
//!
//! Each node epoch has two halves, both serial and in rank order:
//!
//! 1. **observe** — every active shard drives its next window of accesses
//!    through its own engine while its sampler watches the miss stream;
//! 2. **arbitrate + commit** — the arbiter hands each rank its budget and
//!    the shards execute their migration deltas. Under
//!    [`ArbiterPolicy::Global`] the per-rank samples are first folded into
//!    one node-wide heat map, and a single controller packs one knapsack
//!    spanning every rank's objects. Object ids are globalized disjointly
//!    per rank and each sample only adds into its own object's heat, so the
//!    heat is the same whatever order the ranks are folded in: no cross-rank
//!    time ordering is needed.
//!
//! Every shard allocates its objects as `r####/<name>`, so the global
//! planner's name tie-break orders objects by rank first without renaming
//! anything per epoch; within one rank the shared prefix keeps the order of
//! the bare names.
//!
//! With one rank the epoch schedule, budgets and plans collapse to exactly
//! what [`OnlineRuntime::run`] does, whatever the policy — the
//! `multirank_equivalence` integration test pins that bitwise.

use crate::arbiter::{ArbiterPolicy, NodeArbiter};
use crate::controller::{EpochPlan, PlacementController};
use crate::harness::provision_prefixed;
use crate::{OnlineConfig, OnlineRuntime, RuntimeStats};
use hmsim_apps::{MultiRankWorkload, PhasedStream};
use hmsim_common::{ByteSize, HmError, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::ProcessHeap;
use hmsim_machine::{EngineStats, MachineConfig};
use hmsim_pebs::RawSample;

/// Per-rank object ids are globalized by offsetting with the rank so one
/// controller can plan across every shard's objects. Rank 0 keeps its ids
/// unchanged, which is what makes the single-rank global path bitwise
/// identical to the per-rank controller.
const RANK_ID_STRIDE: u32 = 1 << 22;

/// Ranks whose globalized ids fit a `u32`: `2^32 / RANK_ID_STRIDE`.
pub const MAX_RANKS: u32 = (u32::MAX / RANK_ID_STRIDE) + 1;

/// Globalize a rank-local id. [`MultiRankRuntime::new`] refuses rank counts
/// and object ids that would not fit, so this never wraps.
fn global_id(rank: u32, id: ObjectId) -> ObjectId {
    ObjectId(rank * RANK_ID_STRIDE + id.0)
}

fn split_global_id(id: ObjectId) -> (u32, ObjectId) {
    (id.0 / RANK_ID_STRIDE, ObjectId(id.0 % RANK_ID_STRIDE))
}

/// Configuration of one multi-rank run.
#[derive(Clone, Debug)]
pub struct MultiRankConfig {
    /// How the node-level fast-tier budget is arbitrated between ranks.
    pub policy: ArbiterPolicy,
    /// The *node's* fast-tier budget, shared by every rank.
    pub node_fast_budget: ByteSize,
    /// Per-shard epoch-loop knobs. Shard r's sampler is seeded with
    /// `online.seed + r`, so rank 0 reproduces the single-rank runtime.
    pub online: OnlineConfig,
}

impl MultiRankConfig {
    /// A configuration with default epoch knobs.
    pub fn new(policy: ArbiterPolicy, node_fast_budget: ByteSize) -> Self {
        MultiRankConfig {
            policy,
            node_fast_budget,
            online: OnlineConfig::default(),
        }
    }

    /// Override the epoch-loop knobs.
    pub fn with_online(mut self, online: OnlineConfig) -> Self {
        self.online = online;
        self
    }

    /// Returns `self` unchanged: shards always run serially. Kept so that
    /// existing callers still compile.
    pub fn serial(self) -> Self {
        self
    }
}

/// What one rank's shard did.
#[derive(Clone, Debug)]
pub struct RankOutcome {
    /// The rank.
    pub rank: u32,
    /// The shard's simulated time: engine execution estimate plus every
    /// migration charge.
    pub time: Nanos,
    /// The shard engine's accumulated statistics.
    pub engine: EngineStats,
    /// The shard runtime's statistics (epochs, migrations, bytes moved).
    pub stats: RuntimeStats,
    /// Fast-tier bytes this rank's heap still held when its stream drained.
    /// The Scenario facade reports the rank's footprint as its peak,
    /// `stats.fast_residency_peak`, instead.
    pub fast_residency: ByteSize,
}

/// Outcome of one multi-rank run.
#[derive(Clone, Debug)]
pub struct MultiRankOutcome {
    /// The policy that arbitrated the fast tier.
    pub policy: ArbiterPolicy,
    /// Per-rank outcomes, rank order.
    pub per_rank: Vec<RankOutcome>,
    /// Node epochs executed (windows in which at least one shard ran).
    pub node_epochs: u64,
}

impl MultiRankOutcome {
    /// The node's wall-clock estimate: ranks of an MPI application
    /// synchronize, so the slowest shard is the node (BSP assumption).
    pub fn node_time(&self) -> Nanos {
        self.per_rank
            .iter()
            .map(|r| r.time)
            .fold(Nanos::ZERO, Nanos::max)
    }

    /// Total LLC misses over all ranks.
    pub fn total_misses(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|r| r.engine.counters.llc_misses)
            .sum()
    }

    /// Total migrations over all ranks.
    pub fn total_migrations(&self) -> u64 {
        self.per_rank.iter().map(|r| r.stats.migrations).sum()
    }
}

/// One rank's shard: an independent engine + sampler + heap advancing its
/// own access stream.
struct Shard {
    rank: u32,
    rt: OnlineRuntime,
    heap: ProcessHeap,
    stream: PhasedStream,
    /// Scratch buffer holding the current epoch's samples (reused).
    samples: Vec<RawSample>,
    done: bool,
}

/// The epoch-lock-stepped multi-rank driver.
pub struct MultiRankRuntime {
    shards: Vec<Shard>,
    arbiter: NodeArbiter,
    /// The node-spanning controller (global policy only).
    global: Option<PlacementController>,
    /// The open node epoch: each active rank with the accesses it consumed.
    observed: Vec<(u32, u64)>,
    epoch_len: u64,
    node_epochs: u64,
}

impl MultiRankRuntime {
    /// Provision one shard per rank of `workload` on `machine`: every
    /// object starts in DDR and each shard's heap is capped at the
    /// arbiter's per-rank maximum. Fails with [`HmError::Config`] when the
    /// rank count or a provisioned object id does not fit the globalized id
    /// space (more than 1024 ranks, or 2^22 objects on one rank).
    pub fn new(
        workload: &MultiRankWorkload,
        machine: &MachineConfig,
        cfg: MultiRankConfig,
    ) -> HmResult<Self> {
        let ranks = workload.ranks();
        if ranks > MAX_RANKS {
            return Err(HmError::Config(format!(
                "{ranks} ranks exceed the {MAX_RANKS} the globalized object ids can tell apart"
            )));
        }
        let arbiter = NodeArbiter::new(cfg.policy, cfg.node_fast_budget, ranks);
        let mut shards = Vec::with_capacity(ranks as usize);
        for rank in 0..ranks {
            let w = workload.rank(rank);
            let p = provision_prefixed(w, machine, arbiter.rank_cap(), &format!("r{rank:04}/"))?;
            if let Some(id) = p.ids.iter().find(|id| id.0 >= RANK_ID_STRIDE) {
                return Err(HmError::Config(format!(
                    "rank {rank} object id {} overflows the per-rank id stride {RANK_ID_STRIDE}",
                    id.0
                )));
            }
            let mut shard_cfg = cfg.online.clone();
            shard_cfg.seed = cfg.online.seed.wrapping_add(u64::from(rank));
            let rt = OnlineRuntime::new(machine, arbiter.partition_share(), shard_cfg);
            shards.push(Shard {
                rank,
                rt,
                stream: w.stream(&p.ranges),
                heap: p.heap,
                samples: Vec::new(),
                done: false,
            });
        }
        let global = matches!(cfg.policy, ArbiterPolicy::Global)
            .then(|| PlacementController::new(cfg.online.clone()));
        Ok(MultiRankRuntime {
            shards,
            arbiter,
            global,
            observed: Vec::new(),
            epoch_len: cfg.online.epoch_accesses,
            node_epochs: 0,
        })
    }

    /// The arbiter governing the node's fast tier.
    pub fn arbiter(&self) -> &NodeArbiter {
        &self.arbiter
    }

    /// Drive every shard to the end of its stream, arbitrating the fast
    /// tier at every epoch boundary, and return the outcome.
    pub fn run(mut self) -> MultiRankOutcome {
        while self.observe() {
            self.commit();
        }
        let policy = self.arbiter.policy();
        let per_rank = self
            .shards
            .into_iter()
            .map(|s| RankOutcome {
                rank: s.rank,
                time: s.rt.total_time(),
                engine: s.rt.engine_stats().clone(),
                stats: s.rt.stats().clone(),
                fast_residency: s.heap.tier_occupancy(TierId::MCDRAM),
            })
            .collect();
        MultiRankOutcome {
            policy,
            per_rank,
            node_epochs: self.node_epochs,
        }
    }

    /// The observe half of a node epoch: every active shard, in rank order,
    /// drives its next window of accesses into its own reused sample buffer.
    /// Returns `false`, opening no epoch, once every shard has drained its
    /// stream.
    pub fn observe(&mut self) -> bool {
        let mut observed = Vec::with_capacity(self.shards.len());
        for s in self.shards.iter_mut().filter(|s| !s.done) {
            let consumed = s.rt.observe_epoch(&mut s.stream, &s.heap, &mut s.samples);
            observed.push((s.rank, consumed));
        }
        // Also true when every shard is already done.
        if observed.iter().all(|(_, consumed)| *consumed == 0) {
            return false;
        }
        self.node_epochs += 1;
        self.observed = observed;
        true
    }

    /// The arbitrate + commit half of the node epoch the last
    /// [`observe`](Self::observe) opened, deterministic in rank order. It
    /// closes that epoch: a second call commits nothing.
    pub fn commit(&mut self) {
        let observed = std::mem::take(&mut self.observed);
        if observed.is_empty() {
            return;
        }
        if self.global.is_some() {
            self.commit_global(&observed);
        } else {
            self.commit_per_rank(&observed);
        }
        for (rank, consumed) in &observed {
            if *consumed < self.epoch_len {
                self.shards[*rank as usize].done = true;
            }
        }
    }

    /// FCFS / partition commit: each shard plans with its own controller
    /// against the budget the arbiter hands it. Under FCFS earlier ranks'
    /// migrations are visible to later ranks' budgets — that *is* the
    /// first-come-first-served semantics.
    fn commit_per_rank(&mut self, observed: &[(u32, u64)]) {
        // Only FCFS budgets depend on who holds what. A rank's commit moves
        // only its own residency, so one snapshot per node epoch, updated
        // after each commit, is what every later rank would see. Partition
        // budgets are residency-independent and take none.
        let mut residencies: Vec<ByteSize> = Vec::new();
        if self.arbiter.policy() == ArbiterPolicy::Fcfs {
            let occupancy = |s: &Shard| s.heap.tier_occupancy(TierId::MCDRAM);
            residencies.extend(self.shards.iter().map(occupancy));
        }
        for &(rank, consumed) in observed {
            if consumed == 0 {
                continue;
            }
            let budget = self.arbiter.epoch_budget(rank, &residencies);
            let Shard {
                rt, heap, samples, ..
            } = &mut self.shards[rank as usize];
            rt.set_fast_budget(budget);
            rt.commit_epoch(heap, consumed, samples);
            if let Some(held) = residencies.get_mut(rank as usize) {
                *held = heap.tier_occupancy(TierId::MCDRAM);
            }
        }
    }

    /// Global commit: fold every rank's samples into node-wide heat, run one
    /// selection spanning every rank's objects against the whole node
    /// budget, then execute the per-rank slices of the plan in rank order.
    fn commit_global(&mut self, observed: &[(u32, u64)]) {
        let controller = self.global.as_mut().expect("global controller present");

        // Fold every rank's samples into node-wide heat. Global ids are
        // disjoint per rank and `record` only adds into the object's own heat
        // entry, so each object's f64 sum depends only on its own rank's
        // sample order: a plain rank-order loop needs no cross-rank merge.
        let shards = &self.shards;
        for (rank, _) in observed {
            let shard = &shards[*rank as usize];
            for s in &shard.samples {
                if let Some(obj) = shard.heap.registry().find_containing(s.address) {
                    controller.record(global_id(*rank, obj.id), s.weight as f64);
                }
            }
        }

        // Every rank's live objects under global ids. Finished shards count:
        // their objects still occupy the fast tier and must stay demotable.
        let mut live = Vec::new();
        for s in shards {
            let objects = s.heap.registry().live();
            live.extend(objects.map(|o| (global_id(s.rank, o.id), o)));
        }
        let plan = controller.end_epoch(&live, self.arbiter.node_budget());

        // Slice the node plan per rank, preserving the planner's order.
        let ranks = self.shards.len();
        let mut slices: Vec<EpochPlan> = (0..ranks).map(|_| EpochPlan::default()).collect();
        for id in &plan.demotions {
            let (rank, local) = split_global_id(*id);
            slices[rank as usize].demotions.push(local);
        }
        for id in &plan.promotions {
            let (rank, local) = split_global_id(*id);
            slices[rank as usize].promotions.push(local);
        }

        let mut consumed_of = vec![0u64; ranks];
        for (rank, consumed) in observed {
            consumed_of[*rank as usize] = *consumed;
        }
        for (rank, slice) in slices.iter().enumerate() {
            let consumed = consumed_of[rank];
            let Shard {
                rt, heap, samples, ..
            } = &mut self.shards[rank];
            if consumed > 0 {
                rt.migrator
                    .commit_plan(heap, consumed, samples.len() as u64, slice);
            } else if !slice.is_empty() {
                // The shard's stream has drained but the node plan touches
                // its objects (demoting leftover residency to make room for
                // active ranks): execute as background housekeeping — no
                // phantom epoch, no charge on the finished rank's time.
                rt.migrator.commit_background(heap, slice);
            }
        }
    }
}

/// Convenience driver: provision, run and return the outcome in one call.
pub fn run_multirank(
    workload: &MultiRankWorkload,
    machine: &MachineConfig,
    cfg: MultiRankConfig,
) -> HmResult<MultiRankOutcome> {
    Ok(MultiRankRuntime::new(workload, machine, cfg)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::loaded_machine;
    use crate::EpochRecord;
    use hmsim_apps::PhasedWorkload;

    const ARRAY: ByteSize = ByteSize::from_kib(16);

    fn skew() -> MultiRankWorkload {
        MultiRankWorkload::rank_skew_triad(ARRAY, 4, 4, 30)
    }

    fn cfg(policy: ArbiterPolicy, budget: ByteSize) -> MultiRankConfig {
        MultiRankConfig::new(policy, budget)
            .with_online(OnlineConfig::default().with_epoch_accesses(8_192))
    }

    #[test]
    fn global_ids_round_trip() {
        for rank in [0u32, 1, 7, 63] {
            for id in [0u32, 1, 4_000_000] {
                let g = global_id(rank, ObjectId(id));
                assert_eq!(split_global_id(g), (rank, ObjectId(id)));
            }
        }
    }

    #[test]
    fn rank_counts_past_the_id_space_are_refused_before_provisioning() {
        let m = loaded_machine();
        let w = MultiRankWorkload::replicated(PhasedWorkload::steady_triad(ARRAY, 1), 2_000);
        let cfg = cfg(ArbiterPolicy::Global, ByteSize::from_mib(1));
        let err = MultiRankRuntime::new(&w, &m, cfg.clone())
            .err()
            .expect("2000 ranks refused");
        assert!(
            matches!(&err, HmError::Config(msg) if msg.contains("2000 ranks")),
            "{err:?}"
        );
        // The largest rank still has room for a full stride of ids.
        assert_eq!(
            global_id(MAX_RANKS - 1, ObjectId(RANK_ID_STRIDE - 1)),
            ObjectId(u32::MAX)
        );
        let over =
            MultiRankWorkload::replicated(PhasedWorkload::steady_triad(ARRAY, 1), MAX_RANKS + 1);
        assert!(MultiRankRuntime::new(&over, &m, cfg).is_err());
    }

    #[test]
    fn every_policy_respects_the_node_budget() {
        let m = loaded_machine();
        let w = skew();
        // Enough for the small ranks plus part of the dominant one.
        let budget = ByteSize::from_kib(288);
        for policy in ArbiterPolicy::ALL {
            let rt = MultiRankRuntime::new(&w, &m, cfg(policy, budget)).unwrap();
            let shards_occupancy = |rt: &MultiRankRuntime| -> u64 {
                rt.shards
                    .iter()
                    .map(|s| s.heap.tier_occupancy(TierId::MCDRAM).bytes())
                    .sum()
            };
            assert_eq!(shards_occupancy(&rt), 0);
            let out = rt.run();
            assert!(out.total_migrations() > 0, "{policy}: nothing migrated");
            assert!(out.per_rank.iter().all(|r| r.stats.rejected_moves == 0));
            // Re-run step by step to watch occupancy under the budget at
            // every epoch boundary.
            let mut rt = MultiRankRuntime::new(&w, &m, cfg(policy, budget)).unwrap();
            while rt.observe() {
                rt.commit();
                let used = shards_occupancy(&rt);
                assert!(
                    used <= budget.bytes(),
                    "{policy}: node budget exceeded ({used} > {})",
                    budget.bytes()
                );
            }
        }
    }

    #[test]
    fn global_beats_partition_on_rank_skew() {
        let m = loaded_machine();
        let w = skew();
        let budget = ByteSize::from_kib(288);
        let partition = run_multirank(&w, &m, cfg(ArbiterPolicy::Partition, budget)).unwrap();
        let global = run_multirank(&w, &m, cfg(ArbiterPolicy::Global, budget)).unwrap();
        assert!(
            global.node_time() < partition.node_time(),
            "global {} vs partition {}",
            global.node_time(),
            partition.node_time()
        );
        // Identical simulated work whatever the policy.
        assert_eq!(
            partition
                .per_rank
                .iter()
                .map(|r| r.stats.accesses)
                .sum::<u64>(),
            global
                .per_rank
                .iter()
                .map(|r| r.stats.accesses)
                .sum::<u64>()
        );
    }

    /// Under the global policy the node planner demotes a drained rank's
    /// residency to make room for the ranks still running. Those moves
    /// happen as background moves: no epoch is booked for them and their
    /// latency stays off the drained rank's time.
    #[test]
    fn background_moves_of_drained_ranks_stay_off_their_time() {
        let m = loaded_machine();
        let w = MultiRankWorkload::rank_skew_triad(ARRAY, 4, 4, 4);
        let cfg = MultiRankConfig::new(ArbiterPolicy::Global, ByteSize::from_kib(128))
            .with_online(OnlineConfig::default().with_epoch_accesses(16_384));
        let out = run_multirank(&w, &m, cfg).unwrap();
        assert!(
            out.per_rank
                .iter()
                .any(|r| r.stats.background_migrations > 0
                    && r.stats.background_migration_time > Nanos::ZERO),
            "no background move"
        );
        for r in &out.per_rank {
            let (s, at) = (&r.stats, format!("rank {}", r.rank));
            assert_eq!(s.rejected_moves, 0, "{at}");
            let time = r.engine.time + s.migration_time;
            assert_eq!(r.time.nanos().to_bits(), time.nanos().to_bits(), "{at}");
            assert_eq!(s.epoch_log.len() as u64, s.epochs, "{at}");
            let moves: u64 = s.epoch_log.iter().map(EpochRecord::moves).sum();
            assert_eq!(moves, s.migrations, "{at}");
            let bytes: u64 = s.epoch_log.iter().map(|e| e.bytes_moved).sum();
            assert_eq!(bytes, s.bytes_migrated.bytes(), "{at}");
            let logged = s
                .epoch_log
                .iter()
                .fold(Nanos::ZERO, |t, e| t + e.migration_time);
            assert_eq!(
                logged.nanos().to_bits(),
                s.migration_time.nanos().to_bits(),
                "{at}"
            );
        }
    }

    #[test]
    fn replicated_ranks_under_partition_match_each_other() {
        let m = loaded_machine();
        let w = MultiRankWorkload::replicated(PhasedWorkload::steady_triad(ARRAY, 20), 3);
        let budget = w.node_hot_set();
        let out = run_multirank(&w, &m, cfg(ArbiterPolicy::Partition, budget)).unwrap();
        assert_eq!(out.per_rank.len(), 3);
        // Same workload, same share, same seed derivation modulo the
        // sampler offset: counters must agree exactly (the sampler does not
        // influence simulation), times within noise of each other.
        let c0 = &out.per_rank[0].engine.counters;
        for r in &out.per_rank[1..] {
            assert_eq!(&r.engine.counters, c0, "rank {} diverged", r.rank);
        }
        assert!(out.node_time() >= out.per_rank[0].time);
    }
}
