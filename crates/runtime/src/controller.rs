//! The per-epoch placement controller: heat aggregation, hysteresis and the
//! advisor-backed selection that turns observed heat into a migration plan.
//!
//! The controller is deliberately engine-agnostic: the trace-driven
//! [`OnlineRuntime`](crate::OnlineRuntime) feeds it PEBS sample weights, the
//! analytic runner in `hmem-core` feeds it per-iteration object miss counts,
//! and both execute the same plans through [`execute_plan`].

use crate::config::OnlineConfig;
use crate::cost::MigrationCostModel;
use hmem_advisor::{Candidate, SelectionStrategy};
use hmsim_common::{ByteSize, Nanos, ObjectId, TierId};
use hmsim_heap::ProcessHeap;
use std::collections::{HashMap, HashSet};

/// Where one live object currently sits, as the controller sees it.
#[derive(Clone, Debug)]
pub struct ObjectPlacement {
    /// The object.
    pub id: ObjectId,
    /// Its name (tie-breaker for deterministic ranking).
    pub name: String,
    /// Its size.
    pub size: ByteSize,
    /// The tier its pages currently live in.
    pub tier: TierId,
}

impl ObjectPlacement {
    /// Snapshot every live object of a heap — the placement view both the
    /// trace-driven runtime and the analytic runner hand to
    /// [`PlacementController::end_epoch`].
    pub fn snapshot_live(heap: &ProcessHeap) -> Vec<ObjectPlacement> {
        heap.registry()
            .live()
            .into_iter()
            .map(|o| ObjectPlacement {
                id: o.id,
                name: o.name.clone(),
                size: o.size(),
                tier: o.tier,
            })
            .collect()
    }
}

/// The migration plan for one epoch. Demotions are ordered first: they free
/// the fast-tier capacity the promotions consume.
#[derive(Clone, Debug, Default)]
pub struct EpochPlan {
    /// Objects to evict from the fast tier (coldest first).
    pub demotions: Vec<ObjectId>,
    /// Objects to move into the fast tier (hottest first).
    pub promotions: Vec<ObjectId>,
}

impl EpochPlan {
    /// Whether the plan moves anything.
    pub fn is_empty(&self) -> bool {
        self.demotions.is_empty() && self.promotions.is_empty()
    }

    /// Total moves in the plan.
    pub fn moves(&self) -> usize {
        self.demotions.len() + self.promotions.len()
    }
}

/// What executing one [`EpochPlan`] did. Each caller books it into its
/// own statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanExecution {
    /// Objects promoted to the fast tier.
    pub promotions: u32,
    /// Objects demoted out of the fast tier.
    pub demotions: u32,
    /// Bytes moved between tiers.
    pub bytes_moved: u64,
    /// Latency charged for the moves.
    pub time: Nanos,
    /// Planned moves the heap rejected (capacity races). Plans are
    /// conservative, so this should stay at zero.
    pub rejected: u64,
}

impl PlanExecution {
    /// Moves executed (promotions + demotions).
    pub fn moves(&self) -> u64 {
        u64::from(self.promotions) + u64::from(self.demotions)
    }
}

/// Execute `plan` on `heap`: the demotions to `slow` first, freeing the
/// capacity the promotions to `fast` consume. Every move is charged through
/// `cost`; a move the heap rejects is counted, not fatal.
pub fn execute_plan(
    heap: &mut ProcessHeap,
    plan: &EpochPlan,
    fast: TierId,
    slow: TierId,
    cost: &MigrationCostModel,
) -> PlanExecution {
    let mut exec = PlanExecution::default();
    for (ids, from, to) in [
        (&plan.demotions, fast, slow),
        (&plan.promotions, slow, fast),
    ] {
        for id in ids {
            match heap.migrate_object(*id, to) {
                Ok(bytes) => {
                    if to == fast {
                        exec.promotions += 1;
                    } else {
                        exec.demotions += 1;
                    }
                    exec.bytes_moved += bytes.bytes();
                    exec.time += cost.charge(bytes, from, to);
                }
                Err(_) => exec.rejected += 1,
            }
        }
    }
    exec
}

/// Epoch-driven placement decision engine with hysteresis.
#[derive(Clone, Debug)]
pub struct PlacementController {
    cfg: OnlineConfig,
    /// Decayed per-object heat (sample weights / miss counts).
    heat: HashMap<ObjectId, f64>,
    /// Epoch at which each object last migrated (for min-residency pinning).
    moved_at: HashMap<ObjectId, u64>,
    /// Epochs completed.
    epoch: u64,
}

impl PlacementController {
    /// Create a controller.
    pub fn new(cfg: OnlineConfig) -> Self {
        PlacementController {
            cfg,
            heat: HashMap::new(),
            moved_at: HashMap::new(),
            epoch: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// Epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Accumulate `weight` units of heat on `id` (a PEBS sample weight or a
    /// miss count attributed to the object during the current epoch).
    pub fn record(&mut self, id: ObjectId, weight: f64) {
        if weight > 0.0 {
            *self.heat.entry(id).or_insert(0.0) += weight;
        }
    }

    /// Current decayed heat of an object.
    pub fn heat_of(&self, id: ObjectId) -> f64 {
        self.heat.get(&id).copied().unwrap_or(0.0)
    }

    /// Close the current epoch: re-run the advisor's selection over the
    /// accumulated heat, derive the migration delta against the placement in
    /// `live`, apply hysteresis and the per-epoch move budget, decay the heat
    /// and return the plan. `fast_budget` is the fast tier's byte budget.
    pub fn end_epoch(
        &mut self,
        live: &[ObjectPlacement],
        fast_tier: TierId,
        fast_budget: ByteSize,
    ) -> EpochPlan {
        self.epoch += 1;
        // Heat and pinning state for objects that died stops mattering.
        let live_ids: HashSet<ObjectId> = live.iter().map(|o| o.id).collect();
        self.heat.retain(|id, _| live_ids.contains(id));
        self.moved_at.retain(|id, _| live_ids.contains(id));

        let plan = if self.cfg.migrations_enabled() {
            self.plan(live, fast_tier, fast_budget)
        } else {
            EpochPlan::default()
        };

        for h in self.heat.values_mut() {
            *h *= self.cfg.heat_decay;
        }
        plan
    }

    /// An object that moved less than `min_residency_epochs` ago is pinned
    /// to the tier it is in.
    fn pinned(&self, id: ObjectId) -> bool {
        self.moved_at
            .get(&id)
            .map(|at| self.epoch - at < self.cfg.min_residency_epochs)
            .unwrap_or(false)
    }

    /// Effective heat used for ranking: incumbents of the fast tier get the
    /// deadband bonus, so a challenger must out-heat them by that margin.
    fn effective_heat(&self, obj: &ObjectPlacement, fast_tier: TierId) -> f64 {
        let h = self.heat_of(obj.id);
        if obj.tier == fast_tier {
            h * (1.0 + self.cfg.heat_deadband.max(0.0))
        } else {
            h
        }
    }

    /// Run the advisor's selection over the unpinned candidates and pack the
    /// winners into the budget left after pinned fast-tier residents.
    fn select_target(
        &self,
        candidates: &[&ObjectPlacement],
        fast_tier: TierId,
        budget: ByteSize,
    ) -> Vec<ObjectId> {
        // A huge deadband saturates the `as u64` cast; capping each value
        // keeps every sum over the candidates (the total, the exact DP's
        // partial sums) inside u64.
        let cap = u64::MAX / candidates.len().max(1) as u64;
        let offered: Vec<Candidate<'_>> = candidates
            .iter()
            .map(|o| Candidate {
                name: &o.name,
                size: o.size,
                value: (self.effective_heat(o, fast_tier).round() as u64).min(cap),
            })
            .collect();
        let total: u64 = offered.iter().map(|c| c.value).sum();
        let select = |strategy| hmem_advisor::select(strategy, &offered, total, Some(budget));
        // The exact DP refuses oversized instances; the density greedy is
        // the controller's fallback for that regime.
        let selected = select(self.cfg.strategy)
            .or_else(|_| select(SelectionStrategy::Density))
            .expect("greedy selection never fails");
        selected.into_iter().map(|i| candidates[i].id).collect()
    }

    fn plan(&mut self, live: &[ObjectPlacement], fast_tier: TierId, budget: ByteSize) -> EpochPlan {
        // Pinned fast-tier residents consume budget no matter what.
        let pinned_fast: u64 = live
            .iter()
            .filter(|o| o.tier == fast_tier && self.pinned(o.id))
            .map(|o| o.size.page_aligned().bytes())
            .sum();
        let free_budget = budget.saturating_sub(ByteSize::from_bytes(pinned_fast));
        let candidates: Vec<&ObjectPlacement> =
            live.iter().filter(|o| !self.pinned(o.id)).collect();
        let target: HashSet<ObjectId> = self
            .select_target(&candidates, fast_tier, free_budget)
            .into_iter()
            .collect();

        // Promotion queue: hottest first. Demotion queue: coldest first.
        // Names break ties so plans are deterministic across runs.
        let mut promote: Vec<&&ObjectPlacement> = candidates
            .iter()
            .filter(|o| target.contains(&o.id) && o.tier != fast_tier)
            .collect();
        promote.sort_by(|a, b| {
            self.heat_of(b.id)
                .partial_cmp(&self.heat_of(a.id))
                .expect("heat is never NaN")
                .then_with(|| a.name.cmp(&b.name))
        });
        let mut demote: Vec<&&ObjectPlacement> = candidates
            .iter()
            .filter(|o| !target.contains(&o.id) && o.tier == fast_tier)
            .collect();
        demote.sort_by(|a, b| {
            self.heat_of(a.id)
                .partial_cmp(&self.heat_of(b.id))
                .expect("heat is never NaN")
                .then_with(|| a.name.cmp(&b.name))
        });

        // Fast-tier bytes currently in use (everything resident, pinned or
        // not); demotions hand bytes back as they are committed.
        let used: u64 = live
            .iter()
            .filter(|o| o.tier == fast_tier)
            .map(|o| o.size.page_aligned().bytes())
            .sum();
        let mut avail = budget.bytes() as i64 - used as i64;
        let mut moves_left = self.cfg.max_moves_per_epoch as usize;
        let mut plan = EpochPlan::default();
        let mut demote_cursor = 0usize;

        for p in promote {
            if moves_left == 0 {
                break;
            }
            let need = p.size.page_aligned().bytes() as i64;
            // Peek how many demotions it takes to fit this promotion; commit
            // only if the whole package fits the move budget — demoting
            // without promoting would pay migration cost for nothing.
            let mut take = 0usize;
            let mut freed = 0i64;
            while avail + freed < need && demote_cursor + take < demote.len() {
                freed += demote[demote_cursor + take].size.page_aligned().bytes() as i64;
                take += 1;
            }
            if avail + freed < need {
                continue;
            }
            if moves_left < take + 1 {
                // This package is too expensive for the remaining move
                // budget, but a colder, smaller promotion further down may
                // still fit into existing free space — keep scanning instead
                // of starving it forever (the plan is deterministic, so a
                // `break` here would repeat every epoch).
                continue;
            }
            for d in &demote[demote_cursor..demote_cursor + take] {
                plan.demotions.push(d.id);
                self.moved_at.insert(d.id, self.epoch);
            }
            demote_cursor += take;
            avail += freed - need;
            moves_left -= take + 1;
            plan.promotions.push(p.id);
            self.moved_at.insert(p.id, self.epoch);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(id: u32, name: &str, kib: u64, tier: TierId) -> ObjectPlacement {
        ObjectPlacement {
            id: ObjectId(id),
            name: name.to_string(),
            size: ByteSize::from_kib(kib),
            tier,
        }
    }

    fn controller() -> PlacementController {
        PlacementController::new(OnlineConfig {
            min_residency_epochs: 2,
            heat_deadband: 0.25,
            heat_decay: 0.5,
            max_moves_per_epoch: 8,
            ..OnlineConfig::default()
        })
    }

    #[test]
    fn hot_object_is_promoted_within_budget() {
        let mut c = controller();
        let live = vec![
            obj(1, "hot", 64, TierId::DDR),
            obj(2, "cold", 64, TierId::DDR),
        ];
        c.record(ObjectId(1), 1000.0);
        c.record(ObjectId(2), 10.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(1)]);
        assert!(plan.demotions.is_empty());
    }

    #[test]
    fn disabled_controller_never_plans_moves() {
        let mut c = PlacementController::new(OnlineConfig::disabled());
        let live = vec![obj(1, "hot", 64, TierId::DDR)];
        c.record(ObjectId(1), 1e6);
        for _ in 0..5 {
            assert!(c
                .end_epoch(&live, TierId::MCDRAM, ByteSize::from_mib(1))
                .is_empty());
        }
    }

    #[test]
    fn deadband_keeps_marginally_colder_incumbents() {
        let mut c = controller();
        let live = vec![
            obj(1, "incumbent", 64, TierId::MCDRAM),
            obj(2, "challenger", 64, TierId::DDR),
        ];
        // Challenger is 10% hotter — inside the 25% deadband.
        c.record(ObjectId(1), 1000.0);
        c.record(ObjectId(2), 1100.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert!(plan.is_empty(), "deadband should protect the incumbent");
        // 50% hotter beats the deadband.
        c.record(ObjectId(1), 1000.0);
        c.record(ObjectId(2), 1500.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert_eq!(plan.demotions, vec![ObjectId(1)]);
        assert_eq!(plan.promotions, vec![ObjectId(2)]);
    }

    #[test]
    fn min_residency_pins_recent_movers() {
        let mut c = controller();
        let mut live = vec![
            obj(1, "a", 64, TierId::DDR),
            obj(2, "b", 64, TierId::MCDRAM),
        ];
        c.record(ObjectId(1), 5000.0);
        c.record(ObjectId(2), 10.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(1)]);
        live[0].tier = TierId::MCDRAM;
        live[1].tier = TierId::DDR;
        // Next epoch the old incumbent is suddenly hot again — but both just
        // moved, so the plan must stay empty until residency expires.
        c.record(ObjectId(2), 50_000.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert!(plan.is_empty(), "residency must pin fresh movers");
        // One epoch later the swap is allowed.
        c.record(ObjectId(2), 50_000.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(2)]);
        assert_eq!(plan.demotions, vec![ObjectId(1)]);
    }

    #[test]
    fn move_budget_bounds_epoch_churn() {
        let mut c = PlacementController::new(OnlineConfig {
            max_moves_per_epoch: 2,
            ..OnlineConfig::default()
        });
        let live: Vec<ObjectPlacement> = (0..6)
            .map(|i| obj(i, &format!("o{i}"), 64, TierId::DDR))
            .collect();
        for i in 0..6 {
            c.record(ObjectId(i), 1000.0 + f64::from(i));
        }
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_mib(1));
        assert!(plan.moves() <= 2, "moves {:?}", plan);
        assert_eq!(plan.promotions.len(), 2);
    }

    #[test]
    fn equal_heat_never_thrashes() {
        let mut c = controller();
        let mut live: Vec<ObjectPlacement> = (0..4)
            .map(|i| obj(i, &format!("seg{i}"), 64, TierId::DDR))
            .collect();
        // Uniform heat, budget for two objects: after the initial fill the
        // placement must be stable forever.
        for epoch in 0..6 {
            for i in 0..4 {
                c.record(ObjectId(i), 100.0);
            }
            let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(128));
            for id in &plan.promotions {
                live.iter_mut().find(|o| o.id == *id).unwrap().tier = TierId::MCDRAM;
            }
            for id in &plan.demotions {
                live.iter_mut().find(|o| o.id == *id).unwrap().tier = TierId::DDR;
            }
            if epoch > 0 {
                assert!(plan.is_empty(), "epoch {epoch} churned: {plan:?}");
            }
        }
        assert_eq!(live.iter().filter(|o| o.tier == TierId::MCDRAM).count(), 2);
    }

    #[test]
    fn exact_knapsack_strategy_plans_optimally() {
        let mut c = PlacementController::new(OnlineConfig {
            strategy: SelectionStrategy::ExactKnapsack,
            ..OnlineConfig::default()
        });
        // Greedy-by-density takes the dense 12 KiB object (920) and can fit
        // nothing else in the 16 KiB budget; exact packs the two 8 KiB
        // objects instead (600 + 500 = 1100).
        let live = vec![
            obj(1, "dense", 12, TierId::DDR),
            obj(2, "mid1", 8, TierId::DDR),
            obj(3, "mid2", 8, TierId::DDR),
        ];
        c.record(ObjectId(1), 920.0);
        c.record(ObjectId(2), 600.0);
        c.record(ObjectId(3), 500.0);
        let plan = c.end_epoch(&live, TierId::MCDRAM, ByteSize::from_kib(16));
        assert_eq!(plan.promotions.len(), 2);
        assert!(plan.promotions.contains(&ObjectId(2)));
        assert!(plan.promotions.contains(&ObjectId(3)));
    }

    #[test]
    fn heat_decays_and_dead_objects_are_pruned() {
        let mut c = controller();
        c.record(ObjectId(1), 100.0);
        let live = vec![obj(1, "x", 64, TierId::DDR)];
        c.end_epoch(&live, TierId::MCDRAM, ByteSize::ZERO);
        assert!((c.heat_of(ObjectId(1)) - 50.0).abs() < 1e-9);
        // Object 1 died: its state disappears on the next epoch close.
        c.end_epoch(&[], TierId::MCDRAM, ByteSize::ZERO);
        assert_eq!(c.heat_of(ObjectId(1)), 0.0);
        assert_eq!(c.epochs(), 2);
    }
}
