//! The per-epoch placement controller: heat aggregation, hysteresis and the
//! advisor-backed selection that turns observed heat into a migration plan.
//!
//! It sees object ids, heat and the heap's live-object records (borrowed,
//! never copied), never an engine. A [`Migrator`](crate::Migrator) owns one
//! and executes its plans, whether the heat is PEBS sample weights from the
//! [`OnlineRuntime`](crate::OnlineRuntime) or per-iteration miss counts from
//! the analytic runner in `hmem-core`; the multi-rank global policy runs one
//! over every rank's objects under rank-globalized ids.
//!
//! Every plan moves objects between MCDRAM (the fast tier) and DDR. Each
//! epoch ranks the decayed heat by density and packs it greedily into the
//! budget (`hmem_advisor::greedy`, the paper's hmem_advisor ranking).
//! [`MIN_RESIDENCY_EPOCHS`] forbids moving an object again right after it
//! moved, and [`HEAT_DEADBAND`] with [`HEAT_DECAY`] make incumbents sticky.
//!
//! The state is one [`IdMap`] of per-object tracks: decayed heat, last move
//! epoch and last epoch live. An epoch close looks each live object up once,
//! copying its track into an array indexed like the live set, and plans on
//! indices into it; planned moves write back, and one `retain` decays the
//! heat and drops dead objects' tracks.

use crate::config::OnlineConfig;
use hmem_advisor::greedy::{pack, rank_by_density};
use hmem_advisor::Candidate;
use hmsim_common::{ByteSize, IdMap, ObjectId, TierId};
use hmsim_heap::DataObject;

/// An object that migrated must stay put for this many epochs before it
/// may move again.
pub const MIN_RESIDENCY_EPOCHS: u64 = 3;

/// Fractional heat bonus granted to current fast-tier residents when the
/// selection re-ranks objects (2.5 = a challenger needs 3.5× the heat of
/// the incumbent it would displace). Together with a fast [`HEAT_DECAY`]
/// this is what separates a *phase change* (the old hot set stops missing
/// entirely, so its decayed heat collapses within ~3 epochs and any real
/// challenger overtakes it) from *scan aliasing* (a uniform scan sliced by
/// epoch windows keeps re-touching every object, so incumbents never decay
/// far enough to be displaced and the placement stays put).
pub const HEAT_DEADBAND: f64 = 2.5;

/// Per-epoch exponential decay of accumulated heat (0 = only the last
/// epoch counts, 1 = infinite memory).
pub const HEAT_DECAY: f64 = 0.6;

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

/// What the controller knows of one object.
#[derive(Clone, Copy, Debug, Default)]
struct Track {
    /// Decayed heat (sample weights / miss counts).
    heat: f64,
    /// Epoch at which the object last migrated (for min-residency pinning).
    moved_at: Option<u64>,
    /// Last epoch whose live set held the object; older tracks are pruned.
    seen: u64,
}

/// Epoch-driven placement decision engine with hysteresis.
#[derive(Clone, Debug)]
pub struct PlacementController {
    cfg: OnlineConfig,
    /// Per-object state, keyed by the id the object is planned under.
    tracks: IdMap<ObjectId, Track>,
    /// Epochs completed.
    epoch: u64,
}

impl PlacementController {
    /// Create a controller.
    pub fn new(cfg: OnlineConfig) -> Self {
        PlacementController {
            cfg,
            tracks: IdMap::default(),
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
            self.tracks.entry(id).or_default().heat += weight;
        }
    }

    /// Current decayed heat of an object.
    pub fn heat_of(&self, id: ObjectId) -> f64 {
        self.tracks.get(&id).map_or(0.0, |t| t.heat)
    }

    /// Close the current epoch: re-run the advisor's selection over the
    /// accumulated heat, derive the migration delta against the placement in
    /// `live`, apply hysteresis and the per-epoch move budget, decay the heat
    /// and return the plan. `live` pairs each live object with the id it is
    /// planned under (its own, or a rank-globalized one); the object's name
    /// breaks ranking ties. `fast_budget` is MCDRAM's byte budget.
    pub fn end_epoch(
        &mut self,
        live: &[(ObjectId, &DataObject)],
        fast_budget: ByteSize,
    ) -> EpochPlan {
        self.epoch += 1;
        // The one lookup per live object: stamp its track as seen and copy
        // it out, indexed like `live`.
        let tracks: Vec<Track> = live
            .iter()
            .map(|(id, _)| {
                let track = self.tracks.entry(*id).or_default();
                track.seen = self.epoch;
                *track
            })
            .collect();

        let mut plan = EpochPlan::default();
        if self.cfg.migrations_enabled() {
            plan = self.plan(live, &tracks, fast_budget);
        }
        for id in plan.demotions.iter().chain(&plan.promotions) {
            let track = self.tracks.get_mut(id).expect("planned objects are live");
            track.moved_at = Some(self.epoch);
        }

        // Heat and pinning state for objects that died stops mattering.
        self.tracks.retain(|_, t| {
            t.heat *= HEAT_DECAY;
            t.seen == self.epoch
        });
        plan
    }

    /// Run the advisor's density selection over the unpinned `candidates`
    /// (indices into `live`; MCDRAM incumbents get the deadband bonus) and
    /// flag the winners packed into `budget`.
    fn select_target(
        live: &[(ObjectId, &DataObject)],
        tracks: &[Track],
        candidates: &[usize],
        budget: ByteSize,
    ) -> Vec<bool> {
        let offered: Vec<Candidate<'_>> = candidates
            .iter()
            .map(|&i| {
                let o = live[i].1;
                let bonus = if o.tier == TierId::MCDRAM {
                    1.0 + HEAT_DEADBAND
                } else {
                    1.0
                };
                Candidate {
                    name: &o.name,
                    size: o.size(),
                    value: tracks[i].heat * bonus,
                }
            })
            .collect();
        let mut target = vec![false; live.len()];
        for j in pack(&offered, &rank_by_density(&offered), Some(budget)).0 {
            target[candidates[j]] = true;
        }
        target
    }

    fn plan(
        &self,
        live: &[(ObjectId, &DataObject)],
        tracks: &[Track],
        budget: ByteSize,
    ) -> EpochPlan {
        let fast = |i: usize| live[i].1.tier == TierId::MCDRAM;
        let bytes = |i: usize| i128::from(live[i].1.size().page_aligned().bytes());
        // An object that moved less than `MIN_RESIDENCY_EPOCHS` ago is pinned
        // to its tier; pinned MCDRAM residents consume budget no matter what.
        let pinned = |i: usize| {
            let moved_at = tracks[i].moved_at;
            moved_at.is_some_and(|at| self.epoch - at < MIN_RESIDENCY_EPOCHS)
        };
        let pinned_fast: ByteSize = (0..live.len())
            .filter(|&i| fast(i) && pinned(i))
            .map(|i| live[i].1.size().page_aligned())
            .sum();
        let free_budget = budget.saturating_sub(pinned_fast);
        let candidates: Vec<usize> = (0..live.len()).filter(|&i| !pinned(i)).collect();
        let target = Self::select_target(live, tracks, &candidates, free_budget);

        // Promotion queue: hottest first. Demotion queue: coldest first.
        // Names break ties so plans are deterministic across runs.
        // Heat is never NaN (`record` drops it), so `total_cmp` is its order.
        let heat = |a: usize, b: usize| tracks[a].heat.total_cmp(&tracks[b].heat);
        let name = |a: usize, b: usize| live[a].1.name.cmp(&live[b].1.name);
        let (mut promote, mut demote): (Vec<usize>, Vec<usize>) = candidates
            .iter()
            .filter(|&&i| target[i] != fast(i))
            .partition(|&&i| target[i]);
        promote.sort_by(|&a, &b| heat(b, a).then_with(|| name(a, b)));
        demote.sort_by(|&a, &b| heat(a, b).then_with(|| name(a, b)));

        // MCDRAM bytes in use (pinned or not); demotions hand bytes back as
        // they are committed. No budget wraps an i128, and `avail` stays
        // negative while residency exceeds the budget.
        let used: i128 = (0..live.len()).filter(|&i| fast(i)).map(bytes).sum();
        let mut avail = i128::from(budget.bytes()) - used;
        let mut moves_left = self.cfg.max_moves_per_epoch as usize;
        let mut plan = EpochPlan::default();
        let mut demote_cursor = 0usize;

        for promoted in promote {
            if moves_left == 0 {
                break;
            }
            let need = bytes(promoted);
            // Peek how many demotions it takes to fit this promotion; commit
            // only if the whole package fits the move budget — demoting
            // without promoting would pay migration cost for nothing.
            let mut take = 0usize;
            let mut freed = 0i128;
            while avail + freed < need && demote_cursor + take < demote.len() {
                freed += bytes(demote[demote_cursor + take]);
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
            let demoted = &demote[demote_cursor..demote_cursor + take];
            plan.demotions.extend(demoted.iter().map(|&i| live[i].0));
            demote_cursor += take;
            avail += freed - need;
            moves_left -= take + 1;
            plan.promotions.push(live[promoted].0);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::{Address, AddressRange, DetRng, Nanos};
    use hmsim_heap::ObjectKind;
    use std::collections::{HashMap, HashSet};

    fn sized(id: u32, name: String, size: ByteSize, tier: TierId) -> DataObject {
        DataObject {
            id: ObjectId(id),
            name,
            kind: ObjectKind::Dynamic,
            site: None,
            range: AddressRange::new(Address(u64::from(id) << 32), size),
            tier,
            allocated_at: Nanos::ZERO,
        }
    }

    fn obj(id: u32, name: &str, kib: u64, tier: TierId) -> DataObject {
        sized(id, name.to_string(), ByteSize::from_kib(kib), tier)
    }

    /// The controller's view of `live`: each object under its own id.
    fn view(live: &[DataObject]) -> Vec<(ObjectId, &DataObject)> {
        live.iter().map(|o| (o.id, o)).collect()
    }

    fn controller() -> PlacementController {
        PlacementController::new(OnlineConfig::default())
    }

    fn apply(live: &mut [DataObject], plan: &EpochPlan) {
        for o in live.iter_mut() {
            if plan.promotions.contains(&o.id) {
                o.tier = TierId::MCDRAM;
            } else if plan.demotions.contains(&o.id) {
                o.tier = TierId::DDR;
            }
        }
    }

    fn fast_bytes(live: &[DataObject]) -> u64 {
        live.iter()
            .filter(|o| o.tier == TierId::MCDRAM)
            .map(|o| o.size().page_aligned().bytes())
            .sum()
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
        let plan = c.end_epoch(&view(&live), ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(1)]);
        assert!(plan.demotions.is_empty());
    }

    /// Heat far beyond `u64` is ranked as `f64`: packing sums nothing, so
    /// planning cannot overflow, and the incumbent keeps its deadband bonus.
    #[test]
    fn huge_heat_plans_within_the_budget() {
        let mut c = controller();
        let mut live = vec![
            obj(1, "a", 64, TierId::DDR),
            obj(2, "b", 64, TierId::DDR),
            obj(3, "c", 64, TierId::MCDRAM),
        ];
        for o in &live {
            c.record(o.id, 1e300);
        }
        let budget = ByteSize::from_kib(128);
        let plan = c.end_epoch(&view(&live), budget);
        assert!(!plan.promotions.is_empty(), "{plan:?}");
        // Equal heat: the deadband keeps the MCDRAM incumbent in place.
        assert!(!plan.demotions.contains(&ObjectId(3)), "{plan:?}");
        apply(&mut live, &plan);
        assert!(fast_bytes(&live) <= budget.bytes(), "{plan:?}");
        assert_eq!(live[2].tier, TierId::MCDRAM, "{plan:?}");
    }

    #[test]
    fn disabled_controller_never_plans_moves() {
        let mut c = PlacementController::new(OnlineConfig::disabled());
        let live = vec![obj(1, "hot", 64, TierId::DDR)];
        c.record(ObjectId(1), 1e6);
        for _ in 0..5 {
            assert!(c.end_epoch(&view(&live), ByteSize::from_mib(1)).is_empty());
        }
    }

    #[test]
    fn deadband_keeps_marginally_colder_incumbents() {
        let live = vec![
            obj(1, "incumbent", 64, TierId::MCDRAM),
            obj(2, "challenger", 64, TierId::DDR),
        ];
        let margin = 1.0 + HEAT_DEADBAND;
        let plan_with = |challenger: f64| {
            let mut c = controller();
            c.record(ObjectId(1), 1000.0);
            c.record(ObjectId(2), challenger);
            c.end_epoch(&view(&live), ByteSize::from_kib(64))
        };
        // Just inside the deadband: the incumbent stays.
        let plan = plan_with(0.95 * margin * 1000.0);
        assert!(plan.is_empty(), "deadband should protect the incumbent");
        // Just beyond it: the challenger displaces the incumbent.
        let plan = plan_with(1.05 * margin * 1000.0);
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
        let plan = c.end_epoch(&view(&live), ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(1)]);
        assert_eq!(plan.demotions, vec![ObjectId(2)]);
        apply(&mut live, &plan);
        // From the next epoch on the old incumbent is suddenly hot again —
        // but both just moved, so the plan must stay empty until residency
        // expires.
        for _ in 1..MIN_RESIDENCY_EPOCHS {
            c.record(ObjectId(2), 50_000.0);
            let plan = c.end_epoch(&view(&live), ByteSize::from_kib(64));
            assert!(plan.is_empty(), "residency must pin fresh movers");
        }
        // Once the residency has run out the swap is allowed.
        c.record(ObjectId(2), 50_000.0);
        let plan = c.end_epoch(&view(&live), ByteSize::from_kib(64));
        assert_eq!(plan.promotions, vec![ObjectId(2)]);
        assert_eq!(plan.demotions, vec![ObjectId(1)]);
    }

    #[test]
    fn move_budget_bounds_epoch_churn() {
        let mut c = PlacementController::new(OnlineConfig {
            max_moves_per_epoch: 2,
            ..OnlineConfig::default()
        });
        let live: Vec<DataObject> = (0..6)
            .map(|i| obj(i, &format!("o{i}"), 64, TierId::DDR))
            .collect();
        for i in 0..6 {
            c.record(ObjectId(i), 1000.0 + f64::from(i));
        }
        let plan = c.end_epoch(&view(&live), ByteSize::from_mib(1));
        assert!(plan.moves() <= 2, "moves {:?}", plan);
        assert_eq!(plan.promotions.len(), 2);
    }

    #[test]
    fn equal_heat_never_thrashes() {
        let mut c = controller();
        let mut live: Vec<DataObject> = (0..4)
            .map(|i| obj(i, &format!("seg{i}"), 64, TierId::DDR))
            .collect();
        // Uniform heat, budget for two objects: after the initial fill the
        // placement must be stable forever.
        for epoch in 0..6 {
            for i in 0..4 {
                c.record(ObjectId(i), 100.0);
            }
            let plan = c.end_epoch(&view(&live), ByteSize::from_kib(128));
            apply(&mut live, &plan);
            if epoch > 0 {
                assert!(plan.is_empty(), "epoch {epoch} churned: {plan:?}");
            }
        }
        assert_eq!(live.iter().filter(|o| o.tier == TierId::MCDRAM).count(), 2);
    }

    #[test]
    fn heat_decays_and_dead_objects_are_pruned() {
        let mut c = controller();
        c.record(ObjectId(1), 100.0);
        let live = vec![obj(1, "x", 64, TierId::DDR)];
        c.end_epoch(&view(&live), ByteSize::ZERO);
        assert!((c.heat_of(ObjectId(1)) - 100.0 * HEAT_DECAY).abs() < 1e-9);
        // Object 1 died: its state disappears on the next epoch close.
        c.end_epoch(&[], ByteSize::ZERO);
        assert_eq!(c.heat_of(ObjectId(1)), 0.0);
        assert_eq!(c.epochs(), 2);
    }

    /// A budget beyond `i64::MAX` bytes is a budget with room for
    /// everything: the hot object is promoted, exactly as under 1 TiB.
    #[test]
    fn a_budget_beyond_i64_still_promotes() {
        let live = vec![
            obj(1, "hot", 64, TierId::DDR),
            obj(2, "warm", 64, TierId::DDR),
            obj(3, "resident", 64, TierId::MCDRAM),
        ];
        let plan_under = |budget| {
            let mut c = controller();
            c.record(ObjectId(1), 1000.0);
            c.record(ObjectId(2), 10.0);
            c.end_epoch(&view(&live), budget)
        };
        for budget in [ByteSize::from_bytes(u64::MAX), ByteSize::from_gib(1024)] {
            let plan = plan_under(budget);
            assert_eq!(plan.promotions, vec![ObjectId(1), ObjectId(2)], "{budget}");
            assert!(plan.demotions.is_empty(), "{budget}: {plan:?}");
        }
    }

    /// One step of [`random_epochs`].
    enum Step<'a> {
        /// A trial starts: the controller under test is built afresh.
        Trial(OnlineConfig),
        /// Heat lands on a live object.
        Record(ObjectId, f64),
        /// The epoch closes over `live` against `budget`; the plan returned
        /// is applied to `live`. Ids below `born` have all been live once.
        Close {
            at: String,
            live: &'a [DataObject],
            budget: ByteSize,
            born: u32,
        },
    }

    /// Forty trials of sixty epochs over random live sets: objects born and
    /// dying, in either tier, with sizes that are not page multiples,
    /// random heat, budgets and move caps (a cap of 0 disables migration).
    /// Every plan `drive` returns for a [`Step::Close`] is applied, so
    /// planned objects flip tiers; other steps' return values are ignored.
    fn random_epochs(mut drive: impl FnMut(Step<'_>) -> EpochPlan) {
        let mut rng = DetRng::new(0xC0_47_80_11);
        for trial in 0..40 {
            drive(Step::Trial(OnlineConfig {
                max_moves_per_epoch: rng.uniform_range(0, 9) as u32,
                ..OnlineConfig::default()
            }));
            let mut live: Vec<DataObject> = Vec::new();
            let mut next_id = 0u32;
            for epoch in 1..=60u64 {
                live.retain(|_| !rng.chance(0.05));
                for _ in 0..rng.uniform_range(0, 4) {
                    let tier = if rng.chance(0.3) {
                        TierId::MCDRAM
                    } else {
                        TierId::DDR
                    };
                    live.push(sized(
                        next_id,
                        format!("o{next_id}"),
                        ByteSize::from_bytes(rng.uniform_range(1, 256 << 10)),
                        tier,
                    ));
                    next_id += 1;
                }
                for o in &live {
                    if rng.chance(0.7) {
                        drive(Step::Record(o.id, rng.uniform().powi(4) * 1e5));
                    }
                }
                let budget = ByteSize::from_bytes(rng.uniform_range(0, 2 << 20));
                let plan = drive(Step::Close {
                    at: format!("trial {trial} epoch {epoch}"),
                    live: &live,
                    budget,
                    born: next_id,
                });
                apply(&mut live, &plan);
            }
        }
    }

    /// Drive the controller over [`random_epochs`] and check each plan
    /// against the controller's invariants.
    #[test]
    fn random_epochs_keep_every_plan_invariant() {
        let mut c = controller();
        let mut last_move: HashMap<ObjectId, u64> = HashMap::new();
        let (mut promotions, mut demotions, mut capped, mut disabled) = (0, 0, 0, 0);
        random_epochs(|step| match step {
            Step::Trial(cfg) => {
                c = PlacementController::new(cfg);
                last_move.clear();
                EpochPlan::default()
            }
            Step::Record(id, weight) => {
                c.record(id, weight);
                EpochPlan::default()
            }
            Step::Close {
                at, live, budget, ..
            } => {
                let max_moves = c.config().max_moves_per_epoch as usize;
                let epoch = c.epochs() + 1;
                let plan = c.end_epoch(&view(live), budget);
                let at = format!("{at}: {plan:?}");

                assert!(plan.moves() <= max_moves, "{at}");
                assert!(
                    plan.demotions.is_empty() || !plan.promotions.is_empty(),
                    "demotions without a promotion, {at}"
                );
                let mut seen = HashSet::new();
                for (ids, from) in [
                    (&plan.promotions, TierId::DDR),
                    (&plan.demotions, TierId::MCDRAM),
                ] {
                    for id in ids {
                        assert!(seen.insert(*id), "{id} planned twice, {at}");
                        let o = live
                            .iter()
                            .find(|o| o.id == *id)
                            .expect("planned id is live");
                        assert_eq!(o.tier, from, "{id} moves from the wrong tier, {at}");
                        if let Some(moved) = last_move.insert(*id, epoch) {
                            assert!(
                                epoch - moved >= MIN_RESIDENCY_EPOCHS,
                                "{id} moved at epoch {moved} and again, {at}"
                            );
                        }
                    }
                }
                let before = fast_bytes(live);
                let mut after = live.to_vec();
                apply(&mut after, &plan);
                let after = fast_bytes(&after);
                assert!(
                    after <= budget.bytes().max(before),
                    "MCDRAM {after} B over budget {budget} (was {before} B), {at}"
                );
                promotions += plan.promotions.len();
                demotions += plan.demotions.len();
                capped += usize::from(max_moves > 0 && plan.moves() == max_moves);
                disabled += usize::from(max_moves == 0);
                plan
            }
        });
        // The inputs exercise every path the invariants speak about.
        assert!(promotions > 0 && demotions > 0 && capped > 0 && disabled > 0);
    }

    /// The map-based controller the index-based one replaced, kept verbatim
    /// as the reference: heat and move epochs in two SipHash maps, pruned
    /// through a set of live ids, selection and queues over id lookups. Its
    /// `i64` budget arithmetic wraps above `i64::MAX`; [`random_epochs`]
    /// stays far below.
    struct MapController {
        cfg: OnlineConfig,
        heat: HashMap<ObjectId, f64>,
        moved_at: HashMap<ObjectId, u64>,
        epoch: u64,
    }

    impl MapController {
        fn new(cfg: OnlineConfig) -> Self {
            MapController {
                cfg,
                heat: HashMap::new(),
                moved_at: HashMap::new(),
                epoch: 0,
            }
        }

        fn record(&mut self, id: ObjectId, weight: f64) {
            if weight > 0.0 {
                *self.heat.entry(id).or_insert(0.0) += weight;
            }
        }

        fn heat_of(&self, id: ObjectId) -> f64 {
            self.heat.get(&id).copied().unwrap_or(0.0)
        }

        fn end_epoch(
            &mut self,
            live: &[(ObjectId, &DataObject)],
            fast_budget: ByteSize,
        ) -> EpochPlan {
            self.epoch += 1;
            // Heat and pinning state for objects that died stops mattering.
            let live_ids: HashSet<ObjectId> = live.iter().map(|(id, _)| *id).collect();
            self.heat.retain(|id, _| live_ids.contains(id));
            self.moved_at.retain(|id, _| live_ids.contains(id));

            let plan = if self.cfg.migrations_enabled() {
                self.plan(live, fast_budget)
            } else {
                EpochPlan::default()
            };

            for h in self.heat.values_mut() {
                *h *= HEAT_DECAY;
            }
            plan
        }

        fn pinned(&self, id: ObjectId) -> bool {
            self.moved_at
                .get(&id)
                .is_some_and(|at| self.epoch - at < MIN_RESIDENCY_EPOCHS)
        }

        fn effective_heat(&self, id: ObjectId, obj: &DataObject) -> f64 {
            let h = self.heat_of(id);
            if obj.tier == TierId::MCDRAM {
                h * (1.0 + HEAT_DEADBAND)
            } else {
                h
            }
        }

        fn select_target(
            &self,
            candidates: &[(ObjectId, &DataObject)],
            budget: ByteSize,
        ) -> Vec<ObjectId> {
            let offered: Vec<Candidate<'_>> = candidates
                .iter()
                .map(|(id, o)| Candidate {
                    name: &o.name,
                    size: o.size(),
                    value: self.effective_heat(*id, o),
                })
                .collect();
            pack(&offered, &rank_by_density(&offered), Some(budget))
                .0
                .into_iter()
                .map(|i| candidates[i].0)
                .collect()
        }

        fn plan(&mut self, live: &[(ObjectId, &DataObject)], budget: ByteSize) -> EpochPlan {
            // Pinned MCDRAM residents consume budget no matter what.
            let pinned_fast: u64 = live
                .iter()
                .filter(|(id, o)| o.tier == TierId::MCDRAM && self.pinned(*id))
                .map(|(_, o)| o.size().page_aligned().bytes())
                .sum();
            let free_budget = budget.saturating_sub(ByteSize::from_bytes(pinned_fast));
            let candidates: Vec<(ObjectId, &DataObject)> = live
                .iter()
                .copied()
                .filter(|(id, _)| !self.pinned(*id))
                .collect();
            let target: HashSet<ObjectId> = self
                .select_target(&candidates, free_budget)
                .into_iter()
                .collect();

            // Promotion queue: hottest first. Demotion queue: coldest first.
            // Names break ties so plans are deterministic across runs.
            let mut promote: Vec<&(ObjectId, &DataObject)> = candidates
                .iter()
                .filter(|(id, o)| target.contains(id) && o.tier != TierId::MCDRAM)
                .collect();
            promote.sort_by(|(a, ao), (b, bo)| {
                self.heat_of(*b)
                    .partial_cmp(&self.heat_of(*a))
                    .expect("heat is never NaN")
                    .then_with(|| ao.name.cmp(&bo.name))
            });
            let mut demote: Vec<&(ObjectId, &DataObject)> = candidates
                .iter()
                .filter(|(id, o)| !target.contains(id) && o.tier == TierId::MCDRAM)
                .collect();
            demote.sort_by(|(a, ao), (b, bo)| {
                self.heat_of(*a)
                    .partial_cmp(&self.heat_of(*b))
                    .expect("heat is never NaN")
                    .then_with(|| ao.name.cmp(&bo.name))
            });

            // MCDRAM bytes currently in use (everything resident, pinned or
            // not); demotions hand bytes back as they are committed.
            let used: u64 = live
                .iter()
                .filter(|(_, o)| o.tier == TierId::MCDRAM)
                .map(|(_, o)| o.size().page_aligned().bytes())
                .sum();
            let mut avail = budget.bytes() as i64 - used as i64;
            let mut moves_left = self.cfg.max_moves_per_epoch as usize;
            let mut plan = EpochPlan::default();
            let mut demote_cursor = 0usize;

            for &(promoted, p) in promote {
                if moves_left == 0 {
                    break;
                }
                let need = p.size().page_aligned().bytes() as i64;
                // Peek how many demotions it takes to fit this promotion;
                // commit only if the whole package fits the move budget.
                let mut take = 0usize;
                let mut freed = 0i64;
                while avail + freed < need && demote_cursor + take < demote.len() {
                    freed += demote[demote_cursor + take].1.size().page_aligned().bytes() as i64;
                    take += 1;
                }
                if avail + freed < need {
                    continue;
                }
                if moves_left < take + 1 {
                    continue;
                }
                for &&(demoted, _) in &demote[demote_cursor..demote_cursor + take] {
                    plan.demotions.push(demoted);
                    self.moved_at.insert(demoted, self.epoch);
                }
                demote_cursor += take;
                avail += freed - need;
                moves_left -= take + 1;
                plan.promotions.push(promoted);
                self.moved_at.insert(promoted, self.epoch);
            }
            plan
        }
    }

    /// Differential oracle: over [`random_epochs`] the controller and the
    /// map-based reference return identical plans, and every object ever
    /// born carries bit-identical heat after every epoch (a dead object's
    /// heat is pruned to zero on both sides).
    #[test]
    fn plans_and_heat_match_the_map_based_reference() {
        let (mut c, mut reference) = (controller(), MapController::new(OnlineConfig::default()));
        let (mut moves, mut dead) = (0, 0);
        random_epochs(|step| match step {
            Step::Trial(cfg) => {
                (c, reference) = (
                    PlacementController::new(cfg.clone()),
                    MapController::new(cfg),
                );
                EpochPlan::default()
            }
            Step::Record(id, weight) => {
                c.record(id, weight);
                reference.record(id, weight);
                EpochPlan::default()
            }
            Step::Close {
                at,
                live,
                budget,
                born,
            } => {
                let plan = c.end_epoch(&view(live), budget);
                let expected = reference.end_epoch(&view(live), budget);
                assert_eq!(plan.promotions, expected.promotions, "{at}");
                assert_eq!(plan.demotions, expected.demotions, "{at}");
                for id in (0..born).map(ObjectId) {
                    let (heat, want) = (c.heat_of(id), reference.heat_of(id));
                    assert_eq!(heat.to_bits(), want.to_bits(), "{id} heat, {at}");
                }
                moves += plan.moves();
                dead += born as usize - live.len();
                plan
            }
        });
        assert!(moves > 0 && dead > 0);
    }
}
