//! Drivers that run the registered phased workloads online and under the
//! best static placement, so benches and tests compare like with like.
//!
//! The static side reproduces the paper's offline pipeline at trace scale:
//! a profiling run over DDR with the same PEBS sampler, the advisor's
//! selection over the profiled heat, then a fresh placement-honouring run.
//! The online side provisions the identical heap and lets the
//! [`OnlineRuntime`] migrate while the stream executes.

use crate::{OnlineConfig, OnlineRuntime, RuntimeStats};
use hmem_advisor::{Candidate, SelectionStrategy};
use hmsim_apps::PhasedWorkload;
use hmsim_common::{AddressRange, ByteSize, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::ProcessHeap;
use hmsim_machine::{MachineConfig, TierSet, TraceEngine};
use hmsim_pebs::{PebsEvent, PebsSampler, ProcessorFamily};

/// A machine for trace-driven placement studies, with *loaded* memory
/// latencies. The stock KNL numbers are unloaded load-to-use latencies
/// (DDR 130 ns, MCDRAM 155 ns); under the bandwidth saturation the online
/// runtime targets, KNL's DDR latency climbs past 300 ns while MCDRAM
/// sustains below 200 ns — that loaded gap is exactly the effect that makes
/// fast-tier placement pay, and the single-stream trace engine has to carry
/// it in its latency constants.
pub fn loaded_machine() -> MachineConfig {
    let mut m = MachineConfig::tiny_test();
    let mut ddr = hmsim_machine::TierSpec::knl_ddr();
    ddr.capacity = ByteSize::from_gib(1);
    ddr.latency = Nanos(320.0);
    let mut mc = hmsim_machine::TierSpec::knl_mcdram();
    mc.capacity = ByteSize::from_mib(64);
    mc.latency = Nanos(180.0);
    m.tiers = TierSet::new(vec![ddr, mc]).expect("distinct tier ids");
    m
}

/// A workload's objects allocated into a fresh heap (everything in DDR, the
/// fast tier capped at the budget).
pub struct Provisioned {
    /// The heap holding the workload's objects.
    pub heap: ProcessHeap,
    /// One range per workload object, in declaration order.
    pub ranges: Vec<AddressRange>,
    /// One object id per workload object, in declaration order.
    pub ids: Vec<ObjectId>,
}

/// Allocate a workload's objects into a fresh heap: everything starts in
/// DDR, and the fast tier's capacity is capped at `fast_budget`.
pub fn provision(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
) -> HmResult<Provisioned> {
    provision_prefixed(workload, machine, fast_budget, "")
}

/// [`provision`], naming every object `<prefix><name>`.
pub(crate) fn provision_prefixed(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
    prefix: &str,
) -> HmResult<Provisioned> {
    let mut heap = ProcessHeap::new(machine)?;
    heap.set_capacity_cap(TierId::MCDRAM, fast_budget)?;
    let mut ranges = Vec::new();
    let mut ids = Vec::new();
    for (name, size) in workload.objects() {
        let name = format!("{prefix}{name}");
        let (id, range, _) = heap.malloc(size, TierId::DDR, name, None, Nanos::ZERO)?;
        ranges.push(range);
        ids.push(id);
    }
    Ok(Provisioned { heap, ranges, ids })
}

/// Outcome of one static (non-migrating) run.
#[derive(Clone, Debug)]
pub struct StaticOutcome {
    /// Label of the placement (`"DDR"` or `"profiled/<strategy>"`).
    pub label: String,
    /// Simulated execution time.
    pub time: Nanos,
    /// LLC misses of the run.
    pub llc_misses: u64,
    /// Indices (into the workload's object list) promoted to the fast tier.
    pub promoted: Vec<usize>,
}

/// Run the workload once with the listed object indices promoted to the
/// fast tier before execution starts (the offline placement run).
pub fn run_static(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
    promoted: &[usize],
    label: impl Into<String>,
) -> HmResult<StaticOutcome> {
    let mut p = provision(workload, machine, fast_budget)?;
    for &idx in promoted {
        p.heap.migrate_object(p.ids[idx], TierId::MCDRAM)?;
    }
    let mut engine = TraceEngine::new(machine);
    let misses = engine.run_stream(workload.stream(&p.ranges), p.heap.page_table());
    Ok(StaticOutcome {
        label: label.into(),
        time: engine.stats().time,
        llc_misses: misses,
        promoted: promoted.to_vec(),
    })
}

/// Profile the workload over an all-DDR placement with the runtime's PEBS
/// sampler, returning total heat (sample weight) per object index.
pub fn profile_heat(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    cfg: &OnlineConfig,
) -> HmResult<Vec<u64>> {
    let p = provision(workload, machine, ByteSize::ZERO)?;
    let mut engine = TraceEngine::new(machine);
    let mut sampler = PebsSampler::new(
        ProcessorFamily::KnightsLanding,
        PebsEvent::LlcLoadMiss,
        cfg.pebs_period,
        hmsim_common::DetRng::new(cfg.seed),
    );
    let mut heat = vec![0u64; p.ranges.len()];
    for acc in workload.stream(&p.ranges) {
        let ranges = &p.ranges;
        let heat = &mut heat;
        engine.access_with(&acc, p.heap.page_table(), |addr| {
            if let Some(s) = sampler.observe(Nanos::ZERO, addr) {
                if let Some(i) = ranges.iter().position(|r| r.contains(addr)) {
                    heat[i] += s.weight;
                }
            }
        });
    }
    Ok(heat)
}

/// The advisor's offline selection over profiled heat: run `strategy`'s
/// selection of `objects` (name and size, heat per object in `heat`)
/// against the budget — the same [`hmem_advisor::select`] the online
/// controller re-runs each epoch. Fails only when the exact DP refuses an
/// oversized instance.
pub fn select_static(
    objects: &[(String, ByteSize)],
    heat: &[u64],
    fast_budget: ByteSize,
    strategy: SelectionStrategy,
) -> HmResult<Vec<usize>> {
    let candidates: Vec<Candidate<'_>> = objects
        .iter()
        .zip(heat)
        .map(|((name, size), h)| Candidate {
            name,
            size: *size,
            value: *h,
        })
        .collect();
    let total: u64 = heat.iter().sum();
    hmem_advisor::select(strategy, &candidates, total, Some(fast_budget))
}

/// The best static placement the offline pipeline can produce: the better of
/// DDR-only and the profile → advise → re-run placement.
pub fn best_static(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
    cfg: &OnlineConfig,
) -> HmResult<StaticOutcome> {
    let ddr = run_static(workload, machine, fast_budget, &[], "DDR")?;
    let heat = profile_heat(workload, machine, cfg)?;
    let promoted = select_static(&workload.objects(), &heat, fast_budget, cfg.strategy)?;
    let profiled = run_static(
        workload,
        machine,
        fast_budget,
        &promoted,
        format!("profiled/{}", cfg.strategy),
    )?;
    Ok(if profiled.time < ddr.time {
        profiled
    } else {
        ddr
    })
}

/// Outcome of one online (migrating) run.
#[derive(Clone, Debug)]
pub struct OnlineOutcome {
    /// Total simulated time including migration charges.
    pub time: Nanos,
    /// LLC misses of the run.
    pub llc_misses: u64,
    /// The runtime's statistics.
    pub stats: RuntimeStats,
}

/// Run the workload under the online migration runtime.
pub fn run_online(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
    cfg: OnlineConfig,
) -> HmResult<OnlineOutcome> {
    let mut p = provision(workload, machine, fast_budget)?;
    let mut rt = OnlineRuntime::new(machine, fast_budget, cfg);
    let misses = rt.run(workload.stream(&p.ranges), &mut p.heap);
    Ok(OnlineOutcome {
        time: rt.total_time(),
        llc_misses: misses,
        stats: rt.stats().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_apps::phased_workloads;

    const TEST_ARRAY: ByteSize = ByteSize::from_kib(64);

    #[test]
    fn loaded_machine_carries_the_loaded_latency_gap() {
        let m = loaded_machine();
        m.validate().unwrap();
        let ddr = m.tiers.get(TierId::DDR).unwrap();
        let mc = m.tiers.get(TierId::MCDRAM).unwrap();
        assert!(
            ddr.latency > mc.latency,
            "loaded DDR must be slower than loaded MCDRAM"
        );
        assert_eq!(m.tiers.fastest().unwrap().id, TierId::MCDRAM);
    }

    #[test]
    fn provision_places_everything_in_ddr_under_the_cap() {
        let m = loaded_machine();
        let w = &phased_workloads(TEST_ARRAY)[0];
        let p = provision(w, &m, w.hot_set_size()).unwrap();
        assert_eq!(p.ranges.len(), w.objects().len());
        for r in &p.ranges {
            assert_eq!(p.heap.page_table().tier_of(r.start), TierId::DDR);
        }
        assert_eq!(p.heap.tier_occupancy(TierId::MCDRAM), ByteSize::ZERO);
    }

    #[test]
    fn profiled_static_promotes_the_steady_hot_set() {
        let m = loaded_machine();
        let w = hmsim_apps::phased_workload_by_name("steady-triad", TEST_ARRAY).unwrap();
        let cfg = OnlineConfig::default();
        let heat = profile_heat(&w, &m, &cfg).unwrap();
        assert!(heat.iter().all(|&h| h > 0), "all three arrays are hot");
        let sel = select_static(&w.objects(), &heat, w.hot_set_size(), cfg.strategy).unwrap();
        assert_eq!(sel.len(), 3, "the whole triad fits the budget");
        let best = best_static(&w, &m, w.hot_set_size(), &cfg).unwrap();
        assert!(best.label.starts_with("profiled/"));
        assert_eq!(best.promoted.len(), 3);
    }

    /// The harness runs the strategy it is given: density greedy takes the
    /// densest object and can fit nothing else, the exact DP packs the two
    /// others for more heat.
    #[test]
    fn select_static_honours_the_exact_knapsack() {
        let objects: Vec<(String, ByteSize)> = [("dense", 12), ("mid1", 8), ("mid2", 8)]
            .iter()
            .map(|(name, kib)| (name.to_string(), ByteSize::from_kib(*kib)))
            .collect();
        let heat = [920, 600, 500];
        let budget = ByteSize::from_kib(16);
        let select = |strategy| select_static(&objects, &heat, budget, strategy).unwrap();
        assert_eq!(select(SelectionStrategy::Density), vec![0]);
        assert_eq!(select(SelectionStrategy::ExactKnapsack), vec![1, 2]);
    }

    #[test]
    fn online_beats_best_static_on_the_rotating_triad() {
        let m = loaded_machine();
        let w = hmsim_apps::phased_workload_by_name("rotating-triad", TEST_ARRAY).unwrap();
        let budget = w.hot_set_size();
        let cfg = OnlineConfig::default().with_epoch_accesses(8_192);
        let stat = best_static(&w, &m, budget, &cfg).unwrap();
        let online = run_online(&w, &m, budget, cfg).unwrap();
        assert!(online.stats.migrations > 0);
        assert!(
            online.time < stat.time,
            "online {} vs best static {} ({})",
            online.time,
            stat.time,
            stat.label
        );
    }
}
