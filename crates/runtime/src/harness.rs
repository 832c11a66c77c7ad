//! Building blocks of the trace-driven runs that
//! `hmem_core::Simulation` dispatches: the loaded trace-study machine, the
//! provisioning of a phased workload's objects into a fresh heap, and the
//! three steps of the paper's offline pipeline at trace scale: a profiling
//! run over DDR with the runtime's PEBS sampler ([`profile_heat`]), the
//! advisor's density selection over the profiled heat ([`select_static`])
//! and a fresh placement-honouring run ([`run_static`], which with no
//! promotions is also the DDR reference).

use hmem_advisor::greedy::{pack, rank_by_density};
use hmem_advisor::Candidate;
use hmsim_apps::PhasedWorkload;
use hmsim_common::{AddressRange, ByteSize, HmResult, Nanos, ObjectId, TierId};
use hmsim_heap::ProcessHeap;
use hmsim_machine::{EngineStats, MachineConfig, TraceEngine};
use hmsim_pebs::{PebsEvent, PebsSampler, ProcessorFamily};

/// A machine for trace-driven placement studies, with *loaded* memory
/// latencies. The stock KNL numbers are unloaded load-to-use latencies
/// (DDR 130 ns, MCDRAM 155 ns); under the bandwidth saturation the online
/// runtime targets, KNL's DDR latency climbs past 300 ns while MCDRAM
/// sustains below 200 ns — that loaded gap is exactly the effect that makes
/// fast-tier placement pay, and the single-stream trace engine has to carry
/// it in its latency constants. The capacities are the small machine's,
/// 1 GiB of DDR and 64 MiB of MCDRAM.
pub fn loaded_machine() -> MachineConfig {
    let mut m = MachineConfig::tiny_test();
    m.ddr.capacity = ByteSize::from_gib(1);
    m.ddr.latency = Nanos(320.0);
    m.mcdram.capacity = ByteSize::from_mib(64);
    m.mcdram.latency = Nanos(180.0);
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

/// Run the workload once with the listed object indices promoted to the
/// fast tier before execution starts (the offline placement run; an empty
/// list is the DDR reference). Returns the engine's statistics and the fast
/// tier's residency during the run.
pub fn run_static(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    fast_budget: ByteSize,
    promoted: &[usize],
) -> HmResult<(EngineStats, ByteSize)> {
    let mut p = provision(workload, machine, fast_budget)?;
    for &idx in promoted {
        p.heap.migrate_object(p.ids[idx], TierId::MCDRAM)?;
    }
    let mut engine = TraceEngine::new(machine);
    engine.run_stream(workload.stream(&p.ranges), p.heap.page_table());
    Ok((
        engine.stats().clone(),
        p.heap.tier_occupancy(TierId::MCDRAM),
    ))
}

/// Profile the workload over an all-DDR placement with a PEBS sampler of
/// the given period and seed, returning total heat (sample weight) per
/// object index.
pub fn profile_heat(
    workload: &PhasedWorkload,
    machine: &MachineConfig,
    period: u64,
    seed: u64,
) -> HmResult<Vec<u64>> {
    let p = provision(workload, machine, ByteSize::ZERO)?;
    let mut engine = TraceEngine::new(machine);
    let mut sampler = PebsSampler::new(
        ProcessorFamily::KnightsLanding,
        PebsEvent::LlcLoadMiss,
        period,
        hmsim_common::DetRng::new(seed),
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

/// The advisor's offline selection over profiled heat: the density
/// selection of `objects` (name and size, heat per object in `heat`)
/// against the budget: the same density ranking and greedy packing the
/// online controller re-runs each epoch.
pub fn select_static(
    objects: &[(String, ByteSize)],
    heat: &[u64],
    fast_budget: ByteSize,
) -> Vec<usize> {
    let candidates: Vec<Candidate<'_>> = objects
        .iter()
        .zip(heat)
        .map(|((name, size), h)| Candidate {
            name,
            size: *size,
            value: *h as f64,
        })
        .collect();
    pack(
        &candidates,
        &rank_by_density(&candidates),
        Some(fast_budget),
    )
    .0
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
        assert!(
            m.ddr.latency > m.mcdram.latency,
            "loaded DDR must be slower than loaded MCDRAM"
        );
        assert!(m.mcdram.peak_bandwidth_gbs > m.ddr.peak_bandwidth_gbs);
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
        let budget = w.hot_set_size();
        let heat = profile_heat(&w, &m, 257, 0x0E11_0C47).unwrap();
        assert!(heat.iter().all(|&h| h > 0), "all three arrays are hot");
        let sel = select_static(&w.objects(), &heat, budget);
        assert_eq!(sel.len(), 3, "the whole triad fits the budget");
        let (ddr, ddr_resident) = run_static(&w, &m, budget, &[]).unwrap();
        let (profiled, resident) = run_static(&w, &m, budget, &sel).unwrap();
        assert_eq!(ddr_resident, ByteSize::ZERO);
        assert_eq!(resident, budget, "the promoted triad fills the budget");
        assert!(
            profiled.time < ddr.time,
            "profiled {} vs DDR {}",
            profiled.time,
            ddr.time
        );
    }
}
