//! Online migration runtime: epoch overhead and online-vs-static placement.
//!
//! Three questions, answered with numbers written to `BENCH_runtime.json`:
//!
//! 1. **What does the epoch loop cost?** The same access stream is driven
//!    through `TraceEngine::run_stream` (a plain loop over the engine's
//!    per-access `access_with`) and through the `OnlineRuntime` with
//!    migrations disabled (identical counters, traffic and time, asserted
//!    bitwise before timing). Both run the same per-access loop, so the
//!    median ratio of interleaved timing pairs is the observation overhead of
//!    the epoch bookkeeping + PEBS sampler.
//! 2. **Does migrating online beat the best static placement where it
//!    should?** For every registered phase-shifting workload the simulated
//!    time under the online runtime is compared against the better of two
//!    `Simulation` runs: the DDR reference and the Framework approach's
//!    offline profile → advise → re-run placement.
//! 3. **Does it stay out of the way where it can't help?** Stationary
//!    workloads must land within 2 % of the best static placement.
//!
//! Per workload it also records two software timings on one thread, the
//! medians of interleaved pairs: the access generator iterated alone
//! (`stream_ns_per_access`) and the online runtime's end-to-end rate
//! (`online_accesses_per_sec`). They are wall-clock measurements, kept apart
//! from the simulated times above.
//!
//! 4. **What does re-planning cost the host?** `commit_host_time` times the
//!    multi-rank commit half alone (arbitration, the controllers' selection
//!    and the migrations) on the churn shape: 16 ranks of a 64-plane
//!    sweeping stencil at 1024-access epochs. Each sample is one run's
//!    commit time per node epoch; the row gives their median and quartiles
//!    per arbitration policy. Also wall-clock, on one thread.

use auto_hbwmalloc::{ApproachKind, PlacementApproach};
use hmem_advisor::SelectionStrategy;
use hmem_core::{Scenario, Simulation};
use hmsim_apps::{phased_workloads, MultiRankWorkload, PhasedWorkload};
use hmsim_bench::{median_of_pairs, write_artifact};
use hmsim_common::ByteSize;
use hmsim_machine::TraceEngine;
use hmsim_runtime::harness::{loaded_machine, provision};
use hmsim_runtime::{
    run_multirank, ArbiterPolicy, MultiRankConfig, MultiRankRuntime, OnlineConfig, OnlineRuntime,
};
use std::time::Instant;

struct WorkloadRow {
    name: &'static str,
    stationary: bool,
    online_ms: f64,
    static_ms: f64,
    static_label: &'static str,
    speedup: f64,
    migrations: u64,
    bytes_moved_kib: u64,
    epochs: u64,
    stream_ns_per_access: f64,
    online_accesses_per_sec: f64,
}

/// The epoch loop's observation overhead on the steady triad, in percent:
/// the median over `pairs` interleaved timings of the streaming engine and
/// the disabled online runtime over the identical stream.
fn epoch_overhead_percent(workload: &PhasedWorkload, pairs: usize) -> f64 {
    let machine = loaded_machine();
    let budget = workload.hot_set_size();
    // Equivalence gate before any timing.
    {
        let p = provision(workload, &machine, budget).unwrap();
        let mut engine = TraceEngine::new(&machine);
        engine.run_stream(workload.stream(&p.ranges), p.heap.page_table());
        let mut q = provision(workload, &machine, budget).unwrap();
        let mut rt = OnlineRuntime::new(&machine, budget, OnlineConfig::disabled());
        rt.run(workload.stream(&q.ranges), &mut q.heap);
        assert_eq!(
            engine.stats().counters,
            rt.engine_stats().counters,
            "epoch loop diverged from the streaming engine"
        );
        assert_eq!(
            engine.stats().time.nanos().to_bits(),
            rt.total_time().nanos().to_bits(),
            "epoch loop's time diverged from the streaming engine's"
        );
        assert!(
            engine.stats().counters.llc_misses > 0,
            "workload produced no LLC misses"
        );
    }
    // Provisioning stays outside the timed closures. A disabled runtime
    // never moves an object, so both sides reuse one provisioned heap.
    let p = provision(workload, &machine, budget).unwrap();
    let mut q = provision(workload, &machine, budget).unwrap();
    let timed = median_of_pairs(
        pairs,
        || {
            let mut rt = OnlineRuntime::new(&machine, budget, OnlineConfig::disabled());
            rt.run(workload.stream(&q.ranges), &mut q.heap)
        },
        || {
            let mut engine = TraceEngine::new(&machine);
            engine.run_stream(workload.stream(&p.ranges), p.heap.page_table())
        },
    );
    println!(
        "epoch overhead: median online/raw time ratio over {pairs} pairs: {:.3}",
        timed.ratio
    );
    (timed.ratio - 1.0) * 100.0
}

fn run_workload_row(workload: &PhasedWorkload, array: ByteSize, pairs: usize) -> WorkloadRow {
    let machine = loaded_machine();
    let budget = workload.hot_set_size();
    let cfg = OnlineConfig::default();
    let run = |approach| {
        let scenario = Scenario {
            approach,
            ..Scenario::phased(workload.name, array, budget)
        };
        Simulation::new().run(&scenario).unwrap().node
    };
    // The best static placement: the better of the DDR reference and the
    // paper's profile -> advise -> re-run.
    let ddr = run(PlacementApproach::DdrOnly);
    let profiled = run(PlacementApproach::framework(SelectionStrategy::Density));
    let (static_time, static_label) = if profiled.time < ddr.time {
        (profiled.time, "profiled/Density")
    } else {
        (ddr.time, "DDR")
    };
    // The online side runs by hand: `Outcome` does not carry the bytes
    // moved or the epoch count that the row records.
    let run_online = || {
        let mut p = provision(workload, &machine, budget).unwrap();
        let mut rt = OnlineRuntime::new(&machine, budget, cfg.clone());
        rt.run(workload.stream(&p.ranges), &mut p.heap);
        rt
    };
    let online = run_online();
    let accesses = workload.total_accesses() as f64;
    let ranges = provision(workload, &machine, budget).unwrap().ranges;
    let timed = median_of_pairs(
        pairs,
        || {
            workload
                .stream(&ranges)
                .fold(0u64, |sum, a| sum.wrapping_add(a.address.value()))
        },
        run_online,
    );
    let row = WorkloadRow {
        name: workload.name,
        stationary: workload.stationary,
        online_ms: online.total_time().millis(),
        static_ms: static_time.millis(),
        static_label,
        speedup: static_time.nanos() / online.total_time().nanos().max(1e-12),
        migrations: online.stats().migrations,
        bytes_moved_kib: online.stats().bytes_migrated.bytes() / 1024,
        epochs: online.stats().epochs,
        stream_ns_per_access: timed.first_s * 1e9 / accesses,
        online_accesses_per_sec: accesses / timed.second_s,
    };
    println!(
        "{:>16}: online {:.3} ms vs static[{}] {:.3} ms -> {:.2}x ({} moves, {} KiB, {} epochs); \
         stream {:.2} ns/access, online {:.2} Macc/s",
        row.name,
        row.online_ms,
        row.static_label,
        row.static_ms,
        row.speedup,
        row.migrations,
        row.bytes_moved_kib,
        row.epochs,
        row.stream_ns_per_access,
        row.online_accesses_per_sec / 1e6
    );
    row
}

/// One policy's commit-half host time: a sample per run, in µs per node
/// epoch, sorted.
struct CommitRow {
    policy: ArbiterPolicy,
    node_epochs: u64,
    us: Vec<f64>,
}

impl CommitRow {
    /// The value a `q`-th of the way up the sorted samples.
    fn at(&self, q: f64) -> f64 {
        self.us[((self.us.len() - 1) as f64 * q).round() as usize]
    }
}

/// `runs` samples per policy of the commit half's host time per node epoch
/// on the churn shape (`full`) or a 4-rank miniature of it. Rounds
/// interleave the policies so each sees the same host drift.
fn commit_host_time(full: bool, runs: usize) -> Vec<CommitRow> {
    let (array, planes, ranks, epoch) = if full {
        (ByteSize::from_kib(16), 64, 16, 1024)
    } else {
        (ByteSize::from_kib(4), 8, 4, 512)
    };
    let stencil = PhasedWorkload::sweeping_stencil(array, planes, 2, 1);
    let workload = MultiRankWorkload::replicated(stencil, ranks);
    let machine = loaded_machine();
    let cfg = |policy| {
        MultiRankConfig::new(policy, workload.node_hot_set())
            .with_online(OnlineConfig::default().with_epoch_accesses(epoch))
    };
    let mut rows: Vec<CommitRow> = ArbiterPolicy::ALL
        .iter()
        .map(|&policy| CommitRow {
            policy,
            node_epochs: 0,
            us: Vec::new(),
        })
        .collect();
    for _ in 0..runs {
        for row in &mut rows {
            let mut rt = MultiRankRuntime::new(&workload, &machine, cfg(row.policy)).unwrap();
            let mut busy = 0.0;
            while rt.observe() {
                let t0 = Instant::now();
                rt.commit();
                busy += t0.elapsed().as_secs_f64();
            }
            let out = rt.run();
            // The halves driven one by one are the whole run.
            let whole = run_multirank(&workload, &machine, cfg(row.policy)).unwrap();
            assert_eq!(out.node_epochs, whole.node_epochs, "{}", row.policy);
            assert_eq!(out.total_migrations(), whole.total_migrations());
            assert_eq!(out.node_time().nanos(), whole.node_time().nanos());
            row.node_epochs = out.node_epochs;
            row.us.push(busy * 1e6 / out.node_epochs as f64);
        }
    }
    for row in &mut rows {
        row.us.sort_by(f64::total_cmp);
        println!(
            "commit half, {}: {:.1} us per node epoch (quartiles {:.1}..{:.1}, {} runs, {} node epochs)",
            row.policy,
            row.at(0.5),
            row.at(0.25),
            row.at(0.75),
            row.us.len(),
            row.node_epochs
        );
    }
    rows
}

fn write_baseline(overhead_percent: f64, rows: &[WorkloadRow], commit: &[CommitRow]) {
    let headline = rows
        .iter()
        .filter(|r| !r.stationary)
        .map(|r| r.speedup)
        .fold(0.0f64, f64::max);
    let mut workloads = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            workloads.push_str(",\n");
        }
        // The machine-readable approach labels in the JSON keys derive from
        // the same `ApproachKind` the figure legends use.
        let online = ApproachKind::Online.key();
        workloads.push_str(&format!(
            "    \"{}\": {{\n      \"stationary\": {},\n      \"{online}_ms\": {:.3},\n      \"best_static_ms\": {:.3},\n      \"best_static\": \"{}\",\n      \"{online}_vs_static_speedup\": {:.3},\n      \"migrations\": {},\n      \"bytes_moved_kib\": {},\n      \"epochs\": {},\n      \"stream_ns_per_access\": {:.2},\n      \"{online}_accesses_per_sec\": {:.0}\n    }}",
            r.name,
            r.stationary,
            r.online_ms,
            r.static_ms,
            r.static_label,
            r.speedup,
            r.migrations,
            r.bytes_moved_kib,
            r.epochs,
            r.stream_ns_per_access,
            r.online_accesses_per_sec
        ));
    }
    let policies = commit
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\n      \"node_epochs\": {},\n      \"median\": {:.1},\n      \"q1\": {:.1},\n      \"q3\": {:.1}\n    }}",
                r.policy,
                r.node_epochs,
                r.at(0.5),
                r.at(0.25),
                r.at(0.75)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let samples = commit.first().map_or(0, |r| r.us.len());
    let online = ApproachKind::Online.key();
    let json = format!(
        "{{\n  \"bench\": \"runtime_migration\",\n  \"machine\": \"loaded tiny_test (DDR 320ns / MCDRAM 180ns loaded latencies)\",\n  \"threads\": 1,\n  \"headline_{online}_speedup\": {headline:.3},\n  \"epoch_overhead_percent\": {overhead_percent:.2},\n  \"workloads\": {{\n{workloads}\n  }},\n  \"commit_host_time\": {{\n    \"shape\": \"16 ranks x 64-plane sweeping stencil (16 KiB planes), 1024-access epochs, node budget = node hot set\",\n    \"unit\": \"us per node epoch\",\n    \"samples\": {samples},\n{policies}\n  }}\n}}\n"
    );
    write_artifact("BENCH_runtime.json", &json);
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let array = if test_mode {
        ByteSize::from_kib(32)
    } else {
        ByteSize::from_kib(256)
    };
    let pairs = if test_mode { 1 } else { 15 };
    let workloads = phased_workloads(array);

    let steady = workloads
        .iter()
        .find(|w| w.name == "steady-triad")
        .expect("steady-triad registered");
    let overhead = epoch_overhead_percent(steady, pairs);
    println!("epoch-loop observation overhead: {overhead:.2}%");

    let rows: Vec<WorkloadRow> = workloads
        .iter()
        .map(|w| run_workload_row(w, array, pairs))
        .collect();
    let commit = commit_host_time(!test_mode, pairs);
    if !test_mode {
        // The acceptance criteria of the online runtime, enforced at bench
        // scale: win on at least one phase-shifting workload, stay within
        // 2% of the best static placement on every stationary one.
        assert!(
            rows.iter().any(|r| !r.stationary && r.speedup > 1.0),
            "online must beat the best static placement on a phase-shifting workload"
        );
        for r in rows.iter().filter(|r| r.stationary) {
            assert!(
                r.speedup > 1.0 / 1.02,
                "{}: online {:.3} ms strays more than 2% from static {:.3} ms",
                r.name,
                r.online_ms,
                r.static_ms
            );
        }
        write_baseline(overhead, &rows, &commit);
    }
}
