//! Online migration runtime: epoch overhead and online-vs-static placement.
//!
//! Three questions, answered with numbers written to `BENCH_runtime.json`:
//!
//! 1. **What does the epoch loop cost?** The same access stream is driven
//!    through the raw `TraceEngine::run_stream` fast path and through the
//!    `OnlineRuntime` with migrations disabled (identical simulation results,
//!    asserted bitwise before timing); the throughput ratio is the pure
//!    observation overhead of the epoch loop + PEBS sampler.
//! 2. **Does migrating online beat the best static placement where it
//!    should?** For every registered phase-shifting workload the simulated
//!    time under the online runtime is compared against the better of
//!    DDR-only and the offline profile → advise → re-run placement.
//! 3. **Does it stay out of the way where it can't help?** Stationary
//!    workloads must land within 2 % of the best static placement.

use auto_hbwmalloc::ApproachKind;
use hmsim_apps::{phased_workloads, PhasedWorkload};
use hmsim_bench::{best_of, write_artifact};
use hmsim_common::ByteSize;
use hmsim_machine::TraceEngine;
use hmsim_runtime::harness::{best_static, loaded_machine, provision, run_online};
use hmsim_runtime::{OnlineConfig, OnlineRuntime};

struct WorkloadRow {
    name: &'static str,
    stationary: bool,
    online_ms: f64,
    static_ms: f64,
    static_label: String,
    speedup: f64,
    migrations: u64,
    bytes_moved_kib: u64,
    epochs: u64,
}

/// The epoch loop's observation overhead on the steady triad: raw streaming
/// engine vs disabled online runtime over the identical stream.
fn epoch_overhead_percent(workload: &PhasedWorkload, reps: usize) -> f64 {
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
        assert!(
            engine.stats().counters.llc_misses > 0,
            "workload produced no LLC misses"
        );
    }
    let raw_s = best_of(reps, || {
        let p = provision(workload, &machine, budget).unwrap();
        let mut engine = TraceEngine::new(&machine);
        engine.run_stream(workload.stream(&p.ranges), p.heap.page_table())
    });
    let online_s = best_of(reps, || {
        let mut p = provision(workload, &machine, budget).unwrap();
        let mut rt = OnlineRuntime::new(&machine, budget, OnlineConfig::disabled());
        rt.run(workload.stream(&p.ranges), &mut p.heap)
    });
    let accesses = workload.total_accesses() as f64;
    let (raw_aps, online_aps) = (accesses / raw_s, accesses / online_s);
    println!(
        "epoch overhead: raw {:.2} Macc/s, online(disabled) {:.2} Macc/s",
        raw_aps / 1e6,
        online_aps / 1e6
    );
    (raw_aps / online_aps - 1.0) * 100.0
}

fn run_workload_row(workload: &PhasedWorkload) -> WorkloadRow {
    let machine = loaded_machine();
    let budget = workload.hot_set_size();
    let cfg = OnlineConfig::default();
    let stat = best_static(workload, &machine, budget, &cfg).unwrap();
    let online = run_online(workload, &machine, budget, cfg).unwrap();
    let row = WorkloadRow {
        name: workload.name,
        stationary: workload.stationary,
        online_ms: online.time.millis(),
        static_ms: stat.time.millis(),
        static_label: stat.label.clone(),
        speedup: stat.time.nanos() / online.time.nanos().max(1e-12),
        migrations: online.stats.migrations,
        bytes_moved_kib: online.stats.bytes_migrated.bytes() / 1024,
        epochs: online.stats.epochs,
    };
    println!(
        "{:>16}: online {:.3} ms vs static[{}] {:.3} ms -> {:.2}x ({} moves, {} KiB, {} epochs)",
        row.name,
        row.online_ms,
        row.static_label,
        row.static_ms,
        row.speedup,
        row.migrations,
        row.bytes_moved_kib,
        row.epochs
    );
    row
}

fn write_baseline(overhead_percent: f64, rows: &[WorkloadRow]) {
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
            "    \"{}\": {{\n      \"stationary\": {},\n      \"{online}_ms\": {:.3},\n      \"best_static_ms\": {:.3},\n      \"best_static\": \"{}\",\n      \"{online}_vs_static_speedup\": {:.3},\n      \"migrations\": {},\n      \"bytes_moved_kib\": {},\n      \"epochs\": {}\n    }}",
            r.name,
            r.stationary,
            r.online_ms,
            r.static_ms,
            r.static_label,
            r.speedup,
            r.migrations,
            r.bytes_moved_kib,
            r.epochs
        ));
    }
    let online = ApproachKind::Online.key();
    let json = format!(
        "{{\n  \"bench\": \"runtime_migration\",\n  \"machine\": \"loaded tiny_test (DDR 320ns / MCDRAM 180ns loaded latencies)\",\n  \"headline_{online}_speedup\": {headline:.3},\n  \"epoch_overhead_percent\": {overhead_percent:.2},\n  \"workloads\": {{\n{workloads}\n  }}\n}}\n"
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
    let reps = if test_mode { 1 } else { 3 };
    let workloads = phased_workloads(array);

    let steady = workloads
        .iter()
        .find(|w| w.name == "steady-triad")
        .expect("steady-triad registered");
    let overhead = epoch_overhead_percent(steady, reps);
    println!("epoch-loop observation overhead: {overhead:.2}%");

    let rows: Vec<WorkloadRow> = workloads.iter().map(run_workload_row).collect();
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
        write_baseline(overhead, &rows);
    }
}
