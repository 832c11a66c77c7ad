//! # hmsim-bench
//!
//! Performance baselines of the reproduction. Each bench target is a plain
//! `main` (`harness = false`) that asserts its equivalence gates, times the
//! work directly (best of N runs) and writes one `BENCH_*.json` artifact at
//! the repository root:
//!
//! | bench target | artifact | measures |
//! |---|---|---|
//! | `engine_throughput` | `BENCH_engine.json` | trace-engine hot path, naive vs optimized |
//! | `trace_io` | `BENCH_trace.json` | binary trace write/parse and folding throughput |
//! | `runtime_migration` | `BENCH_runtime.json` | online migration runtime vs best static placement |
//! | `multirank_scaling` | `BENCH_multirank.json` | arbitration policies on a rank-skewed node |
//!
//! `cargo bench -p hmsim-bench --benches -- --test` runs every target once at
//! smoke scale and writes nothing. The paper's figures and tables are printed
//! by the `full_paper_eval`, `stream_bandwidth` and `snap_timeline` examples.
//!
//! The [`schema`] module validates every `BENCH_*.json` artifact (CI's
//! schema-check step) so a broken bench writer fails the pipeline instead of
//! silently shipping garbage baselines.

use std::time::Instant;

pub mod schema;

/// Best wall time in seconds of `reps` calls of `f`. Each result passes
/// through [`std::hint::black_box`] so the timed work is not optimised away.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Write `json` to `file` at the repository root and echo it.
pub fn write_artifact(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
