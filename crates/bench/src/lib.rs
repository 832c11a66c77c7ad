//! # hmsim-bench
//!
//! Performance baselines of the reproduction. Each bench target is a plain
//! `main` (`harness = false`) that asserts its equivalence gates, times the
//! work directly (best of N runs, or the median of interleaved pairs where
//! two sides are compared) and writes one `BENCH_*.json` artifact at the
//! repository root:
//!
//! | bench target | artifact | measures |
//! |---|---|---|
//! | `engine_throughput` | `BENCH_engine.json` | trace-engine hot path, naive vs optimized |
//! | `trace_io` | `BENCH_trace.json` | binary trace write/parse, folding and the profile → analysis hand-off |
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

/// Wall times of two workloads taken in interleaved pairs.
pub struct Paired {
    /// Median seconds of one call of the first workload.
    pub first_s: f64,
    /// Median seconds of one call of the second workload.
    pub second_s: f64,
    /// Median over the pairs of `first / second`.
    pub ratio: f64,
}

/// Time `pairs` rounds of one call of `first` and one of `second`, which
/// side runs first alternating from round to round, and take medians.
/// Interleaving exposes both sides to the same drift of a shared host,
/// which best-of-N runs of one side after the other do not; the median
/// ignores the rounds a neighbour disturbed.
pub fn median_of_pairs<A, B>(
    pairs: usize,
    mut first: impl FnMut() -> A,
    mut second: impl FnMut() -> B,
) -> Paired {
    assert!(pairs > 0, "at least one pair");
    let (mut a, mut b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..pairs {
        let (first_s, second_s) = if round % 2 == 0 {
            (best_of(1, &mut first), best_of(1, &mut second))
        } else {
            let second_s = best_of(1, &mut second);
            (best_of(1, &mut first), second_s)
        };
        a.push(first_s);
        b.push(second_s);
        ratios.push(first_s / second_s);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    Paired {
        first_s: median(a),
        second_s: median(b),
        ratio: median(ratios),
    }
}

/// Write `json` to `file` at the repository root and echo it.
pub fn write_artifact(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
