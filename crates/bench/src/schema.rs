//! Schema check for the `BENCH_*.json` tracking artifacts.
//!
//! Every bench target that writes a baseline file at the workspace root is
//! registered here with the headline keys its JSON must carry. CI runs
//! [`validate_bench_dir`] after the bench smoke, so a bench writer that
//! emits malformed JSON (string formatting is hand-rolled — no serde in the
//! offline build) or silently drops a headline metric fails the pipeline
//! instead of shipping garbage baselines.
//!
//! The parser is [`hmsim_common::json`], the same code the scenario loader
//! in `hmem-core` reads `.scn` files through.

use hmsim_common::json::{parse_json, Json};
use std::path::Path;

/// The registered benchmark artifacts: file name → (expected `"bench"`
/// value, headline keys the top-level object must carry, keys every entry
/// of its `"workloads"` object must carry).
pub const EXPECTED: &[(&str, &str, &[&str], &[&str])] = &[
    (
        "BENCH_engine.json",
        "engine_throughput",
        &["threads", "headline_speedup", "workloads"],
        &[],
    ),
    (
        "BENCH_trace.json",
        "trace_io",
        &["threads", "binary", "folding", "analysis", "handoff"],
        &[],
    ),
    (
        "BENCH_runtime.json",
        "runtime_migration",
        &[
            "threads",
            "headline_online_speedup",
            "epoch_overhead_percent",
            "workloads",
        ],
        &[
            "online_ms",
            "best_static_ms",
            "stream_ns_per_access",
            "online_accesses_per_sec",
        ],
    ),
    (
        "BENCH_multirank.json",
        "multirank_scaling",
        &["threads", "headline_global_vs_partition", "rank_skew"],
        &[],
    ),
    (
        "BENCH_grid.json",
        "grid",
        &["threads", "headline_speedup", "workloads"],
        &["shared_ms", "per_scenario_ms", "profile_ms", "place_ms"],
    ),
];

/// Validate one artifact's parsed document against its registration.
pub fn validate_document(name: &str, doc: &Json) -> Result<(), String> {
    let Some((_, bench, keys, workload_keys)) = EXPECTED.iter().find(|(n, ..)| *n == name) else {
        return Err(format!(
            "{name}: unregistered bench artifact — add its headline keys to \
             hmsim_bench::schema::EXPECTED"
        ));
    };
    match doc.get("bench") {
        Some(Json::Str(s)) if s == bench => {}
        other => {
            return Err(format!(
                "{name}: top-level \"bench\" must be \"{bench}\", found {other:?}"
            ))
        }
    }
    for key in *keys {
        if doc.get(key).is_none() {
            return Err(format!("{name}: missing headline key \"{key}\""));
        }
    }
    if let Some(Json::Object(workloads)) = doc.get("workloads") {
        for (workload, entry) in workloads {
            if let Some(key) = workload_keys.iter().find(|k| entry.get(k).is_none()) {
                return Err(format!("{name}: workload \"{workload}\" lacks \"{key}\""));
            }
        }
    }
    Ok(())
}

/// Validate every `BENCH_*.json` in `dir`: each must parse as JSON and carry
/// its registered headline keys, and every registered artifact must exist.
/// Returns the validated file names.
pub fn validate_bench_dir(dir: &Path) -> Result<Vec<String>, String> {
    let mut validated = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {dir:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| format!("{name}: unreadable: {e}"))?;
        let doc = parse_json(&text).map_err(|e| format!("{name}: {e}"))?;
        validate_document(&name, &doc)?;
        validated.push(name);
    }
    validated.sort();
    for (name, ..) in EXPECTED {
        if !validated.iter().any(|v| v == name) {
            return Err(format!(
                "registered artifact {name} is missing from {dir:?}"
            ));
        }
    }
    Ok(validated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_parser_handles_the_bench_shapes() {
        let doc =
            parse_json("{\"bench\": \"x\", \"n\": -3.25e2, \"nested\": {\"a\": []}}").unwrap();
        assert_eq!(doc.get("bench"), Some(&Json::Str("x".into())));
        assert_eq!(doc.get("n"), Some(&Json::Num(-325.0)));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn validation_requires_the_headline_keys() {
        let good = parse_json(
            "{\"bench\": \"trace_io\", \"threads\": 1, \"binary\": {}, \"folding\": {}, \
             \"analysis\": {}, \"handoff\": {}}",
        )
        .unwrap();
        validate_document("BENCH_trace.json", &good).unwrap();

        let wrong_bench = parse_json("{\"bench\": \"oops\", \"binary\": {}}").unwrap();
        assert!(validate_document("BENCH_trace.json", &wrong_bench).is_err());

        let missing =
            parse_json("{\"bench\": \"trace_io\", \"threads\": 1, \"folding\": {}}").unwrap();
        let err = validate_document("BENCH_trace.json", &missing).unwrap_err();
        assert!(err.contains("binary"), "{err}");

        let unregistered = parse_json("{\"bench\": \"new\"}").unwrap();
        assert!(validate_document("BENCH_new.json", &unregistered).is_err());
    }

    #[test]
    fn validation_requires_the_per_workload_keys() {
        let doc = |entry: &str| {
            parse_json(&format!(
                "{{\"bench\": \"runtime_migration\", \"threads\": 1, \
                 \"headline_online_speedup\": 1, \"epoch_overhead_percent\": 1, \
                 \"workloads\": {{\"triad\": {entry}}}}}"
            ))
            .unwrap()
        };
        let full = "{\"online_ms\": 1, \"best_static_ms\": 1, \
                    \"stream_ns_per_access\": 1, \"online_accesses_per_sec\": 1}";
        validate_document("BENCH_runtime.json", &doc(full)).unwrap();
        let partial = "{\"online_ms\": 1, \"best_static_ms\": 1}";
        let err = validate_document("BENCH_runtime.json", &doc(partial)).unwrap_err();
        assert!(err.contains("stream_ns_per_access"), "{err}");
    }

    /// The committed artifacts at the workspace root must always validate —
    /// this is the test CI's schema-check step runs after the bench smoke.
    #[test]
    fn schema_of_committed_bench_artifacts() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let validated = validate_bench_dir(root).expect("bench artifacts validate");
        assert_eq!(validated.len(), EXPECTED.len(), "{validated:?}");
    }
}
