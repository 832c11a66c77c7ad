//! Behaviour lock for the committed scenario corpus.
//!
//! Every entry of [`committed_scenarios`] runs through [`Simulation::run`]
//! and is rendered as a text digest: per rank the FOM, the four times and
//! the monitoring overhead as `f64::to_bits`, the counters, the per-kernel
//! times, migrations, rejected moves and the MCDRAM high-water mark; then
//! the node aggregates and, for Framework runs, the names the advisor
//! selected. The digest must match `scenarios/golden/<name>.txt` line for
//! line, so any drift in absolute behaviour — not only a disagreement
//! between two code paths that share the drifted code — fails here.
//!
//! After a deliberate behaviour change, re-bless with
//! `cargo test --test scenario_golden -- --ignored regenerate` and justify
//! the new digests in review.

use hmem_core::{committed_scenarios, Outcome, Scenario, Simulation};
use std::fmt::{Display, Write as _};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/golden"))
}

/// One `key = value` line per field; floats as their bit pattern followed
/// by the shortest round-trip decimal for the reader.
fn digest(outcome: &Outcome) -> String {
    let mut out = String::new();
    let mut put = |key: &str, value: &dyn Display| writeln!(out, "{key} = {value}").unwrap();
    let float = |v: f64| format!("{:#018x} ({v})", v.to_bits());

    put("scenario", &outcome.scenario);
    put("approach", &outcome.approach);
    for (rank, r) in outcome.per_rank.iter().enumerate() {
        let c = &r.counters;
        let fields: [(&str, &dyn Display); 16] = [
            ("fom", &float(r.fom)),
            ("total_time", &float(r.total_time.nanos())),
            ("loop_time", &float(r.loop_time.nanos())),
            ("allocator_time", &float(r.allocator_time.nanos())),
            ("migration_time", &float(r.migration_time.nanos())),
            ("monitoring_overhead", &float(r.monitoring_overhead)),
            ("counters.instructions", &c.instructions),
            ("counters.l1_references", &c.l1_references),
            ("counters.l1_misses", &c.l1_misses),
            ("counters.llc_references", &c.llc_references),
            ("counters.llc_misses", &c.llc_misses),
            ("counters.stall_cycles", &c.stall_cycles),
            ("counters.cycles", &c.cycles),
            ("migrations", &r.migrations),
            ("migrations_rejected", &r.migrations_rejected),
            ("mcdram_hwm", &r.mcdram_hwm.bytes()),
        ];
        for (field, value) in fields {
            put(&format!("rank{rank}.{field}"), value);
        }
        for (name, time) in &r.kernel_times {
            put(&format!("rank{rank}.kernel.{name}"), &float(time.nanos()));
        }
    }
    let n = &outcome.node;
    put("node.time", &float(n.time.nanos()));
    put("node.fom", &float(n.fom));
    put("node.llc_misses", &n.llc_misses);
    put("node.migrations", &n.migrations);
    put("node.migration_time", &float(n.migration_time.nanos()));
    put("node.mcdram_hwm", &n.mcdram_hwm.bytes());
    put("node.node_epochs", &n.node_epochs);
    if let Some(fw) = &outcome.framework {
        let selected: Vec<&str> = fw
            .placement
            .entries
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        put("framework.selected", &selected.join(", "));
    }
    out
}

fn run_digest(scenario: &Scenario) -> String {
    let outcome = Simulation::new()
        .run(scenario)
        .unwrap_or_else(|e| panic!("scenario {} failed: {e}", scenario.name));
    digest(&outcome)
}

/// The first line on which two digests differ, as `(line number, expected,
/// actual)`; a missing line reads as `<missing>`.
fn first_divergence<'a>(expected: &'a str, actual: &'a str) -> Option<(usize, &'a str, &'a str)> {
    let lines = expected.lines().count().max(actual.lines().count());
    let padded = |text: &'a str| text.lines().chain(std::iter::repeat("<missing>"));
    padded(expected)
        .zip(padded(actual))
        .take(lines)
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .map(|(i, (want, got))| (i + 1, want, got))
}

#[test]
fn committed_scenarios_match_their_golden_digests() {
    let mut failures = Vec::new();
    for scenario in committed_scenarios() {
        let path = golden_dir().join(format!("{}.txt", scenario.name));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let actual = run_digest(&scenario);
        if let Some((number, want, got)) = first_divergence(&expected, &actual) {
            let field = want.split(" = ").next().unwrap_or(want);
            failures.push(format!(
                "{}: first divergence at line {number}, field `{field}`\n  golden: {want}\n  actual: {got}",
                scenario.name
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests diverged (re-bless only for a deliberate change):\n{}",
        failures.join("\n")
    );
}

#[test]
fn divergence_names_the_first_differing_field() {
    let golden = "scenario = x\nrank0.fom = 1\nrank0.migrations = 2\n";
    assert_eq!(first_divergence(golden, golden), None);
    assert_eq!(
        first_divergence(
            golden,
            "scenario = x\nrank0.fom = 3\nrank0.migrations = 4\n"
        ),
        Some((2, "rank0.fom = 1", "rank0.fom = 3"))
    );
    assert_eq!(
        first_divergence(golden, "scenario = x\nrank0.fom = 1\n"),
        Some((3, "rank0.migrations = 2", "<missing>"))
    );
}

/// Maintenance helper, not a check: rewrites `scenarios/golden/` from the
/// current code. Run with
/// `cargo test --test scenario_golden -- --ignored regenerate`.
#[test]
#[ignore = "maintenance helper; rewrites scenarios/golden/ at the workspace root"]
fn regenerate_golden_digests() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for scenario in committed_scenarios() {
        std::fs::write(
            dir.join(format!("{}.txt", scenario.name)),
            run_digest(&scenario),
        )
        .unwrap();
    }
}
