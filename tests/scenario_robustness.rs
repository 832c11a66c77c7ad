//! Hostile values in a `.scn` file must either run or fail with a typed
//! [`HmError`], never panic.
//!
//! Each test mutates one field of a committed scenario and drives it through
//! [`Simulation::run`]. The test profile keeps overflow checks on, so an
//! unchecked `+` or `*` on the mutated value panics here.

use hmem_core::scenario::{MAX_EPOCHS_PER_RANK, MAX_ITERATIONS, MAX_TRACE_ACCESSES};
use hmem_core::{Scenario, Simulation};
use hmsim_common::HmError;
use std::path::PathBuf;

/// The committed scenario `name` with `from` replaced by `to` in its text.
fn mutated(name: &str, from: &str, to: &str) -> Scenario {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios")).join(name);
    let text = std::fs::read_to_string(&path).expect("committed scenario is readable");
    assert!(text.contains(from), "{name} has no {from:?}");
    Scenario::parse(&text.replace(from, to)).expect("mutated scenario parses")
}

#[test]
fn max_online_seed_runs_on_a_multi_rank_scenario() {
    let scenario = mutated(
        "rank-skew-triad-global.scn",
        "\"seed\": \"235998279\"",
        "\"seed\": \"18446744073709551615\"",
    );
    let outcome = Simulation::new().run(&scenario).expect("runs");
    assert_eq!(outcome.per_rank.len(), 4);
}

#[test]
fn phased_array_size_whose_access_count_overflows_is_a_config_error() {
    let scenario = mutated(
        "rotating-triad-online.scn",
        "\"array_size\": \"32KiB\"",
        "\"array_size\": \"1000000TiB\"",
    );
    assert_config_error(&scenario, "accesses");
}

/// Running `scenario` must fail with an `HmError::Config` whose message
/// contains `what`.
fn assert_config_error(scenario: &Scenario, what: &str) {
    match Simulation::new().run(scenario) {
        Err(HmError::Config(msg)) => assert!(msg.contains(what), "{msg}"),
        other => panic!("expected a config error naming {what:?}, got {other:?}"),
    }
}

#[test]
fn rank_skew_array_size_whose_rank_zero_size_overflows_is_a_config_error() {
    // 2^62 bytes: the small ranks fit, rank 0's 4x arrays do not.
    let scenario = mutated(
        "rank-skew-triad-global.scn",
        "\"array_size\": \"16KiB\"",
        "\"array_size\": \"4294967296GiB\"",
    );
    assert_config_error(&scenario, "overflow");
}

#[test]
fn analytic_iterations_beyond_the_work_bound_are_a_config_error() {
    let scenario = mutated(
        "minife-ddr.scn",
        "\"iterations\": 8",
        "\"iterations\": 4294967295",
    );
    assert_config_error(&scenario, &MAX_ITERATIONS.to_string());
}

#[test]
fn trace_accesses_beyond_the_work_bound_are_a_config_error() {
    let scenario = mutated(
        "rank-skew-triad-global.scn",
        "\"passes\": 10",
        "\"passes\": 4294967295",
    );
    assert_config_error(&scenario, &MAX_TRACE_ACCESSES.to_string());
}

#[test]
fn online_epochs_beyond_the_work_bound_are_a_config_error() {
    let scenario = mutated(
        "rotating-triad-online.scn",
        "\"epoch_accesses\": \"8192\"",
        "\"epoch_accesses\": \"1\"",
    );
    assert_config_error(&scenario, &MAX_EPOCHS_PER_RANK.to_string());
}

/// A fractional size beyond `u64::MAX` bytes is refused like its integer
/// spelling instead of saturating to `u64::MAX`.
#[test]
fn fractional_budget_beyond_u64_is_a_parse_error() {
    let path =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios")).join("snap-online.scn");
    let text = std::fs::read_to_string(path).expect("committed scenario is readable");
    for budget in ["\"20000000TiB\"", "\"20000000.5TiB\""] {
        let hostile = text.replace("\"256MiB\"", budget);
        match Scenario::parse(&hostile) {
            Err(HmError::Parse { message, .. }) => {
                assert!(message.contains("mcdram_budget"), "{message}")
            }
            other => panic!("{budget}: expected a parse error, got {other:?}"),
        }
    }
}
