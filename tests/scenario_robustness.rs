//! Hostile values in a `.scn` file must either run or fail with a typed
//! [`HmError`], never panic.
//!
//! Each test mutates one field of a committed scenario and drives it through
//! [`Simulation::run`]. The test profile keeps overflow checks on, so an
//! unchecked `+` or `*` on the mutated value panics here.

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
fn huge_heat_deadband_runs() {
    for name in ["rotating-triad-online.scn", "rank-skew-triad-global.scn"] {
        let scenario = mutated(name, "\"heat_deadband\": 2.5", "\"heat_deadband\": 1e308");
        Simulation::new().run(&scenario).expect("runs");
    }
}

#[test]
fn phased_array_size_whose_access_count_overflows_is_a_config_error() {
    let scenario = mutated(
        "rotating-triad-online.scn",
        "\"array_size\": \"32KiB\"",
        "\"array_size\": \"1000000TiB\"",
    );
    match Simulation::new().run(&scenario) {
        Err(HmError::Config(msg)) => assert!(msg.contains("accesses"), "{msg}"),
        other => panic!("expected a config error, got {other:?}"),
    }
}
