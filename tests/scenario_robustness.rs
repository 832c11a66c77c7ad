//! Hostile values in a `.scn` file must either run or fail with a typed
//! [`HmError`], never panic.
//!
//! Each test mutates one field of a committed scenario and drives it through
//! [`Simulation::run`]. The test profile keeps overflow checks on, so an
//! unchecked `+` or `*` on the mutated value panics here.

use auto_hbwmalloc::PlacementApproach;
use hmem_core::scenario::{MAX_EPOCHS_PER_RANK, MAX_ITERATIONS, MAX_TRACE_ACCESSES};
use hmem_core::{MultiRankSelector, Scenario, Simulation};
use hmsim_common::{ByteSize, DetRng, HmError};
use hmsim_machine::MemoryMode;
use hmsim_runtime::ArbiterPolicy;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
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

/// The trace engine simulates flat mode only, so a trace-driven scenario in
/// cache mode is refused before any engine is built: by `validate` and by
/// `Simulation::run`, as a typed config error naming flat mode.
#[test]
fn cache_mode_on_a_trace_workload_is_a_config_error() {
    let phased = Scenario::phased("rotating-triad", ByteSize::from_kib(32), ByteSize::ZERO);
    let multirank = Scenario::multirank(
        MultiRankSelector::RankSkewTriad {
            array_size: ByteSize::from_kib(16),
            ranks: 4,
            skew: 4,
            passes: 2,
        },
        ArbiterPolicy::Global,
        ByteSize::ZERO,
    );
    for mut scenario in [phased, multirank] {
        scenario.approach = PlacementApproach::CacheMode;
        scenario.memory_mode = MemoryMode::Cache;
        scenario.mcdram_budget = ByteSize::ZERO;
        match scenario.validate() {
            Err(HmError::Config(msg)) => assert!(msg.contains("flat-mode"), "{msg}"),
            other => panic!("{}: expected a config error, got {other:?}", scenario.name),
        }
        assert_config_error(&scenario, "flat-mode");
    }
}

/// A budget beyond `i64::MAX` bytes leaves room for everything, exactly as
/// 1 TiB does on this workload: the planner's byte arithmetic must not wrap
/// it into a negative budget that promotes nothing.
#[test]
fn online_budget_beyond_i64_plans_like_one_tib() {
    let run = |budget: &str| {
        let to = format!("\"mcdram_budget\": \"{budget}\"");
        let scenario = mutated(
            "rotating-triad-online.scn",
            "\"mcdram_budget\": \"96KiB\"",
            &to,
        );
        Simulation::new().run(&scenario).expect("runs").node
    };
    let reference = run("1TiB");
    assert!(reference.migrations > 0);
    for budget in ["9000000TiB", "16777215TiB"] {
        let node = run(budget);
        assert_eq!(node.migrations, reference.migrations, "{budget}");
        assert_eq!(node.fom.to_bits(), reference.fom.to_bits(), "{budget}");
        assert_eq!(
            node.time.nanos().to_bits(),
            reference.time.nanos().to_bits()
        );
        assert_eq!(node.llc_misses, reference.llc_misses, "{budget}");
        assert_eq!(node.mcdram_hwm, reference.mcdram_hwm, "{budget}");
    }
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

/// What a mutable leaf of a scenario's text holds.
#[derive(Clone, Copy)]
enum LeafKind {
    /// A bare JSON integer (`"iterations": 8`).
    Int,
    /// A bare JSON float (`"misses_threshold_percent": 0.0`).
    Float,
    /// An integer in a string (`"seed": "12648430"`).
    IntString,
    /// A byte size in a string (`"array_size": "32KiB"`).
    Size,
}

/// The byte span and kind of every numeric or size value in `text`, the
/// fields a hostile edit of a `.scn` file would target. Names, approaches and
/// machines are left alone: they only select among parsed alternatives.
fn numeric_leaves(text: &str) -> Vec<(Range<usize>, LeafKind)> {
    let mut leaves = Vec::new();
    for (colon, _) in text.match_indices("\": ") {
        let start = colon + 3;
        let rest = &text[start..];
        if let Some(body) = rest.strip_prefix('"') {
            let body = &body[..body.find('"').expect("closed string")];
            let digits = body.trim_end_matches(|c: char| c.is_ascii_alphabetic());
            let kind = if !body.is_empty() && body.bytes().all(|b| b.is_ascii_digit()) {
                LeafKind::IntString
            } else if body.ends_with('B') && !digits.is_empty() {
                LeafKind::Size
            } else {
                continue;
            };
            leaves.push((start..start + body.len() + 2, kind));
        } else if rest.starts_with(|c: char| c.is_ascii_digit() || c == '-') {
            let len = rest.find([',', '}', ' ', '\n']).unwrap_or(rest.len());
            let kind = if rest[..len].contains(['.', 'e']) {
                LeafKind::Float
            } else {
                LeafKind::Int
            };
            leaves.push((start..start + len, kind));
        }
    }
    leaves
}

/// A hostile replacement for a leaf of `kind`. One draw in eight ignores the
/// kind, so type confusion (a size where an integer belongs) is fuzzed too.
fn hostile_value(rng: &mut DetRng, kind: LeafKind) -> String {
    const INTS: [u64; 4] = [0, 1, u32::MAX as u64, u64::MAX];
    const FLOATS: [&str; 3] = ["0.0", "-1.0", "1e308"];
    let kind = if rng.chance(0.125) {
        [
            LeafKind::Int,
            LeafKind::Float,
            LeafKind::IntString,
            LeafKind::Size,
        ][rng.uniform_range(0, 4) as usize]
    } else {
        kind
    };
    let pick = |rng: &mut DetRng, n: usize| rng.uniform_range(0, n as u64) as usize;
    match kind {
        LeafKind::Int => INTS[pick(rng, INTS.len())].to_string(),
        LeafKind::IntString => format!("\"{}\"", INTS[pick(rng, INTS.len())]),
        LeafKind::Float => FLOATS[pick(rng, FLOATS.len())].to_string(),
        LeafKind::Size => {
            // Extreme sizes, plus sizes whose product with a small object
            // or rank count (`hot_set_size`, the skewed rank 0) just
            // overflows `u64`.
            let bytes = match rng.uniform_range(0, 3) {
                0 => INTS[pick(rng, INTS.len())],
                1 => u64::MAX / [2, 3, 4, 12, 16][pick(rng, 5)] + 1,
                _ => return ["\"1TiB\"", "\"0.5B\"", "\"16777215TiB\""][pick(rng, 3)].to_string(),
            };
            format!("\"{bytes}B\"")
        }
    }
}

/// Field mutations of the committed `.scn` corpus: each mutant replaces one
/// to three numeric or size values of one scenario with a hostile value and
/// is parsed and run. Every mutant must run or fail with a typed
/// [`HmError`]; a panic fails the test naming the mutant's text.
#[test]
fn field_mutants_of_committed_scenarios_run_or_fail_typed() {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios"));
    let mut corpus: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenarios/ exists at the workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .map(|p| std::fs::read_to_string(p).expect("committed scenario is readable"))
        .collect();
    corpus.sort();
    assert_eq!(corpus.len(), 10, "the committed corpus");

    let mut rng = DetRng::new(0xF1E1_D5CE);
    let (mut ran, mut refused) = (0u32, 0u32);
    for i in 0..300 {
        let base = &corpus[rng.uniform_range(0, corpus.len() as u64) as usize];
        let leaves = numeric_leaves(base);
        let mut text = base.clone();
        // Edit back to front so earlier spans stay valid.
        let mut picked: Vec<usize> = (0..rng.uniform_range(1, 4))
            .map(|_| rng.uniform_range(0, leaves.len() as u64) as usize)
            .collect();
        picked.sort_unstable();
        picked.dedup();
        for &leaf in picked.iter().rev() {
            let (span, kind) = leaves[leaf].clone();
            text.replace_range(span, &hostile_value(&mut rng, kind));
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Scenario::parse(&text).and_then(|s| Simulation::new().run(&s))
        }));
        match outcome {
            Ok(Ok(_)) => ran += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("mutant {i} panicked:\n{text}"),
        }
    }
    // Both outcomes occur, so the fuzz reaches past the parser.
    assert!(ran > 0 && refused > 0, "ran {ran}, refused {refused}");
}
