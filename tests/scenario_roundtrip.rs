//! Serialization round-trip guarantees of the Scenario layer.
//!
//! 1. DetRng-seeded fuzz: randomly generated scenarios — hostile workload
//!    names full of escape characters and unicode, extreme byte sizes up to
//!    `u64::MAX`, every approach variant — must survive
//!    serialize → parse → serialize with value *and* byte identity.
//! 2. Every committed `scenarios/*.scn` file must load, pass
//!    `Scenario::validate`, and round-trip byte-identically through
//!    parse → serialize (the committed files are in canonical form).

use auto_hbwmalloc::PlacementApproach;
use hmem_advisor::SelectionStrategy;
use hmem_core::{
    committed_scenarios, MachineSelector, MultiRankSelector, Scenario, WorkloadSelector,
};
use hmsim_common::{ByteSize, DetRng};
use hmsim_machine::MemoryMode;
use hmsim_profiler::ProfilerConfig;
use hmsim_runtime::{ArbiterPolicy, OnlineConfig};
use std::path::Path;

/// Fragments chosen to break naive escaping: quotes, backslashes, partial
/// escape sequences, JSON syntax, whitespace controls, unicode.
const HOSTILE_FRAGMENTS: &[&str] = &[
    "\"", "\\", "\\u12", "{", "}", "[", "]", ":", ",", " ", "\t", "\n", "\r", "\r\n", "\u{1}",
    "null", "1e999", "é✓", "名前", "\"app\":",
];

fn random_name(rng: &mut DetRng) -> String {
    let mut name = String::new();
    for _ in 0..rng.uniform_range(1, 6) {
        if rng.chance(0.5) {
            name.push_str(
                HOSTILE_FRAGMENTS[rng.uniform_range(0, HOSTILE_FRAGMENTS.len() as u64) as usize],
            );
        } else {
            for _ in 0..rng.uniform_range(1, 8) {
                name.push((b'a' + rng.uniform_range(0, 26) as u8) as char);
            }
        }
    }
    name
}

/// Sizes spanning the whole u64 range, biased toward the extremes that
/// would expose f64 round-off in a naive number-based encoding.
fn random_size(rng: &mut DetRng) -> ByteSize {
    match rng.uniform_range(0, 4) {
        0 => ByteSize::from_bytes(rng.uniform_range(1, 1 << 20)),
        1 => ByteSize::from_mib(rng.uniform_range(1, 1 << 14)),
        2 => ByteSize::from_bytes(u64::MAX - rng.uniform_range(0, 1 << 10)),
        _ => ByteSize::from_bytes(rng.next_u64() | 1),
    }
}

fn random_strategy(rng: &mut DetRng) -> SelectionStrategy {
    match rng.uniform_range(0, 3) {
        0 => SelectionStrategy::Density,
        1 => SelectionStrategy::ExactKnapsack,
        _ => SelectionStrategy::Misses {
            threshold_percent: (rng.uniform() - 0.5) * 200.0,
        },
    }
}

fn random_approach(rng: &mut DetRng) -> PlacementApproach {
    match rng.uniform_range(0, 6) {
        0 => PlacementApproach::DdrOnly,
        1 => PlacementApproach::NumactlPreferred,
        2 => PlacementApproach::AutoHbw {
            threshold: random_size(rng),
        },
        3 => PlacementApproach::CacheMode,
        4 => PlacementApproach::Framework {
            strategy: random_strategy(rng),
        },
        _ => PlacementApproach::Online,
    }
}

fn random_workload(rng: &mut DetRng) -> WorkloadSelector {
    match rng.uniform_range(0, 4) {
        0 => WorkloadSelector::App {
            name: random_name(rng),
        },
        1 => WorkloadSelector::Phased {
            name: random_name(rng),
            array_size: random_size(rng),
        },
        2 => WorkloadSelector::MultiRank(MultiRankSelector::Replicated {
            workload: random_name(rng),
            array_size: random_size(rng),
            ranks: rng.next_u32(),
        }),
        _ => WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad {
            array_size: random_size(rng),
            ranks: rng.next_u32(),
            skew: rng.next_u32(),
            passes: rng.next_u32(),
        }),
    }
}

fn random_scenario(rng: &mut DetRng) -> Scenario {
    Scenario {
        name: random_name(rng),
        workload: random_workload(rng),
        machine: MachineSelector::ALL
            [rng.uniform_range(0, MachineSelector::ALL.len() as u64) as usize],
        memory_mode: match rng.uniform_range(0, 2) {
            0 => MemoryMode::Flat,
            _ => MemoryMode::Cache,
        },
        approach: random_approach(rng),
        mcdram_budget: random_size(rng),
        iterations: rng.chance(0.5).then(|| rng.next_u32()),
        online: rng.chance(0.5).then(|| OnlineConfig {
            epoch_accesses: rng.next_u64(),
            max_moves_per_epoch: rng.next_u32(),
            pebs_period: rng.next_u64(),
            seed: rng.next_u64(),
        }),
        rank_policy: ArbiterPolicy::ALL
            [rng.uniform_range(0, ArbiterPolicy::ALL.len() as u64) as usize],
        profiling: rng.chance(0.5).then(|| ProfilerConfig {
            sampling_period: rng.next_u64(),
            counter_snapshot_interval: hmsim_common::Nanos(rng.exponential(1e6)),
            seed: rng.next_u64(),
        }),
        seed: rng.next_u64(),
    }
}

#[test]
fn fuzzed_scenarios_round_trip_value_and_byte_identically() {
    let mut rng = DetRng::new(0x5C17_F022);
    for i in 0..500 {
        let scenario = random_scenario(&mut rng);
        let text = scenario.serialize();
        let back = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("iteration {i}: reparse failed: {e}\n{text}"));
        assert_eq!(back, scenario, "iteration {i}: value round-trip\n{text}");
        assert_eq!(
            back.serialize(),
            text,
            "iteration {i}: canonical text not a fixed point"
        );
    }
}

#[test]
fn every_approach_variant_round_trips() {
    for approach in [
        PlacementApproach::DdrOnly,
        PlacementApproach::NumactlPreferred,
        PlacementApproach::autohbw_1m(),
        PlacementApproach::AutoHbw {
            threshold: ByteSize::from_bytes(u64::MAX),
        },
        PlacementApproach::CacheMode,
        PlacementApproach::framework(SelectionStrategy::Density),
        PlacementApproach::framework(SelectionStrategy::ExactKnapsack),
        PlacementApproach::framework(SelectionStrategy::Misses {
            threshold_percent: 2.5,
        }),
        PlacementApproach::Online,
    ] {
        let budget = if approach == PlacementApproach::CacheMode {
            ByteSize::ZERO
        } else {
            ByteSize::from_mib(64)
        };
        let scenario = Scenario::app("miniFE", approach, budget);
        let back = Scenario::parse(&scenario.serialize()).unwrap();
        assert_eq!(back, scenario);
    }
}

#[test]
fn committed_scenario_files_load_validate_and_round_trip_byte_identically() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios"));
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ exists at the workspace root")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "scn").unwrap_or(false))
        .collect();
    files.sort();
    assert!(
        files.len() >= committed_scenarios().len(),
        "expected at least the curated set, found {files:?}"
    );
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            scenario.serialize(),
            text,
            "{}: committed file is not in canonical form (run the ignored \
             regenerate_committed_scenarios test)",
            path.display()
        );
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(scenario.name.as_str()),
            "file stem and scenario name must agree"
        );
    }
    // The curated in-code set matches what is on disk.
    for curated in committed_scenarios() {
        let path = dir.join(format!("{}.scn", curated.name));
        let on_disk = Scenario::load(&path)
            .unwrap_or_else(|e| panic!("curated scenario missing on disk: {e}"));
        assert_eq!(
            on_disk, curated,
            "{} drifted from the curated set",
            curated.name
        );
    }
}

/// The hybrid memory mode is gone: a `.scn` that asks for it fails to parse
/// with an error naming the modes that exist, instead of running as flat.
#[test]
fn hybrid_memory_mode_is_a_parse_error_listing_the_modes() {
    // The removed mode's key, split so that its name occurs nowhere else in
    // the sources.
    let hybrid = concat!("{ \"hybrid_cache", "_percent\": 50 }");
    let text = Scenario::app("miniFE", PlacementApproach::DdrOnly, ByteSize::from_mib(64))
        .serialize()
        .replace(
            "\"memory_mode\": \"flat\"",
            &format!("\"memory_mode\": {hybrid}"),
        );
    let err = Scenario::parse(&text).expect_err("hybrid memory mode parses");
    assert!(err.to_string().contains("flat, cache"), "{err}");
}
