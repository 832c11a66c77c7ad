//! Multi-rank sharded simulation: arbitration policy quality, recorded in
//! `BENCH_multirank.json`.
//!
//! **Do the arbitration policies separate?** On the rank-skew triad (rank
//! 0's working set dominates the node) the node-global selection must beat
//! the static per-rank partition — the partition strands fast memory on the
//! small ranks while starving the dominant one. FCFS rides along as the
//! numactl/first-touch model. Shards run serially on one thread.

use hmsim_apps::{MultiRankWorkload, PhasedWorkload};
use hmsim_bench::write_artifact;
use hmsim_common::ByteSize;
use hmsim_runtime::harness::{loaded_machine, provision};
use hmsim_runtime::{
    run_multirank, ArbiterPolicy, MultiRankConfig, MultiRankOutcome, OnlineConfig, OnlineRuntime,
};

fn online_cfg() -> OnlineConfig {
    OnlineConfig::default().with_epoch_accesses(16_384)
}

/// Gate before any number is reported: with one rank the sharded path must reproduce
/// the single-rank runtime bit for bit, whatever the policy.
fn assert_single_rank_equivalence(array: ByteSize) {
    let machine = loaded_machine();
    let w = PhasedWorkload::steady_triad(array, 20);
    let budget = w.hot_set_size();
    let mut side = provision(&w, &machine, budget).unwrap();
    let mut single = OnlineRuntime::new(&machine, budget, online_cfg());
    single.run(w.stream(&side.ranges), &mut side.heap);
    for policy in ArbiterPolicy::ALL {
        let bundle = MultiRankWorkload::replicated(w.clone(), 1);
        let cfg = MultiRankConfig::new(policy, budget).with_online(online_cfg());
        let out = run_multirank(&bundle, &machine, cfg).unwrap();
        assert_eq!(
            out.per_rank[0].engine.counters,
            single.engine_stats().counters,
            "{policy}: sharded path diverged from the single-rank engine"
        );
        assert_eq!(
            out.per_rank[0].time.nanos().to_bits(),
            single.total_time().nanos().to_bits(),
            "{policy}: simulated time diverged"
        );
    }
}

struct PolicyRow {
    policy: ArbiterPolicy,
    outcome: MultiRankOutcome,
}

fn json_policy(row: &PolicyRow) -> String {
    let o = &row.outcome;
    let dominant = &o.per_rank[0];
    let tail_ms = o
        .per_rank
        .iter()
        .skip(1)
        .map(|r| r.time.millis())
        .fold(0.0f64, f64::max);
    format!(
        "      \"{}\": {{\n        \"node_time_ms\": {:.3},\n        \"dominant_rank_time_ms\": {:.3},\n        \"worst_small_rank_time_ms\": {:.3},\n        \"migrations\": {},\n        \"bytes_moved_kib\": {},\n        \"node_epochs\": {}\n      }}",
        row.policy,
        o.node_time().millis(),
        dominant.time.millis(),
        tail_ms,
        o.total_migrations(),
        o.per_rank
            .iter()
            .map(|r| r.stats.bytes_migrated.bytes())
            .sum::<u64>()
            / 1024,
        o.node_epochs
    )
}

fn write_baseline(skew_budget: ByteSize, rows: &[PolicyRow], global_vs_partition: f64) {
    let policies = rows.iter().map(json_policy).collect::<Vec<_>>().join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"multirank_scaling\",\n  \"machine\": \"loaded tiny_test (DDR 320ns / MCDRAM 180ns loaded latencies)\",\n  \"threads\": 1,\n  \"headline_global_vs_partition\": {global_vs_partition:.3},\n  \"rank_skew\": {{\n    \"ranks\": 4,\n    \"skew\": 4,\n    \"node_budget_kib\": {},\n    \"policies\": {{\n{policies}\n    }}\n  }}\n}}\n",
        skew_budget.bytes() / 1024
    );
    write_artifact("BENCH_multirank.json", &json);
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (array, passes) = if test_mode {
        (ByteSize::from_kib(16), 8)
    } else {
        (ByteSize::from_kib(128), 30)
    };

    assert_single_rank_equivalence(array);

    // ---- arbitration quality on the rank-skew triad.
    let skew = MultiRankWorkload::rank_skew_triad(array, 4, 4, passes);
    // Enough for every small rank plus two thirds of the dominant one;
    // the static partition caps every rank at a quarter of it.
    let skew_budget = ByteSize::from_bytes(array.bytes() * 18);
    let machine = loaded_machine();
    let rows: Vec<PolicyRow> = ArbiterPolicy::ALL
        .iter()
        .map(|&policy| {
            let cfg = MultiRankConfig::new(policy, skew_budget).with_online(online_cfg());
            let outcome = run_multirank(&skew, &machine, cfg).unwrap();
            println!(
                "rank-skew/{policy}: node {:.3} ms (dominant {:.3} ms), {} moves, {} epochs",
                outcome.node_time().millis(),
                outcome.per_rank[0].time.millis(),
                outcome.total_migrations(),
                outcome.node_epochs
            );
            PolicyRow { policy, outcome }
        })
        .collect();
    let node_ms = |p: ArbiterPolicy| {
        rows.iter()
            .find(|r| r.policy == p)
            .map(|r| r.outcome.node_time().millis())
            .unwrap()
    };
    let global_vs_partition = node_ms(ArbiterPolicy::Partition) / node_ms(ArbiterPolicy::Global);

    if !test_mode {
        // Acceptance gate, enforced at bench scale: the node-global
        // selection must beat the static per-rank partition on rank skew.
        assert!(
            global_vs_partition > 1.0,
            "global ({:.3} ms) must beat partition ({:.3} ms) on rank skew",
            node_ms(ArbiterPolicy::Global),
            node_ms(ArbiterPolicy::Partition)
        );
        write_baseline(skew_budget, &rows, global_vs_partition);
    }
}
