//! Acceptance gates of the rank-sharded simulation path.
//!
//! 1. **R = 1 equivalence** — with a single rank, the sharded path must be
//!    *bitwise* identical to the existing single-rank online runtime under
//!    every arbitration policy: same counters, same tier traffic, same
//!    migrations, same simulated time. The shard loop, the arbiter and the
//!    (for `Global`) merged-heat planner must all collapse to no-ops.
//! 2. **Policies separate where they should** — on the rank-skew workload
//!    (one rank's working set dominates the node) the node-global selection
//!    beats the static per-rank partition, because the partition strands
//!    fast memory on the small ranks while starving the dominant one.

use hmem_repro::apps::{phased_workloads, MultiRankWorkload};
use hmem_repro::common::ByteSize;
use hmem_repro::runtime::harness::{loaded_machine, provision};
use hmem_repro::runtime::{
    run_multirank, ArbiterPolicy, MultiRankConfig, OnlineConfig, OnlineRuntime,
};

fn epoch_cfg() -> OnlineConfig {
    OnlineConfig::default().with_epoch_accesses(8_192)
}

#[test]
fn single_rank_sharded_path_is_bitwise_identical_for_every_policy() {
    let machine = loaded_machine();
    for workload in phased_workloads(ByteSize::from_kib(32)) {
        let budget = workload.hot_set_size();

        // The existing single-rank engine: one OnlineRuntime over the
        // workload's stream.
        let mut single_side = provision(&workload, &machine, budget).unwrap();
        let mut single = OnlineRuntime::new(&machine, budget, epoch_cfg());
        let single_misses = single.run(workload.stream(&single_side.ranges), &mut single_side.heap);

        for policy in ArbiterPolicy::ALL {
            let bundle = MultiRankWorkload::replicated(workload.clone(), 1);
            let cfg = MultiRankConfig::new(policy, budget).with_online(epoch_cfg());
            let out = run_multirank(&bundle, &machine, cfg).unwrap();
            assert_eq!(out.per_rank.len(), 1);
            let shard = &out.per_rank[0];

            assert_eq!(
                shard.engine.counters.llc_misses, single_misses,
                "{}/{policy}: miss counts diverged",
                workload.name
            );
            assert_eq!(
                shard.engine.counters,
                single.engine_stats().counters,
                "{}/{policy}: hardware counters diverged",
                workload.name
            );
            assert_eq!(
                shard.engine.tier_traffic,
                single.engine_stats().tier_traffic,
                "{}/{policy}: tier traffic diverged",
                workload.name
            );
            assert_eq!(
                shard.time.nanos().to_bits(),
                single.total_time().nanos().to_bits(),
                "{}/{policy}: simulated time diverged",
                workload.name
            );
            assert_eq!(
                shard.stats.migrations,
                single.stats().migrations,
                "{}/{policy}: migration counts diverged",
                workload.name
            );
            assert_eq!(
                shard.stats.bytes_migrated,
                single.stats().bytes_migrated,
                "{}/{policy}: migrated bytes diverged",
                workload.name
            );
            assert_eq!(
                shard.stats.epochs,
                single.stats().epochs,
                "{}/{policy}: epoch schedules diverged",
                workload.name
            );
            assert_eq!(out.node_epochs, single.stats().epochs, "{policy}");
            assert_eq!(shard.stats.rejected_moves, 0, "{policy}");
        }
    }
}

#[test]
fn global_arbitration_beats_static_partition_on_rank_skew() {
    let machine = loaded_machine();
    // Rank 0's arrays are 4x larger than everyone else's: its hot set is
    // 192 KiB while ranks 1..3 need 48 KiB each. A 288 KiB node pool is
    // enough for every small rank plus two thirds of the dominant one —
    // but the static partition caps every rank at 72 KiB.
    let workload = MultiRankWorkload::rank_skew_triad(ByteSize::from_kib(16), 4, 4, 30);
    let budget = ByteSize::from_kib(288);
    let run = |policy| {
        run_multirank(
            &workload,
            &machine,
            MultiRankConfig::new(policy, budget).with_online(epoch_cfg()),
        )
        .unwrap()
    };
    let partition = run(ArbiterPolicy::Partition);
    let global = run(ArbiterPolicy::Global);
    let fcfs = run(ArbiterPolicy::Fcfs);

    assert!(
        global.node_time() < partition.node_time(),
        "global {} must beat partition {}",
        global.node_time(),
        partition.node_time()
    );
    // Identical work was simulated whatever the policy.
    for out in [&partition, &global, &fcfs] {
        assert_eq!(out.per_rank.len(), 4);
        assert_eq!(
            out.per_rank.iter().map(|r| r.stats.accesses).sum::<u64>(),
            workload.total_accesses()
        );
        assert!(out.per_rank.iter().all(|r| r.stats.rejected_moves == 0));
    }
    // The dominant rank is the node's critical path under every policy.
    for out in [&partition, &global] {
        let dominant = &out.per_rank[0];
        assert_eq!(out.node_time(), dominant.time);
    }
    // FCFS serves rank 0 first, so the dominant rank gets at least as much
    // fast residency as under the static partition.
    let fast_kib = |out: &hmem_repro::runtime::MultiRankOutcome| {
        out.per_rank[0].stats.bytes_migrated.bytes() / 1024
    };
    assert!(fast_kib(&fcfs) >= fast_kib(&partition));
}
