//! Node-level fast-tier arbitration between ranks.
//!
//! A KNL node has *one* 16 GiB MCDRAM pool, but an MPI run places R
//! processes on it. Something has to decide how much of the pool each rank's
//! placement may plan against; this module is that something. Three policies
//! are modelled, matching the deployment modes the paper discusses:
//!
//! * [`ArbiterPolicy::Fcfs`] — first-come-first-served, the behaviour of
//!   `numactl -p 1` / first-touch: ranks are served in rank order each epoch
//!   and may claim the whole remaining pool. Great for whoever arrives
//!   first, starvation for whoever arrives last.
//! * [`ArbiterPolicy::Partition`] — static per-rank partition: every rank
//!   owns `node_budget / ranks`. This is how the paper deploys its framework
//!   on MPI applications (per-rank budgets in the Figure-4 grid), and it is
//!   optimal when ranks are symmetric.
//! * [`ArbiterPolicy::Global`] — one node-spanning selection: every rank's
//!   per-object heat is folded into one node-wide map (object ids are
//!   globalized disjointly per rank and each sample only adds into its own
//!   object's heat, so the fold needs no cross-rank time ordering) and a
//!   single advisor knapsack packs the whole node budget. This is what a node-level daemon could do, and it is the
//!   only policy that tracks *asymmetric* demand (see the rank-skew
//!   workload family).

use hmsim_common::ByteSize;
use std::fmt;

/// How the node-level fast-tier budget is split between ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArbiterPolicy {
    /// First-come-first-served in rank order (models `numactl`/first-touch).
    Fcfs,
    /// Static per-rank partition, `node_budget / ranks` each (the paper's
    /// deployment mode and the default).
    #[default]
    Partition,
    /// One selection spanning every rank's objects against the whole node
    /// budget.
    Global,
}

impl ArbiterPolicy {
    /// All policies, in presentation order.
    pub const ALL: [ArbiterPolicy; 3] = [
        ArbiterPolicy::Fcfs,
        ArbiterPolicy::Partition,
        ArbiterPolicy::Global,
    ];
}

impl fmt::Display for ArbiterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArbiterPolicy::Fcfs => "fcfs",
            ArbiterPolicy::Partition => "partition",
            ArbiterPolicy::Global => "global",
        })
    }
}

/// The arbiter of one node's fast-tier pool.
#[derive(Clone, Debug)]
pub struct NodeArbiter {
    policy: ArbiterPolicy,
    node_budget: ByteSize,
    ranks: u32,
}

impl NodeArbiter {
    /// An arbiter over `node_budget` bytes of fast memory shared by `ranks`
    /// ranks.
    pub fn new(policy: ArbiterPolicy, node_budget: ByteSize, ranks: u32) -> Self {
        NodeArbiter {
            policy,
            node_budget,
            ranks: ranks.max(1),
        }
    }

    /// The arbitration policy.
    pub fn policy(&self) -> ArbiterPolicy {
        self.policy
    }

    /// The whole node's fast-tier budget.
    pub fn node_budget(&self) -> ByteSize {
        self.node_budget
    }

    /// Ranks sharing the pool.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// The static per-rank share, `node_budget / ranks`.
    pub fn partition_share(&self) -> ByteSize {
        self.node_budget / u64::from(self.ranks)
    }

    /// The hard per-rank capacity cap a shard's heap is provisioned with.
    /// Under the static partition no rank can ever exceed its share; under
    /// FCFS and the global policy a single rank may legitimately hold the
    /// whole pool (the *aggregate* is bounded by the per-epoch budgets).
    pub fn rank_cap(&self) -> ByteSize {
        match self.policy {
            ArbiterPolicy::Partition => self.partition_share(),
            ArbiterPolicy::Fcfs | ArbiterPolicy::Global => self.node_budget,
        }
    }

    /// The budget rank `rank` may plan against this epoch. `residencies[r]`
    /// is rank r's current fast-tier occupancy; under FCFS the caller serves
    /// ranks in rank order, so earlier ranks' entries already reflect this
    /// epoch's moves and later ranks see only what is left.
    pub fn epoch_budget(&self, rank: u32, residencies: &[ByteSize]) -> ByteSize {
        match self.policy {
            ArbiterPolicy::Partition => self.partition_share(),
            // The global planner packs one knapsack for the whole node; the
            // per-rank question does not arise, so a rank asking anyway is
            // told the whole pool.
            ArbiterPolicy::Global => self.node_budget,
            ArbiterPolicy::Fcfs => {
                let used: ByteSize = residencies.iter().copied().sum();
                let mine = residencies
                    .get(rank as usize)
                    .copied()
                    .unwrap_or(ByteSize::ZERO);
                mine + self.node_budget.saturating_sub(used)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: u64 = 1024;

    #[test]
    fn partition_gives_every_rank_the_same_share() {
        let a = NodeArbiter::new(ArbiterPolicy::Partition, ByteSize::from_kib(256), 4);
        let res = vec![ByteSize::ZERO; 4];
        for r in 0..4 {
            assert_eq!(a.epoch_budget(r, &res), ByteSize::from_kib(64));
        }
        assert_eq!(a.rank_cap(), ByteSize::from_kib(64));
    }

    #[test]
    fn fcfs_serves_in_rank_order_and_starves_the_tail() {
        let a = NodeArbiter::new(ArbiterPolicy::Fcfs, ByteSize::from_kib(256), 4);
        assert_eq!(a.rank_cap(), ByteSize::from_kib(256));
        // Nobody holds anything yet: rank 0 may take the whole pool.
        let mut res = vec![ByteSize::ZERO; 4];
        assert_eq!(a.epoch_budget(0, &res), ByteSize::from_kib(256));
        // Rank 0 took 192 KiB; rank 1 sees 64 KiB.
        res[0] = ByteSize::from_kib(192);
        assert_eq!(a.epoch_budget(1, &res), ByteSize::from_kib(64));
        // Rank 1 takes the rest; ranks 2 and 3 are starved but keep what
        // they already hold.
        res[1] = ByteSize::from_kib(64);
        assert_eq!(a.epoch_budget(2, &res), ByteSize::ZERO);
        res[3] = ByteSize::from_bytes(8 * KIB);
        assert_eq!(a.epoch_budget(3, &res), ByteSize::from_bytes(8 * KIB));
    }

    #[test]
    fn global_exposes_the_whole_pool_to_the_central_planner() {
        let a = NodeArbiter::new(ArbiterPolicy::Global, ByteSize::from_kib(256), 4);
        assert_eq!(
            a.epoch_budget(2, &[ByteSize::ZERO; 4]),
            ByteSize::from_kib(256)
        );
        assert_eq!(a.rank_cap(), ByteSize::from_kib(256));
    }

    #[test]
    fn single_rank_always_owns_the_full_pool() {
        for policy in ArbiterPolicy::ALL {
            let a = NodeArbiter::new(policy, ByteSize::from_kib(128), 1);
            assert_eq!(
                a.epoch_budget(0, &[ByteSize::ZERO]),
                ByteSize::from_kib(128)
            );
            assert_eq!(a.rank_cap(), ByteSize::from_kib(128));
        }
    }
}
