//! Multi-rank (MPI-style) trace workload families.
//!
//! The paper profiles every rank of an MPI run and merges the per-rank PEBS
//! profiles into one placement decision; the multi-rank shard runner in
//! `hmsim-runtime` reproduces that at trace scale by simulating one
//! [`PhasedWorkload`] per rank under a *node-level* fast-tier budget. A
//! [`MultiRankWorkload`] is simply that bundle: one phased workload per rank,
//! simulated independently except for the shared fast tier.
//!
//! Two families are provided:
//!
//! * [`replicated`](MultiRankWorkload::replicated) — every rank runs the same
//!   workload (the homogeneous SPMD case; per-rank partitioning is optimal by
//!   symmetry, so this family measures shard fan-out scaling);
//! * [`rank_skew_triad`](MultiRankWorkload::rank_skew_triad) — an imbalanced
//!   triad where rank 0's working set is `skew`× larger than everyone
//!   else's. A static per-rank partition (budget ÷ R, the paper's deployment
//!   mode) strands capacity on the small ranks while starving the dominant
//!   one; a node-global selection does not — which is exactly the gap the
//!   arbitration policies are built to expose.

use crate::phased::PhasedWorkload;
use hmsim_common::ByteSize;

/// A bundle of per-rank trace workloads sharing one node.
#[derive(Clone, Debug)]
pub struct MultiRankWorkload {
    /// Family name (stable identifier used by benches and reports).
    pub name: &'static str,
    per_rank: Vec<PhasedWorkload>,
}

impl MultiRankWorkload {
    /// Every rank runs its own copy of `workload` (homogeneous SPMD).
    pub fn replicated(workload: PhasedWorkload, ranks: u32) -> Self {
        let ranks = ranks.max(1);
        MultiRankWorkload {
            name: "replicated",
            per_rank: (0..ranks).map(|_| workload.clone()).collect(),
        }
    }

    /// The rank-skew family: `ranks` stationary triads, with rank 0's arrays
    /// `skew`× larger than the other ranks' (so its hot set and its access
    /// volume dominate the node). All ranks run `passes` triad passes.
    pub fn rank_skew_triad(array_size: ByteSize, ranks: u32, skew: u32, passes: u32) -> Self {
        let ranks = ranks.max(2);
        let skew = skew.max(2);
        let per_rank = (0..ranks)
            .map(|r| {
                let size = if r == 0 {
                    array_size * u64::from(skew)
                } else {
                    array_size
                };
                PhasedWorkload::steady_triad(size, passes)
            })
            .collect();
        MultiRankWorkload {
            name: "rank-skew-triad",
            per_rank,
        }
    }

    /// Number of ranks in the bundle.
    pub fn ranks(&self) -> u32 {
        self.per_rank.len() as u32
    }

    /// The workload rank `rank` runs.
    pub fn rank(&self, rank: u32) -> &PhasedWorkload {
        &self.per_rank[rank as usize]
    }

    /// The per-rank workloads, rank order.
    pub fn per_rank(&self) -> &[PhasedWorkload] {
        &self.per_rank
    }

    /// Sum of every rank's instantaneous hot set — what a node-level fast
    /// tier would need to hold *everything* hot at once. Budgets between the
    /// largest single-rank hot set and this total are where the arbitration
    /// policies separate.
    pub fn node_hot_set(&self) -> ByteSize {
        self.per_rank.iter().map(|w| w.hot_set_size()).sum()
    }

    /// Total accesses over all ranks (for throughput accounting).
    pub fn total_accesses(&self) -> u64 {
        self.per_rank.iter().map(|w| w.total_accesses()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_ranks_share_the_workload_shape() {
        let w = PhasedWorkload::steady_triad(ByteSize::from_kib(16), 4);
        let m = MultiRankWorkload::replicated(w.clone(), 4);
        assert_eq!(m.ranks(), 4);
        assert_eq!(m.total_accesses(), 4 * w.total_accesses());
        assert_eq!(m.node_hot_set(), ByteSize::from_kib(16 * 3 * 4));
    }

    #[test]
    fn rank_skew_triad_is_dominated_by_rank_zero() {
        let m = MultiRankWorkload::rank_skew_triad(ByteSize::from_kib(16), 4, 4, 2);
        assert_eq!(m.ranks(), 4);
        // Rank 0's arrays are 4x larger, so its hot set and access volume
        // dominate.
        assert_eq!(m.rank(0).hot_set_size(), ByteSize::from_kib(16 * 4 * 3));
        assert_eq!(m.rank(1).hot_set_size(), ByteSize::from_kib(16 * 3));
        assert_eq!(
            m.node_hot_set(),
            m.rank(0).hot_set_size() + m.rank(1).hot_set_size() * 3
        );
        assert_eq!(m.rank(0).total_accesses(), 4 * m.rank(1).total_accesses());
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let m = MultiRankWorkload::rank_skew_triad(ByteSize::from_kib(16), 0, 0, 1);
        assert_eq!(m.ranks(), 2);
        assert!(m.rank(0).hot_set_size() > m.rank(1).hot_set_size());
        let r = MultiRankWorkload::replicated(
            PhasedWorkload::uniform_scan(ByteSize::from_kib(16), 2, 1),
            0,
        );
        assert_eq!(r.ranks(), 1);
    }
}
