//! The two greedy relaxations of the multiple-knapsack problem.
//!
//! Both run in `O(n log n)` (the sort dominates), which is the "linear
//! computational cost" property the paper relies on to scale to hundreds of
//! objects and multi-gigabyte memory levels.

use hmsim_common::ByteSize;

/// One object offered to a selection: everything the strategies read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate<'a> {
    /// The object's name, the last ranking tie-break (keeps plans
    /// deterministic).
    pub name: &'a str,
    /// The object's size; selections charge it page-aligned.
    pub size: ByteSize,
    /// What promoting the object is worth: LLC misses offline (exact below
    /// 2^53), heat online. Never NaN.
    pub value: f64,
}

impl Candidate<'_> {
    /// Value per byte (zero for an empty object).
    pub fn density(&self) -> f64 {
        if self.size.is_zero() {
            0.0
        } else {
            self.value / self.size.bytes() as f64
        }
    }
}

/// Rank candidate indices by descending value, dropping candidates that
/// contribute less than `threshold_percent` of `total`.
pub fn rank_by_misses(
    candidates: &[Candidate<'_>],
    total: u64,
    threshold_percent: f64,
) -> Vec<usize> {
    let threshold = (threshold_percent.max(0.0) / 100.0) * total as f64;
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|i| {
            let value = candidates[*i].value;
            value > 0.0 && value >= threshold
        })
        .collect();
    order.sort_by(|a, b| {
        let (a, b) = (&candidates[*a], &candidates[*b]);
        b.value
            .total_cmp(&a.value)
            .then_with(|| a.size.cmp(&b.size))
            .then_with(|| a.name.cmp(b.name))
    });
    order
}

/// Rank candidate indices by descending density (value per byte).
pub fn rank_by_density(candidates: &[Candidate<'_>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..candidates.len())
        .filter(|i| candidates[*i].value > 0.0)
        .collect();
    order.sort_by(|a, b| {
        let (a, b) = (&candidates[*a], &candidates[*b]);
        b.density()
            .partial_cmp(&a.density())
            .expect("density is never NaN")
            .then_with(|| b.value.total_cmp(&a.value))
            .then_with(|| a.name.cmp(b.name))
    });
    order
}

/// Greedily pack ranked candidates into a knapsack of `capacity`
/// (page-granular accounting; `None` is unlimited). Returns the indices
/// packed and the bytes consumed (page-aligned).
pub fn pack(
    candidates: &[Candidate<'_>],
    ranked: &[usize],
    capacity: Option<ByteSize>,
) -> (Vec<usize>, ByteSize) {
    let mut used = ByteSize::ZERO;
    let mut selected = Vec::new();
    for &idx in ranked {
        let need = candidates[idx].size.page_aligned();
        let fits = match capacity {
            Some(cap) => used + need <= cap,
            None => true,
        };
        if fits {
            used += need;
            selected.push(idx);
        }
        // Note: like the paper's greedy, we keep scanning after a non-fit so
        // that smaller objects further down the ranking can still use the
        // remaining space.
    }
    (selected, used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(name: &str, value: u64, mib: u64) -> Candidate<'_> {
        Candidate {
            name,
            size: ByteSize::from_mib(mib),
            value: value as f64,
        }
    }

    #[test]
    fn misses_ranking_orders_and_thresholds() {
        let objects = [
            obj("small_hot", 500_000, 1),
            obj("big_hot", 900_000, 100),
            obj("rare", 5_000, 1),
            obj("untouched", 0, 50),
        ];
        let total = objects.iter().map(|o| o.value as u64).sum();

        let no_threshold = rank_by_misses(&objects, total, 0.0);
        assert_eq!(
            no_threshold,
            vec![1, 0, 2],
            "untouched object is never ranked"
        );

        let with_threshold = rank_by_misses(&objects, total, 1.0);
        assert_eq!(
            with_threshold,
            vec![1, 0],
            "rare object filtered by the 1% threshold"
        );
    }

    #[test]
    fn density_ranking_prefers_small_hot_objects() {
        let objects = [obj("big_hot", 900_000, 100), obj("small_hot", 500_000, 1)];
        assert_eq!(rank_by_density(&objects), vec![1, 0]);
        assert_eq!(obj("empty", 10, 0).density(), 0.0);
    }

    #[test]
    fn equal_rankings_break_ties_by_name() {
        let objects = [obj("b", 100, 1), obj("a", 100, 1)];
        assert_eq!(rank_by_misses(&objects, 200, 0.0), vec![1, 0]);
        assert_eq!(rank_by_density(&objects), vec![1, 0]);
    }

    #[test]
    fn pack_respects_capacity_and_skips_to_smaller_objects() {
        let objects = [
            obj("huge", 1_000_000, 200),
            obj("medium", 900_000, 60),
            obj("small", 800_000, 30),
        ];
        let (selected, used) = pack(&objects, &[0, 1, 2], Some(ByteSize::from_mib(100)));
        // "huge" does not fit; "medium" and "small" do.
        assert_eq!(selected, vec![1, 2]);
        assert_eq!(used, ByteSize::from_mib(90));
    }

    #[test]
    fn pack_without_capacity_takes_everything() {
        let objects = [obj("a", 10, 1), obj("b", 20, 2)];
        let (selected, used) = pack(&objects, &[1, 0], None);
        assert_eq!(selected, vec![1, 0]);
        assert_eq!(used, ByteSize::from_mib(3));
    }

    #[test]
    fn pack_accounts_pages_not_raw_bytes() {
        let tiny = Candidate {
            size: ByteSize::from_bytes(100),
            ..obj("tiny", 10, 0)
        };
        let (_, used) = pack(&[tiny], &[0], Some(ByteSize::from_kib(8)));
        assert_eq!(used, ByteSize::from_kib(4), "rounded up to one page");
    }
}
