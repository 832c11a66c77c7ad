//! Exact 0/1 knapsack (dynamic programming) used as the optimal-but-
//! impractical baseline the paper mentions.
//!
//! The DP runs in `O(n * capacity_pages)`: with hundreds of objects and a
//! 16 GiB knapsack measured in 4 KiB pages (4 M pages) that is billions of
//! cells, which is exactly why the paper resorts to greedy relaxations. The
//! solver refuses capacities beyond a guard limit so tests can still use it
//! on scaled-down problems.

use hmsim_common::{HmError, HmResult};

/// One knapsack item: `weight` in pages, `value` in LLC misses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Weight in pages.
    pub weight_pages: u64,
    /// Value (LLC misses avoided by promoting the object).
    pub value: u64,
}

/// Result of an exact solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactSolution {
    /// Indices of the selected items.
    pub selected: Vec<usize>,
    /// Total value of the selection.
    pub total_value: u64,
    /// Total weight of the selection.
    pub total_weight_pages: u64,
    /// Number of DP cells evaluated (cost indicator).
    pub cells_evaluated: u64,
    /// Bytes allocated for the backtrack bitset (memory indicator; one *bit*
    /// per DP cell of each eligible item, padded to 64-bit words per row).
    pub backtrack_bytes: u64,
}

/// Maximum number of evaluated DP cells — and backtrack bitset *bits* —
/// the exact solver will attempt (≈ 200 M keeps the worst case well under a
/// second and the backtrack allocation under 25 MB). Items wider than the
/// knapsack evaluate no cells and count against neither bound.
pub const MAX_DP_CELLS: u64 = 200_000_000;

/// Solve the 0/1 knapsack exactly.
pub fn solve_exact(items: &[Item], capacity_pages: u64) -> HmResult<ExactSolution> {
    // Items wider than the knapsack can never be taken: they evaluate zero
    // DP cells and need no backtrack row, so they count neither against the
    // guard nor towards the bitset allocation.
    let eligible: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].weight_pages <= capacity_pages)
        .collect();
    let cells: u64 = eligible
        .iter()
        .map(|&i| capacity_pages - items[i].weight_pages + 1)
        .fold(0u64, u64::saturating_add);
    if cells > MAX_DP_CELLS {
        return Err(HmError::Config(format!(
            "exact knapsack would evaluate {cells} DP cells (> {MAX_DP_CELLS}); \
             use a greedy strategy for problems of this size"
        )));
    }
    // The backtrack bitset holds one capacity-wide row per eligible item, so
    // near-capacity weights evaluate few cells yet still allocate full rows;
    // bound the allocation separately (at one bit per guard cell the bitset
    // tops out at MAX_DP_CELLS/8 bytes, an eighth of the old byte matrix).
    let bits = (eligible.len() as u64).saturating_mul(capacity_pages + 1);
    if bits > MAX_DP_CELLS {
        return Err(HmError::Config(format!(
            "exact knapsack would allocate a {bits}-bit backtrack matrix \
             (> {MAX_DP_CELLS}); use a greedy strategy for problems of this size"
        )));
    }
    let cap = capacity_pages as usize;
    // dp[w] = best value using items seen so far with weight exactly <= w.
    let mut dp = vec![0u64; cap + 1];
    // Backtrack bitset: bit (row, w) records whether eligible item `row` is
    // taken at residual weight w in the optimum. One bit per cell instead of
    // the byte-per-cell `Vec<Vec<bool>>` this used to be.
    let words_per_row = cap / 64 + 1;
    let mut keep = vec![0u64; words_per_row * eligible.len()];
    let mut cells_evaluated = 0u64;
    for (row, &i) in eligible.iter().enumerate() {
        let item = &items[i];
        let w_item = item.weight_pages as usize;
        let row_words = &mut keep[row * words_per_row..(row + 1) * words_per_row];
        for w in (w_item..=cap).rev() {
            cells_evaluated += 1;
            let candidate = dp[w - w_item] + item.value;
            if candidate > dp[w] {
                dp[w] = candidate;
                row_words[w / 64] |= 1 << (w % 64);
            }
        }
    }
    // Backtrack.
    let mut selected = Vec::new();
    let mut w = cap;
    for (row, &i) in eligible.iter().enumerate().rev() {
        if keep[row * words_per_row + w / 64] >> (w % 64) & 1 == 1 {
            selected.push(i);
            w -= items[i].weight_pages as usize;
        }
    }
    selected.reverse();
    let total_weight_pages = selected.iter().map(|i| items[*i].weight_pages).sum();
    let total_value = selected.iter().map(|i| items[*i].value).sum();
    Ok(ExactSolution {
        selected,
        total_value,
        total_weight_pages,
        cells_evaluated,
        backtrack_bytes: keep.len() as u64 * 8,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_common::DetRng;

    /// Value achieved by a greedy by-value selection on the same items, to
    /// compare greedy against the optimum.
    fn greedy_by_value(items: &[Item], capacity_pages: u64) -> (Vec<usize>, u64) {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|a, b| items[*b].value.cmp(&items[*a].value));
        let mut remaining = capacity_pages;
        let mut selected = Vec::new();
        let mut value = 0;
        for i in order {
            if items[i].weight_pages <= remaining {
                remaining -= items[i].weight_pages;
                value += items[i].value;
                selected.push(i);
            }
        }
        selected.sort_unstable();
        (selected, value)
    }

    #[test]
    fn solves_textbook_instance_optimally() {
        // Classic: capacity 10; optimal is items 1+2 (value 11).
        let items = [
            Item {
                weight_pages: 5,
                value: 6,
            },
            Item {
                weight_pages: 4,
                value: 5,
            },
            Item {
                weight_pages: 6,
                value: 6,
            },
        ];
        let sol = solve_exact(&items, 10).unwrap();
        assert_eq!(sol.total_value, 11);
        assert_eq!(sol.selected, vec![0, 1]);
        assert!(sol.total_weight_pages <= 10);
    }

    #[test]
    fn greedy_by_value_can_be_suboptimal() {
        // Greedy takes the big item (value 10, weight 10) and nothing else;
        // optimal takes the two smaller ones (value 12).
        let items = [
            Item {
                weight_pages: 10,
                value: 10,
            },
            Item {
                weight_pages: 5,
                value: 6,
            },
            Item {
                weight_pages: 5,
                value: 6,
            },
        ];
        let exact = solve_exact(&items, 10).unwrap();
        let (_, greedy_value) = greedy_by_value(&items, 10);
        assert_eq!(exact.total_value, 12);
        assert_eq!(greedy_value, 10);
        assert!(exact.total_value > greedy_value);
    }

    #[test]
    fn oversized_problems_are_refused() {
        let items = vec![
            Item {
                weight_pages: 1,
                value: 1
            };
            1000
        ];
        let err = solve_exact(&items, 1_000_000_000);
        assert!(err.is_err());
    }

    /// Near-capacity weights evaluate one cell each but still own a full
    /// capacity-wide backtrack row: the memory bound must refuse what the
    /// evaluated-cells bound alone would wave through.
    #[test]
    fn backtrack_memory_is_guarded_independently_of_evaluated_cells() {
        let capacity: u64 = 150_000_000;
        let items = vec![
            Item {
                weight_pages: capacity,
                value: 1
            };
            2_000
        ];
        // Only 2 000 cells would be evaluated, but the bitset would span
        // 2 000 × (capacity+1) bits ≫ MAX_DP_CELLS.
        let err = solve_exact(&items, capacity);
        assert!(err.is_err());
        assert!(format!("{err:?}").contains("backtrack"), "{err:?}");
    }

    /// The guard counts cells actually evaluated: items wider than the
    /// knapsack contribute nothing, so an instance whose `items × capacity`
    /// product is far past `MAX_DP_CELLS` still solves when almost every
    /// item is oversized — and its backtrack bitset is a sliver of the byte
    /// matrix the old representation would have allocated.
    #[test]
    fn guard_counts_only_evaluated_cells_and_backtrack_is_packed() {
        let capacity: u64 = 99_999;
        let mut items = vec![
            Item {
                weight_pages: capacity + 1,
                value: 1_000_000,
            };
            2_001
        ];
        items[1_000] = Item {
            weight_pages: 1,
            value: 7,
        };
        // items × (capacity+1) = 200.1 M > MAX_DP_CELLS, but only one item
        // is eligible, so only `capacity` cells are evaluated.
        assert!(items.len() as u64 * (capacity + 1) > MAX_DP_CELLS);
        let sol = solve_exact(&items, capacity).unwrap();
        assert_eq!(sol.selected, vec![1_000]);
        assert_eq!(sol.total_value, 7);
        assert_eq!(sol.cells_evaluated, capacity);
        // One bitset row, word-padded: (99_999/64 + 1) words × 8 bytes.
        assert_eq!(sol.backtrack_bytes, (capacity / 64 + 1) * 8);
        // ≤ 1/8 of the byte-per-cell matrix the old backtrack allocated.
        let old_backtrack_bytes = items.len() as u64 * (capacity + 1);
        assert!(
            sol.backtrack_bytes * 8 <= old_backtrack_bytes,
            "bitset {} vs old matrix {}",
            sol.backtrack_bytes,
            old_backtrack_bytes
        );
    }

    /// On a dense instance every eligible item owns one word-padded bitset
    /// row; with the row width a multiple of 64 the packing is exactly one
    /// eighth of the old byte matrix.
    #[test]
    fn dense_backtrack_allocates_an_eighth_of_the_byte_matrix() {
        let capacity: u64 = 10_239; // capacity+1 = 10_240 = 160 words exactly
        let mut rng = DetRng::new(0xb17_5e7);
        let items: Vec<Item> = (0..64)
            .map(|_| Item {
                weight_pages: rng.uniform_range(1, 512),
                value: rng.uniform_range(1, 1000),
            })
            .collect();
        let sol = solve_exact(&items, capacity).unwrap();
        let old_backtrack_bytes = items.len() as u64 * (capacity + 1);
        assert_eq!(sol.backtrack_bytes * 8, old_backtrack_bytes);
        assert!(sol.total_weight_pages <= capacity);
    }

    #[test]
    fn zero_capacity_selects_nothing() {
        let items = [Item {
            weight_pages: 1,
            value: 5,
        }];
        let sol = solve_exact(&items, 0).unwrap();
        assert!(sol.selected.is_empty());
        assert_eq!(sol.total_value, 0);
    }

    /// The exact solution never violates the capacity and never does worse
    /// than greedy-by-value. Deterministic randomized sweep (seeded DetRng)
    /// standing in for the property-based test this started as.
    #[test]
    fn exact_dominates_greedy() {
        let mut rng = DetRng::new(0x6b6e6170);
        for case in 0..256 {
            let n = rng.uniform_range(1, 12) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| Item {
                    weight_pages: rng.uniform_range(1, 50),
                    value: rng.uniform_range(1, 1000),
                })
                .collect();
            let capacity = rng.uniform_range(1, 200);
            let exact = solve_exact(&items, capacity).unwrap();
            let (_, greedy_value) = greedy_by_value(&items, capacity);
            assert!(
                exact.total_weight_pages <= capacity,
                "case {case}: capacity violated"
            );
            assert!(
                exact.total_value >= greedy_value,
                "case {case}: exact {} < greedy {greedy_value}",
                exact.total_value
            );
            // Selected indices are unique and in range.
            let mut seen = std::collections::HashSet::new();
            for i in &exact.selected {
                assert!(*i < items.len(), "case {case}: index out of range");
                assert!(seen.insert(*i), "case {case}: duplicate index {i}");
            }
        }
    }
}
