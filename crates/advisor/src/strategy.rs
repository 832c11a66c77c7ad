//! Selection strategies and the one kernel that runs them.

use crate::greedy::{pack, rank_by_density, rank_by_misses, Candidate};
use crate::knapsack::{solve_exact, Item};
use hmsim_common::{ByteSize, HmResult, PAGE_SIZE};
use std::fmt;

/// How the advisor ranks candidate objects for promotion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SelectionStrategy {
    /// Rank by absolute LLC-miss count, skipping objects that contribute less
    /// than `threshold_percent` of the total misses.
    Misses {
        /// Minimum share of total misses (in percent) an object must reach to
        /// be considered.
        threshold_percent: f64,
    },
    /// Rank by miss density (misses per byte).
    Density,
    /// Solve the 0/1 knapsack exactly per tier (dynamic programming); only
    /// practical for small object counts and budgets, provided for
    /// comparison.
    ExactKnapsack,
}

impl SelectionStrategy {
    /// The four strategy configurations evaluated in Figure 4 of the paper.
    pub fn paper_set() -> Vec<SelectionStrategy> {
        vec![
            SelectionStrategy::Density,
            SelectionStrategy::Misses {
                threshold_percent: 0.0,
            },
            SelectionStrategy::Misses {
                threshold_percent: 1.0,
            },
            SelectionStrategy::Misses {
                threshold_percent: 5.0,
            },
        ]
    }

    /// Short label used in figures and reports.
    pub fn label(&self) -> String {
        match self {
            SelectionStrategy::Misses { threshold_percent } => {
                format!("Misses({}%)", threshold_percent)
            }
            SelectionStrategy::Density => "Density".to_string(),
            SelectionStrategy::ExactKnapsack => "ExactKnapsack".to_string(),
        }
    }
}

impl fmt::Display for SelectionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Select which `candidates` go into a knapsack of `capacity` bytes
/// (`None` = unlimited) under `strategy`, returning their indices.
///
/// This is the advisor's step 3 and the only strategy dispatch; the offline
/// advisor runs it. The online controller and the static harness always use
/// density, so they call [`rank_by_density`] and [`pack`] directly.
/// `total` is what the `Misses(t%)` threshold is a share of. Every strategy
/// charges each candidate its page-aligned size; the exact DP sizes the
/// knapsack as whole pages (`floor(capacity / PAGE_SIZE)`), so it never
/// overshoots the byte budget. The DP refuses oversized instances with
/// [`HmError::Config`](hmsim_common::HmError::Config); the greedy
/// strategies never fail.
pub fn select(
    strategy: SelectionStrategy,
    candidates: &[Candidate<'_>],
    total: u64,
    capacity: Option<ByteSize>,
) -> HmResult<Vec<usize>> {
    Ok(match strategy {
        SelectionStrategy::Misses { threshold_percent } => {
            let ranked = rank_by_misses(candidates, total, threshold_percent);
            pack(candidates, &ranked, capacity).0
        }
        SelectionStrategy::Density => pack(candidates, &rank_by_density(candidates), capacity).0,
        SelectionStrategy::ExactKnapsack => {
            let items: Vec<Item> = candidates
                .iter()
                .map(|c| Item {
                    weight_pages: c.size.pages(),
                    // The offline advisor's values are whole miss counts.
                    value: c.value as u64,
                })
                .collect();
            let capacity_pages = capacity.map_or(u64::MAX / 2, |c| c.bytes() / PAGE_SIZE);
            solve_exact(&items, capacity_pages)?.selected
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_matches_figure_4() {
        let set = SelectionStrategy::paper_set();
        assert_eq!(set.len(), 4);
        let labels: Vec<String> = set.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Density", "Misses(0%)", "Misses(1%)", "Misses(5%)"]
        );
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(
            format!(
                "{}",
                SelectionStrategy::Misses {
                    threshold_percent: 5.0
                }
            ),
            "Misses(5%)"
        );
        assert_eq!(
            format!("{}", SelectionStrategy::ExactKnapsack),
            "ExactKnapsack"
        );
    }
}
