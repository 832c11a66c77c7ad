//! The advisor: multi-tier object distribution.

use crate::greedy::Candidate;
use crate::memspec::MemorySpec;
use crate::report::{PlacementReport, SelectionEntry};
use crate::strategy::{select, SelectionStrategy};
use hmsim_analysis::{ObjectReport, ObjectStats};
use hmsim_common::{ByteSize, HmResult};

/// The `hmem_advisor` engine.
///
/// Hot objects that cannot be promoted automatically (static and stack
/// variables) are listed in the report as *manual* suggestions for the
/// developer. They never consume fast-memory budget, because
/// `auto-hbwmalloc` cannot place them.
#[derive(Clone, Debug, Default)]
pub struct Advisor;

impl Advisor {
    /// Create an advisor.
    pub fn new() -> Self {
        Advisor
    }

    /// Compute the object distribution for `report` under `memspec` using
    /// `strategy`.
    ///
    /// The knapsacks are solved in descending order of relative performance;
    /// the unbounded fallback tier implicitly receives everything that was
    /// not selected. Only promotable (dynamically allocated) objects consume
    /// budget.
    pub fn advise(
        &self,
        report: &ObjectReport,
        memspec: &MemorySpec,
        strategy: SelectionStrategy,
    ) -> HmResult<PlacementReport> {
        // Candidate pool: promotable objects with at least one attributed miss.
        let mut pool: Vec<&ObjectStats> = report
            .objects
            .iter()
            .filter(|o| o.promotable() && o.llc_misses > 0)
            .collect();

        let mut entries: Vec<SelectionEntry> = Vec::new();
        let fallback_tier = memspec.fallback().tier;

        for tier in memspec.by_descending_performance() {
            if tier.tier == fallback_tier && tier.capacity.is_none() {
                continue; // everything else falls back implicitly
            }
            if pool.is_empty() {
                break;
            }
            let candidates: Vec<Candidate<'_>> = pool
                .iter()
                .map(|o| Candidate {
                    name: &o.name,
                    size: o.max_size,
                    value: o.llc_misses as f64,
                })
                .collect();
            let selected_idx = select(strategy, &candidates, report.total_misses, tier.capacity)?;
            let mut chosen: Vec<&ObjectStats> = selected_idx.iter().map(|i| pool[*i]).collect();
            // Keep the report ordered by descending misses within a tier.
            chosen.sort_by_key(|o| std::cmp::Reverse(o.llc_misses));
            for o in &chosen {
                entries.push(SelectionEntry {
                    name: o.name.clone(),
                    site: o.site.clone(),
                    tier: tier.tier,
                    tier_name: tier.name.clone(),
                    size: o.max_size,
                    llc_misses: o.llc_misses,
                    automatic: true,
                });
            }
            // Remove selected objects from the pool for the next tier.
            let selected_set: std::collections::HashSet<usize> = selected_idx.into_iter().collect();
            pool = pool
                .into_iter()
                .enumerate()
                .filter(|(i, _)| !selected_set.contains(i))
                .map(|(_, o)| o)
                .collect();
        }

        // Manual suggestions: hot non-promotable objects that would have
        // deserved fast memory (listed against the fastest bounded tier).
        if let Some(fast) = memspec
            .by_descending_performance()
            .into_iter()
            .find(|t| t.capacity.is_some())
        {
            let auto_min_misses = entries.iter().map(|e| e.llc_misses).min().unwrap_or(0);
            let mut manual: Vec<&ObjectStats> = report
                .objects
                .iter()
                .filter(|o| !o.promotable() && o.llc_misses > 0)
                .filter(|o| o.llc_misses >= auto_min_misses)
                .collect();
            manual.sort_by_key(|o| std::cmp::Reverse(o.llc_misses));
            for o in manual {
                entries.push(SelectionEntry {
                    name: o.name.clone(),
                    site: o.site.clone(),
                    tier: fast.tier,
                    tier_name: fast.name.clone(),
                    size: o.max_size,
                    llc_misses: o.llc_misses,
                    automatic: false,
                });
            }
        }

        let auto_sizes: Vec<(ByteSize, ByteSize)> = entries
            .iter()
            .filter(|e| e.automatic)
            .filter_map(|e| {
                report
                    .objects
                    .iter()
                    .find(|o| o.name == e.name && o.site == e.site)
                    .map(|o| (o.min_size, o.max_size))
            })
            .collect();
        let lb_size = auto_sizes
            .iter()
            .map(|(lo, _)| *lo)
            .min()
            .unwrap_or(ByteSize::ZERO);
        let ub_size = auto_sizes
            .iter()
            .map(|(_, hi)| *hi)
            .max()
            .unwrap_or(ByteSize::ZERO);

        Ok(PlacementReport {
            application: report.application.clone(),
            strategy,
            memspec: memspec.clone(),
            entries,
            lb_size,
            ub_size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmsim_analysis::ReportedKind;
    use hmsim_callstack::SiteKey;
    use hmsim_common::TierId;

    fn obj(name: &str, kind: ReportedKind, misses: u64, mib: u64) -> ObjectStats {
        ObjectStats {
            name: name.to_string(),
            site: (kind == ReportedKind::Dynamic)
                .then(|| SiteKey::from_text(format!("app!{name}+0x1"))),
            kind,
            max_size: ByteSize::from_mib(mib),
            min_size: ByteSize::from_mib(mib.max(1) / 2),
            llc_misses: misses,
            samples: misses / 1000,
            allocation_count: 1,
        }
    }

    fn report(objects: Vec<ObjectStats>) -> ObjectReport {
        let total = objects.iter().map(|o| o.llc_misses).sum();
        let mut r = ObjectReport {
            application: "test-app".to_string(),
            objects,
            total_misses: total,
            unattributed_misses: 0,
        };
        r.sort_by_misses();
        r
    }

    #[test]
    fn misses_strategy_fills_budget_with_hottest_objects() {
        let r = report(vec![
            obj("hot_big", ReportedKind::Dynamic, 1_000_000, 100),
            obj("warm_mid", ReportedKind::Dynamic, 500_000, 60),
            obj("cool_small", ReportedKind::Dynamic, 100_000, 10),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(128));
        let placement = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        let names: Vec<&str> = placement
            .automatic_entries()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["hot_big", "cool_small"],
            "warm_mid does not fit after hot_big"
        );
        assert!(placement.selected_bytes(TierId::MCDRAM) <= ByteSize::from_mib(128));
    }

    #[test]
    fn density_strategy_prefers_small_hot_objects() {
        let r = report(vec![
            obj("hot_big", ReportedKind::Dynamic, 1_000_000, 100),
            obj("warm_mid", ReportedKind::Dynamic, 500_000, 60),
            obj("cool_small", ReportedKind::Dynamic, 100_000, 10),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(128));
        let placement = Advisor::new()
            .advise(&r, &spec, SelectionStrategy::Density)
            .unwrap();
        let names: Vec<&str> = placement
            .automatic_entries()
            .map(|e| e.name.as_str())
            .collect();
        // Densities: hot_big 10k/MiB, warm_mid 8.3k/MiB, cool_small 10k/MiB;
        // the two densest fit, then warm_mid does not.
        assert!(names.contains(&"cool_small"));
        assert!(names.contains(&"hot_big"));
        assert!(!names.contains(&"warm_mid"));
    }

    #[test]
    fn threshold_drops_rarely_referenced_objects() {
        let r = report(vec![
            obj("hot", ReportedKind::Dynamic, 990_000, 10),
            obj("rare", ReportedKind::Dynamic, 10_000, 1),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(256));
        let with = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 5.0,
                },
            )
            .unwrap();
        assert_eq!(with.automatic_entries().count(), 1);
        let without = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        assert_eq!(without.automatic_entries().count(), 2);
    }

    #[test]
    fn static_objects_never_consume_budget_but_are_listed_manually() {
        let r = report(vec![
            obj("huge_static", ReportedKind::Static, 2_000_000, 200),
            obj("dynamic_hot", ReportedKind::Dynamic, 1_000_000, 50),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(64));
        let placement = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        let auto: Vec<&str> = placement
            .automatic_entries()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(auto, vec!["dynamic_hot"]);
        let manual: Vec<&str> = placement
            .manual_entries()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(manual, vec!["huge_static"]);
    }

    #[test]
    fn exact_knapsack_beats_greedy_on_adversarial_input() {
        // Greedy-by-misses takes the 100 MiB object (1M misses) and cannot
        // fit anything else; exact takes the two 60 MiB objects (1.8M total).
        let r = report(vec![
            obj("big", ReportedKind::Dynamic, 1_000_000, 100),
            obj("half_a", ReportedKind::Dynamic, 900_000, 60),
            obj("half_b", ReportedKind::Dynamic, 900_000, 60),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(120));
        let greedy = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        let exact = Advisor::new()
            .advise(&r, &spec, SelectionStrategy::ExactKnapsack)
            .unwrap();
        let misses =
            |p: &PlacementReport| -> u64 { p.automatic_entries().map(|e| e.llc_misses).sum() };
        assert!(misses(&exact) > misses(&greedy));
        assert_eq!(misses(&exact), 1_800_000);
    }

    /// The exact DP sizes the knapsack in whole pages, rounding *down*: a
    /// tier one byte over a page holds one one-page object, not two.
    #[test]
    fn exact_knapsack_never_overshoots_a_partial_page_budget() {
        let page = |name: &str, misses: u64| ObjectStats {
            max_size: ByteSize::from_bytes(hmsim_common::PAGE_SIZE),
            min_size: ByteSize::from_bytes(hmsim_common::PAGE_SIZE),
            ..obj(name, ReportedKind::Dynamic, misses, 0)
        };
        let r = report(vec![page("a", 2_000), page("b", 1_000)]);
        let budget = ByteSize::from_bytes(hmsim_common::PAGE_SIZE + 1);
        let spec = MemorySpec::knl_budget(budget);
        let placement = Advisor::new()
            .advise(&r, &spec, SelectionStrategy::ExactKnapsack)
            .unwrap();
        let names: Vec<&str> = placement
            .automatic_entries()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, vec!["a"]);
        assert!(placement.selected_bytes(TierId::MCDRAM) <= budget);
    }

    #[test]
    fn three_tier_spec_cascades_selection() {
        let spec = MemorySpec::parse("HBM 64M 5\nDDR 128M 1\nNVM unlimited 0.2\n").unwrap();
        let r = report(vec![
            obj("hottest", ReportedKind::Dynamic, 1_000_000, 60),
            obj("second", ReportedKind::Dynamic, 500_000, 60),
            obj("third", ReportedKind::Dynamic, 100_000, 60),
        ]);
        let placement = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        let tier_of = |name: &str| {
            placement
                .entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.tier_name.clone())
        };
        assert_eq!(tier_of("hottest").unwrap(), "HBM");
        assert_eq!(tier_of("second").unwrap(), "DDR");
        assert_eq!(tier_of("third").unwrap(), "DDR");
    }

    #[test]
    fn size_bounds_cover_selected_dynamic_objects() {
        let r = report(vec![
            obj("a", ReportedKind::Dynamic, 1_000_000, 8),
            obj("b", ReportedKind::Dynamic, 900_000, 64),
        ]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(256));
        let placement = Advisor::new()
            .advise(
                &r,
                &spec,
                SelectionStrategy::Misses {
                    threshold_percent: 0.0,
                },
            )
            .unwrap();
        assert_eq!(placement.ub_size, ByteSize::from_mib(64));
        assert_eq!(
            placement.lb_size,
            ByteSize::from_mib(4),
            "smallest min_size of selected sites"
        );
    }

    #[test]
    fn empty_report_produces_empty_placement() {
        let r = report(vec![]);
        let spec = MemorySpec::knl_budget(ByteSize::from_mib(64));
        let placement = Advisor::new()
            .advise(&r, &spec, SelectionStrategy::Density)
            .unwrap();
        assert!(placement.entries.is_empty());
        assert_eq!(placement.lb_size, ByteSize::ZERO);
    }
}
