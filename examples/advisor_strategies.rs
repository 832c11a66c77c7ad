//! Compare the advisor's selection strategies (Misses with 0/1/5 % thresholds,
//! Density, and the exact knapsack) on one application's profile, across the
//! paper's MCDRAM budgets — without re-running the application.
//!
//! ```bash
//! cargo run --release --example advisor_strategies -- SNAP
//! ```

use hmem_repro::advisor::{Advisor, MemorySpec, SelectionStrategy};
use hmem_repro::apps::app_by_name;
use hmem_repro::common::ByteSize;
use hmem_repro::core::FrameworkPipeline;

fn main() {
    let app_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SNAP".to_string());
    let spec = app_by_name(&app_name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    // Profile once: the pipeline's first two stages (an all-DDR run with
    // Extrae attached, then the per-object analysis). Neither stage reads
    // the budget or the strategy.
    let report = FrameworkPipeline::new(ByteSize::from_mib(256), SelectionStrategy::Density)
        .with_iterations(10)
        .profile(&spec)
        .expect("profiling run succeeds")
        .object_report;

    println!(
        "Profile of {}: {} objects, {} sampled LLC misses\n",
        spec.name,
        report.objects.len(),
        report.total_misses
    );
    println!(
        "{:<28} {:>10} {:>12} {:>8}",
        "object", "size", "misses", "kind"
    );
    for o in &report.objects {
        println!(
            "{:<28} {:>10} {:>12} {:>8}",
            o.name,
            o.max_size.to_string(),
            o.llc_misses,
            o.kind.code()
        );
    }

    let strategies = [
        SelectionStrategy::Misses {
            threshold_percent: 0.0,
        },
        SelectionStrategy::Misses {
            threshold_percent: 1.0,
        },
        SelectionStrategy::Misses {
            threshold_percent: 5.0,
        },
        SelectionStrategy::Density,
        SelectionStrategy::ExactKnapsack,
    ];
    for budget_mib in [32u64, 64, 128, 256] {
        let memspec = MemorySpec::knl_budget(ByteSize::from_mib(budget_mib));
        println!("\n== MCDRAM budget {budget_mib} MiB/rank ==");
        for strategy in strategies {
            match Advisor::new().advise(&report, &memspec, strategy) {
                Ok(placement) => {
                    let selected: Vec<&str> = placement
                        .automatic_entries()
                        .map(|e| e.name.as_str())
                        .collect();
                    let covered: u64 = placement.automatic_entries().map(|e| e.llc_misses).sum();
                    println!(
                        "  {:<14} uses {:>7.1} MiB, covers {:>5.1}% of misses: {}",
                        strategy.label(),
                        placement
                            .selected_bytes(hmem_repro::common::TierId::MCDRAM)
                            .mib(),
                        100.0 * covered as f64 / report.total_misses.max(1) as f64,
                        selected.join(", ")
                    );
                }
                Err(e) => println!("  {:<14} not applicable: {e}", strategy.label()),
            }
        }
    }
}
