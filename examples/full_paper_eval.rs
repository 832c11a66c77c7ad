//! Regenerate the paper's full evaluation: Figure 1, Figure 3, Table I,
//! Figure 4 (all three columns for all eight applications) and the Figure-5
//! kernel breakdown, printing everything as text tables.
//!
//! ```bash
//! cargo run --release --example full_paper_eval            # quick settings
//! cargo run --release --example full_paper_eval -- --full  # full iteration counts
//! ```
//!
//! Every configuration of the Figure-4 grid is a declarative `Scenario`. The
//! grid runs on one thread and profiles each application once: the 16
//! framework strategy × budget rows are placed from that one profile, and the
//! baselines run through the `Simulation` facade. To run a single
//! configuration instead of the whole evaluation, write it as a `.scn` file
//! and use `cargo run --release --example run_scenario -- <file>`.

use hmem_repro::core::experiment::{run_full_evaluation, ExperimentConfig};
use hmem_repro::core::figures;
use hmem_repro::core::report;

fn main() {
    let full = std::env::args().any(|a| a == "--full");

    println!("==============================================================");
    println!(" Figure 1: STREAM Triad bandwidth vs. cores (GB/s)");
    println!("==============================================================");
    println!("{}", report::render_figure1(&figures::figure1()));

    println!("==============================================================");
    println!(" Figure 3: call-stack unwind vs. translation cost");
    println!("==============================================================");
    println!("{}", report::render_figure3(&figures::figure3()));

    println!("==============================================================");
    println!(" Table I: application characteristics (measured)");
    println!("==============================================================");
    let table1_iters = if full { None } else { Some(5) };
    match figures::table1(table1_iters) {
        Ok(rows) => println!("{}", report::render_table1(&rows)),
        Err(e) => eprintln!("Table I generation failed: {e}"),
    }

    println!("==============================================================");
    println!(" Figure 4: placement approaches per application");
    println!("==============================================================");
    let mut config = ExperimentConfig::default();
    if full {
        config.iterations_override = None;
    }
    let experiments = run_full_evaluation(&config);
    for exp in &experiments {
        println!("{}", report::render_app_experiment(exp));
        if let (Some(best), Some(cache), Some(numactl)) = (
            exp.best_framework(),
            exp.baseline("Cache"),
            exp.baseline("MCDRAM*"),
        ) {
            println!(
                "  summary: best framework {:.3}x | cache {:.3}x | numactl {:.3}x | winner: {}\n",
                best.fom / exp.ddr_fom,
                cache.fom / exp.ddr_fom,
                numactl.fom / exp.ddr_fom,
                exp.winner().map(|w| w.label.as_str()).unwrap_or("?"),
            );
        }
    }

    println!("==============================================================");
    println!(" Figure 5: SNAP folded iteration (framework vs numactl)");
    println!("==============================================================");
    match figures::figure5(if full { 20 } else { 6 }, 16) {
        Ok(data) => {
            println!("kernel MIPS (framework / numactl):");
            for (name, fw, nu) in &data.kernel_mips {
                println!(
                    "  {name:<18} {fw:>10.1}  /  {nu:>10.1}   (ratio {:.2})",
                    fw / nu
                );
            }
            println!("\nfolded MIPS profile (framework):");
            for (pos, mips) in data.framework.mips_series() {
                println!("  t={pos:.2}  {mips:>10.1} MIPS");
            }
        }
        Err(e) => eprintln!("Figure 5 generation failed: {e}"),
    }
}
