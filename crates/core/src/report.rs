//! Text rendering of experiment results, tables and figure data.

use crate::experiment::AppExperiment;
use crate::figures::{Figure1Row, Figure3Row, Table1Row};
use hmsim_common::table::{fmt_metric, TextTable};

/// Render one application's Figure-4 data as an aligned text table.
pub fn render_app_experiment(exp: &AppExperiment) -> String {
    let mut t = TextTable::new([
        "configuration",
        "FOM",
        "speedup vs DDR",
        "MCDRAM HWM (MiB)",
        "dFOM/MiB",
    ]);
    for r in &exp.results {
        t.row([
            r.label.clone(),
            fmt_metric(r.fom),
            format!("{:.3}", r.fom / exp.ddr_fom.max(1e-12)),
            format!("{:.1}", r.mcdram_hwm.mib()),
            fmt_metric(r.dfom_per_mbyte),
        ]);
    }
    format!(
        "== {} (FOM: {}, DDR reference: {}) ==\n{}",
        exp.app,
        exp.fom_name,
        fmt_metric(exp.ddr_fom),
        t.render()
    )
}

/// Render the Figure-1 series as an aligned table.
pub fn render_figure1(rows: &[Figure1Row]) -> String {
    let mut t = TextTable::new(["cores", "DDR GB/s", "MCDRAM/Flat GB/s", "MCDRAM/Cache GB/s"]);
    for (cores, ddr, flat, cache) in rows {
        t.row([
            cores.to_string(),
            format!("{ddr:.1}"),
            format!("{flat:.1}"),
            format!("{cache:.1}"),
        ]);
    }
    t.render()
}

/// Render the Figure-3 series as an aligned table.
pub fn render_figure3(rows: &[Figure3Row]) -> String {
    let mut t = TextTable::new(["call-stack depth", "unwind (us)", "translate (us)"]);
    for (depth, unwind, translate) in rows {
        t.row([
            depth.to_string(),
            format!("{unwind:.2}"),
            format!("{translate:.2}"),
        ]);
    }
    t.render()
}

/// Render Table I as an aligned table (the subset of columns that are
/// measured rather than purely descriptive).
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut t = TextTable::new([
        "application",
        "LoC",
        "parallelism",
        "geometry",
        "FOM",
        "allocs/proc/s",
        "HWM (MiB/proc)",
        "overhead %",
        "samples/proc",
        "samples/proc/s",
    ]);
    for r in rows {
        t.row([
            r.application.clone(),
            r.lines_of_code.to_string(),
            r.parallelism.clone(),
            r.geometry.clone(),
            r.fom_name.clone(),
            format!("{:.2}", r.allocs_per_process_per_second),
            format!("{:.0}", r.memory_hwm_mib),
            format!("{:.2}", r.monitoring_overhead_percent),
            r.samples_per_process.to_string(),
            format!("{:.2}", r.samples_per_process_per_second),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ApproachResult;
    use hmsim_common::ByteSize;

    fn experiment() -> AppExperiment {
        AppExperiment {
            app: "HPCG".to_string(),
            fom_name: "GFLOPS".to_string(),
            ddr_fom: 11.0,
            results: vec![
                ApproachResult {
                    label: "Misses(0%)/256MiB".to_string(),
                    fom: 17.4,
                    mcdram_hwm: ByteSize::from_mib(250),
                    charged_mcdram_mib: 256.0,
                    dfom_per_mbyte: 0.025,
                    is_framework: true,
                },
                ApproachResult {
                    label: "Cache".to_string(),
                    fom: 13.9,
                    mcdram_hwm: ByteSize::ZERO,
                    charged_mcdram_mib: 16384.0,
                    dfom_per_mbyte: 0.0002,
                    is_framework: false,
                },
            ],
        }
    }

    #[test]
    fn text_rendering_contains_every_configuration() {
        let text = render_app_experiment(&experiment());
        assert!(text.contains("HPCG"));
        assert!(text.contains("Misses(0%)/256MiB"));
        assert!(text.contains("Cache"));
        assert!(text.contains("1.582"), "speedup column rendered: {text}");
    }

    #[test]
    fn figure_renderers_produce_one_row_per_point() {
        let f1 = render_figure1(&[(1, 7.0, 7.2, 6.5), (68, 85.0, 380.0, 300.0)]);
        assert_eq!(f1.lines().count(), 4);
        let f3 = render_figure3(&[(1, 7.1, 3.0), (9, 16.3, 19.4)]);
        assert!(f3.contains("call-stack depth"));
    }
}
