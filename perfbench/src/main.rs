//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rev <id>] [--bless]
//! ```
//!
//! With `--trace 0` it prepares the workload, runs one warm-up pass that
//! also serves as the output reference, then times passes back to back for
//! `--seconds`, with a batch of set-ups timed after each pass, and prints the
//! end-to-end metrics. With
//! `--trace 1` it runs the per-layer ledger instead (see `ledger.rs`). The
//! last line of standard output is always the result object; the line
//! before it is a report with the run's context and simulated outcomes.

mod digest;
mod host;
mod ledger;
mod workloads;

use digest::{compare, Digest};
use hmsim_common::json::escape_str;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Size, Workload, DEFAULT_SEED};

/// Set-up is timed in batches of repetitions lasting about this long, one
/// batch after every timed pass, so the batches sample the same stretch of
/// time the passes do; the median per-repetition time is reported.
const SETUP_BATCH_SECONDS: f64 = 0.05;

/// Timed passes per run, at least.
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut bless = false;
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--rev" => rev = value()?,
            "--bless" => bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bless,
        rev,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one benchmark run produced.
pub struct RunOutput {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context and simulated outcomes, as JSON members.
    pub report: Vec<(String, String)>,
}

impl RunOutput {
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }
}

/// A finite number as JSON (non-finite values cannot be represented).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_str(s))
}

pub fn json_obj(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The run context every output records.
fn context(args: &Args, workload: Workload) -> Vec<(String, String)> {
    vec![
        ("workload".into(), json_str(workload.name())),
        ("seed".into(), args.seed.to_string()),
        ("nproc".into(), host::nproc().to_string()),
        // Every timed body and the traced run use one thread; only the
        // untimed cross-checks fan out.
        ("worker_threads".into(), "1".to_string()),
        ("git_rev".into(), json_str(&args.rev)),
        ("trace".into(), args.trace.to_string()),
    ]
}

/// Repetitions of `workloads::prepare` that fill one set-up batch.
fn setup_batch_reps(workload: Workload, seed: u64, size: Size) -> hmsim_common::HmResult<usize> {
    let t0 = Instant::now();
    workloads::prepare(workload, seed, size)?;
    let single = t0.elapsed().as_secs_f64();
    Ok(((SETUP_BATCH_SECONDS / single.max(1e-9)).ceil() as usize).max(1))
}

/// Per-repetition seconds of one batch of `reps` set-ups. Batching
/// averages out the jitter of set-ups that take microseconds.
fn setup_batch(
    workload: Workload,
    seed: u64,
    size: Size,
    reps: usize,
) -> hmsim_common::HmResult<f64> {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(workloads::prepare(workload, seed, size)?);
    }
    Ok(t0.elapsed().as_secs_f64() / reps as f64)
}

/// Flip the lowest bit of the first FOM in `digest` (for the check's own
/// test).
fn perturb_fom(digest: &mut Digest) {
    let fom = digest
        .values_mut()
        .flat_map(|r| r.0.iter_mut())
        .find(|(field, _)| *field == "fom");
    if let Some((_, value)) = fom {
        let bits = u64::from_str_radix(value, 16).expect("fom is hex bits") ^ 1;
        *value = format!("{bits:016x}");
    }
}

/// The end-to-end measurement of one workload.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    bless: bool,
    perturb: bool,
) -> hmsim_common::HmResult<RunOutput> {
    std::fs::create_dir_all(workloads::out_dir())?;
    let started = Instant::now();
    let input = workloads::prepare(workload, seed, size)?;
    let first_setup_s = started.elapsed().as_secs_f64();

    // Warm-up pass: fills caches and lazy state, and its outputs are the
    // reference every timed pass must reproduce.
    let first = workloads::body(&input);
    let reference = workloads::reference(&input, &first);
    let mut attempted = first.runs + reference.runs;
    let mut failures: Vec<String> = first.errors.clone();
    failures.extend(reference.failures.iter().cloned());

    // The committed digests pin the default seed's outputs.
    if seed == DEFAULT_SEED && size == Size::Full {
        let (runs, folds) = workloads::split_fold(&first.records);
        let files = [
            (format!("{}.txt", workload.name()), "outcomes", runs),
            (format!("{}.fold.txt", workload.name()), "fold bins", folds),
        ];
        for (file, what, got) in files.iter().filter(|(_, _, d)| !d.is_empty()) {
            if bless {
                let header = format!("{} {what} at seed {seed}", workload.name());
                let path = digest::bless(file, &header, got)?;
                eprintln!("blessed {}", path.display());
            } else {
                match digest::load(file) {
                    Ok(want) => failures.extend(compare(file, &want, got)),
                    Err(e) => failures.push(e),
                }
            }
        }
    }

    let setup_reps = setup_batch_reps(workload, seed, size)?;
    let mut setup_times = Vec::new();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    while walls.len() < MIN_PASSES || walls.iter().sum::<f64>() < seconds {
        let (mut pass, t) = host::measure(|| workloads::body(&input));
        walls.push(t.wall_s);
        cpus.push(t.cpu_s);
        if perturb && walls.len() == MIN_PASSES {
            perturb_fom(&mut pass.records);
        }
        attempted += pass.runs;
        failures.extend(pass.errors);
        let what = format!("pass {}", walls.len());
        failures.extend(compare(&what, &first.records, &pass.records));
        setup_times.push(setup_batch(workload, seed, size, setup_reps)?);
    }

    // Medians over passes; the throughputs are one pass's work over the
    // median pass time. CPU time comes in 10 ms ticks, too coarse for a
    // median of short passes, so `cpu_s` is the mean over all passes.
    let wall_s = host::median(&walls);
    let metrics = vec![
        Metric::new("setup_s", host::median(&setup_times), "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("cpu_s", cpus.iter().sum::<f64>() / cpus.len() as f64, "s"),
        Metric::new("runs_per_s", first.runs as f64 / wall_s, "1/s"),
        Metric::new("accesses_per_s", first.accesses as f64 / wall_s, "1/s"),
        Metric::new("peak_rss_mib", host::peak_rss_mib(), "MiB"),
    ];
    let simulated: Vec<(String, String)> = first
        .simulated
        .iter()
        .chain(&reference.simulated)
        .map(|(k, v)| (k.clone(), json_num(*v)))
        .collect();
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter()
                .map(|x| json_num(*x))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let report = vec![
        ("passes".into(), walls.len().to_string()),
        ("pass_wall_s".into(), list(&walls)),
        ("pass_cpu_s".into(), list(&cpus)),
        ("setup_batches_s".into(), list(&setup_times)),
        ("first_setup_s".into(), json_num(first_setup_s)),
        ("simulated".into(), json_obj(&simulated)),
    ];
    Ok(RunOutput {
        attempted,
        failures,
        metrics,
        report,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let output = if args.trace {
        ledger::run(args.workload, args.seed, Size::Full)
    } else {
        measure(
            args.workload,
            args.seed,
            args.seconds,
            Size::Full,
            args.bless,
            false,
        )
    };
    let output = match output {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for f in output.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }

    let mut report = context(&args, args.workload);
    report.extend(output.report.iter().cloned());
    let failures: Vec<String> = output
        .failures
        .iter()
        .take(20)
        .map(|f| json_str(f))
        .collect();
    report.push(("failures".into(), format!("[{}]", failures.join(", "))));
    println!("{}", json_obj(&[("report".into(), json_obj(&report))]));

    let metrics: Vec<(String, String)> = output
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                json_obj(&[
                    ("value".into(), json_num(m.value)),
                    ("unit".into(), json_str(m.unit)),
                ]),
            )
        })
        .collect();
    let failed = output.failed();
    println!(
        "{}",
        json_obj(&[
            ("correct".into(), (failed == 0).to_string()),
            ("attempted".into(), output.attempted.max(1).to_string()),
            ("failed".into(), failed.to_string()),
            ("metrics".into(), json_obj(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload) {
        let out = measure(workload, 7, 0.01, Size::Tiny, false, false).unwrap();
        assert!(
            out.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            out.failures
        );
        assert!(out.attempted > 0);
        for m in &out.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }

    #[test]
    fn paper_grid_smoke() {
        smoke(Workload::PaperGrid);
    }

    #[test]
    fn online_phased_smoke() {
        smoke(Workload::OnlinePhased);
    }

    #[test]
    fn multirank_churn_smoke() {
        smoke(Workload::MultirankChurn);
    }

    #[test]
    fn profile_spill_smoke() {
        smoke(Workload::ProfileSpill);
    }

    #[test]
    fn traced_ledger_reproduces_every_facade_and_emits_every_layer() {
        let out = ledger::run(Workload::ProfileSpill, 7, Size::Tiny).unwrap();
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.attempted > 0);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let bench =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let listed = hmsim_common::json::parse_json(&bench).expect("valid JSON");
        let per_layer = match listed.get("per_layer") {
            Some(hmsim_common::json::Json::Array(items)) => items.clone(),
            other => panic!("per_layer is not a list: {other:?}"),
        };
        assert_eq!(per_layer.len(), names.len());
        for m in &per_layer {
            let name = m.get("name").and_then(|n| n.as_str()).expect("metric name");
            assert!(names.contains(&name), "{name} missing from the traced run");
        }
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }

    #[test]
    fn a_flipped_fom_bit_counts_as_one_failed_run() {
        let out = measure(Workload::OnlinePhased, 7, 0.01, Size::Tiny, false, true).unwrap();
        assert_eq!(out.failed(), 1, "{:?}", out.failures);
        assert!(
            out.failures[0].contains("diverged at fom"),
            "{:?}",
            out.failures
        );
    }
}
