//! Host-side measurements read from `/proc`: process CPU time and peak
//! resident set size.

use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, including
/// joined ones), from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime are at 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Processing units this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Wall and CPU seconds of one measured interval.
#[derive(Clone, Copy, Debug)]
pub struct Interval {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Run `f`, returning its result with the wall and CPU time it took.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Interval) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (r, Interval { wall_s, cpu_s })
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_report_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
    }
}
