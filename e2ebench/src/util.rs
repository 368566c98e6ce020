//! Clocks, order statistics, process probes and the machine fingerprint.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` and returns its result with the wall time it took, in ns.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let value = f();
    (value, now_ns() - start)
}

/// Nearest-rank percentile `q` (0..=1) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A latency sample summarised as median and p90 with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            p50: percentile(values, 0.5),
            p90: percentile(values, 0.9),
            n: values.len(),
        }
    }

    /// Samples strictly beyond the p90; a p90 needs at least ten to be worth
    /// reporting.
    pub fn beyond_p90(&self) -> usize {
        self.n - (0.9 * self.n as f64).ceil() as usize
    }
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Number of live threads of this process.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Number of open file descriptors of this process.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Core count, CPU model and compiler version of the machine a result was
/// measured on.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    vec![("cores", cores.to_string()), ("cpu", cpu), ("rustc", rustc)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(Summary::of(&v).beyond_p90(), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
