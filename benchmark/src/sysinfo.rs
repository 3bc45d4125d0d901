//! What the machine looked like while a part ran: core count, kernel,
//! compiler, peak memory, and the CPU noise canary.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

/// Two canary readings further apart than this share mark the part as
/// disturbed: something else took CPU during the timed section.
pub const DISTURBED_SHARE: f64 = 0.10;

/// The environment one part ran in.
#[derive(Clone, Debug, PartialEq)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// First line of `rustc --version`.
    pub rustc: String,
}

impl Environment {
    /// Reads the environment of the current process.
    pub fn detect() -> Environment {
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Environment { nproc: nproc(), kernel, rustc }
    }

    /// The JSON rendering used in part reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("kernel", Json::str(&self.kernel)),
            ("rustc", Json::str(&self.rustc)),
        ])
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The noise canary: a fixed single-thread integer spin, in
/// milliseconds (best of three, so one preemption does not count). The
/// work is constant, so a reading that moves means the CPU was shared
/// or clocked differently, not that the program under test changed.
pub fn cpu_loop_ms() -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..20_000_000u64 {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i | 1);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// `true` when the two canary readings differ by more than
/// [`DISTURBED_SHARE`] of the smaller one.
pub fn disturbed(before_ms: f64, after_ms: f64) -> bool {
    let (lo, hi) = if before_ms < after_ms { (before_ms, after_ms) } else { (after_ms, before_ms) };
    (hi - lo) / lo > DISTURBED_SHARE
}

/// Peak resident set size of this process (`VmHWM`), in MB; `0.0` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbance_is_symmetric_and_thresholded() {
        assert!(!disturbed(20.0, 21.9));
        assert!(disturbed(20.0, 22.1));
        assert!(disturbed(22.1, 20.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
