//! Process counters from `/proc` and the host fingerprint stamped on
//! every result.

use crate::json::Value;
use bsa_core::neuro_chip::{NeuroChip, NeuroChipConfig};
use bsa_core::ScanOptions;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 by the Linux ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, every thread included
/// (exited ones too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<f64>() / USER_HZ
}

fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Scan threads the neuro chip resolves with default options on this
/// host: the count any parallel figure must be read against.
pub fn resolved_scan_threads() -> usize {
    let config = NeuroChipConfig {
        geometry: bsa_core::array::ArrayGeometry::new(16, 16, bsa_units::Meter::from_micro(7.8))
            .expect("16x16 is a valid geometry"),
        ..NeuroChipConfig::default()
    };
    NeuroChip::new(config).map_or(1, |chip| chip.resolved_scan_threads(ScanOptions::default()))
}

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Commit of the checkout the benchmark runs in, if it is a git
/// repository (`GIT_DIR` pins the lookup to this directory, so an
/// enclosing repository is never reported by mistake).
fn git_head() -> Option<String> {
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn fingerprint(seed: u64, rounds: usize, trace: bool) -> Value {
    let mut v = Value::obj();
    v.set("nproc", nproc())
        .set("resolved_scan_threads", resolved_scan_threads())
        .set(
            "cpu_model",
            first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |k| k.trim().to_string()),
        )
        .set("git_head", git_head().map_or(Value::Null, Value::from))
        .set("seed", seed)
        .set("rounds", rounds)
        .set("trace", trace);
    v
}
