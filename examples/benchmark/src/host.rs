//! Host tag and the process counters read from `/proc`.

use std::process::Command;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which is 100 on every
/// supported architecture.
const TICK_MS: f64 = 10.0;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process user+sys CPU time so far, ms (10 ms resolution).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name (field 2) may contain spaces; fields resume after ')'
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) * TICK_MS
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn simd_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return "neon";
    }
    #[allow(unreachable_code)]
    "portable"
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// One line identifying where and on what the numbers were taken. The git
/// revision reads "unknown" in an exported checkout.
pub fn tag() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // asked only at the root of a work tree, so an exported checkout never
    // reports the revision of some repository above it
    let rev = if std::path::Path::new(".git").exists() {
        first_line_of("git", &["rev-parse", "--short", "HEAD"])
    } else {
        "unknown".into()
    };
    format!(
        "nproc={} cpu=\"{}\" simd={} rustc=\"{}\" rev={}",
        nproc(),
        cpu,
        simd_arm(),
        first_line_of("rustc", &["-V"]),
        rev,
    )
}
