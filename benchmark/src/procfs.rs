//! CPU time and peak memory of this process, read from `/proc` so the
//! benchmark needs no libc binding.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux has
/// reported 100 on every architecture since 2.6 (`getconf CLK_TCK`); the
/// benchmark only ever compares runs on one host, so a different value
/// would scale both sides alike.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (`utime + stime` of `/proc/self/stat`).
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report `cpu_s_per_mitem` without it.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") / TICKS_PER_SECOND
}

/// `utime + stime` in ticks from the text of a `/proc/<pid>/stat` file.
pub fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") / 1024.0
}

/// The `VmHWM` value in kB from the text of a `/proc/<pid>/status` file.
pub fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}
