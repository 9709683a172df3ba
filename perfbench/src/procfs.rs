//! Process-level counters read from `/proc/self` with the standard library
//! only (no `libc`): CPU time split into user and kernel, peak resident set
//! size, and the current resident set size.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU time the whole process has used so far, live and exited threads
/// included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    /// Read `/proc/self/stat`.
    pub fn now() -> Cpu {
        let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        // The command name (field 2) may hold spaces; fields after it are
        // space-separated, `utime` and `stime` being fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("numeric stat field");
        Cpu { user_s: ticks(14) / USER_HZ, sys_s: ticks(15) / USER_HZ }
    }

    /// CPU used between `earlier` and `self`.
    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }

    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// A `kB` field of `/proc/self/status`, in bytes.
fn status_kb(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"))
        * 1024
}

/// Peak resident set size of the process so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:")
}

/// Samples the current resident set size from `/proc/self/statm`, which
/// is cheap enough to read at every fork of a run. `statm` counts pages;
/// the page size is calibrated once against `VmRSS`.
pub struct RssSampler {
    page_bytes: u64,
}

impl RssSampler {
    pub fn new() -> RssSampler {
        let ratio = status_kb("VmRSS:") as f64 / statm_resident_pages().max(1) as f64;
        // Round to a power of two: the two reads are not atomic.
        RssSampler { page_bytes: 1 << ratio.log2().round() as u32 }
    }

    /// Current resident set size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        statm_resident_pages() * self.page_bytes
    }
}

impl Default for RssSampler {
    fn default() -> Self {
        RssSampler::new()
    }
}

fn statm_resident_pages() -> u64 {
    let statm = fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    statm.split_whitespace().nth(1).and_then(|f| f.parse().ok()).expect("statm resident field")
}
