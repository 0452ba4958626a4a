//! Host-noise diagnostics: hypervisor steal, process CPU time, core count.
//!
//! They are printed beside the metrics so a disturbed run can be
//! recognised; no metric is corrected by them.

/// Kernel clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on
/// every mainstream Linux target).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the host counters (zeros where `/proc` is unreadable).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// System-wide hypervisor steal (s), all CPUs.
    pub steal_s: f64,
    /// This process's user + system CPU time (s), all threads.
    pub cpu_s: f64,
}

impl HostSample {
    pub fn now() -> Self {
        HostSample {
            steal_s: steal_ticks().unwrap_or(0) as f64 / TICKS_PER_S,
            cpu_s: process_cpu_ticks().unwrap_or(0) as f64 / TICKS_PER_S,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            steal_s: self.steal_s - earlier.steal_s,
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `utime + stime` of `/proc/self/stat` (fields 14 and 15; the fields are
/// counted after the parenthesised command name, which may hold spaces).
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}
