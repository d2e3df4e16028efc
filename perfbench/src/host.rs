//! The host the numbers come from, the environment they must not
//! depend on, and process-wide resource counters.

use std::collections::BTreeSet;
use std::fs;

/// `PIPMCOLL_*` variables that change the program's behaviour. A run
/// with any of them set measures a different program, so the benchmark
/// refuses to start. Entries ending in `*` are prefixes.
const BEHAVIOUR_VARS: &[&str] = &[
    "LANE_POLICY",
    "PROGRESS_THREADS",
    "SPIN_US",
    "HEARTBEAT_MS",
    "BROWNOUT_*",
    "POOL_CAP",
    "SYNC_TIMEOUT_MS",
    "CHAOS*",
    "FAULT",
    "SVC_*",
    "TUNE_TABLE",
    "FABRIC*",
];

/// Whether `name` (a full environment variable name) is one the
/// benchmark refuses to run under.
pub fn is_behaviour_var(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("PIPMCOLL_") else {
        return false;
    };
    BEHAVIOUR_VARS
        .iter()
        .any(|pat| match pat.strip_suffix('*') {
            Some(prefix) => rest.starts_with(prefix),
            None => rest == *pat,
        })
}

/// Every behaviour-changing variable set in this process's environment.
pub fn behaviour_vars_set() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| is_behaviour_var(k))
        .collect();
    v.sort();
    v
}

/// One line naming the host: CPU count, CPU model, kernel and the
/// compiler that built the benchmark.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{}\"",
        env!("PERFBENCH_RUSTC")
    )
}

/// Process-wide CPU time and context switches, including threads that
/// have already exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU time, microseconds.
    pub cpu_us: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
/// `long`s, all 8 bytes wide.
#[repr(C)]
struct RUsage([i64; 18]);

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Read this process's resource usage.
///
/// # Panics
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid buffer.
pub fn usage() -> Usage {
    let mut ru = RUsage([0; 18]);
    // SAFETY: `ru` is a live, writable buffer with the size and layout
    // of `struct rusage` on 64-bit Linux (the only target this
    // benchmark builds for, see the `compile_error!` in main.rs), and
    // RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let f = ru.0;
    Usage {
        cpu_us: (f[0] * 1_000_000 + f[1] + f[2] * 1_000_000 + f[3]) as f64,
        ctx_switches: (f[16] + f[17]) as u64,
    }
}

fn status_field(name: &str) -> Option<u64> {
    let s = fs::read_to_string("/proc/self/status").ok()?;
    s.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Threads in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Host-wide CPU time from the first line of `/proc/stat`, in clock
/// ticks: `(steal, total)`. Steal is time the hypervisor gave this
/// machine's CPUs to someone else; it is what makes a shared host's runs
/// differ. `None` where `/proc/stat` has no steal column.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = s
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    Some((*f.get(7)?, f.iter().take(8).sum()))
}

/// Share of host CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (a?, b?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Sum of the distinct last-level caches of the online CPUs, bytes.
/// Falls back to 32 MiB when sysfs does not describe the caches.
pub fn llc_bytes() -> usize {
    let mut best_level = 0;
    let mut caches: BTreeSet<(String, usize)> = BTreeSet::new();
    let Ok(cpus) = fs::read_dir("/sys/devices/system/cpu") else {
        return 32 << 20;
    };
    for cpu in cpus.flatten() {
        let name = cpu.file_name().to_string_lossy().into_owned();
        if !name.starts_with("cpu") || !name[3..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(idx) = fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for entry in idx.flatten() {
            let p = entry.path();
            let read = |f: &str| fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
            let (Ok(level), Ok(size), Ok(shared)) =
                (read("level"), read("size"), read("shared_cpu_list"))
            else {
                continue;
            };
            let Ok(level) = level.parse::<u32>() else {
                continue;
            };
            let Some(bytes) = parse_cache_size(&size) else {
                continue;
            };
            if level > best_level {
                best_level = level;
                caches.clear();
            }
            if level == best_level {
                caches.insert((shared, bytes));
            }
        }
    }
    let total: usize = caches.iter().map(|(_, b)| b).sum();
    if total == 0 {
        32 << 20
    } else {
        total
    }
}

/// sysfs cache sizes: `"107520K"`, `"2048K"`, `"32M"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaviour_vars_are_recognised() {
        for v in [
            "PIPMCOLL_LANE_POLICY",
            "PIPMCOLL_PROGRESS_THREADS",
            "PIPMCOLL_BROWNOUT_MS",
            "PIPMCOLL_CHAOS",
            "PIPMCOLL_CHAOS_SEED",
            "PIPMCOLL_SVC_NIC_BUDGET",
            "PIPMCOLL_FABRIC",
            "PIPMCOLL_FABRIC_LANES",
            "PIPMCOLL_TUNE_TABLE",
            "PIPMCOLL_FAULT",
        ] {
            assert!(is_behaviour_var(v), "{v}");
        }
        for v in [
            "PIPMCOLL_STORM_COLLS",
            "PIPMCOLL_FAULTS",
            "HOME",
            "LANE_POLICY",
        ] {
            assert!(!is_behaviour_var(v), "{v}");
        }
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn usage_moves_forward() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = usage();
        assert!(b.cpu_us > a.cpu_us, "{x}");
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        let t = cpu_ticks().expect("/proc/stat has a steal column");
        assert!(t.0 <= t.1);
        assert_eq!(steal_share(Some((5, 100)), Some((15, 300))), Some(0.05));
        assert_eq!(steal_share(Some(t), Some(t)), None);
    }
}
