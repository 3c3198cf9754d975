//! Host fingerprint and the per-run noise gauge.

use pomp::ClockSource;
use std::collections::BTreeMap;

/// What the numbers were measured on; printed on every output.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub git_rev: String,
    /// `tsc` when the profiler's per-thread readers use the calibrated
    /// time-stamp counter, `instant` when they fell back to the OS clock.
    pub clock_path: &'static str,
    pub transport: &'static str,
    /// The one CPU every thread of the run is pinned to (`None` when
    /// the host refused the affinity call and the run floats).
    pub pinned_cpu: Option<usize>,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` without running a process
/// (`unknown` in an exported tree).
fn git_rev() -> String {
    let Some(head) = read_trimmed(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read_trimmed(&format!(".git/{reference}")) {
        return rev;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Fingerprint {
    /// Call before pinning: `nproc` is what the host offers, not what
    /// the run confines itself to.
    pub fn collect() -> Self {
        // The reader's `Debug` form is the only public view of which
        // clock path calibration chose.
        let reader = format!("{:?}", pomp::MonotonicClock::new().thread_reader());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev(),
            clock_path: if reader.contains("tsc: Some") {
                "tsc"
            } else {
                "instant"
            },
            transport: "loopback-tcp",
            pinned_cpu: None,
        }
    }
}

/// Scheduler pressure on this process and CPU time stolen from the
/// guest, accumulated over a run. Threads are polled while they are
/// alive (their counters only grow), so a daemon thread that has exited
/// by the end still counts up to its last poll.
pub struct NoiseGauge {
    /// Per thread: (first run_ns, first wait_ns, last run_ns, last wait_ns).
    tasks: BTreeMap<u64, [u64; 4]>,
    /// (steal, total) jiffies at start.
    cpu_start: Option<(u64, u64)>,
}

/// (steal, total) jiffies from the aggregate `cpu` line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

impl NoiseGauge {
    pub fn start() -> Self {
        let mut gauge = Self {
            tasks: BTreeMap::new(),
            cpu_start: cpu_jiffies(),
        };
        gauge.poll();
        gauge
    }

    /// Read every live thread's `schedstat` (run ns, wait ns, slices).
    pub fn poll(&mut self) {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for entry in dir.filter_map(Result::ok) {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text
                .split_whitespace()
                .filter_map(|f| f.parse::<u64>().ok());
            let (Some(run), Some(wait)) = (fields.next(), fields.next()) else {
                continue;
            };
            let slot = self.tasks.entry(tid).or_insert([run, wait, run, wait]);
            slot[2] = run;
            slot[3] = wait;
        }
    }

    /// Share of runnable time the process's threads spent waiting for a
    /// CPU, in percent.
    pub fn runq_wait_pct(&self) -> f64 {
        let (run, wait) = self.tasks.values().fold((0u64, 0u64), |(r, w), t| {
            (r + (t[2] - t[0]), w + (t[3] - t[1]))
        });
        if run + wait == 0 {
            0.0
        } else {
            100.0 * wait as f64 / (run + wait) as f64
        }
    }

    /// Share of all CPU time since start that the hypervisor took away,
    /// in percent.
    pub fn steal_pct(&self) -> f64 {
        match (self.cpu_start, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// A run is flagged (never dropped) beyond these. Pinned to one CPU, a
/// client and the reactor it waits for queue behind each other by
/// design: an undisturbed `fine_small` run shows 11-13 % run-queue wait.
pub const DISTURBED_RUNQ_WAIT_PCT: f64 = 20.0;
pub const DISTURBED_STEAL_PCT: f64 = 2.0;

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// CPU affinity
// ---------------------------------------------------------------------

/// A `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to `set`. Returns whether the host accepted it.
pub fn run_on(set: &CpuSet) -> bool {
    // SAFETY: `set` is a readable buffer of exactly the size passed; pid
    // 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Pin the calling thread to the highest-numbered CPU it is allowed on
/// (interrupts land on the lowest ones) and return that CPU.
///
/// A closed-loop client and the reactor it waits for never run at the
/// same time, but where the guest scheduler places them decides what a
/// round trip costs: on one CPU a wake-up is a context switch, on two it
/// is an inter-processor interrupt out of an idle vCPU. Unpinned, the
/// same JSON ingest ran at 26 ms or 53 ms per 256 requests depending on
/// a placement that stuck for minutes.
pub fn pin_to_one_cpu() -> Option<usize> {
    let allowed = allowed_cpus()?;
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    run_on(&one).then_some(cpu)
}
