//! Per-thread CPU accounting from `/proc/self/task`.
//!
//! Threads are classed by name: the servers' `ecc-reactor*` and
//! `ecc-server*` (acceptor) threads, and everything else — the driver
//! threads and the coordinator's fan-out workers, which run on the
//! driver's behalf. A merged node's threads exit mid-run, so the ledger
//! keeps each server thread's last reading after it disappears: call
//! [`CpuLedger::sample`] often enough (every time step) that little is lost
//! between the last reading and the exit. Fan-out workers live for one
//! fan-out, too briefly to sample, so the driver share is the process
//! total minus the server threads'.

use std::collections::HashMap;
use std::fs;

/// Who a thread works for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A server's reactor thread.
    Reactor,
    /// A server's acceptor thread.
    Server,
    /// The benchmark's own threads and the coordinator's workers.
    Driver,
}

/// Classify a thread by its `comm` name.
pub fn class_of(comm: &str) -> Class {
    if comm.starts_with("ecc-reactor") {
        Class::Reactor
    } else if comm.starts_with("ecc-server") {
        Class::Server
    } else {
        Class::Driver
    }
}

/// CPU seconds per class since [`CpuLedger::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTotals {
    /// Reactor threads.
    pub reactor_s: f64,
    /// Acceptor threads.
    pub server_s: f64,
    /// Everything else: driver threads and coordinator workers.
    pub driver_s: f64,
    /// The whole process, exited threads included (`/proc/self/stat`).
    pub process_s: f64,
}

/// Accumulates per-thread CPU across samples and thread exits.
pub struct CpuLedger {
    base: HashMap<u32, u64>,
    last: HashMap<u32, (Class, u64)>,
    process_base_s: f64,
    process_last_s: f64,
    /// Most threads seen alive at one sample.
    pub threads_peak: usize,
}

/// `USER_HZ`: Linux reports `/proc/*/stat` times in 1/100 s on every
/// architecture this benchmark runs on.
const TICKS_PER_S: f64 = 100.0;

fn read_tasks() -> Vec<(u32, Class, u64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        // First schedstat field: nanoseconds this thread ran on a CPU.
        let ns = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        if let Some(ns) = ns {
            out.push((tid, class_of(comm.trim_end()), ns));
        }
    }
    out
}

/// User plus system CPU of the whole process, seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised comm start at field 3 (`state`);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process alive now.
pub fn live_threads() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

impl CpuLedger {
    /// Start counting: CPU already used by live threads is excluded.
    pub fn start() -> CpuLedger {
        let tasks = read_tasks();
        CpuLedger {
            threads_peak: tasks.len(),
            base: tasks.iter().map(|&(tid, _, ns)| (tid, ns)).collect(),
            last: HashMap::new(),
            process_base_s: process_cpu_s(),
            process_last_s: process_cpu_s(),
        }
    }

    /// Take one reading of every live thread.
    pub fn sample(&mut self) {
        let tasks = read_tasks();
        self.threads_peak = self.threads_peak.max(tasks.len());
        for (tid, class, ns) in tasks {
            self.last.insert(tid, (class, ns));
        }
        self.process_last_s = process_cpu_s();
    }

    /// Totals up to the last sample, over every thread ever sampled.
    pub fn totals(&self) -> CpuTotals {
        let mut t = CpuTotals {
            process_s: self.process_last_s - self.process_base_s,
            ..CpuTotals::default()
        };
        for (tid, &(class, ns)) in &self.last {
            let s = ns.saturating_sub(self.base.get(tid).copied().unwrap_or(0)) as f64 * 1e-9;
            match class {
                Class::Reactor => t.reactor_s += s,
                Class::Server => t.server_s += s,
                Class::Driver => {}
            }
        }
        t.driver_s = (t.process_s - t.reactor_s - t.server_s).max(0.0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_are_classed_by_name_prefix() {
        assert_eq!(class_of("ecc-reactor-4123"), Class::Reactor);
        assert_eq!(class_of("ecc-server-4123"), Class::Server);
        assert_eq!(class_of("perfbench"), Class::Driver);
    }

    #[test]
    fn cpu_of_an_exited_thread_is_kept() {
        let mut ledger = CpuLedger::start();
        let worker = std::thread::Builder::new()
            .name("ecc-reactor-test".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                x
            })
            .unwrap();
        // Sample while it runs, then after it has exited.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ledger.sample();
        let seen = ledger.totals().reactor_s;
        worker.join().unwrap();
        ledger.sample();
        assert!(seen > 0.0, "live reactor-class thread not counted");
        assert!(
            ledger.totals().reactor_s >= seen,
            "exited thread's CPU lost"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
