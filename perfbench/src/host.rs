//! Host facts and per-thread CPU accounting, read from `/proc`.

use std::fs;
use std::io;

/// Name prefix of the benchmark's load-generator threads. Every other
/// thread in the process except the controller (the main thread) is
/// counted as server.
pub const LOAD_PREFIX: &str = "pb-";

/// Who a thread of this process works for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Reactor shards and anything else the program starts.
    Server,
    /// The benchmark's own load threads (named with [`LOAD_PREFIX`]).
    Load,
    /// The benchmark's main thread: set-up, snapshots and sleeping.
    Controller,
}

/// Attributes thread `tid` of process `pid`, named `comm`, to a role.
pub fn role(pid: u32, tid: u32, comm: &str) -> Role {
    if tid == pid {
        Role::Controller
    } else if comm.starts_with(LOAD_PREFIX) {
        Role::Load
    } else {
        Role::Server
    }
}

/// Parses `/proc/<pid>/task/<tid>/schedstat`: nanoseconds on CPU,
/// nanoseconds waiting on a run queue, timeslices run.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace().map(str::parse::<u64>);
    let on_cpu = fields.next()?.ok()?;
    let run_queue_wait = fields.next()?.ok()?;
    Some((on_cpu, run_queue_wait))
}

/// One thread's cumulative scheduler times at a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTimes {
    /// Kernel thread id.
    pub tid: u32,
    /// Thread name (`comm`, at most 15 bytes).
    pub comm: String,
    /// Role the thread is attributed to.
    pub role: Role,
    /// Cumulative on-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Cumulative run-queue wait nanoseconds.
    pub wait_ns: u64,
}

/// Reads every thread of this process. Threads that exit while the
/// directory is walked are skipped.
pub fn task_snapshot() -> io::Result<Vec<TaskTimes>> {
    let pid = std::process::id();
    let mut tasks = Vec::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(entry.path().join("comm")),
            fs::read_to_string(entry.path().join("schedstat")),
        ) else {
            continue;
        };
        let comm = comm.trim_end().to_string();
        let Some((cpu_ns, wait_ns)) = parse_schedstat(&stat) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparsable schedstat for thread {tid}: {stat:?}"),
            ));
        };
        tasks.push(TaskTimes {
            tid,
            role: role(pid, tid, &comm),
            comm,
            cpu_ns,
            wait_ns,
        });
    }
    Ok(tasks)
}

/// CPU and run-queue wait accrued between two snapshots by the threads
/// `select` accepts. A thread absent from `before` started in between and
/// counts from zero; one absent from `after` is not counted.
pub fn delta(
    before: &[TaskTimes],
    after: &[TaskTimes],
    select: impl Fn(&TaskTimes) -> bool,
) -> (u64, u64) {
    let mut cpu = 0;
    let mut wait = 0;
    for task in after.iter().filter(|t| select(t)) {
        let (cpu0, wait0) = before
            .iter()
            .find(|b| b.tid == task.tid)
            .map_or((0, 0), |b| (b.cpu_ns, b.wait_ns));
        cpu += task.cpu_ns.saturating_sub(cpu0);
        wait += task.wait_ns.saturating_sub(wait0);
    }
    (cpu, wait)
}

/// Machine-wide CPU time from the aggregate line of `/proc/stat`, in
/// clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu ` line of `/proc/stat`.
pub fn parse_proc_stat(text: &str) -> Option<CpuTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Reads the machine-wide CPU ticks.
pub fn cpu_ticks() -> io::Result<CpuTicks> {
    parse_proc_stat(&fs::read_to_string("/proc/stat")?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc/stat"))
}

/// Steal time as a share of all CPU time between two readings.
pub fn steal_share(before: CpuTicks, after: CpuTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Which of the hashing-relevant CPU flags the first processor reports.
pub fn cpu_flags() -> Vec<&'static str> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| l.split_ascii_whitespace().collect())
        .unwrap_or_default();
    ["avx2", "avx512f", "sha_ni"]
        .into_iter()
        .filter(|f| flags.contains(f))
        .collect()
}

/// `std::thread::available_parallelism`, which sizes the reactor.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fields_parse() {
        assert_eq!(parse_schedstat("123456 7890 42\n"), Some((123_456, 7_890)));
        assert_eq!(parse_schedstat("5 6"), Some((5, 6)));
        assert_eq!(parse_schedstat("5"), None);
        assert_eq!(parse_schedstat("x 6 1"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn threads_are_attributed_by_name_and_id() {
        assert_eq!(role(100, 100, "perfbench"), Role::Controller);
        assert_eq!(role(100, 101, "aipow-reactor-0"), Role::Server);
        assert_eq!(role(100, 102, "pb-client-1"), Role::Load);
        assert_eq!(role(100, 103, "pb-flooder"), Role::Load);
        // Unnamed or future program threads count as server.
        assert_eq!(role(100, 104, "perfbench"), Role::Server);
        assert_eq!(role(100, 105, "verify-pool"), Role::Server);
    }

    fn task(tid: u32, role: Role, cpu_ns: u64, wait_ns: u64) -> TaskTimes {
        TaskTimes {
            tid,
            comm: String::new(),
            role,
            cpu_ns,
            wait_ns,
        }
    }

    #[test]
    fn delta_sums_selected_threads() {
        let before = vec![
            task(1, Role::Controller, 50, 5),
            task(2, Role::Server, 100, 10),
            task(3, Role::Load, 200, 20),
            task(4, Role::Server, 300, 30),
        ];
        let after = vec![
            task(1, Role::Controller, 60, 6),
            task(2, Role::Server, 150, 11),
            task(3, Role::Load, 260, 25),
            // Thread 4 exited; thread 5 started between the snapshots.
            task(5, Role::Server, 40, 4),
        ];
        assert_eq!(delta(&before, &after, |t| t.role == Role::Server), (90, 5));
        assert_eq!(delta(&before, &after, |t| t.role == Role::Load), (60, 5));
    }

    #[test]
    fn live_threads_are_read_and_attributed() {
        let ready = std::sync::Barrier::new(2);
        let done = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("pb-test-load".into())
                .spawn_scoped(s, || {
                    ready.wait();
                    done.wait();
                })
                .expect("spawn test thread");
            ready.wait();
            let tasks = task_snapshot().expect("read /proc/self/task");
            done.wait();
            let pid = std::process::id();
            let main = tasks.iter().find(|t| t.tid == pid).expect("main thread");
            assert_eq!(main.role, Role::Controller);
            assert!(main.cpu_ns > 0);
            let load = tasks
                .iter()
                .find(|t| t.comm == "pb-test-load")
                .expect("named load thread");
            assert_eq!(load.role, Role::Load);
        });
    }

    #[test]
    fn proc_stat_steal_share() {
        let a = parse_proc_stat("cpu  100 0 50 800 10 0 20 20 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
            .expect("cpu line");
        assert_eq!(
            a,
            CpuTicks {
                total: 1000,
                steal: 20
            }
        );
        let b = CpuTicks {
            total: 1200,
            steal: 70,
        };
        assert!((steal_share(a, b) - 0.25).abs() < 1e-12);
        assert_eq!(steal_share(a, a), 0.0);
        assert_eq!(parse_proc_stat("cpu  1 2 3\n"), None);
        assert_eq!(parse_proc_stat("intr 5\n"), None);
    }
}
