//! What the benchmark reads about itself and the host: CPU clocks,
//! per-thread CPU from `/proc`, peak resident memory, and steal time.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, properly aligned `struct timespec` (two
    // 64-bit fields on the 64-bit Linux targets this benchmark runs on)
    // that the call only writes, and both clock ids are valid constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds used by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Thread ids of this process, sorted.
pub fn own_tids() -> Vec<u64> {
    let mut tids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .map(|d| d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok()).collect())
        .unwrap_or_default();
    tids.sort_unstable();
    tids
}

/// Nanoseconds thread `tid` of this process has run on a CPU
/// (`/proc/self/task/<tid>/schedstat`, first field); 0 once it exited.
pub fn task_cpu_ns(tid: u64) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU seconds the live threads of process `pid` have run so far
/// (`/proc/<pid>/task/*/schedstat`, nanosecond resolution); threads that
/// have exited no longer count.
pub fn live_threads_cpu_s(pid: u32) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0.0 };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|t| {
            let s = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            s.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum();
    ns as f64 * 1e-9
}

/// CPU seconds (user + system, all threads including exited ones) of
/// process `pid`, from `/proc/<pid>/stat` at clock-tick resolution.
pub fn pid_cpu_s(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12].iter().filter_map(|&i| fields.get(i)?.parse::<u64>().ok()).sum();
    ticks as f64 / USER_HZ
}

/// Clock ticks per second in `/proc` accounting (`USER_HZ`, 100 on
/// every Linux architecture).
const USER_HZ: f64 = 100.0;

/// Resets this process's `VmHWM` to its current resident set (writing
/// `5` to `/proc/self/clear_refs`), so a later read gives the peak of
/// what ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, or of this
/// process for `None`.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host steal time so far in seconds (the `steal` column of the `cpu`
/// line of `/proc/stat`, summed over CPUs).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Total bytes of the regular files directly inside `dir`, and how
/// many of them there are.
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    bytes += m.len();
                    files += 1;
                }
            }
        }
    }
    (bytes, files)
}
