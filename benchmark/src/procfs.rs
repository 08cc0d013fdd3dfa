//! Process CPU time and peak resident set of this process.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("kbench reads /proc/self/status and passes clock_gettime the 64-bit Linux timespec");

/// User + system CPU seconds this process has consumed: the scheduler's
/// own sum of its run time, to the nanosecond, threads that have already
/// exited included (the program starts a short-lived thread per fresh
/// query, so per-thread sums from `/proc/self/task` miss most of the
/// work, and the 10 ms tick counters of `/proc/self/stat` are a sample,
/// not a sum: identical `doe_cold` runs read 2.6 and 3.8 ms per query).
pub fn cpu_seconds() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std links) writes one
    // `struct timespec` through the pointer, which is valid, aligned and
    // exclusively borrowed for the call; `Timespec` has that struct's
    // layout on the only target this crate compiles for.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `VmHWM`: the peak resident set size of this process, in MB (10^6 B
/// would under-read by 5 %; this is MiB, as `ps` and `top` print it).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let before = cpu_seconds();
        // A thread that comes and goes is still counted.
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 60 {
                std::hint::black_box(t.elapsed());
            }
        })
        .join()
        .expect("worker");
        let spun = cpu_seconds() - before;
        assert!(
            (0.03..0.5).contains(&spun),
            "60 ms of spinning shows as CPU time: {spun}"
        );
        assert!(peak_rss_mb() > 0.5);
    }
}
