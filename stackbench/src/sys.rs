//! The C library calls the benchmark makes on its own process.

use std::time::{Duration, Instant};

/// Pins glibc's mmap threshold at its initial 128 KiB, so every
/// multi-MB partition a launch allocates is a fresh mapping of zero
/// pages. Left dynamic, glibc raises the threshold after the first large
/// free, and whether a later launch's partitions then came from fresh
/// pages or from reused heap memory that must be cleared depended on the
/// order in which threads had freed earlier ones. That made set-up time
/// and peak RSS bimodal across otherwise identical runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets a glibc allocator parameter; it runs
    // before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_mmap_threshold() {}

/// Peak resident set of this process (VmHWM of `/proc/self/status`), MB.
/// Not `getrusage`'s `ru_maxrss`: that also keeps the peak of the image
/// this process replaced at exec, which under `cargo run` is a copy of
/// cargo.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A wall-clock instant together with the process's CPU time then.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: Duration,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    /// The later of two stamps, field by field (both clocks only grow).
    pub fn max(self, other: Self) -> Self {
        Self {
            wall: self.wall.max(other.wall),
            cpu: self.cpu.max(other.cpu),
        }
    }
}

/// CPU time consumed so far by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[cfg(target_os = "linux")]
pub fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
