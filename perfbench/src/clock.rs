//! The host clocks and memory gauges the benchmark reads, plus the order
//! statistics it reports.
//!
//! CPU time is the on-CPU time of the calling thread, the kernel's
//! `sum_exec_runtime` that `/proc/thread-self/schedstat` reports in its
//! first field. The simulator is single-threaded, so this is exactly what
//! the simulation costs, and time spent waiting behind other processes is
//! not in it. It is read with `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`,
//! which returns the same count brought up to date at the call, where
//! the `schedstat` file only advances at scheduler ticks (every few ms).

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Cost of one [`cpu_ns`] read, measured by timing back-to-back
/// reads; subtracted from every bracketed region it times.
pub fn clock_overhead_ns() -> f64 {
    const READS: u64 = 20_000;
    let t0 = cpu_ns();
    for _ in 0..READS {
        std::hint::black_box(cpu_ns());
    }
    (cpu_ns() - t0) as f64 / READS as f64
}

/// CPU ns of the reference job: a fixed mix of the kinds of work the
/// simulator does (hash-map and ordered-map updates, small allocations,
/// sorting, byte copies), written with the standard library only so that
/// no change to the program can change it. Its time tracks how fast this
/// thread runs on the host right now.
pub fn reference_job_ns() -> u64 {
    let t0 = cpu_ns();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut hashed = std::collections::HashMap::new();
    let mut ordered = std::collections::BTreeMap::new();
    for i in 0..20_000u64 {
        let k = next();
        hashed.insert(k, vec![i as u8; 64]);
        ordered.insert(k >> 8, i);
    }
    let mut keys: Vec<u64> = (0..50_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut buf = vec![0u8; 1 << 20];
    let src: Vec<u8> = (0..1u32 << 20).map(|i| i as u8).collect();
    for _ in 0..8 {
        buf.copy_from_slice(&src);
        buf[0] ^= 1;
    }
    let sum: u64 = hashed.values().map(|v| u64::from(v[0])).sum::<u64>()
        + ordered.values().sum::<u64>()
        + keys[keys.len() / 2]
        + u64::from(buf[7]);
    std::hint::black_box(sum);
    cpu_ns() - t0
}

/// One region timed on both the thread's CPU clock and the wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
}

impl Cost {
    /// Times `f` on both clocks.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
        let (c0, w0) = (cpu_ns(), Instant::now());
        let out = f();
        let cost = Cost {
            cpu_ns: cpu_ns() - c0,
            wall_ns: w0.elapsed().as_nanos() as u64,
        };
        (out, cost)
    }

    /// Adds another region's cost.
    pub fn add(&mut self, other: Cost) {
        self.cpu_ns += other.cpu_ns;
        self.wall_ns += other.wall_ns;
    }
}

/// A `VmXxx:` field of `/proc/self/status`, in KiB.
fn status_kb(field: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Resident set size now, in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set size of this process so far, in KiB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks
/// (0.0 when empty). Exact on the samples, unlike a bucketed histogram.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, or 0.0 when `den` is zero (a layer the workload never
/// reaches reports zero rather than NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.99), 0.0);
    }

    #[test]
    fn the_thread_cpu_clock_advances_with_work() {
        let t0 = cpu_ns();
        assert!(reference_job_ns() > 0);
        assert!(cpu_ns() > t0);
    }
}
