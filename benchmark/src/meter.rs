//! Measuring instruments owned by the benchmark binary: a counting
//! global allocator, a live-thread probe and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts live bytes, their high-water mark and allocation calls. Always
/// installed, so both sides of any comparison pay the same two relaxed
/// atomic updates per call. The counters publish no other data.
pub struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Relaxed) + by as u64;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Start a peak measurement: the high-water mark falls back to what is
/// live now (the inputs the operation is about to read).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Live-bytes high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Allocation calls so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Run a set-up three times, each result dropped before the next is made;
/// returns the last result and the median seconds one took.
pub fn thrice<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut made = None;
    for _ in 0..3 {
        drop(made.take());
        let start = std::time::Instant::now();
        made = Some(make());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (made.expect("three set-ups ran"), median(&seconds))
}

/// Threads of this process alive right now (Linux; 1 elsewhere).
pub fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(1)
}

/// A thread's CPU affinity mask (Linux's 1024-bit `cpu_set_t`). Threads
/// inherit the mask of the thread that spawns them, which is how the
/// benchmark places a thread the program spawns.
#[derive(Clone, Copy)]
pub struct CpuMask([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuMask {
    /// The calling thread's mask; `None` where it cannot be read.
    pub fn current() -> Option<CpuMask> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = CpuMask([0; 16]);
            // SAFETY: the pointer is to 128 writable bytes and that size is
            // passed; pid 0 names the calling thread.
            let rc = unsafe {
                sched_getaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_mut_ptr())
            };
            if rc == 0 {
                return Some(mask);
            }
        }
        None
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn single(cpu: usize) -> CpuMask {
        let mut mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        CpuMask(mask)
    }

    /// Bind the calling thread (and the threads it spawns from now on).
    /// Best effort: a refusal leaves the placement to the scheduler.
    pub fn apply(&self) {
        #[cfg(target_os = "linux")]
        // SAFETY: the pointer is to 128 readable bytes and that size is
        // passed; pid 0 names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr());
        }
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`p` in `0..=1`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }
}
