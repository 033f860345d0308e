//! Exact allocation-peak instrumentation for the `stream_mem` contract
//! suite (`tests/stream_mem.rs`, DESIGN.md §8 measurements).
//!
//! [`PeakAlloc`] counts live heap bytes and keeps a resettable
//! high-water mark. The measuring helpers only see allocations routed
//! through it, so the process must install it:
//!
//! ```ignore
//! use logan_bench::memprobe::PeakAlloc;
//!
//! #[global_allocator]
//! static PEAK_ALLOC: PeakAlloc = PeakAlloc;
//! ```
//!
//! The counters are process-global statics; measured regions must not
//! run concurrently with each other (run one measurement at a time, as
//! the suite does).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tracks live heap bytes and a resettable high-water mark.
pub struct PeakAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        on_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap bytes live now; the difference across a call is what the call's
/// result retains.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Run `f`, returning its result and the allocation peak *above* the
/// bytes live at entry. Requires [`PeakAlloc`] to be the process's
/// global allocator (the delta reads 0 otherwise).
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Bytes as MiB, for reporting.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
