//! A counting global allocator for allocation-bound tests: live and peak
//! heap bytes, plus the largest single allocation since the last reset.
//!
//! Included with `#[path]` by the test binaries that install it (a
//! `#[global_allocator]` is process-wide, so each such test is its own
//! integration-test binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What one measured call did to the heap.
pub struct HeapUse {
    /// Peak live bytes above the live size at the start of the call.
    pub peak: usize,
    /// The largest single allocation made during the call.
    pub largest: usize,
    /// Live bytes after the call minus live bytes before it: what the call
    /// left resident (negative if it freed more than it kept).
    #[allow(dead_code)] // read by one of the binaries that include this file
    pub retained: isize,
}

/// Run `f` and report its heap use. Not reentrant: one measurement at a
/// time per process (`realloc` goes through `alloc` + `dealloc`, the
/// `GlobalAlloc` default, so growth is counted too).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    let retained = LIVE.load(Ordering::Relaxed) as isize - base as isize;
    (out, HeapUse { peak, largest: LARGEST.load(Ordering::Relaxed), retained })
}
