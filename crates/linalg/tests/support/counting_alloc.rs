//! A counting global allocator for allocation-bound tests: live and peak
//! heap bytes, plus the largest single allocation, of **the measuring
//! thread** between the start and the end of one [`measure`] call.
//!
//! The counters are thread-local: what the test harness allocates on its
//! own threads while a measurement runs (spawning the next test, printing a
//! result) is not the measured code's, and used to land in the window about
//! once in 40 runs. Tests of one binary can measure side by side.
//!
//! Included with `#[path]` by the test binaries that install it (a
//! `#[global_allocator]` is process-wide, so each such test is its own
//! integration-test binary).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct CountingAlloc;

/// One thread's window: whether it is measuring, live bytes since the
/// window opened (negative once it frees what it held before), their peak,
/// and the largest single allocation.
#[derive(Clone, Copy)]
struct Window {
    open: bool,
    live: isize,
    peak: isize,
    largest: usize,
}

thread_local! {
    // `const` and without a destructor: reading it never allocates, so the
    // allocator may.
    static WINDOW: Cell<Window> =
        const { Cell::new(Window { open: false, live: 0, peak: 0, largest: 0 }) };
}

/// Apply `update` to this thread's window if it is measuring (and still has
/// thread-locals: a thread being torn down measures nothing).
fn record(update: impl FnOnce(&mut Window)) {
    let _ = WINDOW.try_with(|cell| {
        let mut w = cell.get();
        if w.open {
            update(&mut w);
            cell.set(w);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(|w| {
                w.live += layout.size() as isize;
                w.peak = w.peak.max(w.live);
                w.largest = w.largest.max(layout.size());
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|w| w.live -= layout.size() as isize);
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

/// Run `f` and report what it did to the heap on this thread. Not
/// reentrant (`realloc` goes through `alloc` + `dealloc`, the `GlobalAlloc`
/// default, so growth is counted too).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapUse) {
    WINDOW.set(Window { open: true, live: 0, peak: 0, largest: 0 });
    let out = f();
    let w = WINDOW.replace(Window { open: false, live: 0, peak: 0, largest: 0 });
    (out, HeapUse { peak: w.peak as usize, largest: w.largest, retained: w.live })
}
