//! A counting global allocator: wraps [`System`] with relaxed atomic
//! tallies of allocation calls and of live and peak heap bytes.
//!
//! The simulator's hot path is designed to be allocation-free in steady
//! state (inline event-queue payloads, interned route tables, in-place
//! send-queue draining); this allocator is how that claim is *measured*
//! rather than assumed. It is deliberately not registered by the library —
//! a binary opts in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: optimcast_netsim::alloc::CountingAlloc = CountingAlloc::new();
//! ```
//!
//! The `optimcast` CLI registers it so `bench-mega` can report set-up peak
//! bytes, the perfbench package for its heap and allocations-per-event
//! metrics, and the `zero_alloc` integration test to assert the
//! steady-state budget. When no binary registers it the
//! counters simply stay at zero ([`CountingAlloc::enabled`] distinguishes
//! "zero allocations" from "not measuring").
//!
//! Counter reads are *process-wide*: any thread's allocations land in the
//! same tallies, so measurement windows should bracket single-threaded
//! regions only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated minus deallocated).
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `CURRENT_BYTES` since process start (or the last
/// [`CountingAlloc::reset_peak`]).
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static REGISTERED: AtomicBool = AtomicBool::new(false);

/// Bumps `CURRENT_BYTES` by `delta` and folds the new value into the peak.
#[inline]
fn grow_current(delta: u64) {
    let now = CURRENT_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

/// The counting allocator; see the module docs for registration.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new allocator instance (const so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc
    }

    /// Total allocation calls (`alloc`, `alloc_zeroed`, and growth via
    /// `realloc`) since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes currently live (allocated and not yet freed). A peak-RSS
    /// *estimate*: heap payload only, no allocator metadata or stacks.
    pub fn current_bytes() -> u64 {
        CURRENT_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::current_bytes`] since process start or
    /// the last [`Self::reset_peak`]. This is the setup-memory budget gauge
    /// for mega-scale runs: an accidental all-pairs table shows up here
    /// long before the process OOMs.
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Restarts the high-water tracking from the current live-byte level
    /// and returns that level. Call at the start of a measurement phase.
    pub fn reset_peak() -> u64 {
        let now = CURRENT_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(now, Ordering::Relaxed);
        now
    }

    /// Whether a `CountingAlloc` is actually serving allocations in this
    /// process — `false` means the counters are vacuously zero.
    pub fn enabled() -> bool {
        REGISTERED.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method delegates to `System` unchanged; the atomic
// bookkeeping has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REGISTERED.store(true, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow_current(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REGISTERED.store(true, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow_current(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow/shrink is one allocation event: the interesting signal for
        // the steady-state budget is "did the heap get touched", not the
        // alloc/free pairing underneath.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if new_size as u64 >= layout.size() as u64 {
            grow_current(new_size as u64 - layout.size() as u64);
        } else {
            CURRENT_BYTES.fetch_sub(layout.size() as u64 - new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}
