//! [`CountingAlloc`]: an opt-in counting wrapper around the system
//! allocator, plus the process-wide [`HeapStats`] it feeds.
//!
//! The wrapper is *installed* by binaries, not by this crate:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: qa_pulse::CountingAlloc = qa_pulse::CountingAlloc::new();
//! ```
//!
//! `qa-fleet` and `bench_obs` gate that line behind an `alloc-count`
//! feature, so the default build pays nothing: the statics exist but are
//! never written, every gauge reads zero, and the system allocator is used
//! directly. When installed, each allocation costs four relaxed atomic
//! updates — cheap enough to leave on for fleet runs, and the only way to
//! get heap figures without an external profiler in a zero-dependency
//! workspace.
//!
//! The tallies answer the operator questions: how much is live right now
//! ([`HeapStats::live_bytes`]), how big did the footprint get
//! ([`HeapStats::peak_bytes`], an RSS proxy), and how allocation-happy is
//! the workload ([`HeapStats::allocs`] / [`HeapStats::allocated_bytes`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

#[inline]
fn on_free(size: usize) {
    LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    FREES.fetch_add(1, Ordering::Relaxed);
}

/// Counting [`GlobalAlloc`] delegating to [`System`].
///
/// Zero-sized; all state lives in process-wide atomics read by
/// [`HeapStats::snapshot`]. Install with `#[global_allocator]` (see the
/// module docs) — typically behind a cargo feature so the default build
/// keeps the untouched system allocator.
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// The (stateless) allocator value for a `static` item.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers entirely to `System` for memory management; the wrapper
// only updates tallies and never inspects or alters the returned blocks.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Plain-data snapshot of the process heap tallies.
///
/// All zeros unless a [`CountingAlloc`] is installed as the global
/// allocator ([`HeapStats::enabled`] distinguishes "nothing installed"
/// from "nothing allocated yet").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated and not yet freed.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` — an RSS proxy.
    pub peak_bytes: u64,
    /// Total bytes ever allocated (monotone).
    pub allocated_bytes: u64,
    /// Total allocation calls (monotone).
    pub allocs: u64,
    /// Total deallocation calls (monotone).
    pub frees: u64,
}

impl HeapStats {
    /// Read the current tallies (relaxed loads; consistent enough for
    /// gauges).
    pub fn snapshot() -> HeapStats {
        HeapStats {
            live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
            peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
            allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            allocs: ALLOCS.load(Ordering::Relaxed),
            frees: FREES.load(Ordering::Relaxed),
        }
    }

    /// Whether a [`CountingAlloc`] has observed any allocation — `false`
    /// means the counting allocator is not installed (or the process has
    /// somehow yet to allocate, which no real Rust process manages).
    pub fn enabled(&self) -> bool {
        self.allocs != 0
    }
}

/// Total bytes ever allocated — the monotone clock the
/// [`SpanProfiler`](crate::SpanProfiler) reads at phase boundaries to
/// attribute allocation volume to phases. Zero when no [`CountingAlloc`]
/// is installed, making the per-phase deltas zero at zero cost.
#[inline]
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does NOT install the allocator, so these exercise
    // the tally arithmetic directly; crates/pulse/tests/alloc.rs and
    // alloc_live.rs cover the installed path end-to-end.
    #[test]
    fn tallies_add_up() {
        let before = HeapStats::snapshot();
        on_alloc(100);
        on_alloc(50);
        on_free(100);
        let after = HeapStats::snapshot();
        assert_eq!(after.live_bytes - before.live_bytes, 50);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 150);
        assert_eq!(after.allocs - before.allocs, 2);
        assert_eq!(after.frees - before.frees, 1);
        assert!(after.peak_bytes >= before.live_bytes + 150);
        assert!(after.enabled());
        on_free(50); // restore live balance for other tests
    }
}
