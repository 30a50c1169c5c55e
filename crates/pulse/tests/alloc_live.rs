//! The counting allocator's live-bytes tally, checked in a test binary of
//! its own: [`HeapStats`] is process-wide, so a sibling test allocating or
//! freeing on another thread between two snapshots would move the delta
//! this test asserts on. Being the only test in its process keeps the
//! window between snapshots free of foreign heap traffic.

use qa_pulse::{CountingAlloc, HeapStats};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn installed_allocator_counts_real_traffic() {
    let before = HeapStats::snapshot();
    let v: Vec<u8> = vec![7; 1 << 16];
    let mid = HeapStats::snapshot();
    drop(v);
    let after = HeapStats::snapshot();

    assert!(mid.enabled(), "allocator is installed");
    assert!(
        mid.allocated_bytes - before.allocated_bytes >= 1 << 16,
        "the 64 KiB buffer is visible in the monotone total"
    );
    assert!(mid.live_bytes >= before.live_bytes + (1 << 16));
    assert!(after.frees > before.frees);
    assert!(after.peak_bytes >= mid.live_bytes.min(mid.peak_bytes));
}
