//! End-to-end test of the counting allocator: this test binary actually
//! installs [`CountingAlloc`] as its global allocator (as does
//! `alloc_live.rs`, which holds the live-bytes delta check alone in its
//! process), so the tallies here come from real heap traffic.

use qa_obs::Observer;
use qa_pulse::{CountingAlloc, SpanProfiler, Weight};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn heap_gauges_appear_on_the_scrape_when_accounting_is_live() {
    let text = qa_pulse::metrics_text(&qa_obs::Metrics::new(), "qa_alloc_test");
    for name in [
        "qa_heap_live_bytes",
        "qa_heap_peak_bytes",
        "qa_heap_allocated_bytes",
        "qa_heap_allocs",
        "qa_heap_frees",
    ] {
        assert!(text.contains(&format!("# TYPE {name} gauge")), "{name}");
    }
    qa_pulse::validate_prometheus(&text).expect("well-formed exposition");
}

#[test]
fn span_profiler_attributes_alloc_bytes_to_phases() {
    let mut p = SpanProfiler::new();
    p.phase_start("alloc heavy phase");
    let buf: Vec<u8> = vec![1; 1 << 20];
    p.phase_end("alloc heavy phase");
    drop(buf);

    let folded = p.into_profile().to_collapsed(Weight::AllocBytes);
    let line = folded
        .lines()
        .find(|l| l.starts_with("alloc_heavy_phase "))
        .expect("phase appears in alloc-weighted profile");
    let bytes: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(
        bytes >= 1 << 20,
        "phase charged at least the 1 MiB it allocated: {line}"
    );
}
