//! # qa-pulse
//!
//! The live operations surface of the workspace: everything the other
//! telemetry crates write to disk *after* a run, served over HTTP *while*
//! it runs.
//!
//! [`qa_obs`] made every engine emit a zero-cost event stream;
//! [`qa_probe`] gave that stream standard export formats; `qa-flight`
//! made it safe to leave on for fleets. All of those surface telemetry
//! post-hoc — `metrics.prom`, Perfetto traces, post-mortem dumps appear
//! when a run finishes. The §6 decision procedures are EXPTIME-complete
//! and fleet runs last minutes, so an operator needs a surface to scrape
//! *during* the run. This crate provides it, with the workspace's zero-dep
//! discipline intact (`std::net` only, hand-rolled HTTP/1.1):
//!
//! - [`PulseServer`] — a tiny HTTP server answering `GET /metrics`
//!   (Prometheus text over a shared [`qa_obs::Metrics`] snapshot, plus
//!   `qa_build_info` and `qa_heap_*` gauges), `GET /healthz` /
//!   `GET /readyz` (liveness vs. readiness), `GET /flight` (JSON dump of a
//!   live flight-recorder ring), and `GET /profile` (collapsed-stack span
//!   profile, flamegraph-ready).
//! - [`SpanProfiler`] — an [`qa_obs::Observer`] that aggregates the
//!   engines' `phase_start`/`phase_end` hooks into a weighted call tree
//!   ([`SpanProfile`]) and emits Brendan-Gregg collapsed-stack format, so
//!   `qa-fleet` runs produce a `profile.folded` you can feed to
//!   `flamegraph.pl` or inferno.
//! - [`CountingAlloc`] — an opt-in counting [`std::alloc::GlobalAlloc`]
//!   wrapper tracking live bytes, peak footprint and allocation counts,
//!   surfaced as `qa_heap_*` gauges; binaries install it behind a feature
//!   (`qa-fleet`/`bench_obs` `alloc-count`), and when it is not installed
//!   every gauge reads zero at zero cost.
//!
//! The shared state behind all endpoints is [`PulseState`]; a fleet binary
//! creates one, hands clones of the `Arc` to its workers (the same
//! [`qa_obs::Metrics::merge`] / slot-lock machinery `qa-par` made
//! thread-safe), and binds a [`PulseServer`] next to the worker pool.
//!
//! The crate also ships the client half of the conversation:
//! [`http_get`] and [`http_request`] form a std-only blocking HTTP/1.1
//! client with explicit connect/io deadlines ([`HttpTimeouts`]), exactly
//! big enough to poll `/healthz`, scrape `/metrics`, or drive `qa-serve`
//! on loopback from tests, examples and the serving benchmark.

#![deny(missing_docs)]

pub mod client;
pub mod heap;
pub mod profile;
pub mod render;
pub mod server;

pub use client::{http_get, http_request, HttpResponse, HttpTimeouts};
pub use heap::{CountingAlloc, HeapStats};
pub use profile::{SpanProfile, SpanProfiler, Weight};
pub use render::{metrics_text, validate_prometheus};
pub use server::{
    AlertsSource, ApiHandler, ApiRequest, ApiResponse, EventsSource, FlightSource, PulseServer,
    PulseState, SeriesSource, DEFAULT_TAIL, MAX_BODY, MAX_TAIL, PROMETHEUS_CONTENT_TYPE,
};
