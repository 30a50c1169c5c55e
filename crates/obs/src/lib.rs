//! # qa-obs
//!
//! Zero-cost instrumentation for the `query-automata` workspace.
//!
//! Every evaluation loop in the workspace — two-way runs over cuts
//! (Fig. 5), stay-transition rounds (Fig. 6), the EXPTIME decision
//! fixpoints (Prop. 6.1, Thm. 6.3) — is generic over an [`Observer`].
//! Passing the default [`NoopObserver`] compiles each hook to nothing, so
//! the uninstrumented paths are byte-for-byte the pre-instrumentation
//! code; passing a [`MetricsObserver`] or a [`RunTrace`] turns the same
//! loop into a counted, traced, timed run without touching the algorithm.
//!
//! The crate is dependency-free: counters are `std` atomics and the JSON
//! run reports are serialized by hand (see [`json`]).
//!
//! ## The three layers
//!
//! - [`Observer`] — the event sink trait every engine is generic over.
//!   [`NoopObserver`] (zero cost), [`MetricsObserver`] (atomic counters),
//!   [`RunTrace`] (configuration log + per-phase wall-clock), and
//!   [`Tee`] (fan out to two sinks) are the provided implementations.
//! - [`Metrics`] — a registry of atomic [`Counter`]s and fixed-bucket
//!   power-of-two [`Histogram`]s ([`Series`]), shareable across threads,
//!   serialized with [`Metrics::to_json`].
//! - [`RunTrace`] — the complete configuration sequence of a two-way run
//!   (state, position, direction) plus phase timings, renderable as text
//!   for debugging diverging runs ([`RunTrace::render_text`]) or as JSON
//!   ([`RunTrace::to_json`]).

#![deny(missing_docs)]

pub mod context;
pub mod json;
pub mod metrics;
pub mod observer;
pub mod stats;
pub mod trace;

pub use context::{fnv1a64, TraceContext};
pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsObserver};
pub use observer::{Abort, Counter, Machine, NoopObserver, Observer, Series, Tee};
pub use stats::{percentile_sorted, quantile_bucket, quantile_from_buckets};
pub use trace::{PhaseSpan, RunTrace, TraceConfig};
