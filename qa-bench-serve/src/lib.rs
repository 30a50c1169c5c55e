//! `qa-bench-serve`: the end-to-end serving benchmark for `qa-serve`.
//!
//! The binary (`src/main.rs`) starts a fresh in-process
//! [`qa_serve::ServeDaemon`], loads it over HTTP and prints one JSON result
//! line. This library holds the parts that are pure functions and are
//! tested on their own:
//!
//! - [`workload`]: every input as a function of `(seed, workload)`;
//! - [`oracle`]: the formulas with hand-written predicates that compute
//!   the expected node sets without any automaton;
//! - [`gen`]: the open-loop generator, timing each request from its due time;
//! - [`stats`]: percentiles with their sample support;
//! - [`trace`]: in-memory spans and their self times.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod gen;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;
