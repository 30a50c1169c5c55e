//! # qa-flight
//!
//! Always-on telemetry for batch workloads: the production layer on top of
//! [`qa_obs`]'s observer stream.
//!
//! [`qa_obs`] gives every engine a zero-cost event stream; this crate makes
//! that stream safe to leave on for fleets of runs:
//!
//! - [`FlightRecorder`] — a fixed-capacity ring retaining the *last* N
//!   events with drop accounting; its [`dump`](FlightRecorder::dump)
//!   renders a post-mortem (exact counters, most-repeated configuration,
//!   retained tail) on panic, watchdog abort, or demand. Memory is bounded
//!   no matter how long the run.
//! - [`Watchdog`] — wraps any observer and answers the engines'
//!   [`checkpoint`](qa_obs::Observer::checkpoint) polls, enforcing step /
//!   head-reversal / wall-clock [`Budget`]s. A tripped budget surfaces as
//!   `Error::RunAborted` from the run — a graceful unwind that leaves the
//!   wrapped recorder intact for the dump.
//! - [`OneInN`] / [`Reservoir`] / [`Sampled`] — deterministic sampling
//!   (seeded from [`qa_base::rng`], never ambient entropy): full fidelity
//!   on a reproducible subset of runs, counters-only elsewhere.
//! - [`JobEvent`] / [`SharedEvents`] — one wide, structured JSONL event
//!   per job (`events.jsonl`), deterministic up to its volatile tail, plus
//!   the bounded ring the pulse `/events` endpoint serves from.
//!
//! The crate depends only on `qa-base` and `qa-obs`, so the serving daemon
//! can link the watchdog without the `qa-fleet` batch runner (its own
//! crate, `crates/fleet`) that drives all of these over generated corpora.
//!
//! The crate adds nothing to unobserved runs: engines still monomorphize
//! [`qa_obs::NoopObserver`] hooks (checkpoints included) to nothing.

pub mod event;
pub mod recorder;
pub mod sampler;
pub mod watchdog;

pub use event::{identity_projection, parse_events, JobEvent, SharedEvents, VOLATILE_FIELDS};
pub use recorder::{with_postmortem, FlightEvent, FlightRecorder, SharedFlight, DEFAULT_CAPACITY};
pub use sampler::{OneInN, Reservoir, Sampled};
pub use watchdog::{Budget, Watchdog, DEFAULT_WALL_POLL};
