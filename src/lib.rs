//! # query-automata
//!
//! A Rust implementation of **Query Automata** (Frank Neven & Thomas
//! Schwentick, PODS 1999): deterministic two-way automata over strings,
//! ranked trees and unranked trees, extended with *selection functions* so
//! that a run computes a unary query — a set of positions or nodes — rather
//! than just accepting or rejecting.
//!
//! ## Crate map
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`base`] | alphabets, symbols, errors | — |
//! | [`strings`] | NFA/DFA, regexes, slender `x y* z` languages | §2.2, §5 |
//! | [`twoway`] | 2DFA, string query automata, GSQA, behavior functions, Shepherdson, crossing sequences, Hopcroft–Ullman composition | §3 |
//! | [`trees`] | arena trees, s-expressions, FCNS encoding | §2.3 |
//! | [`core`] | bottom-up & two-way tree automata, ranked and (strong) unranked query automata | §2.3, §4, §5 |
//! | [`mso`] | MSO logic, naive semantics, compilation to automata, Figure 5/6 evaluation, QA synthesis | §2, §3–5 |
//! | [`decision`] | non-emptiness / containment / equivalence, corridor tiling | §6 |
//! | [`obs`] | zero-cost [`Observer`](obs::Observer) instrumentation, [`Metrics`](obs::Metrics), [`RunTrace`](obs::RunTrace) | — |
//! | [`probe`] | selection provenance ([`ProvenanceObserver`](probe::ProvenanceObserver)), Chrome trace-event / Prometheus exports, trace diffing, the `qa-trace` CLI | §3–5 certificates |
//! | [`flight`] | always-on telemetry: [`FlightRecorder`](flight::FlightRecorder) ring, [`Watchdog`](flight::Watchdog) budgets, deterministic sampling, per-job wide events ([`JobEvent`](flight::JobEvent)) | — |
//! | [`par`] | parallel batch evaluation ([`par_batch`](par::par_batch) work-stealing executor) with per-worker [`BehaviorCache`](par::BehaviorCache) memoization | §3.9, §5.11, §6 at batch scale |
//! | [`pulse`] | live ops surface: std-only HTTP [`PulseServer`](pulse::PulseServer) (`/metrics`, health, `/flight`, `/profile`), HTTP client, [`SpanProfiler`](pulse::SpanProfiler) flamegraphs, opt-in [`CountingAlloc`](pulse::CountingAlloc) heap accounting | — |
//! | [`sentinel`] | embedded time-series rings ([`SeriesStore`](sentinel::SeriesStore)), window queries (rate/delta/quantile), declarative [`AlertRule`](sentinel::AlertRule)s with SLO burn-rate, deterministic [`Replay`](sentinel::Replay) alerting | — |
//! | [`serve`] | resident query serving: [`DocStore`](serve::DocStore) + [`QueryCache`](serve::QueryCache) behind a `PUT /doc` / `POST /query` HTTP API ([`ServeDaemon`](serve::ServeDaemon)), admission control, soak harness | §4–5 served live |
//! | [`xml`] | XML subset, DTDs, validation (Figures 1–4) | §1 |
//!
//! ## Quickstart
//!
//! ```
//! use query_automata::prelude::*;
//!
//! // The Example 5.14 strong query automaton: select every 1-labeled leaf
//! // with no 1-labeled node among its left siblings.
//! let sigma = Alphabet::from_names(["0", "1"]);
//! let qa = example_5_14(&sigma);
//!
//! let mut names = sigma.clone();
//! let tree = from_sexpr("(0 0 1 (1 1) 0 1)", &mut names).unwrap();
//! let selected = qa.query(&tree).unwrap();
//! // the first 1-leaf at depth 1 (index 2 in the child list) and the first
//! // 1-leaf inside the inner node
//! assert_eq!(selected.len(), 2);
//! ```

pub use qa_base as base;
pub use qa_core as core;
pub use qa_decision as decision;
pub use qa_flight as flight;
pub use qa_mso as mso;
pub use qa_obs as obs;
pub use qa_par as par;
pub use qa_probe as probe;
pub use qa_pulse as pulse;
pub use qa_sentinel as sentinel;
pub use qa_serve as serve;
pub use qa_strings as strings;
pub use qa_trees as trees;
pub use qa_twoway as twoway;
pub use qa_xml as xml;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use qa_base::{Alphabet, Error, Result, Symbol};
    pub use qa_core::ranked::query::example_4_4;
    pub use qa_core::ranked::twoway::example_4_2;
    pub use qa_core::ranked::{Dbta, Nbta, RankedQa, TwoWayRanked, TwoWayRankedBuilder};
    pub use qa_core::unranked::query::{example_5_14, example_5_9};
    pub use qa_core::unranked::{
        Dbtau, Nbtau, StayRule, StrongQa, TwoWayUnranked, TwoWayUnrankedBuilder, UnrankedQa,
    };
    pub use qa_flight::{Budget, FlightRecorder, Watchdog};
    pub use qa_mso::{parse as parse_mso, Formula};
    pub use qa_obs::{Metrics, NoopObserver, Observer, RunTrace};
    pub use qa_par::{par_batch, par_evaluate, BehaviorCache, Job, Outcome};
    pub use qa_probe::{Explanation, ProvenanceObserver};
    pub use qa_pulse::{PulseServer, PulseState, SpanProfiler};
    pub use qa_trees::sexpr::{from_sexpr, to_sexpr};
    pub use qa_trees::{NodeId, Tree};
    pub use qa_twoway::{Bimachine, Gsqa, StringQa, TwoDfa, TwoDfaBuilder};
    pub use qa_xml::{parse_document, Dtd};
}
