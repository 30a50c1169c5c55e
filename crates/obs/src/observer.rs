//! The [`Observer`] trait and its trivial implementations.

/// A monotone event counter maintained by the instrumented engines.
///
/// The set is closed: engines across the workspace agree on these names so
/// that metrics from a string run, a tree run and a decision procedure land
/// in one registry with one JSON schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Head moves of a 2DFA / transitions fired by a tree run.
    Steps,
    /// Direction changes of a two-way string head.
    HeadReversals,
    /// Transition-table lookups (`δ`, `δ↓`, `δ↑`, classifier steps, …).
    TableLookups,
    /// Node (re-)examinations by the worklist cut engines — how often a
    /// cut had to be recomputed around a node.
    CutRecomputations,
    /// Stay-transition rounds fired (Definition 5.11 machines).
    StayRounds,
    /// Selection-function probes (`λ(s, σ)` checks).
    SelectionChecks,
    /// Summaries / composite states materialized by a decision fixpoint or
    /// an automaton construction.
    SummariesExplored,
    /// Fixpoint rounds (Lemma 5.2 reachability, Thm. 6.3 saturation).
    FixpointIterations,
    /// Fuel / budget units consumed by a bounded procedure.
    BudgetConsumed,
    /// Times a fuel or summary budget was exhausted.
    BudgetTrips,
    /// Behavior-cache lookups answered from the cache (crossing-behavior
    /// columns, memoized up/stay classifications, interned decision
    /// summaries).
    CacheHits,
    /// Behavior-cache lookups that had to compute and insert a fresh entry.
    CacheMisses,
    /// Jobs completed by a fleet batch — the error-budget denominator for
    /// SLO rules such as `budget_trips_total / jobs_total`.
    Jobs,
    /// Scrape attempts that had to be retried after a transport failure.
    /// Nothing in the workspace retries scrapes any more; the counter stays
    /// so every exposition keeps its `scrape_retries_total` line.
    ScrapeRetries,
    /// Alert state-machine transitions (pending, firing, resolved) taken by
    /// the sentinel engine.
    AlertTransitions,
    /// HTTP requests accepted by a serving daemon (all endpoints, all
    /// statuses — the offered-load denominator for serving SLO rules).
    HttpRequests,
    /// Requests shed by admission control with `429 Retry-After` because
    /// the executor queue exceeded its configured depth.
    RequestsShed,
    /// Documents ingested into a resident document store (`PUT /doc`).
    DocIngests,
    /// MSO formulas compiled into query automata by a serving query cache
    /// (cache misses that paid the full compile pipeline).
    QueryCompiles,
    /// Compiled queries evicted from a bounded query cache to admit a
    /// fresh compile.
    CacheEvictions,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 20] = [
        Counter::Steps,
        Counter::HeadReversals,
        Counter::TableLookups,
        Counter::CutRecomputations,
        Counter::StayRounds,
        Counter::SelectionChecks,
        Counter::SummariesExplored,
        Counter::FixpointIterations,
        Counter::BudgetConsumed,
        Counter::BudgetTrips,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::Jobs,
        Counter::ScrapeRetries,
        Counter::AlertTransitions,
        Counter::HttpRequests,
        Counter::RequestsShed,
        Counter::DocIngests,
        Counter::QueryCompiles,
        Counter::CacheEvictions,
    ];

    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (stable across the workspace; JSON order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// `snake_case` name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Steps => "steps",
            Counter::HeadReversals => "head_reversals",
            Counter::TableLookups => "table_lookups",
            Counter::CutRecomputations => "cut_recomputations",
            Counter::StayRounds => "stay_rounds",
            Counter::SelectionChecks => "selection_checks",
            Counter::SummariesExplored => "summaries_explored",
            Counter::FixpointIterations => "fixpoint_iterations",
            Counter::BudgetConsumed => "budget_consumed",
            Counter::BudgetTrips => "budget_trips",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::Jobs => "jobs",
            Counter::ScrapeRetries => "scrape_retries",
            Counter::AlertTransitions => "alert_transitions",
            Counter::HttpRequests => "http_requests",
            Counter::RequestsShed => "requests_shed",
            Counter::DocIngests => "doc_ingests",
            Counter::QueryCompiles => "query_compiles",
            Counter::CacheEvictions => "cache_evictions",
        }
    }
}

/// A value distribution tracked by a fixed-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// Total steps of one two-way string run.
    TraceLength,
    /// Total work of one tree run (transitions or node examinations).
    RunSteps,
    /// `|Assumed(w, i)|` / `|Assumed(t, v)|` per position or node.
    AssumedStates,
    /// Stay transitions fired at one node.
    StaysPerNode,
    /// States of a constructed machine (Hopcroft–Ullman composition,
    /// tiling reduction, Shepherdson, …).
    MachineStates,
    /// Nodes of a produced witness tree / length of a witness word.
    WitnessSize,
    /// Wall microseconds one `PUT /doc` ingest took, parse to receipt.
    IngestMicros,
    /// Wall microseconds one `POST /query` took, admission to response
    /// (compile + executor dispatch + two-pass evaluation).
    QueryMicros,
}

impl Series {
    /// Every series, in serialization order.
    pub const ALL: [Series; 8] = [
        Series::TraceLength,
        Series::RunSteps,
        Series::AssumedStates,
        Series::StaysPerNode,
        Series::MachineStates,
        Series::WitnessSize,
        Series::IngestMicros,
        Series::QueryMicros,
    ];

    /// Number of series.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (stable; JSON order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// `snake_case` name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Series::TraceLength => "trace_length",
            Series::RunSteps => "run_steps",
            Series::AssumedStates => "assumed_states",
            Series::StaysPerNode => "stays_per_node",
            Series::MachineStates => "machine_states",
            Series::WitnessSize => "witness_size",
            Series::IngestMicros => "ingest_micros",
            Series::QueryMicros => "query_micros",
        }
    }
}

/// An engine identity carried by the per-state profiling hooks
/// ([`Observer::state_visit`], [`Observer::transition_fired`]).
///
/// Like [`Counter`] the set is closed and densely indexed, so a profiler
/// can keep one fixed-size array of per-machine tables and two processes
/// serialize the same machine under the same name — the property the
/// fleet scope-merge determinism gates rely on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Machine {
    /// The two-way string head (`TwoDfa::run`), including runs made on
    /// behalf of `StringQa`, GSQA output scans and Shepherdson subjects.
    TwoDfa,
    /// Crossing-behavior column recurrences (Theorem 3.9 tables).
    Crossing,
    /// The Hopcroft–Ullman composition worklist (summary states explored).
    HuComposition,
    /// The ranked two-way cut engine (`TwoWayRanked`, QAr runs).
    Qar,
    /// Ranked bottom-up runs (`Dbta` / `Nbta` postorder folds).
    Dbtar,
    /// The unranked two-way cut engine (`TwoWayUnranked`, SQAu runs,
    /// including Definition 5.11 stay rounds).
    Qau,
    /// Unranked deterministic bottom-up runs (`Dbtau` classifier folds).
    Dbtau,
    /// Unranked nondeterministic bottom-up runs (`Nbtau` NFA folds).
    Nbtau,
    /// Decision-procedure fixpoints (Lemma 5.2 reachability, Prop. 6.1 /
    /// Thm. 6.3 saturation, string-decision product searches).
    Decision,
}

impl Machine {
    /// Every machine, in serialization order.
    pub const ALL: [Machine; 9] = [
        Machine::TwoDfa,
        Machine::Crossing,
        Machine::HuComposition,
        Machine::Qar,
        Machine::Dbtar,
        Machine::Qau,
        Machine::Dbtau,
        Machine::Nbtau,
        Machine::Decision,
    ];

    /// Number of machines.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (stable across the workspace; JSON order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// `snake_case` name used in JSON reports and collapsed-stack frames.
    pub fn name(self) -> &'static str {
        match self {
            Machine::TwoDfa => "twodfa",
            Machine::Crossing => "crossing",
            Machine::HuComposition => "hu_composition",
            Machine::Qar => "qar",
            Machine::Dbtar => "dbtar",
            Machine::Qau => "qau",
            Machine::Dbtau => "dbtau",
            Machine::Nbtau => "nbtau",
            Machine::Decision => "decision",
        }
    }

    /// The machine with dense index `i`, if any (inverse of
    /// [`Machine::index`], used by scope deserialization).
    pub fn from_index(i: usize) -> Option<Machine> {
        Machine::ALL.get(i).copied()
    }

    /// The machine serialized under `name`, if any.
    pub fn from_name(name: &str) -> Option<Machine> {
        Machine::ALL.iter().copied().find(|m| m.name() == name)
    }
}

/// A budget violation reported by [`Observer::checkpoint`].
///
/// Carried by watchdog sinks back into the run engine, which converts it
/// into the workspace error type (`Error::RunAborted`) and unwinds the run
/// gracefully — no panic, no partial output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Which budget tripped: `"steps"`, `"head_reversals"`, `"wall_ms"`, ….
    pub what: &'static str,
    /// The configured budget.
    pub limit: u64,
    /// The observed value that exceeded it.
    pub actual: u64,
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {} exceeded budget {}",
            self.what, self.actual, self.limit
        )
    }
}

/// Event sink for instrumented engines.
///
/// Every method has an empty `#[inline]` default, so a sink only overrides
/// what it cares about and the all-default [`NoopObserver`] monomorphizes
/// each hook away entirely — the zero-cost contract the parity tests and
/// the `e2`/`e10` benches verify.
///
/// Engines hold `&mut O` for an `O: Observer`, which keeps sinks free to
/// buffer without synchronization; use [`MetricsObserver`] when the
/// aggregate must be shared across threads.
///
/// ## The zero-cost noop contract
///
/// An engine written against this trait must behave *identically* under
/// [`NoopObserver`] and under any recording sink: hooks report what the
/// algorithm did, they never steer it. The only sanctioned feedback paths
/// are [`Observer::checkpoint`] (a budget poll that may abort the run) and
/// [`Observer::is_enabled`] (which may skip *computing an event argument*,
/// never a step of the algorithm). Because every default body is empty and
/// `#[inline]`, `run_with(.., &mut NoopObserver)` compiles to the exact
/// uninstrumented loop.
///
/// ## Example: a custom sink over the certificate hooks
///
/// The three certificate/control hooks added for provenance and watchdogs —
/// [`Observer::selected`], [`Observer::stay_assign`] and
/// [`Observer::checkpoint`] — compose like any other hook:
///
/// ```
/// use qa_obs::{Abort, Observer};
///
/// /// Counts selection verdicts and aborts after a poll budget.
/// #[derive(Default)]
/// struct SelectionBudget {
///     selections: u32,
///     polls: u32,
/// }
///
/// impl Observer for SelectionBudget {
///     fn selected(&mut self, pos: u32, state: u32, _sym: u32) {
///         // fired once per selected position, with the witnessing state
///         let _ = (pos, state);
///         self.selections += 1;
///     }
///     fn stay_assign(&mut self, _parent: u32, _child: u32, _state: u32) {
///         // fired once per child on every Definition 5.11 stay round
///     }
///     fn checkpoint(&mut self) -> Result<(), Abort> {
///         self.polls += 1;
///         if self.polls > 1000 {
///             return Err(Abort { what: "polls", limit: 1000, actual: self.polls as u64 });
///         }
///         Ok(())
///     }
/// }
///
/// let mut sink = SelectionBudget::default();
/// sink.selected(3, 1, 0);
/// assert_eq!(sink.selections, 1);
/// assert!(sink.checkpoint().is_ok());
/// ```
///
/// [`MetricsObserver`]: crate::MetricsObserver
pub trait Observer {
    /// Bump `counter` by `n`.
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Record one sample `value` into `series`.
    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        let _ = (series, value);
    }

    /// A two-way configuration: `state` at tape/tree position `pos`,
    /// about to move in `dir` (−1 left, 0 halt/stay, +1 right).
    #[inline]
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        let _ = (state, pos, dir);
    }

    /// Enter a named phase (bottom-up pass, saturation round, …).
    /// Phases nest; sinks that time phases match this with
    /// [`Observer::phase_end`].
    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Leave the innermost open phase named `name`.
    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        let _ = name;
    }

    /// A selection-scan verdict: `pos` was selected because the run assumed
    /// `state` there and `λ(state, sym) = 1`.
    ///
    /// `pos` is in the same coordinate space as [`Observer::config`] events
    /// from the same engine: tape positions (0 = `⊳`) for string machines,
    /// node indices for tree machines. The witnessing `state` is the first
    /// assumed state with a selecting `λ` entry — the paper's certificate
    /// that the position belongs to the query result.
    #[inline]
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        let _ = (pos, state, sym);
    }

    /// A stay transition (Definition 5.11) assigned `state` to the child
    /// node `child` of `parent` — one event per child, together forming the
    /// GSQA child-run output that certifies the assignment.
    #[inline]
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        let _ = (parent, child, state);
    }

    /// The engine `machine` resolved its current state while reading
    /// `sym`: a 2DFA consulted `δ(state, sym)`, a bottom-up fold landed in
    /// `state` at a `sym`-labelled node, a fixpoint examined a summary.
    ///
    /// Fired once per unit of state resolution on every engine hot path —
    /// the raw feed for per-state visit histograms. `sym` is the engine's
    /// dense symbol index ([`u32::MAX`] when no single symbol applies,
    /// e.g. a fixpoint round over a whole summary set).
    #[inline]
    fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
        let _ = (machine, state, sym);
    }

    /// The engine `machine` fired the transition `from --sym--> to`.
    ///
    /// Paired with [`Observer::state_visit`]: a visit reports where the
    /// engine *looked*, a fired transition reports where it *went*. Stuck
    /// configurations therefore show up as visits with no matching fire —
    /// exactly the halting positions `explain_run` highlights.
    #[inline]
    fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
        let _ = (machine, from, sym, to);
    }

    /// A budget checkpoint, polled by run engines once per unit of work
    /// (one head move, one node examination, one fixpoint round).
    ///
    /// The default returns `Ok(())` unconditionally, so [`NoopObserver`]
    /// and every ordinary sink compile the poll away — the zero-cost
    /// contract extends to checkpoints. A watchdog sink overrides this to
    /// return `Err(`[`Abort`]`)` when a step, reversal or wall-clock budget
    /// is exhausted; engines translate that into a graceful
    /// `Error::RunAborted` instead of running forever.
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Abort> {
        Ok(())
    }

    /// Whether this sink records anything. Engines may use this to skip
    /// *computing* an expensive event argument; they must not skip the
    /// algorithm itself.
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }
}

/// The do-nothing sink: instrumented code paths compile to the exact
/// uninstrumented code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Forwarding impl so engines can be handed a reborrowed sink.
impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        (**self).count(counter, n);
    }
    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        (**self).record(series, value);
    }
    #[inline]
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        (**self).config(state, pos, dir);
    }
    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        (**self).phase_start(name);
    }
    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        (**self).phase_end(name);
    }
    #[inline]
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        (**self).selected(pos, state, sym);
    }
    #[inline]
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        (**self).stay_assign(parent, child, state);
    }
    #[inline]
    fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
        (**self).state_visit(machine, state, sym);
    }
    #[inline]
    fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
        (**self).transition_fired(machine, from, sym, to);
    }
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Abort> {
        (**self).checkpoint()
    }
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// Fan an event stream out to two sinks (e.g. a [`RunTrace`] for the
/// configurations and a [`MetricsObserver`] for the aggregate).
///
/// [`RunTrace`]: crate::RunTrace
/// [`MetricsObserver`]: crate::MetricsObserver
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        self.0.count(counter, n);
        self.1.count(counter, n);
    }
    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        self.0.record(series, value);
        self.1.record(series, value);
    }
    #[inline]
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        self.0.config(state, pos, dir);
        self.1.config(state, pos, dir);
    }
    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        self.0.phase_start(name);
        self.1.phase_start(name);
    }
    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        self.0.phase_end(name);
        self.1.phase_end(name);
    }
    #[inline]
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        self.0.selected(pos, state, sym);
        self.1.selected(pos, state, sym);
    }
    #[inline]
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        self.0.stay_assign(parent, child, state);
        self.1.stay_assign(parent, child, state);
    }
    #[inline]
    fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
        self.0.state_visit(machine, state, sym);
        self.1.state_visit(machine, state, sym);
    }
    #[inline]
    fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
        self.0.transition_fired(machine, from, sym, to);
        self.1.transition_fired(machine, from, sym, to);
    }
    /// Both sides are polled (so both watchdogs advance their clocks); the
    /// first abort wins.
    #[inline]
    fn checkpoint(&mut self) -> Result<(), Abort> {
        let a = self.0.checkpoint();
        let b = self.1.checkpoint();
        a.and(b)
    }
    #[inline]
    fn is_enabled(&self) -> bool {
        self.0.is_enabled() || self.1.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_indices_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, s) in Series::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, m) in Machine::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(Machine::from_index(i), Some(*m));
            assert_eq!(Machine::from_name(m.name()), Some(*m));
        }
        assert_eq!(Machine::from_index(Machine::COUNT), None);
        assert_eq!(Machine::from_name("no_such_machine"), None);
    }

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopObserver.is_enabled());
        let mut n = NoopObserver;
        let fwd: &mut NoopObserver = &mut n;
        assert!(!fwd.is_enabled());
    }

    /// Records every hook invocation as a rendered event line, so tests can
    /// compare complete event streams across sinks.
    #[derive(Default)]
    struct Recorder {
        events: Vec<String>,
    }

    impl Observer for Recorder {
        fn count(&mut self, counter: Counter, n: u64) {
            self.events.push(format!("count {} {n}", counter.name()));
        }
        fn record(&mut self, series: Series, value: u64) {
            self.events
                .push(format!("record {} {value}", series.name()));
        }
        fn config(&mut self, state: u32, pos: u32, dir: i8) {
            self.events.push(format!("config {state} {pos} {dir}"));
        }
        fn phase_start(&mut self, name: &'static str) {
            self.events.push(format!("phase_start {name}"));
        }
        fn phase_end(&mut self, name: &'static str) {
            self.events.push(format!("phase_end {name}"));
        }
        fn selected(&mut self, pos: u32, state: u32, sym: u32) {
            self.events.push(format!("selected {pos} {state} {sym}"));
        }
        fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
            self.events
                .push(format!("stay_assign {parent} {child} {state}"));
        }
        fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
            self.events
                .push(format!("state_visit {} {state} {sym}", machine.name()));
        }
        fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
            self.events.push(format!(
                "transition_fired {} {from} {sym} {to}",
                machine.name()
            ));
        }
    }

    /// Fire every hook exactly once through `obs`.
    fn fire_all<O: Observer>(obs: &mut O) {
        obs.count(Counter::Steps, 3);
        obs.record(Series::TraceLength, 7);
        obs.config(1, 2, -1);
        obs.phase_start("p");
        obs.phase_end("p");
        obs.selected(4, 5, 6);
        obs.stay_assign(8, 9, 10);
        obs.state_visit(Machine::TwoDfa, 1, 0);
        obs.transition_fired(Machine::TwoDfa, 1, 0, 2);
    }

    #[test]
    fn tee_forwards_every_hook_to_both_sinks() {
        let mut tee = Tee(Recorder::default(), Recorder::default());
        fire_all(&mut tee);

        let mut reference = Recorder::default();
        fire_all(&mut reference);

        assert_eq!(reference.events.len(), 9, "one event per hook");
        assert_eq!(tee.0.events, reference.events);
        assert_eq!(tee.1.events, reference.events);
    }

    #[test]
    fn reborrow_forwards_every_hook() {
        let mut rec = Recorder::default();
        fire_all(&mut (&mut rec));

        let mut reference = Recorder::default();
        fire_all(&mut reference);
        assert_eq!(rec.events, reference.events);
    }

    /// Sink whose checkpoint fails after a configured number of polls.
    struct Tripwire {
        polls_left: u32,
    }

    impl Observer for Tripwire {
        fn checkpoint(&mut self) -> Result<(), Abort> {
            if self.polls_left == 0 {
                return Err(Abort {
                    what: "polls",
                    limit: 0,
                    actual: 1,
                });
            }
            self.polls_left -= 1;
            Ok(())
        }
    }

    #[test]
    fn default_checkpoint_is_ok() {
        assert_eq!(NoopObserver.checkpoint(), Ok(()));
        assert_eq!(Recorder::default().checkpoint(), Ok(()));
        let mut n = NoopObserver;
        assert_eq!((&mut (&mut n)).checkpoint(), Ok(()));
    }

    #[test]
    fn tee_checkpoint_polls_both_and_first_abort_wins() {
        // Left trips first: both sides still get polled every round.
        let mut tee = Tee(Tripwire { polls_left: 1 }, Tripwire { polls_left: 3 });
        assert_eq!(tee.checkpoint(), Ok(()));
        assert!(tee.checkpoint().is_err());
        // The right side consumed both polls too.
        assert_eq!(tee.1.polls_left, 1);

        // Right side trips: its abort surfaces through the Tee.
        let mut tee = Tee(NoopObserver, Tripwire { polls_left: 0 });
        let abort = tee.checkpoint().unwrap_err();
        assert_eq!(abort.what, "polls");
        assert_eq!(abort.to_string(), "polls = 1 exceeded budget 0");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Series::ALL.iter().map(|s| s.name()));
        names.extend(Machine::ALL.iter().map(|m| m.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
