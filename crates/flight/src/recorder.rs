//! [`FlightRecorder`]: a bounded ring of the most recent observer events.
//!
//! Unlike [`RunTrace`](qa_obs::RunTrace), which keeps the *first* `cap`
//! configurations of a run (the right tool for replaying a run from its
//! start), the flight recorder keeps the *last* `cap` events of any kind —
//! the right tool for a post-mortem: when a run panics, trips a watchdog or
//! otherwise dies, the interesting events are the ones immediately before
//! death, not the ones at takeoff.
//!
//! Memory is `O(cap)` regardless of run length, so the recorder can stay on
//! in production batch workloads. Events pushed past capacity evict the
//! oldest entry and are tallied in [`FlightRecorder::dropped`], so a dump
//! always says how much history it is missing.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use qa_obs::{Counter, Observer, Series};

/// One event retained by the ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightEvent {
    /// A two-way configuration (state, position, direction).
    Config {
        /// Machine state.
        state: u32,
        /// Tape position / tree node index.
        pos: u32,
        /// Move direction: −1 left/up, +1 right/down, 0 halt or stay.
        dir: i8,
    },
    /// A phase was entered.
    PhaseStart(&'static str),
    /// A phase was left.
    PhaseEnd(&'static str),
    /// A position was selected into the query answer.
    Selected {
        /// Selected position.
        pos: u32,
        /// Witnessing assumed state.
        state: u32,
        /// Symbol at the position.
        sym: u32,
    },
    /// A stay transition assigned a state to a child node.
    StayAssign {
        /// Parent node.
        parent: u32,
        /// Child node.
        child: u32,
        /// Assigned state.
        state: u32,
    },
    /// An alert rule changed state in the sentinel's engine.
    Alert {
        /// Logical sentinel tick of the transition.
        tick: u64,
        /// Index of the rule in the loaded rules file.
        rule: u32,
        /// State before (`"inactive"`, `"pending"`, `"firing"`).
        from: &'static str,
        /// State after.
        to: &'static str,
    },
}

impl FlightEvent {
    fn render(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            FlightEvent::Config { state, pos, dir } => {
                let arrow = match dir {
                    -1 => "<-",
                    1 => "->",
                    _ => "--",
                };
                let _ = write!(out, "config   q{state} @ {pos} {arrow}");
            }
            FlightEvent::PhaseStart(name) => {
                let _ = write!(out, "phase    >> {name}");
            }
            FlightEvent::PhaseEnd(name) => {
                let _ = write!(out, "phase    << {name}");
            }
            FlightEvent::Selected { pos, state, sym } => {
                let _ = write!(out, "selected pos {pos} (state q{state}, sym {sym})");
            }
            FlightEvent::StayAssign {
                parent,
                child,
                state,
            } => {
                let _ = write!(out, "stay     node {parent} -> child {child} := q{state}");
            }
            FlightEvent::Alert {
                tick,
                rule,
                from,
                to,
            } => {
                let _ = write!(out, "alert    rule #{rule} {from} -> {to} @ tick {tick}");
            }
        }
    }
}

/// Fixed-capacity observer retaining the last `cap` events, with full
/// counter/series tallies (tallies are exact; only the event *log* is
/// bounded).
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<FlightEvent>,
    cap: usize,
    dropped: u64,
    counters: [u64; Counter::COUNT],
    samples: [(u64, u64); Series::COUNT], // (count, sum)
}

/// Default ring capacity: enough tail to diagnose a loop, small enough to
/// leave on everywhere.
pub const DEFAULT_CAPACITY: usize = 256;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// Recorder with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recorder retaining at most `cap` events (`cap ≥ 1`).
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap >= 1, "flight recorder needs capacity >= 1");
        FlightRecorder {
            ring: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
            counters: [0; Counter::COUNT],
            samples: [(0, 0); Series::COUNT],
        }
    }

    #[inline]
    fn push(&mut self, ev: FlightEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Record an alert-state transition (rule `rule` went `from` → `to`
    /// at sentinel tick `tick`) into the ring, so a post-mortem shows the
    /// alert lifecycle interleaved with the events that caused it. Not an
    /// [`Observer`] hook: alerts come from the sentinel's engine, not from
    /// an engine run.
    pub fn alert(&mut self, tick: u64, rule: u32, from: &'static str, to: &'static str) {
        self.push(FlightEvent::Alert {
            tick,
            rule,
            from,
            to,
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> + '_ {
        self.ring.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events evicted to make room — the dump's "how much history is
    /// missing" figure.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact tally of `counter` over the whole run (not just the retained
    /// window).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// `(count, sum)` of samples recorded into `series`.
    pub fn samples(&self, series: Series) -> (u64, u64) {
        self.samples[series.index()]
    }

    /// The `(state, pos)` configuration occurring most often in the
    /// retained window, with its occurrence count — evidence of a loop when
    /// the count is high. Returns `None` if no configs were retained; ties
    /// break toward the smallest `(state, pos)`.
    pub fn repeated_config(&self) -> Option<(u32, u32, usize)> {
        let mut pairs: Vec<(u32, u32)> = self
            .ring
            .iter()
            .filter_map(|ev| match *ev {
                FlightEvent::Config { state, pos, .. } => Some((state, pos)),
                _ => None,
            })
            .collect();
        if pairs.is_empty() {
            return None;
        }
        pairs.sort_unstable();
        let mut best = (pairs[0].0, pairs[0].1, 1usize);
        let mut cur = (pairs[0], 1usize);
        for &p in &pairs[1..] {
            if p == cur.0 {
                cur.1 += 1;
            } else {
                cur = (p, 1);
            }
            if cur.1 > best.2 {
                best = (cur.0 .0, cur.0 .1, cur.1);
            }
        }
        Some(best)
    }

    /// Render the post-mortem dump: drop accounting, exact counters, the
    /// most repeated configuration, then the retained tail of events.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "=== flight recorder dump ===");
        let _ = writeln!(
            out,
            "retained {} event(s) (capacity {}), {} older event(s) dropped",
            self.ring.len(),
            self.cap,
            self.dropped
        );
        for c in Counter::ALL {
            let v = self.counters[c.index()];
            if v != 0 {
                let _ = writeln!(out, "  {:<20} {v}", c.name());
            }
        }
        if let Some((state, pos, n)) = self.repeated_config() {
            if n > 1 {
                let _ = writeln!(
                    out,
                    "most repeated configuration: q{state} @ {pos} ({n} times in window)"
                );
            }
        }
        let _ = writeln!(out, "--- last {} event(s) ---", self.ring.len());
        for ev in &self.ring {
            ev.render(&mut out);
            out.push('\n');
        }
        out
    }

    /// Render the recorder as JSON — the machine-readable twin of
    /// [`dump`](FlightRecorder::dump), served by `qa-fleet --serve` at
    /// `GET /flight`. Hand-rolled like every exporter in this workspace
    /// (phase names are `&'static str` identifiers; the only escaping
    /// needed is for quotes/backslashes, handled below).
    pub fn to_json(&self) -> String {
        self.render_json(None)
    }

    /// Like [`to_json`](FlightRecorder::to_json), but the `events` array
    /// holds only the most recent `n` entries and the report carries a
    /// `shown` field saying how many made the cut — the `/flight?n=K`
    /// body. Tallies and drop accounting still cover the whole run.
    pub fn to_json_tail(&self, n: usize) -> String {
        self.render_json(Some(n))
    }

    fn render_json(&self, tail: Option<usize>) -> String {
        use std::fmt::Write;
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::new();
        out.push('{');
        let _ = write!(
            out,
            "\"retained\":{},\"capacity\":{},\"dropped\":{}",
            self.ring.len(),
            self.cap,
            self.dropped
        );
        let shown = tail.unwrap_or(self.ring.len()).min(self.ring.len());
        if tail.is_some() {
            let _ = write!(out, ",\"shown\":{shown}");
        }
        let _ = write!(out, ",\"counters\":{{");
        let mut first = true;
        for c in Counter::ALL {
            let v = self.counters[c.index()];
            if v != 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", c.name());
                first = false;
            }
        }
        out.push('}');
        match self.repeated_config() {
            Some((state, pos, n)) if n > 1 => {
                let _ = write!(
                    out,
                    ",\"repeated_config\":{{\"state\":{state},\"pos\":{pos},\"count\":{n}}}"
                );
            }
            _ => {
                let _ = write!(out, ",\"repeated_config\":null");
            }
        }
        let _ = write!(out, ",\"events\":[");
        let skip = self.ring.len() - shown;
        for (i, ev) in self.ring.iter().skip(skip).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match *ev {
                FlightEvent::Config { state, pos, dir } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"config\",\"state\":{state},\"pos\":{pos},\"dir\":{dir}}}"
                    );
                }
                FlightEvent::PhaseStart(name) => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"phase_start\",\"name\":\"{}\"}}",
                        esc(name)
                    );
                }
                FlightEvent::PhaseEnd(name) => {
                    let _ = write!(out, "{{\"type\":\"phase_end\",\"name\":\"{}\"}}", esc(name));
                }
                FlightEvent::Selected { pos, state, sym } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"selected\",\"pos\":{pos},\"state\":{state},\"sym\":{sym}}}"
                    );
                }
                FlightEvent::StayAssign {
                    parent,
                    child,
                    state,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"stay_assign\",\"parent\":{parent},\"child\":{child},\"state\":{state}}}"
                    );
                }
                FlightEvent::Alert {
                    tick,
                    rule,
                    from,
                    to,
                } => {
                    let _ = write!(
                        out,
                        "{{\"type\":\"alert\",\"tick\":{tick},\"rule\":{rule},\"from\":\"{from}\",\"to\":\"{to}\"}}"
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

/// A [`FlightRecorder`] behind `Arc<Mutex<…>>`, usable both as a run's
/// observer and as a live `/flight` endpoint source at the same time.
///
/// The plain recorder is single-owner by design (observers are `&mut`);
/// a live ops surface needs to *read* the ring from the serve thread while
/// a run is still writing it. `SharedFlight` pays one uncontended mutex
/// lock per recorded event for that — measurable but small, and only the
/// binaries that opt into `--serve` use it; batch paths keep the lock-free
/// recorder.
#[derive(Clone, Debug, Default)]
pub struct SharedFlight(Arc<Mutex<FlightRecorder>>);

impl SharedFlight {
    /// Shared recorder retaining at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        SharedFlight(Arc::new(Mutex::new(FlightRecorder::with_capacity(cap))))
    }

    /// Run `f` on the recorder (e.g. `|r| r.to_json()` from a serve
    /// thread, or `|r| r.dump()` for a post-mortem).
    pub fn with<T>(&self, f: impl FnOnce(&FlightRecorder) -> T) -> T {
        f(&self.0.lock().expect("flight recorder lock poisoned"))
    }

    /// Record an alert-state transition (see [`FlightRecorder::alert`]).
    pub fn alert(&self, tick: u64, rule: u32, from: &'static str, to: &'static str) {
        self.lock().alert(tick, rule, from, to);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightRecorder> {
        self.0.lock().expect("flight recorder lock poisoned")
    }
}

impl Observer for SharedFlight {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        self.lock().count(counter, n);
    }
    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        self.lock().record(series, value);
    }
    #[inline]
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        self.lock().config(state, pos, dir);
    }
    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        self.lock().phase_start(name);
    }
    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        self.lock().phase_end(name);
    }
    #[inline]
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        self.lock().selected(pos, state, sym);
    }
    #[inline]
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        self.lock().stay_assign(parent, child, state);
    }
}

impl Observer for FlightRecorder {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        self.counters[counter.index()] += n;
    }
    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        let slot = &mut self.samples[series.index()];
        slot.0 += 1;
        slot.1 += value;
    }
    #[inline]
    fn config(&mut self, state: u32, pos: u32, dir: i8) {
        self.push(FlightEvent::Config { state, pos, dir });
    }
    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        self.push(FlightEvent::PhaseStart(name));
    }
    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        self.push(FlightEvent::PhaseEnd(name));
    }
    #[inline]
    fn selected(&mut self, pos: u32, state: u32, sym: u32) {
        self.push(FlightEvent::Selected { pos, state, sym });
    }
    #[inline]
    fn stay_assign(&mut self, parent: u32, child: u32, state: u32) {
        self.push(FlightEvent::StayAssign {
            parent,
            child,
            state,
        });
    }
}

/// Run `work` with a panic-triggered post-mortem: on unwind the recorder's
/// dump is printed to stderr before the panic is resumed, so a crashing
/// batch job leaves its black box behind.
///
/// The recorder is passed to `work` by `&mut` reference; on normal
/// completion the result and the recorder are returned for inspection.
pub fn with_postmortem<T>(
    cap: usize,
    work: impl FnOnce(&mut FlightRecorder) -> T,
) -> (T, FlightRecorder) {
    let mut rec = FlightRecorder::with_capacity(cap);
    // AssertUnwindSafe: on panic we only *read* the recorder to render the
    // dump; the partially updated ring is exactly what a post-mortem wants.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(&mut rec)));
    match result {
        Ok(v) => (v, rec),
        Err(payload) => {
            eprintln!("{}", rec.dump());
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_cap_events_and_counts_drops() {
        let mut rec = FlightRecorder::with_capacity(3);
        for i in 0..10u32 {
            rec.config(i, i, 1);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        let states: Vec<u32> = rec
            .events()
            .map(|ev| match *ev {
                FlightEvent::Config { state, .. } => state,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(states, vec![7, 8, 9]);
    }

    #[test]
    fn tallies_are_exact_even_when_the_log_drops() {
        let mut rec = FlightRecorder::with_capacity(2);
        for _ in 0..100 {
            rec.count(Counter::Steps, 1);
            rec.config(0, 0, 1);
        }
        rec.record(Series::TraceLength, 100);
        assert_eq!(rec.counter(Counter::Steps), 100);
        assert_eq!(rec.samples(Series::TraceLength), (1, 100));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn repeated_config_finds_the_hot_pair() {
        let mut rec = FlightRecorder::with_capacity(16);
        rec.config(1, 5, 1);
        rec.config(2, 6, -1);
        rec.config(1, 5, 1);
        rec.config(1, 5, -1); // same (state, pos), different dir: still counts
        assert_eq!(rec.repeated_config(), Some((1, 5, 3)));
    }

    #[test]
    fn dump_reports_drops_and_the_repeated_config() {
        let mut rec = FlightRecorder::with_capacity(4);
        for _ in 0..6 {
            rec.count(Counter::Steps, 1);
            rec.config(3, 7, 1);
        }
        let dump = rec.dump();
        assert!(dump.contains("2 older event(s) dropped"), "{dump}");
        assert!(dump.contains("steps"), "{dump}");
        assert!(
            dump.contains("most repeated configuration: q3 @ 7 (4 times in window)"),
            "{dump}"
        );
        assert!(dump.contains("config   q3 @ 7 ->"), "{dump}");
    }

    #[test]
    fn json_dump_carries_drops_counters_and_loop_evidence() {
        let mut rec = FlightRecorder::with_capacity(4);
        for _ in 0..6 {
            rec.count(Counter::Steps, 1);
            rec.config(3, 7, 1);
        }
        rec.phase_start("selection scan");
        let json = rec.to_json();
        assert!(json.contains("\"dropped\":3"), "{json}");
        assert!(json.contains("\"steps\":6"), "{json}");
        assert!(
            json.contains("\"repeated_config\":{\"state\":3,\"pos\":7,\"count\":3}"),
            "{json}"
        );
        assert!(
            json.contains("{\"type\":\"phase_start\",\"name\":\"selection scan\"}"),
            "{json}"
        );
        // Braces balance (cheap well-formedness check for the hand-rolled
        // writer; the pulse e2e test parses it for real).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn json_tail_limits_events_but_keeps_exact_tallies() {
        let mut rec = FlightRecorder::with_capacity(8);
        for i in 0..5u32 {
            rec.count(Counter::Steps, 1);
            rec.config(i, i, 1);
        }
        let tail = rec.to_json_tail(2);
        assert!(tail.contains("\"retained\":5"), "{tail}");
        assert!(tail.contains("\"shown\":2"), "{tail}");
        assert!(tail.contains("\"steps\":5"), "tallies stay exact: {tail}");
        // Only the two most recent configs survive the tail cut.
        assert!(!tail.contains("\"state\":2"), "{tail}");
        assert!(tail.contains("\"state\":3"), "{tail}");
        assert!(tail.contains("\"state\":4"), "{tail}");
        // n beyond the retained count shows everything; the untailed
        // rendering is unchanged (no "shown" field).
        assert!(rec.to_json_tail(100).contains("\"shown\":5"));
        assert!(!rec.to_json().contains("\"shown\""));
    }

    #[test]
    fn alert_transitions_land_in_ring_dump_and_json() {
        let mut rec = FlightRecorder::with_capacity(8);
        rec.config(1, 2, 1);
        rec.alert(12, 0, "pending", "firing");
        let dump = rec.dump();
        assert!(
            dump.contains("alert    rule #0 pending -> firing @ tick 12"),
            "{dump}"
        );
        let json = rec.to_json();
        assert!(
            json.contains("{\"type\":\"alert\",\"tick\":12,\"rule\":0,\"from\":\"pending\",\"to\":\"firing\"}"),
            "{json}"
        );

        let shared = SharedFlight::with_capacity(8);
        shared.alert(3, 1, "inactive", "pending");
        assert!(shared.with(|r| r.to_json()).contains("\"to\":\"pending\""));
    }

    #[test]
    fn shared_flight_records_through_the_observer_and_reads_concurrently() {
        let mut shared = SharedFlight::with_capacity(8);
        shared.count(Counter::Steps, 5);
        shared.config(1, 2, 1);
        let reader = shared.clone();
        assert_eq!(reader.with(|r| r.counter(Counter::Steps)), 5);
        assert_eq!(reader.with(|r| r.len()), 1);
        assert!(reader.with(|r| r.to_json()).contains("\"steps\":5"));
    }

    #[test]
    fn with_postmortem_returns_result_and_recorder_on_success() {
        let (sum, rec) = with_postmortem(8, |rec| {
            rec.config(1, 1, 1);
            2 + 2
        });
        assert_eq!(sum, 4);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn with_postmortem_dumps_and_rethrows_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_postmortem(8, |rec| {
                rec.config(9, 9, 0);
                panic!("boom");
            })
        });
        assert!(caught.is_err(), "panic must propagate");
    }
}
