//! # qa-scope
//!
//! Per-state execution profiling and `EXPLAIN ANALYZE` for query runs.
//!
//! The observability stack up to here sees runs from the outside — steps,
//! latency, cache hits, SLOs. This crate looks *inside* an automaton: a
//! [`ScopeProfiler`] is an [`Observer`] that folds the per-state hooks
//! ([`Observer::state_visit`], [`Observer::transition_fired`]) fired by
//! every engine hot path into per-(machine, state) visit histograms and
//! state×symbol transition heatmaps, with bounded memory and drop
//! accounting. [`ScopeProfiler::explain_run`] turns the raw tables into a
//! [`ScopeReport`]: automaton size, reachable/dead/cold state sets,
//! hot-state share, per-phase transition density and cache-hit attribution
//! per state — rendered as text, JSON, or collapsed-stack `machine;state`
//! frames (so the existing `/profile` flamegraph path renders heatmaps for
//! free).
//!
//! ## Determinism
//!
//! Everything here is engineered so that `scope.json` is byte-identical
//! across `--jobs N` and reruns: tables are `BTreeMap`s
//! (sorted iteration), [`ScopeProfiler::merge`] is commutative and
//! associative like `Metrics::merge`, and serialization visits keys in
//! sorted order only. The heavy-hitter cap is deterministic too
//! (evict-the-lightest with smallest-key tie-break), and evicted mass is
//! conserved in per-table drop accounts — the flight-recorder style —
//! so `kept + dropped` always equals the true event total.
//!
//! ## Cost
//!
//! The per-event path is two or three array increments, not map lookups:
//! states below [`DENSE_STATES`] and symbols below [`DENSE_SYMS`] (i.e.
//! virtually every compiled automaton in this workspace) land in
//! lazily-allocated dense tables, and only the long tail falls back to the
//! capped `BTreeMap`s. Readers see one logical table — every accessor sums
//! dense + sparse on the fly — so the split is invisible outside the hot
//! path. `bench_obs --overhead` gates the full stack plus a profiler at
//! ≤ 1.10x the plain stack or ≤ 25 extra ns/step.

#![deny(missing_docs)]

use std::collections::BTreeMap;

use qa_obs::json::{self, ObjectWriter, Value};
use qa_obs::{Counter, Machine, Observer, Series};

/// Default cap on distinct states tracked per machine.
pub const DEFAULT_STATE_CAP: usize = 4096;

/// Default cap on distinct heatmap cells / transition edges per machine.
pub const DEFAULT_EDGE_CAP: usize = 16384;

/// Share below which a visited state counts as *cold* in reports (1%).
pub const COLD_SHARE: f64 = 0.01;

/// Number of hot states listed per machine in reports.
pub const HOT_TOP_K: usize = 10;

/// States below this index take the dense (array-increment) fast path.
pub const DENSE_STATES: usize = 64;

/// Symbols below this index take the dense fast path.
pub const DENSE_SYMS: usize = 16;

const DENSE_CELLS: usize = DENSE_STATES * DENSE_SYMS;

/// The dense fast-path tables for one machine: plain counters indexed by
/// `state` / `state × sym`, allocated lazily on the first small-index
/// event. Transitions exploit that the engines are deterministic — one
/// `to` per `(from, sym)` cell, remembered in `txn_to`; a second distinct
/// target (nondeterministic simulation) falls back to the sparse map.
#[derive(Clone, Debug, Default)]
struct DenseScope {
    visits: Vec<u64>,
    heat: Vec<u64>,
    txn_cnt: Vec<u64>,
    txn_to: Vec<u32>,
}

impl DenseScope {
    const NO_TARGET: u32 = u32::MAX;

    fn is_empty(&self) -> bool {
        self.visits.is_empty() && self.txn_cnt.is_empty()
    }
}

/// Bump `map[key]` by `n` under a distinct-key cap.
///
/// When the map is full and `key` is fresh, the lightest existing key
/// (smallest count, then smallest key — fully deterministic) is evicted and
/// its mass moved to `*dropped`, Space-Saving style, so heavy hitters
/// survive and `sum(map) + *dropped` stays equal to the true total.
fn bump<K: Ord + Copy>(map: &mut BTreeMap<K, u64>, key: K, n: u64, cap: usize, dropped: &mut u64) {
    if let Some(c) = map.get_mut(&key) {
        *c += n;
        return;
    }
    if map.len() >= cap {
        let victim = map
            .iter()
            .map(|(k, c)| (*c, *k))
            .min()
            .expect("cap > 0, map full");
        map.remove(&victim.1);
        *dropped += victim.0;
    }
    map.insert(key, n);
}

/// The per-machine profile tables. All maps are state-index keyed and
/// sorted; see the crate docs for the determinism contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineScope {
    /// `state → visits` (how often the engine resolved this state).
    pub visits: BTreeMap<u32, u64>,
    /// `(state, symbol) → visits`: the state×symbol heatmap.
    pub heat: BTreeMap<(u32, u32), u64>,
    /// `(from, symbol, to) → fired`: the transition heatmap.
    pub transitions: BTreeMap<(u32, u32, u32), u64>,
    /// `state → behavior-cache hits` attributed to the state the engine
    /// was resolving when the cache answered.
    pub cache_hits: BTreeMap<u32, u64>,
    /// `state → behavior-cache misses`, same attribution.
    pub cache_misses: BTreeMap<u32, u64>,
    /// Visit mass evicted from `visits` by the cap.
    pub dropped_visits: u64,
    /// Visit mass evicted from `heat` by the cap.
    pub dropped_heat: u64,
    /// Fired mass evicted from `transitions` by the cap.
    pub dropped_transitions: u64,
    /// Declared automaton size (states), when the caller knows it — the
    /// denominator for dead-state reporting.
    pub universe: Option<u64>,
}

impl MachineScope {
    /// Total state visits including evicted mass.
    pub fn total_visits(&self) -> u64 {
        self.visits.values().sum::<u64>() + self.dropped_visits
    }

    /// Total fired transitions including evicted mass.
    pub fn total_transitions(&self) -> u64 {
        self.transitions.values().sum::<u64>() + self.dropped_transitions
    }

    /// Whether no event ever touched this machine.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
            && self.heat.is_empty()
            && self.transitions.is_empty()
            && self.cache_hits.is_empty()
            && self.cache_misses.is_empty()
            && self.dropped_visits == 0
            && self.dropped_heat == 0
            && self.dropped_transitions == 0
            && self.universe.is_none()
    }

    fn merge(&mut self, other: &MachineScope) {
        for (&k, &v) in &other.visits {
            *self.visits.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.heat {
            *self.heat.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.transitions {
            *self.transitions.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.cache_hits {
            *self.cache_hits.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.cache_misses {
            *self.cache_misses.entry(k).or_insert(0) += v;
        }
        self.dropped_visits += other.dropped_visits;
        self.dropped_heat += other.dropped_heat;
        self.dropped_transitions += other.dropped_transitions;
        self.universe = match (self.universe, other.universe) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// An [`Observer`] that builds per-(machine, state) visit histograms and
/// state×symbol transition heatmaps from the profiling hooks, with bounded
/// memory (heavy-hitter eviction past a cap, drops accounted).
///
/// Behavior-cache hits and misses reported through [`Observer::count`] are
/// attributed to the state the engine most recently resolved — per-state
/// cache attribution without touching the cache layers. Fired transitions
/// are additionally attributed to the innermost open [`Observer`] phase,
/// giving per-phase transition density.
///
/// ```
/// use qa_obs::{Machine, Observer};
/// use qa_scope::ScopeProfiler;
///
/// let mut scope = ScopeProfiler::new();
/// scope.state_visit(Machine::TwoDfa, 0, 2);
/// scope.transition_fired(Machine::TwoDfa, 0, 2, 1);
/// let report = scope.explain_run();
/// assert_eq!(report.machines.len(), 1);
/// assert_eq!(report.machines[0].total_visits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct ScopeProfiler {
    tables: Vec<MachineScope>,
    /// Dense fast-path counters per machine; summed into the sparse view
    /// by every reader. Only populated when the caps are at least dense
    /// capacity (custom tiny caps keep the pure-map semantics).
    dense: Vec<DenseScope>,
    dense_ok: bool,
    state_cap: usize,
    edge_cap: usize,
    /// Innermost-last stack of open phases.
    phase_stack: Vec<&'static str>,
    /// `(machine index, phase name) → transitions fired in that phase`.
    /// Linear-scanned (phases are few); sorted at serialization time.
    phase_txn: Vec<(usize, String, u64)>,
    /// `(machine, phase identity, phase_txn index)` memo of the last
    /// [`ScopeProfiler::bump_phase`] resolution. Phase names are
    /// `&'static str`, so the address is a stable identity token; entries
    /// are only ever appended, so the index never goes stale.
    phase_cache: Option<(usize, usize, usize)>,
    /// The most recently resolved `(machine, state)` — the attribution
    /// target for cache hit/miss counts.
    last: Option<(Machine, u32)>,
    /// A [`Series::MachineStates`] value waiting to be claimed by the next
    /// [`Observer::state_visit`] as that machine's declared universe.
    /// Engines record the series before running, so the first visit after
    /// the record identifies which machine the size belongs to.
    pending_universe: Option<u64>,
}

impl Default for ScopeProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl ScopeProfiler {
    /// A profiler with the default caps.
    pub fn new() -> Self {
        Self::with_caps(DEFAULT_STATE_CAP, DEFAULT_EDGE_CAP)
    }

    /// A profiler with explicit caps on distinct states and distinct
    /// heatmap/transition cells per machine (each at least 1).
    pub fn with_caps(state_cap: usize, edge_cap: usize) -> Self {
        ScopeProfiler {
            tables: vec![MachineScope::default(); Machine::COUNT],
            dense: vec![DenseScope::default(); Machine::COUNT],
            dense_ok: state_cap >= DENSE_STATES && edge_cap >= DENSE_CELLS,
            state_cap: state_cap.max(1),
            edge_cap: edge_cap.max(1),
            phase_stack: Vec::new(),
            phase_txn: Vec::new(),
            phase_cache: None,
            last: None,
            pending_universe: None,
        }
    }

    /// The sparse table plus the dense fast-path counts for machine
    /// index `i`, summed into one logical [`MachineScope`].
    fn combined(&self, i: usize) -> MachineScope {
        let mut t = self.tables[i].clone();
        let d = &self.dense[i];
        for (q, &n) in d.visits.iter().enumerate() {
            if n > 0 {
                *t.visits.entry(q as u32).or_insert(0) += n;
            }
        }
        for (cell, &n) in d.heat.iter().enumerate() {
            if n > 0 {
                let key = ((cell / DENSE_SYMS) as u32, (cell % DENSE_SYMS) as u32);
                *t.heat.entry(key).or_insert(0) += n;
            }
        }
        for (cell, &n) in d.txn_cnt.iter().enumerate() {
            if n > 0 {
                let key = (
                    (cell / DENSE_SYMS) as u32,
                    (cell % DENSE_SYMS) as u32,
                    d.txn_to[cell],
                );
                *t.transitions.entry(key).or_insert(0) += n;
            }
        }
        t
    }

    /// The profile tables for `machine` (dense and sparse counts summed).
    pub fn machine(&self, machine: Machine) -> MachineScope {
        self.combined(machine.index())
    }

    /// Declare the automaton size (state count) for `machine`, enabling
    /// dead-state reporting. Merging keeps the larger declaration.
    pub fn declare_universe(&mut self, machine: Machine, states: u64) {
        let t = &mut self.tables[machine.index()];
        t.universe = Some(t.universe.map_or(states, |u| u.max(states)));
    }

    /// Transitions fired per `(machine, phase)`, sorted.
    pub fn phase_transitions(&self) -> Vec<(Machine, &str, u64)> {
        let mut out: Vec<(Machine, &str, u64)> = self
            .phase_txn
            .iter()
            .filter_map(|(m, p, n)| Machine::from_index(*m).map(|m| (m, p.as_str(), *n)))
            .collect();
        out.sort_by(|a, b| a.0.index().cmp(&b.0.index()).then(a.1.cmp(b.1)));
        out
    }

    /// Fold `other`'s tables into `self`. Commutative and associative
    /// (like `Metrics::merge`), so fleet shards can merge in any order and
    /// still serialize byte-identically.
    pub fn merge(&mut self, other: &ScopeProfiler) {
        for (i, t) in self.tables.iter_mut().enumerate() {
            if other.dense[i].is_empty() {
                t.merge(&other.tables[i]);
            } else {
                t.merge(&other.combined(i));
            }
        }
        for (m, p, n) in &other.phase_txn {
            match self
                .phase_txn
                .iter_mut()
                .find(|(m2, p2, _)| m2 == m && p2 == p)
            {
                Some((_, _, n2)) => *n2 += n,
                None => self.phase_txn.push((*m, p.clone(), *n)),
            }
        }
    }

    fn bump_phase(&mut self, machine: usize, n: u64) {
        let phase = self.phase_stack.last().copied().unwrap_or("(top)");
        let token = phase.as_ptr() as usize;
        if let Some((m, p, i)) = self.phase_cache {
            if m == machine && p == token {
                self.phase_txn[i].2 += n;
                return;
            }
        }
        let idx = match self
            .phase_txn
            .iter()
            .position(|(m, p, _)| *m == machine && p == phase)
        {
            Some(i) => {
                self.phase_txn[i].2 += n;
                i
            }
            None => {
                self.phase_txn.push((machine, phase.to_owned(), n));
                self.phase_txn.len() - 1
            }
        };
        self.phase_cache = Some((machine, token, idx));
    }

    /// Serialize the raw tables as the deterministic `scope.json` document:
    /// machines in dense-index order, map entries in sorted key order,
    /// empty machines omitted.
    pub fn to_json(&self) -> String {
        let combined: Vec<(Machine, MachineScope)> = Machine::ALL
            .iter()
            .map(|&m| (m, self.combined(m.index())))
            .filter(|(_, t)| !t.is_empty())
            .collect();
        let machines = combined.iter().map(|(m, t)| {
            json::object(|w| {
                w.field_str("machine", m.name());
                if let Some(u) = t.universe {
                    w.field_u64("universe", u);
                }
                w.field_raw(
                    "visits",
                    &json::array(t.visits.iter().map(|(&q, &n)| format!("[{q},{n}]"))),
                );
                w.field_raw(
                    "heat",
                    &json::array(t.heat.iter().map(|(&(q, s), &n)| format!("[{q},{s},{n}]"))),
                );
                w.field_raw(
                    "transitions",
                    &json::array(
                        t.transitions
                            .iter()
                            .map(|(&(f, s, to), &n)| format!("[{f},{s},{to},{n}]")),
                    ),
                );
                w.field_raw(
                    "cache_hits",
                    &json::array(t.cache_hits.iter().map(|(&q, &n)| format!("[{q},{n}]"))),
                );
                w.field_raw(
                    "cache_misses",
                    &json::array(t.cache_misses.iter().map(|(&q, &n)| format!("[{q},{n}]"))),
                );
                w.field_u64("dropped_visits", t.dropped_visits);
                w.field_u64("dropped_heat", t.dropped_heat);
                w.field_u64("dropped_transitions", t.dropped_transitions);
            })
        });
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.field_raw("machines", &json::array(machines));
        let mut phases: Vec<(usize, &str, u64)> = self
            .phase_txn
            .iter()
            .map(|(m, p, n)| (*m, p.as_str(), *n))
            .collect();
        phases.sort();
        w.field_raw(
            "phases",
            &json::array(phases.into_iter().map(|(m, p, n)| {
                let name = Machine::from_index(m).map_or("?", Machine::name);
                let mut s = String::from("[");
                json::push_str(&mut s, name);
                s.push(',');
                json::push_str(&mut s, p);
                s.push(',');
                s.push_str(&n.to_string());
                s.push(']');
                s
            })),
        );
        w.finish();
        out
    }

    /// Parse a `scope.json` document produced by [`ScopeProfiler::to_json`]
    /// back into a profiler (`qa-trace analyze top --by state` reads
    /// `scope.json` files this way).
    pub fn from_json(input: &str) -> Result<ScopeProfiler, String> {
        let v = json::parse(input).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// [`ScopeProfiler::from_json`] over an already-parsed [`Value`].
    pub fn from_value(v: &Value) -> Result<ScopeProfiler, String> {
        let mut scope = ScopeProfiler::new();
        let machines = v
            .get("machines")
            .and_then(Value::as_arr)
            .ok_or("scope.json: missing machines array")?;
        let pair = |e: &Value, n: usize| -> Result<Vec<u64>, String> {
            let a = e.as_arr().ok_or("scope.json: entry not an array")?;
            if a.len() != n {
                return Err(format!("scope.json: expected {n}-tuple"));
            }
            a.iter()
                .map(|x| x.as_u64().ok_or_else(|| "scope.json: non-integer".into()))
                .collect()
        };
        for mv in machines {
            let name = mv
                .get("machine")
                .and_then(Value::as_str)
                .ok_or("scope.json: machine without name")?;
            let m = Machine::from_name(name)
                .ok_or_else(|| format!("scope.json: unknown machine {name:?}"))?;
            let t = &mut scope.tables[m.index()];
            t.universe = mv.get("universe").and_then(Value::as_u64);
            for e in mv.get("visits").and_then(Value::as_arr).unwrap_or(&[]) {
                let p = pair(e, 2)?;
                t.visits.insert(p[0] as u32, p[1]);
            }
            for e in mv.get("heat").and_then(Value::as_arr).unwrap_or(&[]) {
                let p = pair(e, 3)?;
                t.heat.insert((p[0] as u32, p[1] as u32), p[2]);
            }
            for e in mv.get("transitions").and_then(Value::as_arr).unwrap_or(&[]) {
                let p = pair(e, 4)?;
                t.transitions
                    .insert((p[0] as u32, p[1] as u32, p[2] as u32), p[3]);
            }
            for e in mv.get("cache_hits").and_then(Value::as_arr).unwrap_or(&[]) {
                let p = pair(e, 2)?;
                t.cache_hits.insert(p[0] as u32, p[1]);
            }
            for e in mv
                .get("cache_misses")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
            {
                let p = pair(e, 2)?;
                t.cache_misses.insert(p[0] as u32, p[1]);
            }
            t.dropped_visits = mv
                .get("dropped_visits")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            t.dropped_heat = mv.get("dropped_heat").and_then(Value::as_u64).unwrap_or(0);
            t.dropped_transitions = mv
                .get("dropped_transitions")
                .and_then(Value::as_u64)
                .unwrap_or(0);
        }
        for e in v.get("phases").and_then(Value::as_arr).unwrap_or(&[]) {
            let a = e.as_arr().ok_or("scope.json: phase entry not an array")?;
            if a.len() != 3 {
                return Err("scope.json: phase entry must be [machine, phase, count]".into());
            }
            let name = a[0]
                .as_str()
                .ok_or("scope.json: phase machine not a string")?;
            let m = Machine::from_name(name)
                .ok_or_else(|| format!("scope.json: unknown machine {name:?}"))?;
            let p = a[1].as_str().ok_or("scope.json: phase name not a string")?;
            let n = a[2].as_u64().ok_or("scope.json: phase count not integer")?;
            scope.phase_txn.push((m.index(), p.to_owned(), n));
        }
        Ok(scope)
    }

    /// Collapsed-stack rendering (`machine;q<state> <visits>` per line,
    /// sorted) — the format the `/profile` flamegraph path consumes, so
    /// state heatmaps render with the machinery that already exists.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for m in Machine::ALL {
            let t = self.combined(m.index());
            for (&q, &n) in &t.visits {
                out.push_str(m.name());
                out.push_str(";q");
                out.push_str(&q.to_string());
                out.push(' ');
                out.push_str(&n.to_string());
                out.push('\n');
            }
            if t.dropped_visits > 0 {
                out.push_str(m.name());
                out.push_str(";(dropped) ");
                out.push_str(&t.dropped_visits.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Distill the raw tables into an EXPLAIN-grade [`ScopeReport`].
    pub fn explain_run(&self) -> ScopeReport {
        let mut machines = Vec::new();
        for m in Machine::ALL {
            let t = self.combined(m.index());
            if t.is_empty() {
                continue;
            }
            let total_visits = t.total_visits();
            let mut hot: Vec<(u32, u64)> = t.visits.iter().map(|(&q, &n)| (q, n)).collect();
            // Heaviest first; ties broken by smaller state id (deterministic).
            hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let hot_share = if total_visits == 0 {
                0.0
            } else {
                hot.first()
                    .map_or(0.0, |&(_, n)| n as f64 / total_visits as f64)
            };
            let cold: Vec<u32> = t
                .visits
                .iter()
                .filter(|&(_, &n)| {
                    total_visits > 0 && (n as f64 / total_visits as f64) < COLD_SHARE
                })
                .map(|(&q, _)| q)
                .collect();
            let dead = t.universe.map(|u| {
                (0..u as u32)
                    .filter(|q| !t.visits.contains_key(q))
                    .collect::<Vec<u32>>()
            });
            hot.truncate(HOT_TOP_K);
            let phases: Vec<(String, u64)> = {
                let mut v: Vec<(String, u64)> = self
                    .phase_txn
                    .iter()
                    .filter(|(mi, _, _)| *mi == m.index())
                    .map(|(_, p, n)| (p.clone(), *n))
                    .collect();
                v.sort();
                v
            };
            machines.push(MachineReport {
                machine: m,
                universe: t.universe,
                visited: t.visits.len() as u64,
                total_visits,
                dropped_visits: t.dropped_visits,
                hot,
                hot_share,
                cold,
                dead,
                total_transitions: t.total_transitions(),
                distinct_edges: t.transitions.len() as u64,
                cache_hits: t.cache_hits.values().sum(),
                cache_misses: t.cache_misses.values().sum(),
                phases,
            });
        }
        ScopeReport { machines }
    }
}

impl Observer for ScopeProfiler {
    #[inline]
    fn count(&mut self, counter: Counter, n: u64) {
        // Per-state cache attribution: credit the state the engine was
        // resolving when the cache answered.
        let map_kind = match counter {
            Counter::CacheHits => true,
            Counter::CacheMisses => false,
            _ => return,
        };
        if let Some((m, q)) = self.last {
            let t = &mut self.tables[m.index()];
            let (map, dropped) = if map_kind {
                (&mut t.cache_hits, &mut t.dropped_visits)
            } else {
                (&mut t.cache_misses, &mut t.dropped_visits)
            };
            // Cache maps share the state cap; eviction mass is negligible
            // here, so drops fold into the visit account.
            bump(map, q, n, self.state_cap, dropped);
        }
    }

    #[inline]
    fn record(&mut self, series: Series, value: u64) {
        if series == Series::MachineStates {
            self.pending_universe = Some(value);
        }
    }

    #[inline]
    fn phase_start(&mut self, name: &'static str) {
        self.phase_stack.push(name);
    }

    #[inline]
    fn phase_end(&mut self, name: &'static str) {
        if let Some(i) = self.phase_stack.iter().rposition(|p| *p == name) {
            self.phase_stack.remove(i);
        }
    }

    #[inline]
    fn state_visit(&mut self, machine: Machine, state: u32, sym: u32) {
        if let Some(u) = self.pending_universe {
            self.pending_universe = None;
            self.declare_universe(machine, u);
        }
        self.last = Some((machine, state));
        if self.dense_ok && (state as usize) < DENSE_STATES && (sym as usize) < DENSE_SYMS {
            let d = &mut self.dense[machine.index()];
            if d.visits.is_empty() {
                d.visits = vec![0; DENSE_STATES];
                d.heat = vec![0; DENSE_CELLS];
            }
            d.visits[state as usize] += 1;
            d.heat[state as usize * DENSE_SYMS + sym as usize] += 1;
            return;
        }
        let t = &mut self.tables[machine.index()];
        bump(
            &mut t.visits,
            state,
            1,
            self.state_cap,
            &mut t.dropped_visits,
        );
        bump(
            &mut t.heat,
            (state, sym),
            1,
            self.edge_cap,
            &mut t.dropped_heat,
        );
    }

    #[inline]
    fn transition_fired(&mut self, machine: Machine, from: u32, sym: u32, to: u32) {
        'table: {
            if self.dense_ok && (from as usize) < DENSE_STATES && (sym as usize) < DENSE_SYMS {
                let d = &mut self.dense[machine.index()];
                if d.txn_cnt.is_empty() {
                    d.txn_cnt = vec![0; DENSE_CELLS];
                    d.txn_to = vec![DenseScope::NO_TARGET; DENSE_CELLS];
                }
                let cell = from as usize * DENSE_SYMS + sym as usize;
                if d.txn_to[cell] == to {
                    d.txn_cnt[cell] += 1;
                    break 'table;
                }
                if d.txn_to[cell] == DenseScope::NO_TARGET {
                    d.txn_to[cell] = to;
                    d.txn_cnt[cell] = 1;
                    break 'table;
                }
                // A second target for this (from, sym): nondeterministic
                // simulation — fall through to the sparse map.
            }
            let t = &mut self.tables[machine.index()];
            bump(
                &mut t.transitions,
                (from, sym, to),
                1,
                self.edge_cap,
                &mut t.dropped_transitions,
            );
        }
        self.bump_phase(machine.index(), 1);
    }
}

/// The per-machine summary computed by [`ScopeProfiler::explain_run`].
#[derive(Clone, Debug)]
pub struct MachineReport {
    /// Which engine.
    pub machine: Machine,
    /// Declared automaton size, when known.
    pub universe: Option<u64>,
    /// Distinct states visited (tracked; evicted states not counted).
    pub visited: u64,
    /// Total visits including evicted mass.
    pub total_visits: u64,
    /// Visit mass evicted by the heavy-hitter cap.
    pub dropped_visits: u64,
    /// Top states by visits, heaviest first (at most [`HOT_TOP_K`]).
    pub hot: Vec<(u32, u64)>,
    /// Share of the hottest state in all visits.
    pub hot_share: f64,
    /// Visited states with share below [`COLD_SHARE`].
    pub cold: Vec<u32>,
    /// States declared but never visited (only when the universe is known)
    /// — the minimization target for the compiled engine.
    pub dead: Option<Vec<u32>>,
    /// Total fired transitions including evicted mass.
    pub total_transitions: u64,
    /// Distinct `(from, symbol, to)` edges tracked.
    pub distinct_edges: u64,
    /// Behavior-cache hits attributed to this machine's states.
    pub cache_hits: u64,
    /// Behavior-cache misses attributed to this machine's states.
    pub cache_misses: u64,
    /// Transitions fired per phase, sorted by phase name.
    pub phases: Vec<(String, u64)>,
}

/// The `EXPLAIN ANALYZE` output: one [`MachineReport`] per engine that saw
/// events, in dense machine order.
#[derive(Clone, Debug, Default)]
pub struct ScopeReport {
    /// Per-machine summaries, in [`Machine`] index order.
    pub machines: Vec<MachineReport>,
}

impl ScopeReport {
    /// Serialize as a deterministic JSON document.
    pub fn to_json(&self) -> String {
        let machines = self.machines.iter().map(|r| {
            json::object(|w| {
                w.field_str("machine", r.machine.name());
                if let Some(u) = r.universe {
                    w.field_u64("universe", u);
                }
                w.field_u64("visited_states", r.visited);
                w.field_u64("total_visits", r.total_visits);
                w.field_u64("dropped_visits", r.dropped_visits);
                w.field_raw(
                    "hot",
                    &json::array(r.hot.iter().map(|&(q, n)| format!("[{q},{n}]"))),
                );
                w.field_f64("hot_share", r.hot_share);
                w.field_raw("cold", &json::array(r.cold.iter().map(|q| q.to_string())));
                if let Some(dead) = &r.dead {
                    w.field_raw("dead", &json::array(dead.iter().map(|q| q.to_string())));
                }
                w.field_u64("total_transitions", r.total_transitions);
                w.field_u64("distinct_edges", r.distinct_edges);
                w.field_u64("cache_hits", r.cache_hits);
                w.field_u64("cache_misses", r.cache_misses);
                w.field_raw(
                    "phases",
                    &json::array(r.phases.iter().map(|(p, n)| {
                        let mut s = String::from("[");
                        json::push_str(&mut s, p);
                        s.push(',');
                        s.push_str(&n.to_string());
                        s.push(']');
                        s
                    })),
                );
            })
        });
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.field_raw("machines", &json::array(machines));
        w.finish();
        out
    }

    /// Render as the human-facing `EXPLAIN ANALYZE` text block.
    pub fn render_text(&self) -> String {
        let mut out = String::from("EXPLAIN ANALYZE (scope)\n");
        if self.machines.is_empty() {
            out.push_str("  (no profiled machines — was a ScopeProfiler attached?)\n");
            return out;
        }
        for r in &self.machines {
            out.push_str(&format!("machine {}:", r.machine.name()));
            match r.universe {
                Some(u) => out.push_str(&format!(" {u} states declared,")),
                None => out.push_str(" size undeclared,"),
            }
            out.push_str(&format!(" {} visited", r.visited));
            if let Some(dead) = &r.dead {
                out.push_str(&format!(" ({} dead", dead.len()));
                if !dead.is_empty() && dead.len() <= 8 {
                    out.push_str(": ");
                    out.push_str(
                        &dead
                            .iter()
                            .map(|q| format!("q{q}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                    );
                }
                out.push(')');
            }
            out.push_str(&format!(", {} cold\n", r.cold.len()));
            out.push_str(&format!(
                "  visits {} ({} dropped)",
                r.total_visits, r.dropped_visits
            ));
            if !r.hot.is_empty() {
                out.push_str(", hot ");
                out.push_str(
                    &r.hot
                        .iter()
                        .take(3)
                        .map(|&(q, n)| {
                            let share = if r.total_visits == 0 {
                                0.0
                            } else {
                                100.0 * n as f64 / r.total_visits as f64
                            };
                            format!("q{q} {share:.1}%")
                        })
                        .collect::<Vec<_>>()
                        .join(" | "),
                );
            }
            out.push('\n');
            out.push_str(&format!(
                "  transitions {} across {} edges",
                r.total_transitions, r.distinct_edges
            ));
            if !r.phases.is_empty() {
                out.push_str("; by phase: ");
                out.push_str(
                    &r.phases
                        .iter()
                        .map(|(p, n)| format!("{p} {n}"))
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
            out.push('\n');
            if r.cache_hits + r.cache_misses > 0 {
                let rate = 100.0 * r.cache_hits as f64 / (r.cache_hits + r.cache_misses) as f64;
                out.push_str(&format!(
                    "  cache: {} hits / {} misses ({rate:.1}% hit rate)\n",
                    r.cache_hits, r.cache_misses
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_obs::NoopObserver;

    fn feed(scope: &mut ScopeProfiler) {
        for i in 0..5u32 {
            for _ in 0..(10 - i) {
                scope.state_visit(Machine::TwoDfa, i, 2);
                scope.transition_fired(Machine::TwoDfa, i, 2, (i + 1) % 5);
            }
        }
        scope.declare_universe(Machine::TwoDfa, 8);
    }

    #[test]
    fn report_finds_hot_dead_and_cold() {
        let mut scope = ScopeProfiler::new();
        feed(&mut scope);
        // one very cold state
        for _ in 0..10_000 {
            scope.state_visit(Machine::Qar, 0, 0);
        }
        scope.state_visit(Machine::Qar, 1, 0);
        let report = scope.explain_run();
        let two = &report.machines[0];
        assert_eq!(two.machine, Machine::TwoDfa);
        assert_eq!(two.universe, Some(8));
        assert_eq!(two.visited, 5);
        assert_eq!(two.dead.as_deref(), Some(&[5, 6, 7][..]));
        assert_eq!(two.hot[0], (0, 10));
        let qar = &report.machines[1];
        assert_eq!(qar.machine, Machine::Qar);
        assert_eq!(qar.cold, vec![1]);
        assert!(qar.hot_share > 0.99);
    }

    #[test]
    fn merge_is_commutative_and_serialization_is_stable() {
        let mut a = ScopeProfiler::new();
        feed(&mut a);
        let mut b = ScopeProfiler::new();
        b.state_visit(Machine::Dbtau, 3, 1);
        b.transition_fired(Machine::Dbtau, 3, 1, 0);
        b.phase_start("run");
        b.transition_fired(Machine::Dbtau, 0, 1, 3);
        b.phase_end("run");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.to_collapsed(), ba.to_collapsed());

        // round-trip through scope.json preserves the serialization
        let parsed = ScopeProfiler::from_json(&ab.to_json()).unwrap();
        assert_eq!(parsed.to_json(), ab.to_json());
    }

    #[test]
    fn heavy_hitter_cap_conserves_totals() {
        let mut scope = ScopeProfiler::with_caps(4, 4);
        // 100 distinct states, state i visited i+1 times: heavy tail.
        let mut total = 0u64;
        for i in 0..100u32 {
            for _ in 0..=i {
                scope.state_visit(Machine::TwoDfa, i, 0);
                total += 1;
            }
        }
        let t = scope.machine(Machine::TwoDfa);
        assert_eq!(t.visits.len(), 4, "cap bounds distinct states");
        assert_eq!(t.total_visits(), total, "kept + dropped == true total");
        assert!(t.dropped_visits > 0);
        // the final heavy hitters survive the Space-Saving eviction
        assert!(t.visits.contains_key(&99));
        let report = scope.explain_run();
        assert_eq!(report.machines[0].total_visits, total);
    }

    #[test]
    fn cache_attribution_follows_last_visit() {
        let mut scope = ScopeProfiler::new();
        // no visit yet: unattributable counts are dropped silently
        scope.count(Counter::CacheHits, 1);
        scope.state_visit(Machine::Qau, 7, 0);
        scope.count(Counter::CacheHits, 3);
        scope.count(Counter::CacheMisses, 2);
        let t = scope.machine(Machine::Qau);
        assert_eq!(t.cache_hits.get(&7), Some(&3));
        assert_eq!(t.cache_misses.get(&7), Some(&2));
        let report = scope.explain_run();
        assert_eq!(report.machines[0].cache_hits, 3);
        assert_eq!(report.machines[0].cache_misses, 2);
    }

    #[test]
    fn machine_states_record_declares_the_universe() {
        let mut scope = ScopeProfiler::new();
        scope.record(Series::MachineStates, 12);
        scope.state_visit(Machine::Dbtar, 2, 0);
        assert_eq!(scope.machine(Machine::Dbtar).universe, Some(12));
        // the record is claimed once, by the first visit only
        scope.state_visit(Machine::Qar, 0, 0);
        assert!(scope.machine(Machine::Qar).universe.is_none());
        // a record with no subsequent visit stays inert
        let mut idle = ScopeProfiler::new();
        idle.record(Series::MachineStates, 5);
        assert!(idle.machine(Machine::Dbtar).universe.is_none());
    }

    #[test]
    fn text_and_collapsed_render() {
        let mut scope = ScopeProfiler::new();
        feed(&mut scope);
        let text = scope.explain_run().render_text();
        assert!(text.contains("machine twodfa"), "{text}");
        assert!(text.contains("8 states declared"), "{text}");
        let collapsed = scope.to_collapsed();
        assert!(collapsed.contains("twodfa;q0 10\n"), "{collapsed}");
        // empty profiler renders the hint, not a panic
        let empty = ScopeProfiler::new().explain_run().render_text();
        assert!(empty.contains("no profiled machines"));
        let _ = NoopObserver; // silence unused import on feature-less builds
    }
}
