//! `qa-fleet`: batch runner with always-on telemetry.
//!
//! Runs M example queries × K generated documents, each under a
//! [`Watchdog`] with a [`FlightRecorder`] black box, aggregates per-run
//! [`Metrics`] into one fleet profile, and exports:
//!
//! - `metrics.prom` — Prometheus text exposition of the merged registry
//!   (plus `qa_build_info` and `qa_heap_*` gauges, via `qa-pulse`);
//! - `profile.folded` — collapsed-stack span profile of all runs, ready
//!   for `flamegraph.pl` / inferno;
//! - `trace-<i>.json` — Chrome trace-event (Perfetto) exports of a
//!   deterministic reservoir sample of full run traces;
//! - `events.jsonl` — one wide [`JobEvent`] line per job, in global job
//!   order, with trace/span ids minted deterministically from
//!   `(run_id, job)` ([`qa_obs::TraceContext`]): the identity fields are
//!   byte-identical across reruns and `--jobs N` (only the trailing
//!   worker/shard/wall-clock fields vary);
//! - `fleet-trace.json` — the job events assembled into one Chrome
//!   trace-event timeline ([`trace::fleet_trace`]), with
//!   `process_name`/`thread_name` metadata so Perfetto labels tracks;
//! - `summary.txt` — per-query table plus fleet-wide step/latency
//!   percentiles (also printed to stdout);
//! - `scope.json` / `scope.folded` / `explain.txt` — with `--scope`, the
//!   merged per-state execution profile ([`qa_scope::ScopeProfiler`]):
//!   visit histograms and transition heatmaps per machine, the
//!   collapsed-stack rendering, and the `EXPLAIN ANALYZE` report.
//!   Per-run profilers are deterministic and the merge is commutative, so
//!   all three files are **byte-identical** across reruns and `--jobs N`;
//! - `postmortem.txt` — flight-recorder dump of the first failed run, if
//!   any run tripped its budget or errored; with `--slo`, also the names
//!   of any alerts still firing at batch end;
//! - `alerts.log` — with `--slo RULES`, the deterministic alert-transition
//!   log: after the batch every job is replayed through a
//!   `qa_sentinel::Replay` in global job order (one logical tick per job),
//!   so the file is byte-identical across reruns and `--jobs N`. Any alert firing at the end of the replay is named in
//!   `postmortem.txt` and makes the fleet exit 1.
//!
//! With `--serve ADDR` a [`PulseServer`] binds next to the batch and
//! answers `GET /healthz`, `/readyz`, `/metrics`, `/flight`, `/events`,
//! `/profile` — plus `/series` and `/alerts` when `--slo` attaches a live
//! sentinel — *while the fleet runs*: each run's registry is merged into
//! the served fleet registry as the run finishes (run-granularity
//! freshness at zero per-event cost), and per-run observers additionally
//! feed a [`SharedFlight`] ring behind `/flight`. A post-run `/metrics` scrape is
//! byte-identical to `metrics.prom`: both come from the same render over
//! the same registry. The stdout lines `pulse: serving on <addr>` and
//! `pulse: run complete` let scripts coordinate with a live fleet;
//! `--pace-ms` throttles jobs (a scrape window for tests and demos) and
//! `--linger-ms` keeps the server up after the batch (until the deadline
//! or a `GET /quit`).
//!
//! Exit code 0 iff every run completed. Document generation and sampling
//! are seeded ([`qa_base::rng`]), so a fleet reruns identically: same
//! documents, same sampled runs, same step counts.
//!
//! With `--jobs N` (N > 1) runs are fanned out over the `qa-par`
//! work-stealing executor. The outputs stay **byte-identical** to
//! `--jobs 1` on the same seed: sampling flags are pre-drawn in job order,
//! outcomes land in indexed slots, reservoir offers happen in job order
//! after the batch, and the merged metrics are commutative counter sums.
//! (`summary.txt` therefore carries no wall-clock line; latency
//! percentiles go to stdout only.) If any run fails, a partial
//! `summary.txt`/`metrics.prom` is flushed immediately, so a later hang or
//! kill still leaves telemetry on disk.
//!
//! With `--scrape-every-ms MS` (and `--slo`) a background loop
//! additionally scrapes the in-process fleet registry into the live
//! sentinel on a wall-clock cadence — the ops-facing feed behind
//! `/series` and `/alerts`; its transitions land in the flight ring but
//! never decide the exit code (the post-batch replay does).
//!
//! With `--scope --serve ADDR` the live surface additionally answers
//! `GET /explain` (`?query=NAME` filters to one workload,
//! `?format=json` switches from the text block to the report JSON).
//!
//! ```text
//! qa-fleet [--queries M] [--docs K] [--size N] [--sweep] [--seed S]
//!          [--jobs N] [--sample-every N] [--reservoir K] [--scope]
//!          [--max-steps N] [--max-wall-ms MS] [--out-dir DIR] [--smoke]
//!          [--serve ADDR] [--pace-ms MS] [--linger-ms MS]
//!          [--slo RULES] [--scrape-every-ms MS]
//! ```
//!
//! `--sweep` scales each document's size by its doc index (doc `di` gets
//! `size × (di + 1)` nodes), turning one fleet into a growth experiment:
//! `qa-trace analyze growth` over the resulting `events.jsonl` fits
//! steps-vs-size exponents per query.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qa_base::rng::{Rng, StdRng};
use qa_base::{Alphabet, Error, Symbol};
use qa_core::ranked::query::example_4_4;
use qa_core::unranked::query::{example_5_14, example_5_9};
use qa_flight::{
    Budget, FlightRecorder, JobEvent, OneInN, Reservoir, Sampled, SharedEvents, SharedFlight,
    Watchdog,
};
use qa_obs::{percentile_sorted, Counter, Metrics, NoopObserver, RunTrace, Tee, TraceContext};
use qa_probe::export::chrome_trace;
use qa_pulse::{PulseServer, PulseState, SpanProfile, SpanProfiler, Weight};
use qa_scope::ScopeProfiler;
use qa_sentinel::{parse_rules, AlertRule, JobStats, Replay, SharedSentinel};
use qa_trees::Tree;
use qa_twoway::string_qa::example_3_4_qa;

mod trace;

// Opt-in heap accounting: build with `--features alloc-count` and every
// `qa_heap_*` gauge on `/metrics` (and the `?weight=alloc` profile) goes
// live. The default build keeps the untouched system allocator.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: qa_pulse::CountingAlloc = qa_pulse::CountingAlloc::new();

/// Placement fields stamped on every wide event: one in-process worker
/// holding the whole (single) shard.
const WORKER: &str = "local";
const SHARD: &str = "0/1";

/// One finished run's slot: the outcome, its sampled trace (if any), and
/// its wide event.
type RunSlot = Option<(RunOutcome, Option<RunTrace>, JobEvent)>;

const USAGE: &str = "usage:
  qa-fleet [--queries M] [--docs K] [--size N] [--sweep] [--seed S]
           [--jobs N] [--sample-every N] [--reservoir K] [--scope]
           [--max-steps N] [--max-wall-ms MS] [--out-dir DIR] [--smoke]
           [--serve ADDR] [--pace-ms MS] [--linger-ms MS]
           [--slo RULES] [--scrape-every-ms MS]

queries cycle through the paper's running examples:
  example-3-4 (string), example-4-4 (ranked circuit),
  example-5-9 (unranked circuit), example-5-14 (stay transitions)

--sweep scales doc sizes by doc index (doc di gets size x (di+1)), the
input shape `qa-trace analyze growth` fits step-growth exponents from.

--scope attaches a per-state execution profiler to every run and exports
scope.json (raw visit/transition tables), scope.folded (collapsed-stack
state heatmap) and explain.txt (EXPLAIN ANALYZE report) — byte-identical
across --jobs N; with --serve, GET /explain answers live
(?query=NAME filters to one workload, ?format=json for the report JSON).

--serve binds a live ops HTTP server (try ADDR 127.0.0.1:0) answering
/healthz /readyz /metrics /flight /events /profile /quit during the run;
--pace-ms sleeps between jobs (a scrape window), --linger-ms keeps the
server up after the batch until the deadline or a GET /quit.

--slo RULES loads a qa-sentinel alert rules file; after the batch every
job is replayed through the alert engine in global job order (alerts.log,
deterministic), firing alerts are named in postmortem.txt and make the
fleet exit 1. --scrape-every-ms MS adds a live wall-clock scrape loop
feeding the /series and /alerts endpoints while the batch runs.";

struct Opts {
    queries: usize,
    docs: usize,
    size: usize,
    /// Scale doc sizes by doc index (`size * (di + 1)`), for growth fits.
    sweep: bool,
    seed: u64,
    jobs: usize,
    sample_every: u64,
    reservoir: usize,
    /// Attach a per-state [`ScopeProfiler`] to every run and export
    /// `scope.json` / `scope.folded` / `explain.txt` (plus `/explain`
    /// with `--serve`).
    scope: bool,
    max_steps: u64,
    max_wall: Duration,
    out_dir: String,
    serve: Option<String>,
    pace_ms: u64,
    linger_ms: u64,
    /// Alert rules file (`qa_sentinel::parse_rules` format).
    slo: Option<String>,
    /// Live scrape-loop period; 0 disables the wall-clock loop.
    scrape_every_ms: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            queries: 4,
            docs: 25,
            size: 256,
            sweep: false,
            seed: 1,
            jobs: 1,
            sample_every: 8,
            reservoir: 4,
            scope: false,
            max_steps: 10_000_000,
            max_wall: Duration::from_millis(10_000),
            out_dir: "fleet-out".to_string(),
            serve: None,
            pace_ms: 0,
            linger_ms: 0,
            slo: None,
            scrape_every_ms: 0,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    let val = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> Result<String, String> {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--queries" => o.queries = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--docs" => o.docs = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--size" => o.size = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--sweep" => o.sweep = true,
            "--seed" => o.seed = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--jobs" => o.jobs = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--sample-every" => {
                o.sample_every = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--reservoir" => {
                o.reservoir = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--scope" => o.scope = true,
            "--max-steps" => {
                o.max_steps = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-wall-ms" => {
                o.max_wall =
                    Duration::from_millis(val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out-dir" => o.out_dir = val(&mut it, arg)?,
            "--serve" => o.serve = Some(val(&mut it, arg)?),
            "--pace-ms" => o.pace_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?,
            "--linger-ms" => {
                o.linger_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--slo" => o.slo = Some(val(&mut it, arg)?),
            "--scrape-every-ms" => {
                o.scrape_every_ms = val(&mut it, arg)?.parse().map_err(|e| format!("{e}"))?
            }
            "--smoke" => {
                o.queries = 4;
                o.docs = 3;
                o.size = 48;
                o.sample_every = 2;
                o.reservoir = 2;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if o.queries == 0 || o.docs == 0 || o.size == 0 || o.jobs == 0 {
        return Err("--queries, --docs, --size and --jobs must be >= 1".to_string());
    }
    Ok(o)
}

/// The run id: a pure function of the corpus flags. Trace/span ids derive
/// from `(run_id, job)`, so the `events.jsonl` identity fields are
/// byte-identical across reruns and `--jobs N` on the same corpus.
fn run_id(o: &Opts) -> String {
    format!(
        "fleet-s{}-q{}x{}-z{}{}",
        o.seed,
        o.queries,
        o.docs,
        o.size,
        if o.sweep { "-sweep" } else { "" }
    )
}

/// Size of document `di` in the corpus: constant without `--sweep`,
/// scaled by the doc index with it.
fn doc_size(o: &Opts, di: usize) -> usize {
    if o.sweep {
        o.size * (di + 1)
    } else {
        o.size
    }
}

/// The document a query runs over.
enum Doc {
    Word(Vec<Symbol>),
    Tree(Tree),
}

impl Doc {
    fn len(&self) -> usize {
        match self {
            Doc::Word(w) => w.len(),
            Doc::Tree(t) => t.num_nodes(),
        }
    }

    /// Document height: 0 for words (flat), tree height otherwise.
    fn depth(&self) -> usize {
        match self {
            Doc::Word(_) => 0,
            Doc::Tree(t) => t.height(),
        }
    }
}

/// One roster entry: a named example query plus its document generator.
struct Workload {
    name: &'static str,
    query: QueryKind,
}

enum QueryKind {
    String(Box<qa_twoway::StringQa>),
    Ranked(Box<qa_core::ranked::RankedQa>),
    Unranked(Box<qa_core::unranked::UnrankedQa>),
}

fn binary_alphabet() -> Alphabet {
    Alphabet::from_names(["0", "1"])
}

fn circuit_alphabet() -> Alphabet {
    Alphabet::from_names(["AND", "OR", "0", "1"])
}

fn roster() -> Vec<Workload> {
    let bin = binary_alphabet();
    let circ = circuit_alphabet();
    vec![
        Workload {
            name: "example-3-4",
            query: QueryKind::String(Box::new(example_3_4_qa(&bin))),
        },
        Workload {
            name: "example-4-4",
            query: QueryKind::Ranked(Box::new(example_4_4(&circ))),
        },
        Workload {
            name: "example-5-9",
            query: QueryKind::Unranked(Box::new(example_5_9(&circ))),
        },
        Workload {
            name: "example-5-14",
            query: QueryKind::Unranked(Box::new(example_5_14(&bin))),
        },
    ]
}

/// Deterministic document for `(workload, seed)`.
fn generate_doc(name: &str, size: usize, seed: u64) -> Doc {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "example-3-4" => Doc::Word(
            (0..size)
                .map(|_| Symbol::from_index(rng.gen_range(0..2)))
                .collect(),
        ),
        "example-4-4" => {
            let a = circuit_alphabet();
            Doc::Tree(qa_trees::generate::random_full_binary(
                &mut rng,
                &[a.symbol("AND"), a.symbol("OR")],
                &[a.symbol("0"), a.symbol("1")],
                size / 2,
            ))
        }
        "example-5-9" => {
            // Variadic circuit: grow a random shape, then relabel inner
            // nodes AND/OR and leaves 0/1 so every node evaluates.
            let a = circuit_alphabet();
            let mut t = qa_trees::generate::random(&mut rng, &[a.symbol("0")], size, None);
            for v in t.nodes().collect::<Vec<_>>() {
                let label = if t.is_leaf(v) {
                    if rng.gen_bool(0.5) {
                        a.symbol("0")
                    } else {
                        a.symbol("1")
                    }
                } else if rng.gen_bool(0.5) {
                    a.symbol("AND")
                } else {
                    a.symbol("OR")
                };
                t.set_label(v, label);
            }
            Doc::Tree(t)
        }
        "example-5-14" => Doc::Tree(qa_trees::generate::random(
            &mut rng,
            &[Symbol::from_index(0), Symbol::from_index(1)],
            size,
            None,
        )),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Outcome of one fleet run.
struct RunOutcome {
    workload: &'static str,
    doc_nodes: usize,
    steps: u64,
    reversals: u64,
    cache_hits: u64,
    cache_misses: u64,
    budget_trips: u64,
    latency: Duration,
    selected: usize,
    sampled: bool,
    error: Option<Error>,
    /// Post-mortem dump, present when the run failed.
    dump: Option<String>,
}

/// Per-workload aggregate for the summary table.
#[derive(Default)]
struct QueryStats {
    runs: u64,
    failed: u64,
    steps: u64,
    selected: u64,
}

fn run_one(
    wl: &Workload,
    doc: &Doc,
    budget: Budget,
    sampled: bool,
    scope: bool,
    fleet: &Metrics,
    live: Option<&SharedFlight>,
) -> (
    RunOutcome,
    Option<RunTrace>,
    SpanProfile,
    Option<ScopeProfiler>,
) {
    let run_metrics = Metrics::new();
    let trace_arm = if sampled {
        Sampled::Full(RunTrace::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    // With --serve, events additionally feed the shared /flight ring so a
    // mid-run scrape shows the current event tail. Metrics stay per-run
    // and are merged into the fleet registry at run end — run-granularity
    // freshness for /metrics, at zero per-event cost.
    let live_arm = match live {
        Some(shared) => Sampled::Full(shared.clone()),
        None => Sampled::Light(NoopObserver),
    };
    // The per-state profiler is per-run (single-threaded, deterministic);
    // merging at run end keeps scope.json independent of job interleaving.
    let scope_arm = if scope {
        Sampled::Full(ScopeProfiler::new())
    } else {
        Sampled::Light(NoopObserver)
    };
    let mut obs = Watchdog::new(
        Tee(
            FlightRecorder::with_capacity(256),
            Tee(
                run_metrics.observer(),
                Tee(
                    trace_arm,
                    Tee(SpanProfiler::new(), Tee(scope_arm, live_arm)),
                ),
            ),
        ),
        budget,
    );

    let t0 = Instant::now();
    let result = match (&wl.query, doc) {
        (QueryKind::String(q), Doc::Word(w)) => q.query_with(w, &mut obs).map(|sel| sel.len()),
        (QueryKind::Ranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        (QueryKind::Unranked(q), Doc::Tree(t)) => q.query_with(t, &mut obs).map(|sel| sel.len()),
        _ => unreachable!("workload/document kind mismatch"),
    };
    let latency = t0.elapsed();

    let Tee(recorder, Tee(_, Tee(trace_arm, Tee(profiler, Tee(scope_arm, _))))) = obs.into_inner();
    let trace = trace_arm.full();
    let scope_profile = scope_arm.full();
    let (selected, error, dump) = match result {
        Ok(n) => (n, None, None),
        Err(e) => {
            let mut dump = format!("workload: {}\nerror: {e}\n\n", wl.name);
            dump.push_str(&recorder.dump());
            (0, Some(e), Some(dump))
        }
    };
    // Every completed run is one job — the denominator burn-rate SLOs
    // divide error counters by.
    run_metrics.count(Counter::Jobs, 1);
    let outcome = RunOutcome {
        workload: wl.name,
        doc_nodes: doc.len(),
        steps: run_metrics.get(Counter::Steps),
        reversals: run_metrics.get(Counter::HeadReversals),
        cache_hits: run_metrics.get(Counter::CacheHits),
        cache_misses: run_metrics.get(Counter::CacheMisses),
        budget_trips: run_metrics.get(Counter::BudgetTrips),
        latency,
        selected,
        sampled,
        error,
        dump,
    };
    fleet.merge(&run_metrics);
    (outcome, trace, profiler.into_profile(), scope_profile)
}

/// Render the fleet summary. With `include_latency` the wall-clock
/// percentile line is appended — that variant goes to stdout only, so the
/// `summary.txt` on disk is byte-identical across reruns and `--jobs`
/// settings.
fn render_summary(
    opts: &Opts,
    outcomes: &[&RunOutcome],
    stats: &[(&'static str, QueryStats)],
    include_latency: bool,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qa-fleet: {} run(s) = {} query kind(s) x {} doc(s), size {}, seed {}",
        outcomes.len(),
        opts.queries,
        opts.docs,
        opts.size,
        opts.seed
    );
    let _ = writeln!(
        out,
        "{:<14} {:>5} {:>7} {:>12} {:>10} {:>10}",
        "query", "runs", "failed", "steps", "sel/run", "steps/run"
    );
    for (name, st) in stats {
        let _ = writeln!(
            out,
            "{:<14} {:>5} {:>7} {:>12} {:>10.1} {:>10.1}",
            name,
            st.runs,
            st.failed,
            st.steps,
            st.selected as f64 / st.runs.max(1) as f64,
            st.steps as f64 / st.runs.max(1) as f64
        );
    }

    let mut steps: Vec<u64> = outcomes.iter().map(|o| o.steps).collect();
    steps.sort_unstable();
    let _ = writeln!(
        out,
        "steps   p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
        percentile_sorted(&steps, 0.50),
        percentile_sorted(&steps, 0.90),
        percentile_sorted(&steps, 0.99),
        steps.last().copied().unwrap_or(0)
    );
    if include_latency {
        let mut lat: Vec<u64> = outcomes
            .iter()
            .map(|o| o.latency.as_nanos() as u64)
            .collect();
        lat.sort_unstable();
        let _ = writeln!(
            out,
            "lat(ns) p50 {:>8}  p90 {:>8}  p99 {:>8}  max {:>8}",
            percentile_sorted(&lat, 0.50),
            percentile_sorted(&lat, 0.90),
            percentile_sorted(&lat, 0.99),
            lat.last().copied().unwrap_or(0)
        );
    }
    let sampled = outcomes.iter().filter(|o| o.sampled).count();
    let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
    let _ = writeln!(
        out,
        "sampled {} of {} run(s); {} failed",
        sampled,
        outcomes.len(),
        failed
    );
    out
}

/// Aggregate outcomes per query kind, in first-seen (= roster) order.
fn build_stats(outcomes: &[&RunOutcome]) -> Vec<(&'static str, QueryStats)> {
    let mut stats: Vec<(&'static str, QueryStats)> = Vec::new();
    for o in outcomes {
        let entry = match stats.iter_mut().find(|(n, _)| *n == o.workload) {
            Some((_, st)) => st,
            None => {
                stats.push((o.workload, QueryStats::default()));
                &mut stats.last_mut().unwrap().1
            }
        };
        entry.runs += 1;
        entry.failed += u64::from(o.error.is_some());
        entry.steps += o.steps;
        entry.selected += o.selected as u64;
    }
    stats
}

/// Best-effort flush of `summary.txt` and `metrics.prom` from the slots
/// filled so far. Called under the slots lock the moment a run fails, so a
/// later hang or kill still leaves telemetry on disk; the normal exit path
/// overwrites both files with the complete versions.
fn flush_partial(opts: &Opts, out_dir: &Path, slots: &[RunSlot], state: &PulseState) {
    let done: Vec<&RunOutcome> = slots.iter().flatten().map(|(o, _, _)| o).collect();
    let stats = build_stats(&done);
    let mut summary = render_summary(opts, &done, &stats, false);
    use std::fmt::Write;
    let _ = writeln!(
        summary,
        "PARTIAL: {} of {} run(s) flushed after a failure",
        done.len(),
        slots.len()
    );
    for (name, contents) in [
        ("summary.txt", summary),
        ("metrics.prom", state.metrics_text()),
    ] {
        if let Err(e) = std::fs::write(out_dir.join(name), contents) {
            eprintln!("cannot write partial {name}: {e}");
        }
    }
}

/// Merge every per-workload profiler into one fleet-wide profiler.
/// Commutative merges over sorted tables: the result is independent of
/// job interleaving.
fn merged_scope(scopes: &BTreeMap<String, ScopeProfiler>) -> ScopeProfiler {
    let mut merged = ScopeProfiler::new();
    for s in scopes.values() {
        merged.merge(s);
    }
    merged
}

/// The three `--scope` exports rendered from one merged profiler.
fn scope_exports(merged: &ScopeProfiler) -> [(&'static str, String); 3] {
    [
        ("scope.json", format!("{}\n", merged.to_json())),
        ("scope.folded", merged.to_collapsed()),
        ("explain.txt", merged.explain_run().render_text()),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // A bad rules file is an operator error (exit 2), caught before any
    // run starts.
    let slo_rules: Option<Vec<AlertRule>> = match &opts.slo {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("--slo {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_rules(&text) {
                Ok(rules) => Some(rules),
                Err(e) => {
                    eprintln!("--slo {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    let roster = roster();
    let budget = Budget::steps(opts.max_steps).with_wall(opts.max_wall);
    let fleet = Arc::new(Metrics::new());
    // The run id seeds the deterministic trace/span ids stamped into every
    // wide event.
    let run_id = run_id(&opts);
    // The pulse state exists even without --serve: it renders metrics.prom
    // and aggregates the span profile either way, and serving just exposes
    // the same state over HTTP.
    let state = PulseState::new(Arc::clone(&fleet), "qa_fleet");
    // The live sentinel exists when either flag asks for it: --slo alone
    // still wants /alerts and the post-batch replay; --scrape-every-ms
    // alone still records watchable /series rings.
    let sentinel = (slo_rules.is_some() || opts.scrape_every_ms > 0)
        .then(|| SharedSentinel::new(slo_rules.clone().unwrap_or_default()));
    if let Some(s) = &sentinel {
        let src = s.clone();
        state.set_series_source(Box::new(move |name, tail| src.series_json(name, tail)));
        let src = s.clone();
        state.set_alerts_source(Box::new(move || src.alerts_json()));
    }
    // The wide-event ring exists in every mode: the batch pushes each
    // job's event as it finishes (a live completion-order tail for
    // /events), and the post-batch pass writes events.jsonl in job order.
    let events_ring = SharedEvents::with_capacity((opts.queries * opts.docs).max(1));
    // Per-workload scope profilers, merged in as runs finish. Keyed by
    // workload name so /explain?query=NAME can answer per query; the
    // fleet-wide profile is the (commutative) merge of all values.
    let scopes: Arc<Mutex<BTreeMap<String, ScopeProfiler>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let mut shared_flight = None;
    let server = match &opts.serve {
        Some(addr) => {
            let shared = SharedFlight::with_capacity(1024);
            let source = shared.clone();
            state.set_flight_source(Box::new(move |tail| source.with(|r| r.to_json_tail(tail))));
            let ev_source = events_ring.clone();
            state.set_events_source(Box::new(move |tail| ev_source.tail_jsonl(tail)));
            if opts.scope {
                let src = Arc::clone(&scopes);
                state.set_explain_source(Box::new(move |query, json| {
                    let scopes = src.lock().expect("scope lock");
                    let render = |p: &ScopeProfiler| {
                        if json {
                            p.explain_run().to_json()
                        } else {
                            p.explain_run().render_text()
                        }
                    };
                    match query {
                        None => Some(render(&merged_scope(&scopes))),
                        Some(name) => scopes.get(name).map(render),
                    }
                }));
            }
            shared_flight = Some(shared);
            match PulseServer::serve(addr.as_str(), Arc::clone(&state)) {
                Ok(s) => {
                    // Stdout protocol line: scripts wait for this before
                    // scraping (stdout is line-buffered, so it arrives
                    // promptly even through a pipe).
                    println!("pulse: serving on {}", s.local_addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("cannot bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    // The output directory exists before any run starts, so a mid-batch
    // failure can flush partial telemetry.
    let out_dir = Path::new(&opts.out_dir);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", opts.out_dir);
        return ExitCode::from(2);
    }
    // Warmup (arg parsing, roster, out dir) is done: flip /readyz.
    state.set_ready();

    // Sampling flags are pre-drawn in job order: the OneInN stream is
    // consumed identically no matter how many threads run the jobs.
    let mut admit = OneInN::new(opts.seed, opts.sample_every);
    let total_jobs = opts.queries * opts.docs;
    let specs: Vec<(usize, usize, bool)> = (0..opts.queries)
        .flat_map(|qi| (0..opts.docs).map(move |di| (qi, di)))
        .map(|(qi, di)| (qi, di, admit.admit()))
        .collect();
    let fleet_t0 = Instant::now();

    // The live scrape loop: wall-clock cadence, ops-only. Transitions are
    // echoed onto the flight ring (when one exists) but never counted into
    // the fleet registry — metrics.prom must not depend on how fast the
    // wall clock moved — and never decide the exit code (the post-batch
    // replay does).
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_loop = match (&sentinel, opts.scrape_every_ms) {
        (Some(s), ms) if ms > 0 => {
            let s = s.clone();
            let stop = Arc::clone(&scrape_stop);
            let metrics = Arc::clone(&fleet);
            let flight = shared_flight.clone();
            Some(std::thread::spawn(move || {
                let period = Duration::from_millis(ms);
                while !stop.load(Ordering::Relaxed) {
                    let transitions = s.scrape(&metrics, "qa_fleet", &Vec::new());
                    if let Some(flight) = &flight {
                        for t in &transitions {
                            flight.alert(t.tick, t.rule as u32, t.from, t.to);
                        }
                    }
                    std::thread::sleep(period);
                }
            }))
        }
        _ => None,
    };

    // Outcomes land in indexed slots, so `--jobs N` yields the same vector
    // as `--jobs 1`; per-run metrics merge into `fleet` as commutative
    // counter sums. Slots are indexed by global job id.
    let slots: Mutex<Vec<RunSlot>> = Mutex::new((0..total_jobs).map(|_| None).collect());
    qa_par::par_batch(opts.jobs, specs, |_worker, (qi, di, sampled)| {
        let global = qi * opts.docs + di;
        let wl = &roster[qi % roster.len()];
        // Per-run seed: distinct per (query index, doc index), stable
        // across invocations with the same --seed.
        let doc_seed = opts
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((qi as u64) << 32 | di as u64);
        let doc = generate_doc(wl.name, doc_size(&opts, di), doc_seed);
        let doc_depth = doc.depth();
        let start_ns = fleet_t0.elapsed().as_nanos() as u64;
        let (outcome, trace, profile, scope_profile) = run_one(
            wl,
            &doc,
            budget,
            sampled,
            opts.scope,
            &fleet,
            shared_flight.as_ref(),
        );
        state.merge_profile(&profile);
        if let Some(sp) = scope_profile {
            scopes
                .lock()
                .expect("scope lock")
                .entry(wl.name.to_string())
                .or_default()
                .merge(&sp);
        }
        // The wide event: identity fields derive only from (run_id, job,
        // corpus, counters), so they match byte for byte across --jobs N;
        // placement and wall-clock ride in the volatile tail.
        let ctx = TraceContext::mint(&run_id, global);
        let event = JobEvent {
            run: run_id.clone(),
            trace: ctx.trace_hex(),
            span: ctx.span_hex(),
            job: global,
            query: wl.name.to_string(),
            query_index: qi,
            doc_index: di,
            doc_nodes: outcome.doc_nodes,
            doc_depth,
            steps: outcome.steps,
            reversals: outcome.reversals,
            cache_hits: outcome.cache_hits,
            cache_misses: outcome.cache_misses,
            budget_trips: outcome.budget_trips,
            selected: outcome.selected,
            sampled,
            outcome: outcome
                .error
                .as_ref()
                .map(|e| format!("{e}"))
                .unwrap_or_else(|| "ok".to_string()),
            worker: WORKER.to_string(),
            shard: SHARD.to_string(),
            start_ns,
            wall_ns: outcome.latency.as_nanos() as u64,
        };
        events_ring.push(event.clone());
        let failed = outcome.error.is_some();
        {
            let mut slots = slots.lock().expect("slots lock");
            slots[global] = Some((outcome, trace, event));
            if failed {
                // A budget trip mid-batch must not strand the fleet without
                // telemetry: flush what finished so far (overwritten with
                // the complete exports on normal exit).
                flush_partial(&opts, out_dir, &slots, &state);
            }
        }
        if opts.pace_ms > 0 {
            std::thread::sleep(Duration::from_millis(opts.pace_ms));
        }
    });

    scrape_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = scrape_loop {
        let _ = handle.join();
    }

    // Reservoir offers happen in job order after the batch, so the sampled
    // trace set is independent of worker interleaving.
    let mut traces: Reservoir<(String, RunTrace)> = Reservoir::new(opts.seed, opts.reservoir);
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(total_jobs);
    // events.jsonl is written in global job order (the ring holds
    // completion order, for the live /events tail only), so the file's
    // identity projection is byte-identical across --jobs settings.
    let mut events_jsonl = String::new();
    let mut events: Vec<JobEvent> = Vec::with_capacity(total_jobs);
    for (i, slot) in slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .enumerate()
    {
        let (outcome, trace, event) = slot.expect("every job ran");
        if let Some(trace) = trace {
            traces.offer((format!("{}-doc{}", outcome.workload, i % opts.docs), trace));
        }
        events_jsonl.push_str(&event.to_json());
        events_jsonl.push('\n');
        events.push(event);
        outcomes.push(outcome);
    }

    // The authoritative alert pass: replay the batch one logical tick per
    // job, in global job order. Same seed + rules => byte-identical
    // alerts.log whatever --jobs ran the batch and however the wall clock
    // moved; this — not the live loop — names firing alerts and sets the
    // exit code. Runs before metrics.prom renders so the transition count
    // lands in the registry deterministically.
    let mut firing: Vec<String> = Vec::new();
    let mut alerts_log: Option<String> = None;
    if let Some(rules) = &slo_rules {
        let mut replay = Replay::new(rules.clone(), "qa_fleet");
        let mut transitions = 0u64;
        for outcome in &outcomes {
            transitions += replay
                .observe_job(&JobStats {
                    steps: outcome.steps,
                    reversals: outcome.reversals,
                    cache_hits: outcome.cache_hits,
                    cache_misses: outcome.cache_misses,
                    budget_trips: outcome.budget_trips,
                })
                .len() as u64;
        }
        fleet.count(Counter::AlertTransitions, transitions);
        firing = replay
            .engine()
            .firing()
            .iter()
            .map(|n| n.to_string())
            .collect();
        alerts_log = Some(replay.engine().render_log());
    }

    let refs: Vec<&RunOutcome> = outcomes.iter().collect();
    let stats = build_stats(&refs);
    let summary = render_summary(&opts, &refs, &stats, false);
    print!("{}", render_summary(&opts, &refs, &stats, true));

    let mut io_err = None;
    let mut write = |name: &str, contents: &str| {
        if let Err(e) = std::fs::write(out_dir.join(name), contents) {
            io_err = Some(format!("cannot write {name}: {e}"));
        }
    };
    write("summary.txt", &summary);
    write("metrics.prom", &state.metrics_text());
    write(
        "profile.folded",
        &state.profile_collapsed(Weight::WallNanos),
    );
    write("events.jsonl", &events_jsonl);
    write(
        "fleet-trace.json",
        &trace::fleet_trace(&run_id, WORKER, &events),
    );
    if opts.scope {
        let merged = merged_scope(&scopes.lock().expect("scope lock"));
        for (name, contents) in scope_exports(&merged) {
            write(name, &contents);
        }
    }
    for (i, (label, trace)) in traces.items().iter().enumerate() {
        write(&format!("trace-{i}.json"), &chrome_trace(trace));
        eprintln!("trace-{i}.json <- full trace of {label}");
    }
    if let Some(log) = &alerts_log {
        write("alerts.log", log);
    }
    // postmortem.txt collects everything that went wrong: the first failed
    // run's flight dump, then any SLO alerts still firing at batch end.
    let mut postmortem = String::new();
    if let Some(first_failed) = outcomes.iter().find(|o| o.error.is_some()) {
        postmortem.push_str(first_failed.dump.as_deref().unwrap_or("no dump recorded"));
        eprintln!(
            "postmortem.txt <- {} on a {}-node document",
            first_failed.workload, first_failed.doc_nodes
        );
    }
    if !firing.is_empty() {
        if !postmortem.is_empty() {
            postmortem.push('\n');
        }
        postmortem.push_str("=== slo alerts firing at batch end ===\n");
        for rule in slo_rules.iter().flatten() {
            if firing.contains(&rule.name) {
                postmortem.push_str(&rule.render());
                postmortem.push('\n');
            }
        }
        eprintln!("postmortem.txt <- {} slo alert(s) firing", firing.len());
    }
    if !postmortem.is_empty() {
        write("postmortem.txt", &postmortem);
    }
    // All exports are on disk; tell any coordinating script the endpoints
    // now serve final data, then hold the server for the linger window (or
    // until a GET /quit stops the accept loop).
    if let Some(server) = server {
        println!("pulse: run complete");
        let deadline = Instant::now() + Duration::from_millis(opts.linger_ms);
        while server.is_running() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    if let Some(msg) = io_err {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }

    let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
    if failed > 0 {
        eprintln!(
            "{failed} run(s) failed; see {}/postmortem.txt",
            opts.out_dir
        );
        return ExitCode::from(1);
    }
    if !firing.is_empty() {
        eprintln!(
            "slo: {} alert(s) firing at batch end ({}); see {}/postmortem.txt",
            firing.len(),
            firing.join(", "),
            opts.out_dir
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
