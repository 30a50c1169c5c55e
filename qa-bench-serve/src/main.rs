//! `qa-bench-serve --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Starts a fresh in-process `qa-serve` daemon at its defaults, sets it up
//! over HTTP, drives one workload for `--seconds`, checks every answer
//! against an independent oracle and prints one JSON result as the last
//! line of standard output. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics of a traced run. See
//! `README.md` in this directory.

mod drive;
mod layers;

use std::collections::BTreeMap;
use std::process::ExitCode;

use qa_bench_serve::gen;
use qa_bench_serve::stats::{interquartile_mean, median, sorted, tail, Pct};
use qa_bench_serve::trace::{to_jsonl, Span, Spans};
use qa_bench_serve::workload::{Spec, Workload};
use qa_obs::json;

use drive::{Counts, Ctx, Expected, Load};
use layers::Replica;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The closed-loop workloads alternate reads and writer acts in this many
/// rounds, for `register_iqm_ms` and `ingest_iqm_ms`.
const ROUNDS: usize = 10;
/// Writer acts after each round's reads (three registers).
const ROUND_ACTS: usize = 24;
/// Share of `--seconds` the rounds spend reading; the writer acts take
/// about the rest.
const READ_SHARE: f64 = 0.8;
/// Reader streams: each phase reads its own part of the schedule.
const STREAM_MEASURED: usize = 0;
const STREAM_TRACED: usize = 10;
const STREAM_WARMUP: usize = 100;
/// Unmeasured load before any measurement, in seconds.
const WARMUP_S: f64 = 0.5;

/// Where results, spans and count records go.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let number = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
    })
}

/// One reported metric with the sample behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// How the value was taken, e.g. `p99 of 5012`.
    basis: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, basis: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            basis,
        });
    }

    /// A percentile metric, scaled by `scale` into `unit`; absent samples
    /// report 0.
    fn pct(&mut self, name: &'static str, p: Option<Pct>, scale: f64, unit: &'static str) {
        let (value, basis) = match p {
            Some(p) => (
                p.value as f64 * scale,
                format!("p{} of {}", p.pct, p.samples),
            ),
            None => (0.0, "no samples".to_string()),
        };
        self.add(name, value, unit, basis);
    }

    /// The interquartile mean of `samples`, scaled by `scale` into `unit`;
    /// no samples report 0.
    fn iqm(&mut self, name: &'static str, samples: &[u64], scale: f64, unit: &'static str) {
        let basis = format!("interquartile mean of {}", samples.len());
        let value = interquartile_mean(&sorted(samples.to_vec())).unwrap_or(0.0);
        self.add(name, value * scale, unit, basis);
    }

    fn count(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.add(name, value, unit, "count pass".to_string());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qa-bench-serve: {e}");
            eprintln!("usage: qa-bench-serve --workload <eval_heavy|request_heavy|churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("qa-bench-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let spec = Spec::new(args.workload, args.seed);
    let exp = Expected::new(&spec)?;
    let mut setup_ns = Vec::new();
    let mut daemon: Option<qa_serve::ServeDaemon> = None;
    for _ in 0..SETUPS {
        // Only the last daemon serves the run.
        if let Some(d) = daemon.take() {
            d.shutdown();
        }
        let s = drive::setup(&spec, &exp)?;
        setup_ns.push(s.ns);
        daemon = Some(s.daemon);
    }
    let daemon = daemon.expect("at least one set-up");
    let ctx = Ctx {
        addr: daemon.addr(),
        spec: &spec,
        exp: &exp,
    };
    let mut failures = Vec::new();
    let mut attempted = drive::COUNT_OPS;
    let counts = drive::count_pass(&ctx).map_err(|e| failures.push(e)).ok();
    let mut next_act = Some(drive::COUNT_WRITES);
    let mut loads = vec![load(&ctx, WARMUP_S, STREAM_WARMUP, &mut None, None)];
    let mut report = Report::default();
    if args.trace {
        let half = args.seconds / 2.0;
        let untraced = load(&ctx, half, STREAM_MEASURED, &mut next_act, None);
        let replica = Replica::new(&spec)?;
        let mut traced = load(&ctx, half, STREAM_TRACED, &mut next_act, Some(&replica));
        let mut spans = Spans::new(replica.epoch());
        if let Err(e) = layers::isolated(&replica, &spec, &exp, ctx.addr, &mut spans) {
            failures.push(e);
        }
        spans.extend(std::mem::take(&mut traced.spans));
        let spans = spans.into_spans();
        per_layer(&mut report, &untraced, &traced, &spans, counts.as_ref());
        // Tens of megabytes per run: keep only the latest per workload.
        write_out(
            &format!("spans-{}.jsonl", args.workload.name()),
            &to_jsonl(&spans),
        )?;
        loads.extend([untraced, traced]);
    } else {
        // `churn` times its writer beside its reads; the closed-loop
        // workloads time the same acts alone, between rounds of reads.
        let (measured, writes) = match spec.workload {
            Workload::Churn => (
                load(&ctx, args.seconds, STREAM_MEASURED, &mut next_act, None),
                None,
            ),
            Workload::EvalHeavy | Workload::RequestHeavy => {
                let (reads, writes) = drive::rounds(
                    &ctx,
                    ROUNDS,
                    args.seconds * READ_SHARE / ROUNDS as f64,
                    next_act.unwrap_or(0),
                    ROUND_ACTS,
                );
                (reads, Some(writes))
            }
        };
        end_to_end(
            &mut report,
            &setup_ns,
            &measured,
            writes.as_ref().unwrap_or(&measured),
        );
        loads.push(measured);
        loads.extend(writes);
    }
    daemon.shutdown();
    for l in &loads {
        attempted += l.attempted;
        failures.extend(l.failures.iter().cloned());
    }
    if let Some(c) = &counts {
        if let Err(e) = check_repeat(args, c) {
            failures.push(e);
        }
    }
    print_result(args, &report, attempted, &failures, counts.as_ref())
}

/// Run the workload's load shape for `seconds`.
fn load(
    ctx: &Ctx,
    seconds: f64,
    stream: usize,
    next_act: &mut Option<usize>,
    replica: Option<&Replica>,
) -> Load {
    match ctx.spec.workload {
        Workload::Churn => {
            let (load, next) = drive::churn(ctx, seconds, stream, *next_act, replica);
            *next_act = next;
            load
        }
        Workload::EvalHeavy | Workload::RequestHeavy => {
            drive::closed_loop(ctx, seconds, stream, replica)
        }
    }
}

/// Scales from nanoseconds (or picoseconds per node) to reported units.
const NS_TO_US: f64 = 1e-3;
const NS_TO_MS: f64 = 1e-6;
const NS_TO_S: f64 = 1e-9;
const PS_TO_NS: f64 = 1e-3;

/// The end-to-end metrics, in `BENCHMARK.json` order; registers and
/// ingests are timed in `writes`.
fn end_to_end(report: &mut Report, setup_ns: &[u64], measured: &Load, writes: &Load) {
    report.pct("setup_s", median(&sorted(setup_ns.to_vec())), NS_TO_S, "s");
    let latency = sorted(measured.latency_ns.clone());
    report.pct("query_p50_ms", median(&latency), NS_TO_MS, "ms");
    report.pct("query_p99_ms", tail(&latency, 99.0), NS_TO_MS, "ms");
    report.add(
        "query_qps",
        latency.len() as f64 / measured.seconds,
        "1/s",
        format!("{} answers in {:.3} s", latency.len(), measured.seconds),
    );
    // Means of the middle half, not medians: a cold compile's time is
    // bimodal (about 60 or 90 ms for the same formula, alternating from one
    // compile to the next), and the writer's documents come in five sizes,
    // so a median jumps between modes with the sample while a mean moves
    // smoothly. Dropping the outer quarters keeps rare slow acts out.
    report.iqm("register_iqm_ms", &writes.register_ns, NS_TO_MS, "ms");
    report.iqm("ingest_iqm_ms", &writes.ingest_ns, NS_TO_MS, "ms");
}

/// Layers whose self times add up to the server's own time per request.
const SERVER_LAYERS: [&str; 10] = [
    "obs.json_parse",
    "serve.cache_lookup",
    "par.dispatch",
    "par.queue_wait",
    "mso.eval",
    "trees.fcns",
    "mso.bottom_up",
    "mso.top_down",
    "mso.verdicts",
    "obs.render",
];

/// A percentile's value, 0 when there were no samples.
fn value(p: Option<Pct>) -> f64 {
    p.map_or(0.0, |p| p.value as f64)
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn per_layer(
    report: &mut Report,
    untraced: &Load,
    traced: &Load,
    spans: &[Span],
    counts: Option<&Counts>,
) {
    let layer = layers::by_layer(spans);
    // One layer's spans as sorted samples of `f`.
    let sample = |name: &str, f: &dyn Fn(&layers::Timed) -> Option<u64>| -> Vec<u64> {
        sorted(
            layer
                .get(name)
                .map_or(Vec::new(), |v| v.iter().filter_map(f).collect()),
        )
    };
    let self_ns = |name: &str| sample(name, &|t| Some(t.self_ns));
    let duration_ns = |name: &str| sample(name, &|t| Some(t.duration_ns));
    let ps_per_node =
        |name: &str| sample(name, &|t| (t.nodes > 0).then(|| t.self_ns * 1000 / t.nodes));
    let server = sorted(untraced.server_ns.clone());
    report.pct(
        "pulse.rtt_us",
        median(&duration_ns("pulse.healthz")),
        NS_TO_US,
        "us",
    );
    let transport = sorted(untraced.transport_ns.clone());
    report.pct("pulse.transport_us", median(&transport), NS_TO_US, "us");
    report.pct("serve.server_us_p50", median(&server), NS_TO_US, "us");
    report.pct("serve.server_us_p99", tail(&server, 99.0), NS_TO_US, "us");
    let attributed_ns: f64 = SERVER_LAYERS
        .iter()
        .map(|l| value(median(&self_ns(l))))
        .sum();
    report.add(
        "serve.unattributed_us",
        (value(median(&server)) - attributed_ns) * NS_TO_US,
        "us",
        format!(
            "server p50 minus {:.1} us of layer self time",
            attributed_ns * NS_TO_US
        ),
    );
    let self_us = [
        ("obs.json_parse_us", "obs.json_parse"),
        ("obs.render_us", "obs.render"),
        ("mso.parse_us", "mso.parse"),
        ("serve.cache_lookup_us", "serve.cache_lookup"),
    ];
    for (metric, span) in self_us {
        report.pct(metric, median(&self_ns(span)), NS_TO_US, "us");
    }
    report.pct(
        "mso.compile_ms",
        median(&duration_ns("mso.compile")),
        NS_TO_MS,
        "ms",
    );
    report.pct(
        "mso.prepare_us",
        median(&duration_ns("mso.prepare")),
        NS_TO_US,
        "us",
    );
    let per_node = [
        ("trees.fcns_ns_per_node", "trees.encode_with_map"),
        ("mso.eval_ns_per_node", "mso.eval_unranked"),
        ("mso.eval_why_ns_per_node", "mso.eval_unranked_explained"),
        ("mso.bottom_up_ns_per_node", "mso.bottom_up"),
        ("mso.top_down_ns_per_node", "mso.top_down"),
        ("mso.verdicts_ns_per_node", "mso.verdicts"),
    ];
    for (metric, span) in per_node {
        report.pct(metric, median(&ps_per_node(span)), PS_TO_NS, "ns/node");
    }
    let stack = value(median(&ps_per_node("mso.eval_served_stack")));
    let noop = value(median(&ps_per_node("mso.eval_unranked")));
    report.add(
        "flight.observer_ns_per_node",
        (stack - noop) * PS_TO_NS,
        "ns/node",
        "served stack minus NoopObserver, medians".to_string(),
    );
    report.pct(
        "par.dispatch_us",
        median(&self_ns("par.dispatch")),
        NS_TO_US,
        "us",
    );
    let queue_wait = duration_ns("par.queue_wait");
    report.pct(
        "par.queue_wait_us_p99",
        tail(&queue_wait, 99.0),
        NS_TO_US,
        "us",
    );
    for (metric, span) in [
        ("serve.ingest_ns_per_node", "serve.ingest"),
        ("xml.parse_ns_per_node", "xml.parse"),
    ] {
        report.pct(metric, median(&ps_per_node(span)), PS_TO_NS, "ns/node");
    }
    let lateness = gen::lateness(&untraced.timings);
    report.pct("gen.late_ms_p99", lateness.map(|l| l.tail), NS_TO_MS, "ms");
    report.add(
        "gen.late_sends",
        lateness.map_or(0.0, |l| l.late_sends as f64),
        "count",
        format!("of {}", untraced.timings.len()),
    );
    let c = counts.unwrap_or(&Counts::ZERO);
    report.count("serve.cache_hits", c.cache_hits as f64, "count");
    report.count("serve.cache_misses", c.cache_misses as f64, "count");
    report.count("serve.compiles", c.compiles as f64, "count");
    report.count("serve.evictions", c.evictions as f64, "count");
    report.count("serve.sheds", c.sheds as f64, "count");
    report.count(
        "mso.steps_per_request",
        c.steps as f64 / c.reads.max(1) as f64,
        "count/request",
    );
    report.count(
        "mso.table_lookups_per_node",
        c.table_lookups as f64 / c.read_nodes.max(1) as f64,
        "count/node",
    );
    report.count("mso.compile_states", c.compile_states as f64, "count");
    report.count(
        "serve.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "ratio",
    );
    report.add("proc.peak_rss_mb", peak_rss_mb(), "MB", "VmHWM".to_string());
    let overhead = value(median(&sorted(traced.latency_ns.clone())))
        - value(median(&sorted(untraced.latency_ns.clone())));
    report.add(
        "trace.overhead_us",
        overhead * NS_TO_US,
        "us",
        "traced minus untraced client p50".to_string(),
    );
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host facts recorded with every result.
fn host_json(args: &Args) -> String {
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    json::object(|w| {
        w.field_u64(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        );
        w.field_str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
        w.field_str("rustc", &rustc);
        w.field_u64("seed", args.seed);
        w.field_str("workload", args.workload.name());
        w.field_f64("seconds", args.seconds);
        w.field_bool("trace", args.trace);
    })
}

/// A fingerprint of the running executable, so count records are only
/// compared between runs of the same build.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    format!("{:016x}", qa_obs::fnv1a64(&bytes))
}

/// Counts must repeat exactly across runs of the same build and seed: the
/// first run records them, later runs compare.
fn check_repeat(args: &Args, counts: &Counts) -> Result<(), String> {
    let file = format!(
        "counts-{}-{}-s{}.json",
        build_id(),
        args.workload.name(),
        args.seed
    );
    let now = counts.to_json();
    match std::fs::read_to_string(format!("{OUT_DIR}/{file}")) {
        Ok(before) if before.trim() == now => Ok(()),
        Ok(before) => Err(format!(
            "counts differ from an earlier run of this build: {before} vs {now}"
        )),
        Err(_) => write_out(&file, &now),
    }
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{file}");
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
}

/// Print the readable table, record the result file, and end with the
/// one-line JSON result.
fn print_result(
    args: &Args,
    report: &Report,
    attempted: usize,
    failures: &[String],
    counts: Option<&Counts>,
) -> Result<(), String> {
    let host = host_json(args);
    println!("host {host}");
    for m in &report.metrics {
        println!(
            "{:<28} {:>14.4} {:<14} {}",
            m.name, m.value, m.unit, m.basis
        );
    }
    println!(
        "{:<28} {:>14.6} {:<14} {} failed of {attempted} operations",
        "error_rate",
        failures.len() as f64 / attempted.max(1) as f64,
        "ratio",
        failures.len()
    );
    for f in failures.iter().take(5) {
        println!("failure: {f}");
    }
    let metrics = json::object(|w| {
        for m in &report.metrics {
            w.field_raw(
                m.name,
                &json::object(|w| {
                    w.field_f64("value", m.value);
                    w.field_str("unit", m.unit);
                }),
            );
        }
    });
    let samples = json::object(|w| {
        for m in &report.metrics {
            w.field_str(m.name, &m.basis);
        }
    });
    let file = format!(
        "result-{}-s{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    write_out(
        &file,
        &json::object(|w| {
            w.field_raw("host", &host);
            w.field_raw("metrics", &metrics);
            w.field_raw("samples", &samples);
            w.field_raw(
                "counts",
                &counts.map_or("null".to_string(), Counts::to_json),
            );
            w.field_u64("attempted", attempted as u64);
            w.field_u64("failed", failures.len() as u64);
        }),
    )?;
    println!(
        "{}",
        json::object(|w| {
            w.field_bool("correct", failures.is_empty());
            w.field_u64("attempted", attempted as u64);
            w.field_u64("failed", failures.len() as u64);
            w.field_raw("metrics", &metrics);
        })
    );
    Ok(())
}
