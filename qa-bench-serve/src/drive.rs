//! Driving the daemon over HTTP: set-up, checked requests, the count pass
//! and the two load shapes (closed loop and `churn`'s open loop).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qa_base::Alphabet;
use qa_bench_serve::gen::{self, Clock, Timing, WallClock};
use qa_bench_serve::oracle::LocalDoc;
use qa_bench_serve::trace::{Span, Spans};
use qa_bench_serve::workload::{
    Read, Spec, Workload, Write, CHURN_READS_PER_S, CLIENTS, WRITER_PERIOD,
};
use qa_obs::json::{self, Value};
use qa_pulse::{http_request, HttpResponse, HttpTimeouts};
use qa_serve::{ServeConfig, ServeDaemon};

use crate::layers::Replica;

const TIMEOUTS: HttpTimeouts = HttpTimeouts {
    connect: Duration::from_secs(5),
    io: Duration::from_secs(60),
};

/// Reads of the count pass, and the reader stream they come from.
const COUNT_READS: usize = 64;
const COUNT_STREAM: usize = 1_000;
/// Writer acts of the count pass (one register, seven ingests).
pub const COUNT_WRITES: usize = 8;

/// Everything the oracle says about the workload's inputs.
pub struct Expected {
    /// σ after set-up: `#pcdata`, the corpus labels and the formula labels.
    pub sigma: usize,
    /// Expected node ids per `[query][doc]`, ascending.
    pub answers: Vec<Vec<Vec<u64>>>,
    /// The corpus, parsed locally.
    pub docs: Vec<LocalDoc>,
}

impl Expected {
    /// Compute every expected answer from the predicates; for the
    /// bibliography corpora confirm each against the naive MSO semantics.
    pub fn new(spec: &Spec) -> Result<Expected, String> {
        let docs = spec
            .docs
            .iter()
            .map(|(_, text)| LocalDoc::parse(text).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let answers: Vec<Vec<Vec<u64>>> = spec
            .queries
            .iter()
            .map(|q| docs.iter().map(|d| d.answer(q)).collect())
            .collect();
        if spec.workload != Workload::EvalHeavy {
            for (q, query) in spec.queries.iter().enumerate() {
                for (d, doc) in docs.iter().enumerate() {
                    let naive = doc.naive_answer(query).map_err(|e| e.to_string())?;
                    if naive != answers[q][d] {
                        return Err(format!(
                            "oracle disagrees with naive MSO on `{}` over {}",
                            query.text, spec.docs[d].0
                        ));
                    }
                }
            }
        }
        let mut alphabet = Alphabet::new();
        alphabet.intern(qa_xml::parser::PCDATA);
        for doc in &docs {
            for s in doc.alphabet.symbols() {
                alphabet.intern(doc.alphabet.name(s));
            }
        }
        for q in spec.queries {
            qa_mso::parse(q.text, &mut alphabet).map_err(|e| e.to_string())?;
        }
        Ok(Expected {
            sigma: alphabet.len(),
            answers,
            docs,
        })
    }
}

/// What one run needs to send and check requests.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub spec: &'a Spec,
    pub exp: &'a Expected,
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<HttpResponse, String> {
    http_request(addr, method, path, "application/json", body, TIMEOUTS)
        .map_err(|e| format!("{method} {path}: transport error: {e}"))
}

fn ok_json(resp: HttpResponse, what: &str) -> Result<Value, String> {
    if resp.status != 200 {
        return Err(format!(
            "{what}: status {}: {}",
            resp.status,
            resp.body.trim()
        ));
    }
    json::parse(&resp.body).map_err(|e| format!("{what}: unparsable answer: {e}"))
}

fn num(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// The body of one read.
pub fn query_body(spec: &Spec, read: Read) -> String {
    json::object(|w| {
        w.field_str("formula", spec.queries[read.query].text);
        w.field_str("doc", &spec.docs[read.doc].0);
        w.field_bool("why", read.why);
    })
}

/// Check one read's answer against the oracle; returns the server's
/// `micros`.
pub fn check_answer(ctx: &Ctx, read: Read, body: &str) -> Result<u64, String> {
    let v = json::parse(body).map_err(|e| format!("unparsable answer: {e}"))?;
    let expected = &ctx.exp.answers[read.query][read.doc];
    let what = || {
        format!(
            "`{}` on {}",
            ctx.spec.queries[read.query].text, ctx.spec.docs[read.doc].0
        )
    };
    let mut selected: Vec<u64> = v
        .get("selected")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no `selected`", what()))?
        .iter()
        .map(|n| n.as_u64().ok_or_else(|| format!("{}: bad node id", what())))
        .collect::<Result<_, _>>()?;
    selected.sort_unstable();
    if &selected != expected || num(&v, "count") != Some(expected.len() as u64) {
        return Err(format!(
            "{}: wrong node set ({} nodes, expected {})",
            what(),
            selected.len(),
            expected.len()
        ));
    }
    if num(&v, "sigma") != Some(ctx.exp.sigma as u64) {
        return Err(format!("{}: σ changed", what()));
    }
    if read.why {
        let doc = &ctx.exp.docs[read.doc];
        let why = v
            .get("why_selected")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{}: no `why_selected`", what()))?;
        let mut nodes = Vec::with_capacity(why.len());
        for w in why {
            let node =
                num(w, "node").ok_or_else(|| format!("{}: certificate without node", what()))?;
            let label = w.get("label").and_then(Value::as_str);
            let truth = (node < doc.tree.num_nodes() as u64).then(|| {
                doc.alphabet
                    .name(doc.tree.label(qa_trees::NodeId::from_index(node as usize)))
            });
            if label.is_none() || label != truth {
                return Err(format!(
                    "{}: certificate label wrong at node {node}",
                    what()
                ));
            }
            nodes.push(node);
        }
        nodes.sort_unstable();
        if &nodes != expected {
            return Err(format!("{}: certificates cover the wrong nodes", what()));
        }
    }
    num(&v, "micros").ok_or_else(|| format!("{}: no `micros`", what()))
}

/// A checked read: `Ok(server micros)` or why it failed.
pub fn read_once(ctx: &Ctx, read: Read, body: &str) -> Result<u64, String> {
    let resp = request(ctx.addr, "POST", "/query", body)?;
    if resp.status != 200 {
        return Err(format!(
            "POST /query: status {}: {}",
            resp.status,
            resp.body.trim()
        ));
    }
    check_answer(ctx, read, &resp.body)
}

/// Register `formula` under `id`; checks the reply's hash and that σ did
/// not move.
pub fn register(ctx: &Ctx, id: &str, formula: &str) -> Result<(), String> {
    let body = json::object(|w| {
        w.field_str("formula", formula);
        w.field_str("register", id);
    });
    let v = ok_json(request(ctx.addr, "POST", "/query", &body)?, "register")?;
    let hash = format!("{:016x}", qa_obs::fnv1a64(formula.trim().as_bytes()));
    let reply_ok = v.get("registered").and_then(Value::as_str) == Some(id)
        && v.get("query").and_then(Value::as_str) == Some(hash.as_str())
        && num(&v, "sigma") == Some(ctx.exp.sigma as u64)
        && num(&v, "states").is_some_and(|s| s > 0);
    if !reply_ok {
        return Err(format!(
            "register `{formula}`: unexpected reply {}",
            json_line(&v)
        ));
    }
    Ok(())
}

/// `PUT /doc`; checks the node count and that the store changed.
pub fn ingest(addr: SocketAddr, name: &str, text: &str, nodes: usize) -> Result<(), String> {
    let v = ok_json(
        request(addr, "PUT", &format!("/doc?name={name}"), text)?,
        "ingest",
    )?;
    if num(&v, "nodes") != Some(nodes as u64)
        || !matches!(v.get("updated"), Some(Value::Bool(true)))
    {
        return Err(format!("ingest {name}: unexpected reply {}", json_line(&v)));
    }
    Ok(())
}

fn json_line(v: &Value) -> String {
    format!("{v:?}").chars().take(200).collect()
}

/// One writer act; returns whether it registered, and its service time in
/// nanoseconds.
pub fn write_once(ctx: &Ctx, act: &Write) -> Result<(bool, u64), String> {
    let t = Instant::now();
    match act {
        Write::Register { id, formula } => register(ctx, id, formula).map(|_| (true, ns(t))),
        Write::Ingest { name, text } => {
            let nodes = LocalDoc::parse(text)
                .map_err(|e| e.to_string())?
                .tree
                .num_nodes();
            let t = Instant::now();
            ingest(ctx.addr, name, text, nodes).map(|_| (false, ns(t)))
        }
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A daemon after set-up, with how long set-up took.
pub struct Setup {
    pub daemon: ServeDaemon,
    pub ns: u64,
}

/// Start a daemon at its defaults, ingest the corpus and register the
/// warm formulas, all over HTTP.
pub fn setup(spec: &Spec, exp: &Expected) -> Result<Setup, String> {
    let started = Instant::now();
    let daemon =
        ServeDaemon::start(ServeConfig::default()).map_err(|e| format!("daemon start: {e}"))?;
    let ctx = Ctx {
        addr: daemon.addr(),
        spec,
        exp,
    };
    for ((name, text), doc) in spec.docs.iter().zip(&exp.docs) {
        ingest(ctx.addr, name, text, doc.tree.num_nodes())?;
    }
    for (i, q) in spec.queries.iter().enumerate() {
        register(&ctx, &format!("warm-{i}"), q.text)?;
    }
    Ok(Setup {
        daemon,
        ns: ns(started),
    })
}

/// Counters from `/metrics` and `GET /queries` at one moment.
#[derive(Debug, Default)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    hits: u64,
    misses: u64,
    compiled_states: u64,
}

impl Snapshot {
    pub fn take(addr: SocketAddr) -> Result<Snapshot, String> {
        let resp = request(addr, "GET", "/metrics", "")?;
        if resp.status != 200 {
            return Err(format!("GET /metrics: status {}", resp.status));
        }
        let counters = resp
            .body
            .lines()
            .filter_map(|l| {
                let (name, value) = l.split_once(' ')?;
                let name = name.strip_prefix("qa_serve_")?.strip_suffix("_total")?;
                Some((name.to_string(), value.trim().parse().ok()?))
            })
            .collect();
        let q = ok_json(request(addr, "GET", "/queries", "")?, "GET /queries")?;
        let compiled_states = q
            .get("compiled")
            .and_then(Value::as_arr)
            .map(|c| c.iter().filter_map(|e| num(e, "states")).sum())
            .unwrap_or(0);
        Ok(Snapshot {
            counters,
            hits: num(&q, "hits").unwrap_or(0),
            misses: num(&q, "misses").unwrap_or(0),
            compiled_states,
        })
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Exact counts of the count pass: a fixed, sequential script of reads
/// (and for `churn`, writer acts) whose counter deltas repeat exactly on
/// every run of the same code and seed.
#[derive(Debug, PartialEq)]
pub struct Counts {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub compiles: u64,
    pub evictions: u64,
    pub sheds: u64,
    pub steps: u64,
    pub table_lookups: u64,
    pub compile_states: u64,
    pub reads: u64,
    pub read_nodes: u64,
}

impl Counts {
    /// Stand-in when the count pass failed (the run is then incorrect).
    pub const ZERO: Counts = Counts {
        cache_hits: 0,
        cache_misses: 0,
        compiles: 0,
        evictions: 0,
        sheds: 0,
        steps: 0,
        table_lookups: 0,
        compile_states: 0,
        reads: 0,
        read_nodes: 0,
    };

    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.field_u64("cache_hits", self.cache_hits);
            w.field_u64("cache_misses", self.cache_misses);
            w.field_u64("compiles", self.compiles);
            w.field_u64("evictions", self.evictions);
            w.field_u64("sheds", self.sheds);
            w.field_u64("steps", self.steps);
            w.field_u64("table_lookups", self.table_lookups);
            w.field_u64("compile_states", self.compile_states);
            w.field_u64("reads", self.reads);
            w.field_u64("read_nodes", self.read_nodes);
        })
    }
}

/// Operations the count pass sends.
pub const COUNT_OPS: usize = COUNT_READS + COUNT_WRITES;

/// Run the count pass: [`COUNT_READS`] reads, then writer acts
/// `0..COUNT_WRITES`. The script's own expectations (every read a hit,
/// every register a miss and a compile, no sheds or evictions) are checked
/// here.
pub fn count_pass(ctx: &Ctx) -> Result<Counts, String> {
    let before = Snapshot::take(ctx.addr)?;
    let mut read_nodes = 0;
    for i in 0..COUNT_READS {
        let read = ctx.spec.read(COUNT_STREAM, i);
        read_once(ctx, read, &query_body(ctx.spec, read))?;
        read_nodes += ctx.exp.docs[read.doc].tree.num_nodes() as u64;
    }
    let mut registers = 0;
    for j in 0..COUNT_WRITES {
        let act = ctx.spec.write(j);
        registers += u64::from(matches!(act, Write::Register { .. }));
        write_once(ctx, &act)?;
    }
    let after = Snapshot::take(ctx.addr)?;
    let delta = |name: &str| after.counter(name) - before.counter(name);
    let counts = Counts {
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        compiles: delta("query_compiles"),
        evictions: delta("cache_evictions"),
        sheds: delta("requests_shed"),
        steps: delta("steps"),
        table_lookups: delta("table_lookups"),
        compile_states: after.compiled_states,
        reads: COUNT_READS as u64,
        read_nodes,
    };
    let script_ok = counts.cache_hits == COUNT_READS as u64
        && counts.cache_misses == registers
        && counts.compiles == registers
        && counts.evictions == 0
        && counts.sheds == 0
        && counts.steps > 0;
    if !script_ok {
        return Err(format!("count pass: counters off the script: {counts:?}"));
    }
    Ok(counts)
}

/// What one measured load saw.
#[derive(Default)]
pub struct Load {
    /// Wall time the load ran.
    pub seconds: f64,
    /// Client latency of every `200` read (open loop: from the due time).
    /// Every sample here is in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// The server's `micros` of every `200` read.
    pub server_ns: Vec<u64>,
    /// Send-to-answer time minus the server's `micros`.
    pub transport_ns: Vec<u64>,
    /// When each read was due and sent (closed loop: due when the previous
    /// answer arrived).
    pub timings: Vec<Timing>,
    pub register_ns: Vec<u64>,
    pub ingest_ns: Vec<u64>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub spans: Vec<Span>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.latency_ns.extend(other.latency_ns);
        self.server_ns.extend(other.server_ns);
        self.transport_ns.extend(other.transport_ns);
        self.timings.extend(other.timings);
        self.register_ns.extend(other.register_ns);
        self.ingest_ns.extend(other.ingest_ns);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
        self.spans.extend(other.spans);
    }

    fn record_read(&mut self, outcome: Result<u64, String>, timing: Timing) {
        self.attempted += 1;
        self.timings.push(timing);
        match outcome {
            Ok(micros) => {
                let server = micros * 1_000;
                let round_trip = (timing.done - timing.sent).as_nanos() as u64;
                self.latency_ns.push(timing.latency().as_nanos() as u64);
                self.server_ns.push(server);
                self.transport_ns.push(round_trip.saturating_sub(server));
            }
            Err(e) => self.failures.push(e),
        }
    }
}

/// The id of read `i` of reader stream `stream`; 0 is left for spans
/// outside any request.
fn request_id(stream: usize, i: usize) -> u64 {
    ((stream as u64) << 32 | i as u64) + 1
}

/// One checked read and when its answer arrived. When a replica is given,
/// the HTTP round trip becomes a span, and once the answer is in, the
/// replica replays the server's layers as further spans. The replay is
/// not part of the read's latency.
fn traced_read(
    ctx: &Ctx,
    read: Read,
    req: u64,
    replica: Option<&Replica>,
    spans: &mut Spans,
) -> (Result<u64, String>, Instant) {
    let body = query_body(ctx.spec, read);
    let sent = Instant::now();
    let outcome = read_once(ctx, read, &body);
    let done = Instant::now();
    if let Some(replica) = replica {
        let root = spans.start_at("request", None, req, sent);
        let http = spans.start_at("pulse.post_query", Some(root.id), req, sent);
        spans.end_at(http, 0, done);
        replica.trace_parse(spans, root.id, req, ctx.spec.queries[read.query].text);
        replica.replay(spans, root.id, req, &body);
        spans.end(root, 0);
    }
    (outcome, done)
}

/// `clients` closed-loop readers for `seconds`: each sends its next read
/// as soon as the previous answer arrives.
pub fn closed_loop(ctx: &Ctx, seconds: f64, stream0: usize, replica: Option<&Replica>) -> Load {
    let total = Mutex::new(Load::default());
    let epoch = replica.map_or_else(Instant::now, Replica::epoch);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let total = &total;
            s.spawn(move || {
                let mut load = Load::default();
                let mut spans = Spans::new(epoch);
                // A closed-loop read is due when the previous answer arrives.
                let mut due = Instant::now();
                for i in 0.. {
                    let sent = Instant::now();
                    if sent >= until {
                        break;
                    }
                    let read = ctx.spec.read(stream0 + c, i);
                    let req = request_id(stream0 + c, i);
                    let (outcome, done) = traced_read(ctx, read, req, replica, &mut spans);
                    let at = |t: Instant| t - start;
                    load.record_read(
                        outcome,
                        Timing {
                            due: at(due),
                            sent: at(sent),
                            done: at(done),
                        },
                    );
                    due = done;
                }
                load.spans = spans.into_spans();
                total.lock().expect("load lock").merge(load);
            });
        }
    });
    let mut load = total.into_inner().expect("load lock");
    load.seconds = start.elapsed().as_secs_f64();
    load
}

/// `churn`: an open-loop reader (reads of `stream`) at
/// [`CHURN_READS_PER_S`] beside an open-loop writer acting every
/// [`WRITER_PERIOD`], starting at writer act `first_act` (`None`: no
/// writer). Returns the load and the next unused writer act.
pub fn churn(
    ctx: &Ctx,
    seconds: f64,
    stream: usize,
    first_act: Option<usize>,
    replica: Option<&Replica>,
) -> (Load, Option<usize>) {
    let until = Duration::from_secs_f64(seconds);
    let clock = WallClock::start();
    let epoch = replica.map_or_else(Instant::now, Replica::epoch);
    let (reader, writer) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut spans = Spans::new(epoch);
            let period = Duration::from_secs(1) / CHURN_READS_PER_S;
            let sent = gen::open_loop(&clock, period, until, |i| {
                traced_read(
                    ctx,
                    ctx.spec.read(stream, i),
                    request_id(stream, i),
                    replica,
                    &mut spans,
                )
            });
            let mut load = Load::default();
            for (timing, (outcome, done)) in sent {
                load.record_read(
                    outcome,
                    Timing {
                        done: clock.at(done),
                        ..timing
                    },
                );
            }
            load.spans = spans.into_spans();
            load
        });
        let writer = s.spawn(|| match first_act {
            Some(first) => gen::open_loop(&clock, WRITER_PERIOD, until, |i| {
                write_once(ctx, &ctx.spec.write(first + i))
            }),
            None => Vec::new(),
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    let mut load = reader;
    let acts = writer.len();
    for (_, outcome) in writer {
        load.attempted += 1;
        match outcome {
            Ok((true, ns)) => load.register_ns.push(ns),
            Ok((false, ns)) => load.ingest_ns.push(ns),
            Err(e) => load.failures.push(e),
        }
    }
    load.seconds = clock.now().as_secs_f64();
    (load, first_act.map(|first| first + acts))
}

/// Closed-loop reads and writer acts, alternating in `rounds` rounds: each
/// round reads for `read_seconds`, then runs `acts` writer acts (see
/// [`write_probe`]). Both samples thus span the whole run, so
/// a slow stretch of the host weighs on them alike instead of on whichever
/// happened to run then. Returns the reads and the writes; the reads'
/// `seconds` count only their own windows.
pub fn rounds(
    ctx: &Ctx,
    rounds: usize,
    read_seconds: f64,
    first_act: usize,
    acts: usize,
) -> (Load, Load) {
    let mut reads = Load::default();
    let mut writes = Load::default();
    for r in 0..rounds {
        let round = closed_loop(ctx, read_seconds, ROUND_STREAMS + r * CLIENTS, None);
        reads.seconds += round.seconds;
        reads.merge(round);
        writes.merge(write_probe(ctx, first_act + r * acts, acts));
    }
    (reads, writes)
}

/// Reader streams of [`rounds`]: the reads of round `r` come from streams
/// `ROUND_STREAMS + r * CLIENTS ..`.
const ROUND_STREAMS: usize = 2_000;

/// Writer acts `first..first + acts` back to back on one thread, with no
/// reads beside them: the time of a register or an ingest on its own.
/// (`churn` times the same acts beside its reads.) A reader beside the
/// acts made their times wander by about half as much again.
pub fn write_probe(ctx: &Ctx, first: usize, acts: usize) -> Load {
    let started = Instant::now();
    let mut load = Load::default();
    for j in first..first + acts {
        load.attempted += 1;
        match write_once(ctx, &ctx.spec.write(j)) {
            Ok((true, ns)) => load.register_ns.push(ns),
            Ok((false, ns)) => load.ingest_ns.push(ns),
            Err(e) => load.failures.push(e),
        }
    }
    load.seconds = started.elapsed().as_secs_f64();
    load
}
