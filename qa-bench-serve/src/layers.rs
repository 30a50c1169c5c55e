//! The traced run's per-layer timings.
//!
//! Nothing inside the program is instrumented. Instead, for every traced
//! request the benchmark replays the server's pipeline on a local replica
//! by calling each layer's public function itself, one span per call:
//!
//! ```text
//! request
//! ├── pulse.post_query          the HTTP round trip
//! ├── mso.parse                 qa_mso::parse of the formula
//! └── replay
//!     ├── obs.json_parse        qa_obs::json::parse of the body
//!     ├── serve.cache_lookup    QueryCache::compile (a hit)
//!     ├── par.dispatch          WorkPool::submit → reply
//!     │   ├── par.queue_wait    submit → job start
//!     │   └── mso.eval          the served observer stack, phases timed:
//!     │       ├── trees.fcns, mso.bottom_up, mso.top_down, mso.verdicts
//!     └── obs.render            qa_obs::json::object of the answer
//! ```
//!
//! After the load, [`isolated`] times the remaining layers one call at a
//! time on an otherwise idle host: HTTP round trips, compilation, FCNS
//! encoding, evaluation with and without the served observers, ingest and
//! XML parsing.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use qa_base::Alphabet;
use qa_bench_serve::trace::{Open, Span, Spans};
use qa_bench_serve::workload::{Spec, Write};
use qa_flight::{Budget, Sampled, Watchdog};
use qa_mso::unranked::{compile_unary, nil_symbol};
use qa_mso::PreparedUnary;
use qa_obs::json::{self, Value};
use qa_obs::{Metrics, NoopObserver, Observer, Tee};
use qa_par::WorkPool;
use qa_scope::ScopeProfiler;
use qa_serve::{CompiledQuery, DocStore, QueryCache, ServeConfig};
use qa_trees::Tree;

use crate::drive::Expected;

/// The daemon's per-request budget, as `post_query` builds it.
fn served_budget(cfg: &ServeConfig) -> Budget {
    Budget::steps(cfg.max_steps)
        .with_wall(Duration::from_millis(cfg.max_wall_ms))
        .with_wall_poll_every(64)
}

/// The observer stack every served evaluation runs under.
type Served<'m> = Watchdog<
    Tee<
        qa_obs::MetricsObserver<'m>,
        Tee<qa_obs::MetricsObserver<'m>, Sampled<ScopeProfiler, NoopObserver>>,
    >,
>;

fn served<'m>(shared: &'m Metrics, request: &'m Metrics, budget: Budget) -> Served<'m> {
    Watchdog::new(
        Tee(
            shared.observer(),
            Tee(request.observer(), Sampled::Light(NoopObserver)),
        ),
        budget,
    )
}

/// Times the evaluator's own phase hooks as spans.
struct PhaseTimer<'a> {
    spans: &'a mut Spans,
    parent: u64,
    req: u64,
    nodes: usize,
    open: Vec<Open>,
}

impl Observer for PhaseTimer<'_> {
    fn phase_start(&mut self, name: &'static str) {
        let layer = match name {
            "fcns encoding" => "trees.fcns",
            "bottom-up pass" => "mso.bottom_up",
            "top-down pass" => "mso.top_down",
            "verdicts" => "mso.verdicts",
            other => other,
        };
        let open = self.spans.start(layer, Some(self.parent), self.req);
        self.open.push(open);
    }

    fn phase_end(&mut self, _name: &'static str) {
        if let Some(open) = self.open.pop() {
            self.spans.end(open, self.nodes);
        }
    }

    fn is_enabled(&self) -> bool {
        false
    }
}

/// A local copy of the daemon's state that traced requests replay on.
pub struct Replica {
    epoch: Instant,
    /// Store and cache under one lock, as the daemon compiles under both.
    state: Mutex<(DocStore, QueryCache)>,
    /// The store's alphabet, for per-request formula parses.
    alphabet: Alphabet,
    pool: WorkPool,
    metrics: Arc<Metrics>,
    cfg: ServeConfig,
}

impl Replica {
    /// Ingest the corpus and compile the warm formulas, as set-up does.
    pub fn new(spec: &Spec) -> Result<Replica, String> {
        let cfg = ServeConfig::default();
        let mut store = DocStore::new();
        for (name, text) in &spec.docs {
            store.ingest(name, text).map_err(|e| e.to_string())?;
        }
        let mut cache = QueryCache::new(cfg.cache_capacity);
        for q in spec.queries {
            cache
                .compile(q.text, store.alphabet_mut(), None)
                .map_err(|e| e.to_string())?;
        }
        Ok(Replica {
            epoch: Instant::now(),
            alphabet: store.alphabet().clone(),
            state: Mutex::new((store, cache)),
            pool: WorkPool::new(cfg.eval_workers),
            metrics: Arc::new(Metrics::new()),
            cfg,
        })
    }

    /// The epoch every span of this run is timed against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Time one `qa_mso::parse` of `formula` (the daemon pays it on every
    /// cache hit).
    pub fn trace_parse(&self, spans: &mut Spans, parent: u64, req: u64, formula: &str) {
        let mut alphabet = self.alphabet.clone();
        let open = spans.start("mso.parse", Some(parent), req);
        let parsed = qa_mso::parse(formula, &mut alphabet);
        spans.end(open, 0);
        std::hint::black_box(parsed.is_ok());
    }

    /// Replay the server's pipeline for one request body.
    pub fn replay(&self, spans: &mut Spans, parent: u64, req: u64, body: &str) {
        let root = spans.start("replay", Some(parent), req);
        let Ok(value) = spans.time("obs.json_parse", Some(root.id), req, || json::parse(body))
        else {
            return spans.end(root, 0);
        };
        let text = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let (formula, doc_name) = (text("formula"), text("doc"));
        let why = matches!(value.get("why"), Some(Value::Bool(true)));
        let compiled = spans.time("serve.cache_lookup", Some(root.id), req, || {
            let mut guard = self.state.lock().expect("replica lock");
            let (store, cache) = &mut *guard;
            cache.compile(&formula, store.alphabet_mut(), None).ok()
        });
        let doc = {
            let guard = self.state.lock().expect("replica lock");
            let store = &guard.0;
            store
                .get(&doc_name)
                .map(|d| (Arc::clone(&d.tree), store.alphabet().clone()))
        };
        let (Some(compiled), Some((tree, labels))) = (compiled, doc) else {
            return spans.end(root, 0);
        };
        let dispatch = spans.start("par.dispatch", Some(root.id), req);
        let (tx, rx) = mpsc::channel();
        let (job_query, job_tree, metrics) = (
            Arc::clone(&compiled),
            Arc::clone(&tree),
            Arc::clone(&self.metrics),
        );
        let (epoch, parent, budget) = (self.epoch, dispatch.id, served_budget(&self.cfg));
        let submitted = Instant::now();
        let accepted = self.pool.submit(Box::new(move || {
            let started = Instant::now();
            let mut job_spans = Spans::new(epoch);
            let wait = job_spans.start_at("par.queue_wait", Some(parent), req, submitted);
            job_spans.end_at(wait, 0, started);
            let nodes = job_tree.num_nodes();
            let eval = job_spans.start("mso.eval", Some(parent), req);
            let request_metrics = Metrics::new();
            let mut timer = PhaseTimer {
                spans: &mut job_spans,
                parent: eval.id,
                req,
                nodes,
                open: Vec::new(),
            };
            let mut obs = Tee(served(&metrics, &request_metrics, budget), &mut timer);
            let picked: Vec<(qa_trees::NodeId, u32)> = if why {
                job_query
                    .prepared
                    .eval_unranked_explained(&job_tree, &mut obs)
            } else {
                job_query
                    .prepared
                    .eval_unranked_with(&job_tree, &mut obs)
                    .into_iter()
                    .map(|v| (v, 0))
                    .collect()
            };
            drop(obs);
            job_spans.end(eval, nodes);
            let _ = tx.send((picked, job_spans.into_spans()));
        }));
        let reply = if accepted { rx.recv().ok() } else { None };
        spans.end(dispatch, 0);
        let Some((picked, job_spans)) = reply else {
            return spans.end(root, 0);
        };
        spans.extend(job_spans);
        let rendered = spans.time("obs.render", Some(root.id), req, || {
            json::object(|w| {
                w.field_str("doc", &doc_name);
                w.field_str("query", &format!("{:016x}", compiled.hash));
                w.field_u64("sigma", compiled.sigma as u64);
                w.field_u64("states", compiled.states as u64);
                w.field_u64("count", picked.len() as u64);
                w.field_u64_array("selected", picked.iter().map(|(v, _)| v.index() as u64));
                if why {
                    w.field_raw(
                        "why_selected",
                        &json::array(picked.iter().map(|(v, state)| {
                            json::object(|w| {
                                w.field_u64("node", v.index() as u64);
                                w.field_u64("marked_state", u64::from(*state));
                                w.field_str("label", labels.name(tree.label(*v)));
                            })
                        })),
                    );
                }
                w.field_u64("micros", 0);
            })
        });
        std::hint::black_box(rendered);
        spans.end(root, 0);
    }

    /// Compile `formula` against the replica's σ, timing compilation and
    /// preparation as separate spans.
    fn compile(
        &self,
        spans: &mut Spans,
        parent: u64,
        formula: &str,
    ) -> Result<PreparedUnary, String> {
        let mut alphabet = self.alphabet.clone();
        let parsed = qa_mso::parse(formula, &mut alphabet).map_err(|e| e.to_string())?;
        let sigma = alphabet.len();
        let open = spans.start("mso.compile", Some(parent), 0);
        let dbta = compile_unary(&parsed, "v", sigma).map_err(|e| e.to_string())?;
        spans.end(open, 0);
        let open = spans.start("mso.prepare", Some(parent), 0);
        let prepared = PreparedUnary::new(&dbta, sigma);
        spans.end(open, 0);
        Ok(prepared)
    }
}

/// Wall time the isolated layer loops keep repeating for, at least once.
const ISOLATED_BUDGET: Duration = Duration::from_millis(600);
/// Cold compiles timed for `mso.compile_ms` and `mso.prepare_us`.
const ISOLATED_COMPILES: usize = 4;
/// `/healthz` round trips timed for `pulse.rtt_us`.
const RTT_PROBES: usize = 200;

/// Time the layers no traced request reaches, one call at a time, as
/// spans under one `isolated` root.
pub fn isolated(
    replica: &Replica,
    spec: &Spec,
    exp: &Expected,
    addr: std::net::SocketAddr,
    spans: &mut Spans,
) -> Result<(), String> {
    let root = spans.start("isolated", None, 0);
    for _ in 0..RTT_PROBES {
        let open = spans.start("pulse.healthz", Some(root.id), 0);
        let resp = qa_pulse::http_get(addr, "/healthz", qa_pulse::HttpTimeouts::default());
        spans.end(open, 0);
        if !resp.is_ok_and(|r| r.status == 200) {
            return Err("GET /healthz failed".to_string());
        }
    }
    // Cold formulas of the family the writer registers (indices the
    // writer never reaches).
    for i in 0..ISOLATED_COMPILES {
        replica.compile(spans, root.id, &spec.cold_formula(1_000_000 + i))?;
    }
    // The replica's compiled queries and trees share one alphabet.
    let (compiled, trees): (Vec<Arc<CompiledQuery>>, Vec<Arc<Tree>>) = {
        let mut guard = replica.state.lock().expect("replica lock");
        let (store, cache) = &mut *guard;
        let compiled = spec
            .queries
            .iter()
            .map(|q| {
                cache
                    .compile(q.text, store.alphabet_mut(), None)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        (
            compiled,
            store.docs().iter().map(|d| Arc::clone(&d.tree)).collect(),
        )
    };
    let sigma = exp.sigma;
    let (shared, request) = (Metrics::new(), Metrics::new());
    let budget = served_budget(&replica.cfg);
    let started = Instant::now();
    while started.elapsed() < ISOLATED_BUDGET {
        for (d, tree) in trees.iter().enumerate() {
            let n = tree.num_nodes();
            let open = spans.start("trees.encode_with_map", Some(root.id), 0);
            std::hint::black_box(qa_trees::fcns::encode_with_map(tree, nil_symbol(sigma)));
            spans.end(open, n);
            for (q, p) in compiled.iter().map(|c| &c.prepared).enumerate() {
                let open = spans.start("mso.eval_unranked", Some(root.id), 0);
                let picked = p.eval_unranked(tree);
                spans.end(open, n);
                let mut ids: Vec<u64> = picked.iter().map(|v| v.index() as u64).collect();
                ids.sort_unstable();
                if ids != exp.answers[q][d] {
                    return Err(format!(
                        "isolated eval of `{}` disagrees with the oracle",
                        spec.queries[q].text
                    ));
                }
                let open = spans.start("mso.eval_unranked_explained", Some(root.id), 0);
                std::hint::black_box(p.eval_unranked_explained(tree, &mut NoopObserver));
                spans.end(open, n);
                let mut obs = served(&shared, &request, budget);
                let open = spans.start("mso.eval_served_stack", Some(root.id), 0);
                std::hint::black_box(p.eval_unranked_with(tree, &mut obs));
                spans.end(open, n);
            }
        }
    }
    // Ingest and XML parsing, on the documents the writer ingests.
    let ingested: Vec<(String, String)> = (0..16)
        .filter_map(|j| match spec.write(j) {
            Write::Ingest { name, text } => Some((name, text)),
            Write::Register { .. } => None,
        })
        .collect();
    let xml: Vec<String> = ingested
        .iter()
        .map(|(_, text)| match text.starts_with('<') {
            true => Ok(text.clone()),
            false => {
                let mut a = Alphabet::new();
                qa_trees::sexpr::from_sexpr(text, &mut a)
                    .map(|t| to_xml(&t, &a))
                    .map_err(|e| e.to_string())
            }
        })
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    while started.elapsed() < ISOLATED_BUDGET {
        let mut store = DocStore::new();
        for ((name, text), xml) in ingested.iter().zip(&xml) {
            let open = spans.start("serve.ingest", Some(root.id), 0);
            let receipt = store.ingest(name, text).map_err(|e| e.to_string())?;
            spans.end(open, receipt.nodes);
            let mut alphabet = store.alphabet().clone();
            let open = spans.start("xml.parse", Some(root.id), 0);
            let doc = qa_xml::parser::parse_with_alphabet(xml, &mut alphabet)
                .map_err(|e| e.to_string())?;
            spans.end(open, doc.tree.num_nodes());
        }
    }
    spans.end(root, 0);
    Ok(())
}

/// An element-only XML rendering of a tree.
fn to_xml(tree: &Tree, alphabet: &Alphabet) -> String {
    fn go(t: &Tree, a: &Alphabet, v: qa_trees::NodeId, out: &mut String) {
        let name = a.name(t.label(v));
        if t.children(v).is_empty() {
            out.push_str(&format!("<{name}/>"));
            return;
        }
        out.push_str(&format!("<{name}>"));
        for &c in t.children(v) {
            go(t, a, c, out);
        }
        out.push_str(&format!("</{name}>"));
    }
    let mut out = String::new();
    go(tree, alphabet, tree.root(), &mut out);
    out
}

/// One span's figures.
pub struct Timed {
    pub duration_ns: u64,
    pub self_ns: u64,
    pub nodes: u64,
}

/// Spans recorded by [`Replica::replay`] and [`isolated`], by layer.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, Vec<Timed>> {
    let mut out: BTreeMap<&'static str, Vec<Timed>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(qa_bench_serve::trace::self_times(spans)) {
        out.entry(s.name).or_default().push(Timed {
            duration_ns: s.duration_ns(),
            self_ns,
            nodes: s.nodes,
        });
    }
    out
}
