//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Nothing inside the program is instrumented: a span covers one call the
//! benchmark makes into a layer's public function. Spans of one request
//! share its request id; a span's parent is the span that caused it. They
//! stay in memory until the run ends and are then written out as JSON
//! lines with their self times.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the process.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer name, e.g. `obs.json_parse`.
    pub name: &'static str,
    /// Request the span belongs to (0 for work outside any request).
    pub req: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Tree nodes the call processed, for per-node figures (0 if none).
    pub nodes: u64,
}

impl Span {
    /// `end - start` in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[must_use = "end the span with Spans::end"]
pub struct Open {
    index: usize,
    /// The span's id, to parent other spans on.
    pub id: u64,
}

/// Spans recorded by one thread, against a shared epoch.
#[derive(Clone, Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now.
    pub fn start(&mut self, name: &'static str, parent: Option<u64>, req: u64) -> Open {
        self.start_at(name, parent, req, Instant::now())
    }

    /// Start a span at `t`.
    pub fn start_at(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        t: Instant,
    ) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.ns(t);
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: start_ns,
            nodes: 0,
        });
        Open {
            index: self.spans.len() - 1,
            id,
        }
    }

    /// End a span now, crediting it with `nodes` processed.
    pub fn end(&mut self, open: Open, nodes: usize) {
        self.end_at(open, nodes, Instant::now());
    }

    /// End a span at `t`.
    pub fn end_at(&mut self, open: Open, nodes: usize, t: Instant) {
        let end_ns = self.ns(t);
        let span = &mut self.spans[open.index];
        span.end_ns = end_ns;
        span.nodes = nodes as u64;
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.start(name, parent, req);
        let out = f();
        self.end(open, 0);
        out
    }

    /// Take over spans recorded elsewhere (another thread, same epoch).
    pub fn extend(&mut self, other: Vec<Span>) {
        self.spans.extend(other);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover. Children may overlap
/// each other or reach past their parent; only the covered part of the
/// parent's own interval is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.duration_ns();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// One JSON line per span, with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        out.push_str(&qa_obs::json::object(|w| {
            w.field_u64("id", s.id);
            match s.parent {
                Some(p) => w.field_u64("parent", p),
                None => w.field_raw("parent", "null"),
            }
            w.field_str("name", s.name);
            w.field_u64("req", s.req);
            w.field_u64("start_ns", s.start_ns);
            w.field_u64("end_ns", s.end_ns);
            w.field_u64("self_ns", self_ns);
            w.field_u64("nodes", s.nodes);
        }));
        out.push('\n');
    }
    out
}
