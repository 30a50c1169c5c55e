//! Every benchmark input as a pure function of `(seed, workload)`: the
//! corpus, the request schedule, the cold formulas and the writer's
//! documents. The daemon receives only what this module generates.

use std::time::Duration;

use crate::oracle::{Query, BIB_QUERIES, EVAL_QUERIES};

/// Closed-loop client threads of `eval_heavy` and `request_heavy` (the
/// host's core count; `churn` uses one reader and one writer thread).
pub const CLIENTS: usize = 2;
/// Every `WHY_EVERY`-th read asks for `why` certificates.
pub const WHY_EVERY: usize = 5;
/// `eval_heavy`: random a/b/c documents and their size.
pub const EVAL_DOCS: usize = 8;
/// Nodes per `eval_heavy` document.
pub const EVAL_DOC_NODES: usize = 5_000;
/// Copies of the Figure 1 entries a reader bibliography holds (23, 45 or
/// 89 nodes). `request_heavy` and `churn` read nine bibliographies, three
/// of each size; the seed decides which name gets which, so every seed
/// offers the same mix of work.
pub const BIB_SIZES: [usize; 3] = [1, 2, 4];
/// Reader bibliographies.
pub const BIB_DOCS: usize = 9;
/// `churn`: the open-loop reader's rate, about a tenth of what
/// `request_heavy`'s closed loop sustains on a 2-core host.
pub const CHURN_READS_PER_S: u32 = 250;
/// Labels of the `eval_heavy` corpus (besides `#pcdata`).
pub const EVAL_LABELS: [&str; 3] = ["a", "b", "c"];
/// `churn`: the writer acts every quarter second; one act in eight
/// registers a cold formula (one every two seconds), the other seven
/// ingest a changed document. On the seed code a cold compile stalls every
/// read for about a quarter second. At this pace the stall and the backlog
/// behind it reach about one read in ten, so `query_p99_ms` lands inside
/// the stall while the median stays clear of it.
pub const WRITER_PERIOD: Duration = Duration::from_millis(250);
/// Writer acts per register.
pub const WRITER_ACTS_PER_REGISTER: usize = 8;
/// Distinct document names the writer cycles through.
pub const WRITER_NAMES: usize = 3;
/// Bibliography sizes the writer's documents cycle through. An odd count
/// puts the median ingest inside one size rather than between two.
pub const WRITER_SIZES: usize = 5;
/// Labels of the bibliography corpus (besides `#pcdata`).
pub const BIB_LABELS: [&str; 8] = [
    "bibliography",
    "book",
    "article",
    "author",
    "title",
    "publisher",
    "year",
    "journal",
];

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 6 evaluation dominates: large documents, two closed-loop clients.
    EvalHeavy,
    /// Fixed per-request cost dominates: tiny documents, two closed-loop clients.
    RequestHeavy,
    /// Open-loop reads beside a writer that compiles and ingests.
    Churn,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` names `eval_heavy` and `churn`.
    pub const ALL: [Workload; 3] = [Workload::EvalHeavy, Workload::RequestHeavy, Workload::Churn];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalHeavy => "eval_heavy",
            Workload::RequestHeavy => "request_heavy",
            Workload::Churn => "churn",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `POST /query` the reader sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Read {
    /// Index into [`Spec::queries`].
    pub query: usize,
    /// Index into [`Spec::docs`].
    pub doc: usize,
    /// Whether to ask for `why` certificates.
    pub why: bool,
}

/// One act of the writer: `churn` paces these beside its reads; the
/// closed-loop workloads run a few back to back between rounds of reads, to
/// time registers and ingests on an otherwise idle daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Write {
    /// Register a never-seen formula under `id`.
    Register {
        /// The registered id.
        id: String,
        /// The formula.
        formula: String,
    },
    /// Ingest a changed document under a writer-only name.
    Ingest {
        /// Document name (never one the reader reads).
        name: String,
        /// The document: XML for bibliographies, an s-expression otherwise.
        text: String,
    },
}

/// The generated inputs of one workload and seed.
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// The seed everything is drawn from.
    pub seed: u64,
    /// The reader's corpus as `(name, text)`, s-expressions or XML.
    pub docs: Vec<(String, String)>,
    /// The pre-compiled (warm) formulas.
    pub queries: &'static [Query],
}

impl Spec {
    /// Generate the inputs of `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let (docs, queries): (_, &'static [Query]) = match workload {
            Workload::EvalHeavy => (
                qa_serve::soak_corpus(seed, EVAL_DOCS, EVAL_DOC_NODES),
                &EVAL_QUERIES,
            ),
            Workload::RequestHeavy | Workload::Churn => (
                permutation(seed, "bib", BIB_DOCS)
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let k = BIB_SIZES[p % BIB_SIZES.len()];
                        (format!("bib-{i}"), qa_bench::bibliography_of_size(k))
                    })
                    .collect(),
                &BIB_QUERIES,
            ),
        };
        Spec {
            workload,
            seed,
            docs,
            queries,
        }
    }

    /// Read `i` of reader stream `stream` (one stream per client thread).
    pub fn read(&self, stream: usize, i: usize) -> Read {
        let h = hash(self.seed, "read", ((stream as u64) << 40) | i as u64);
        Read {
            query: (h % self.queries.len() as u64) as usize,
            doc: ((h >> 20) % self.docs.len() as u64) as usize,
            why: i.is_multiple_of(WHY_EVERY),
        }
    }

    /// Labels of this workload's corpus (besides `#pcdata`).
    fn labels(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::EvalHeavy => &EVAL_LABELS,
            Workload::RequestHeavy | Workload::Churn => &BIB_LABELS,
        }
    }

    /// Cold formula `i`: distinct for every `i` (its variable is named
    /// after `i`), one quantifier, and only corpus labels, so registering
    /// it never grows σ and never invalidates the warm cache.
    pub fn cold_formula(&self, i: usize) -> String {
        let h = hash(self.seed, "cold", i as u64);
        let labels = self.labels();
        let a = labels[(h % labels.len() as u64) as usize];
        let b = labels[((h >> 8) % labels.len() as u64) as usize];
        let edge = if (h >> 16) & 1 == 0 {
            format!("edge(v, x{i})")
        } else {
            format!("edge(x{i}, v)")
        };
        format!("label(v, {a}) & ex x{i}. ({edge} & label(x{i}, {b}))")
    }

    /// The writer's act `j`: a register every [`WRITER_ACTS_PER_REGISTER`]
    /// acts, ingests in between. Every ingest changes the store: a
    /// bibliography differs in size from that name's previous one, a
    /// random document is drawn afresh.
    pub fn write(&self, j: usize) -> Write {
        let per = WRITER_ACTS_PER_REGISTER;
        if j.is_multiple_of(per) {
            let i = j / per;
            return Write::Register {
                id: format!("cold-{i}"),
                formula: self.cold_formula(i),
            };
        }
        let ingest = j / per * (per - 1) + j % per - 1;
        let name = format!("w-{}", ingest % WRITER_NAMES);
        let round = ingest / WRITER_NAMES;
        let text = match self.workload {
            Workload::EvalHeavy => {
                let seed = hash(self.seed, "writer", ingest as u64);
                qa_serve::soak_corpus(seed, 1, EVAL_DOC_NODES).remove(0).1
            }
            Workload::RequestHeavy | Workload::Churn => {
                // Consecutive entries of a permutation differ.
                let sizes = permutation(self.seed, &name, WRITER_SIZES);
                qa_bench::bibliography_of_size(1 + sizes[round % WRITER_SIZES])
            }
        };
        Write::Ingest { name, text }
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(seed: u64, tag: &str, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (hash(seed, tag, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// FNV-1a over `seed/tag/i`: the one source of randomness for schedules.
fn hash(seed: u64, tag: &str, i: u64) -> u64 {
    qa_obs::fnv1a64(format!("{seed}/{tag}/{i}").as_bytes())
}
