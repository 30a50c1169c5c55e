//! (query, document) batch jobs and the aggregate [`BehaviorCache`].
//!
//! A [`Job`] names one evaluation or decision to perform; [`evaluate_cached`]
//! runs it against a [`BehaviorCache`], and [`par_evaluate`] /
//! [`par_evaluate_with`] fan a slice of jobs out over the work-stealing
//! executor with one private cache per worker. Outcomes are returned in job
//! order and are identical — including selection order — to running each
//! job's plain sequential engine.

use qa_base::Symbol;
use qa_core::ranked::RankedQa;
use qa_core::unranked::{UnrankedQa, UpCache};
use qa_decision::ranked_decisions::{containment_cached, non_emptiness_cached, SummaryCache};
use qa_mso::PreparedUnary;
use qa_obs::{NoopObserver, Observer};
use qa_trees::{NodeId, Tree};
use qa_twoway::{CrossingCache, StringQa};

use crate::executor::par_batch_with;

/// One worker's private memoization state, aggregating every cache layer of
/// the workspace:
///
/// - [`CrossingCache`] — hash-consed 2DFA crossing-behavior columns
///   (Theorem 3.9) for [`Job::String`];
/// - [`UpCache`] — memoized up/stay decisions on children pair-strings for
///   [`Job::Unranked`];
/// - [`SummaryCache`] — interned subtree summaries of the §6 emptiness
///   fixpoint for [`Job::NonEmptiness`] / [`Job::Containment`].
///
/// Each layer fingerprints its machine and resets itself when a job switches
/// machines, so one `BehaviorCache` is always safe for a mixed batch — it is
/// merely *fastest* when jobs sharing a machine are adjacent (which the
/// executor's contiguous chunking preserves). The caches share `Rc`s
/// internally and are `!Send`; [`par_evaluate`] therefore builds one per
/// worker rather than sharing one across the batch.
#[derive(Debug, Default)]
pub struct BehaviorCache {
    /// Crossing-behavior columns for string QA jobs.
    pub crossings: CrossingCache,
    /// Up/stay decisions for unranked QA jobs.
    pub ups: UpCache,
    /// Subtree summaries for ranked decision jobs.
    pub summaries: SummaryCache,
}

impl BehaviorCache {
    /// An empty cache aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups answered from memory across all layers.
    pub fn hits(&self) -> u64 {
        self.crossings.hits() + self.ups.hits() + self.summaries.hits()
    }

    /// Total lookups that had to run the underlying machinery.
    pub fn misses(&self) -> u64 {
        self.crossings.misses() + self.ups.misses() + self.summaries.misses()
    }

    /// Drop every interned entry and reset all statistics.
    pub fn clear(&mut self) {
        self.crossings.clear();
        self.ups.clear();
        self.summaries.clear();
    }
}

/// One (query, document) unit of batch work.
///
/// Jobs borrow their query and document, so a batch over 10k documents and a
/// handful of queries costs 10k thin records, not 10k clones.
#[derive(Clone, Copy, Debug)]
pub enum Job<'a> {
    /// Evaluate a string QA on a word via cached behavior analysis
    /// ([`StringQa::query_cached`]). Yields [`Outcome::Positions`].
    String {
        /// The query automaton.
        qa: &'a StringQa,
        /// The input word.
        word: &'a [Symbol],
    },
    /// Evaluate a ranked QA on a tree ([`RankedQa::query_with`]; ranked
    /// runs replay directly and have no cache layer). Yields
    /// [`Outcome::Nodes`].
    Ranked {
        /// The query automaton.
        qa: &'a RankedQa,
        /// The input tree (must respect the machine's rank).
        tree: &'a Tree,
    },
    /// Evaluate an unranked (possibly strong) QA on a tree via memoized
    /// up/stay decisions ([`UnrankedQa::query_cached`]). Yields
    /// [`Outcome::Nodes`].
    Unranked {
        /// The query automaton.
        qa: &'a UnrankedQa,
        /// The input tree.
        tree: &'a Tree,
    },
    /// Evaluate a compiled MSO unary query on a ranked tree (Figure 5).
    /// The [`PreparedUnary`] *is* the cache here — its transition tables
    /// are built once at construction, outside the batch. Yields
    /// [`Outcome::Nodes`].
    Mso {
        /// The prepared compiled query.
        query: &'a PreparedUnary,
        /// The input tree.
        tree: &'a Tree,
    },
    /// Decide non-emptiness of a ranked QA ([`non_emptiness_cached`]).
    /// Yields [`Outcome::Witness`].
    NonEmptiness {
        /// The query automaton.
        qa: &'a RankedQa,
        /// Summary budget for the fixpoint.
        max_items: usize,
    },
    /// Decide containment `A₁ ⊆ A₂` ([`containment_cached`]). Yields
    /// [`Outcome::Witness`] (a violation, or `None` when contained).
    Containment {
        /// The left (contained) automaton.
        a1: &'a RankedQa,
        /// The right (containing) automaton.
        a2: &'a RankedQa,
        /// Summary budget for the fixpoint.
        max_items: usize,
    },
}

/// The result of one [`Job`], comparable across sequential and parallel
/// runs (`Eq`, so parity is a plain `assert_eq!`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Selected word positions (0-based) of a [`Job::String`].
    Positions(Vec<usize>),
    /// Selected nodes of a tree job, in the engine's order.
    Nodes(Vec<NodeId>),
    /// Decision verdict: `Some((witness_size, marked_node))` for a
    /// non-empty / non-contained instance, `None` otherwise.
    Witness(Option<(usize, NodeId)>),
    /// The engine reported an error (budget exhausted, malformed input);
    /// the message is kept so a batch never panics on one bad job.
    Error(String),
}

/// Run one job against `cache`, reporting to `obs`.
///
/// This is the single-job kernel both [`par_evaluate`] and external callers
/// (e.g. a CLI driving its own executor) use; hits and misses land on the
/// observer as [`qa_obs::Counter::CacheHits`] /
/// [`qa_obs::Counter::CacheMisses`].
pub fn evaluate_cached<O: Observer>(
    job: &Job<'_>,
    cache: &mut BehaviorCache,
    obs: &mut O,
) -> Outcome {
    match *job {
        Job::String { qa, word } => {
            Outcome::Positions(qa.query_cached(word, &mut cache.crossings, obs))
        }
        Job::Ranked { qa, tree } => match qa.query_with(tree, obs) {
            Ok(nodes) => Outcome::Nodes(nodes),
            Err(e) => Outcome::Error(e.to_string()),
        },
        Job::Unranked { qa, tree } => match qa.query_cached(tree, &mut cache.ups, obs) {
            Ok(nodes) => Outcome::Nodes(nodes),
            Err(e) => Outcome::Error(e.to_string()),
        },
        Job::Mso { query, tree } => Outcome::Nodes(query.eval_ranked_with(tree, obs)),
        Job::NonEmptiness { qa, max_items } => {
            match non_emptiness_cached(qa, max_items, &mut cache.summaries, obs) {
                Ok(w) => Outcome::Witness(w.map(|w| (w.tree.num_nodes(), w.node))),
                Err(e) => Outcome::Error(e.to_string()),
            }
        }
        Job::Containment { a1, a2, max_items } => {
            match containment_cached(a1, a2, max_items, &mut cache.summaries, obs) {
                Ok(w) => Outcome::Witness(w.map(|w| (w.tree.num_nodes(), w.node))),
                Err(e) => Outcome::Error(e.to_string()),
            }
        }
    }
}

/// Evaluate a batch of jobs on `workers` threads, one private
/// [`BehaviorCache`] per worker; outcomes in job order.
///
/// The parallel result is **identical** to the sequential one: each job's
/// outcome depends only on its query and document (caches change cost, never
/// answers), so worker count and steal order are unobservable in the output.
///
/// # Examples
///
/// Evaluate a query on 10 000 documents in parallel:
///
/// ```
/// use qa_par::{par_evaluate, Job, Outcome};
/// use qa_twoway::string_qa::example_3_4_qa;
///
/// let a = qa_base::Alphabet::from_names(["0", "1"]);
/// let qa = example_3_4_qa(&a);
/// let docs: Vec<Vec<qa_base::Symbol>> = (0..10_000)
///     .map(|i| a.word(if i % 2 == 0 { "0110" } else { "10110" }))
///     .collect();
/// let jobs: Vec<Job> = docs
///     .iter()
///     .map(|w| Job::String { qa: &qa, word: w })
///     .collect();
/// let outcomes = par_evaluate(4, &jobs);
/// assert_eq!(outcomes.len(), 10_000);
/// assert_eq!(outcomes[0], Outcome::Positions(vec![1]));
/// assert_eq!(outcomes[1], Outcome::Positions(vec![0, 2]));
/// ```
pub fn par_evaluate(workers: usize, jobs: &[Job<'_>]) -> Vec<Outcome> {
    par_evaluate_with(workers, jobs, |_| NoopObserver)
}

/// [`par_evaluate`] with a per-worker [`Observer`] built by
/// `make_obs(worker_index)`.
///
/// Each observer lives on its worker's thread for the whole batch, so
/// stateful observers (watchdogs, tracers) see a coherent per-worker
/// stream. To aggregate, hand every worker a [`qa_obs::MetricsObserver`]
/// onto per-worker [`qa_obs::Metrics`] registries and
/// [`qa_obs::Metrics::merge`] them afterwards — counter totals are sums, so
/// the merged profile is independent of how jobs were stolen.
pub fn par_evaluate_with<O: Observer>(
    workers: usize,
    jobs: &[Job<'_>],
    make_obs: impl Fn(usize) -> O + Sync,
) -> Vec<Outcome> {
    par_batch_with(
        workers,
        jobs.iter().collect(),
        |wid| (BehaviorCache::new(), make_obs(wid)),
        |(cache, obs), _i, job| evaluate_cached(job, cache, obs),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_base::Alphabet;
    use qa_core::ranked::query::example_4_4;

    #[test]
    fn mixed_batch_matches_sequential_engines() {
        let sa = Alphabet::from_names(["0", "1"]);
        let sqa = example_3_4_qa_local(&sa);
        let word = sa.word("10110");
        let ca = Alphabet::from_names(["AND", "OR", "0", "1"]);
        let rqa = example_4_4(&ca);
        let mut c = ca.clone();
        let tree = qa_trees::sexpr::from_sexpr("(AND 1 (OR 0 1))", &mut c).unwrap();
        let jobs = [
            Job::String {
                qa: &sqa,
                word: &word,
            },
            Job::Ranked {
                qa: &rqa,
                tree: &tree,
            },
            Job::NonEmptiness {
                qa: &rqa,
                max_items: 10_000,
            },
        ];
        let out = par_evaluate(2, &jobs);
        assert_eq!(out[0], Outcome::Positions(sqa.query(&word).unwrap()));
        assert_eq!(out[1], Outcome::Nodes(rqa.query(&tree).unwrap()));
        let w = qa_decision::ranked_decisions::non_emptiness(&rqa)
            .unwrap()
            .map(|w| (w.tree.num_nodes(), w.node));
        assert_eq!(out[2], Outcome::Witness(w));
    }

    #[test]
    fn errors_become_outcomes_not_panics() {
        let ca = Alphabet::from_names(["AND", "OR", "0", "1"]);
        let rqa = example_4_4(&ca);
        // Self-containment holds, so the fixpoint can never stop early on a
        // violation; a 1-summary budget must trip the budget error.
        let out = par_evaluate(
            2,
            &[Job::Containment {
                a1: &rqa,
                a2: &rqa,
                max_items: 1,
            }],
        );
        assert!(matches!(out[0], Outcome::Error(_)), "got {:?}", out[0]);
    }

    fn example_3_4_qa_local(a: &Alphabet) -> StringQa {
        qa_twoway::string_qa::example_3_4_qa(a)
    }
}
