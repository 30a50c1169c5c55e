//! Observability guarantees: instrumentation must never change results
//! (the zero-cost claim, behavioral half), and observers must faithfully
//! capture what a run did.

use query_automata::base::rng::{Rng, StdRng};
use query_automata::obs::{Counter, Metrics, RunTrace, Series, Tee};
use query_automata::prelude::*;
use query_automata::twoway::string_qa::example_3_4_qa;

fn sym(i: usize) -> Symbol {
    Symbol::from_index(i)
}

fn random_word(rng: &mut StdRng, max_len: usize) -> Vec<Symbol> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| sym(rng.gen_range(0..2))).collect()
}

/// Satellite (b): on randomized words, the literal two-way run and the
/// Theorem 3.9 behavior computation agree — and both are unchanged by
/// instrumentation, whether the observer is a [`NoopObserver`], a
/// [`Metrics`] registry, or a full [`RunTrace`].
#[test]
fn string_qa_parity_instrumented_vs_uninstrumented() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_3_4_qa(&sigma);
    let mut rng = StdRng::seed_from_u64(201);
    for _ in 0..200 {
        let w = random_word(&mut rng, 40);

        let plain = qa.query(&w).unwrap();
        let noop = qa.query_with(&w, &mut NoopObserver).unwrap();
        let metrics = Metrics::new();
        let observed = qa.query_with(&w, &mut metrics.observer()).unwrap();
        let mut trace = RunTrace::new();
        let traced = qa.query_with(&w, &mut trace).unwrap();

        let via_behavior = qa.query_via_behavior(&w);
        let via_behavior_noop = qa.query_via_behavior_with(&w, &mut NoopObserver);
        let bm = Metrics::new();
        let via_behavior_obs = qa.query_via_behavior_with(&w, &mut bm.observer());

        assert_eq!(plain, noop);
        assert_eq!(plain, observed);
        assert_eq!(plain, traced);
        assert_eq!(plain, via_behavior, "Theorem 3.9 parity on {w:?}");
        assert_eq!(via_behavior, via_behavior_noop);
        assert_eq!(via_behavior, via_behavior_obs);
    }
}

/// Ranked and unranked tree queries are likewise observer-invariant.
#[test]
fn tree_qa_parity_instrumented_vs_uninstrumented() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let labels = [sigma.symbol("0"), sigma.symbol("1")];
    let uq = example_5_14(&sigma);
    let circuits = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let rq = example_4_4(&circuits);
    let circuit_labels = [
        circuits.symbol("AND"),
        circuits.symbol("OR"),
        circuits.symbol("0"),
        circuits.symbol("1"),
    ];
    let mut rng = StdRng::seed_from_u64(202);
    for _ in 0..40 {
        let n = rng.gen_range(1..=25);
        let t = query_automata::trees::generate::random(&mut rng, &labels, n, None);
        let metrics = Metrics::new();
        assert_eq!(
            uq.query(&t).unwrap(),
            uq.query_with(&t, &mut metrics.observer()).unwrap()
        );

        let ct = query_automata::trees::generate::random(&mut rng, &circuit_labels, n, Some(2));
        let metrics = Metrics::new();
        assert_eq!(
            rq.query(&ct).unwrap(),
            rq.query_with(&ct, &mut metrics.observer()).unwrap()
        );
    }
}

/// Decision procedures return the same verdict under observation.
#[test]
fn decision_parity_instrumented_vs_uninstrumented() {
    use query_automata::decision::ranked_decisions::{
        non_emptiness_with, non_emptiness_with_budget, DEFAULT_MAX_ITEMS,
    };
    let circuits = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let qa = example_4_4(&circuits);
    let plain = non_emptiness_with_budget(&qa, DEFAULT_MAX_ITEMS).unwrap();
    let metrics = Metrics::new();
    let observed = non_emptiness_with(&qa, DEFAULT_MAX_ITEMS, &mut metrics.observer()).unwrap();
    assert_eq!(plain.is_some(), observed.is_some());
    assert_eq!(
        plain.as_ref().map(|w| (&w.tree, w.node)),
        observed.as_ref().map(|w| (&w.tree, w.node)),
    );
    assert!(metrics.get(Counter::SummariesExplored) > 0);
}

/// Satellite (c): a [`RunTrace`] of the Example 3.4 2DFA run captures the
/// full configuration sequence — sweep right to the endmarker, one
/// reversal, sweep back flipping parity states.
#[test]
fn run_trace_captures_example_3_4_run() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_3_4_qa(&sigma);
    // 101101: six symbols, endmarked tape has length 8.
    let w: Vec<Symbol> = [1, 0, 1, 1, 0, 1].map(sym).to_vec();
    let mut trace = RunTrace::new();
    let selected = qa.query_with(&w, &mut trace).unwrap();
    assert_eq!(selected, vec![3, 5], "1s at odd positions from the right");

    // One configuration per visited tape cell: 8 moving right (including
    // the left endmarker start and the right endmarker turn), 7 back.
    assert_eq!(trace.configs.len(), 15);
    assert_eq!(trace.counter(Counter::Steps), 14);
    assert_eq!(trace.reversals(), 1);
    let first = &trace.configs[0];
    assert_eq!((first.state, first.pos, first.dir), (0, 0, 1));
    let turn = &trace.configs[7];
    assert_eq!(
        (turn.pos, turn.dir),
        (7, -1),
        "turns at the right endmarker"
    );
    let last = trace.configs.last().unwrap();
    assert_eq!((last.pos, last.dir), (0, 0), "halts on the left endmarker");
    // The trace also accumulated the per-position assumed-state series.
    let (count, _sum) = trace.samples(Series::AssumedStates);
    assert_eq!(count as usize, w.len() + 2);
    // Phases from StringQa::query_with.
    let names: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
    assert_eq!(names, ["run", "selection scan"]);
}

/// A [`Tee`] fans one run out to two observers that then agree on every
/// counter.
#[test]
fn tee_feeds_both_observers() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_3_4_qa(&sigma);
    let w: Vec<Symbol> = [1, 1, 0, 1].map(sym).to_vec();
    let metrics = Metrics::new();
    let mut trace = RunTrace::new();
    qa.query_with(&w, &mut Tee(metrics.observer(), &mut trace))
        .unwrap();
    for c in Counter::ALL {
        assert_eq!(metrics.get(c), trace.counter(c), "{}", c.name());
    }
}

/// The Figure 5 evaluator is observer-invariant and reports its three
/// phases.
#[test]
fn fig5_eval_parity_and_phases() {
    let mut a = Alphabet::from_names(["s", "t"]);
    let phi = parse_mso("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
    let d = query_automata::mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
    let t = query_automata::trees::generate::complete(a.symbol("s"), 2, 6);
    let prepared = query_automata::mso::PreparedUnary::new(&d, 2);
    let plain = prepared.eval_ranked_with(&t, &mut NoopObserver);
    let mut trace = RunTrace::new();
    let observed = prepared.eval_ranked_with(&t, &mut trace);
    assert_eq!(plain, observed);
    let names: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
    assert_eq!(names, ["bottom-up pass", "top-down pass", "verdicts"]);
    assert!(trace.counter(Counter::TableLookups) > 0);
}
