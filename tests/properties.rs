//! Randomized property tests for the workspace invariants listed in
//! DESIGN.md §6, driven by the deterministic `qa_base::rng` generator so
//! every failure reproduces from its printed seed.

use query_automata::base::rng::{Rng, StdRng};
use query_automata::mso::{compile_string, naive, query_eval, unranked, PreparedUnary};
use query_automata::prelude::*;
use query_automata::strings::{ops, Regex};
use query_automata::twoway::{behavior::BehaviorAnalysis, crossing, shepherdson};

fn sym(i: usize) -> Symbol {
    Symbol::from_index(i)
}

/// Random regex AST over a 2-symbol alphabet.
fn random_regex(rng: &mut StdRng, depth: u32) -> Regex {
    if depth == 0 || rng.gen_bool(0.3) {
        match rng.gen_range(0..3) {
            0 => Regex::Epsilon,
            1 => Regex::Sym(sym(0)),
            _ => Regex::Sym(sym(1)),
        }
    } else {
        match rng.gen_range(0..3) {
            0 => Regex::Concat(
                Box::new(random_regex(rng, depth - 1)),
                Box::new(random_regex(rng, depth - 1)),
            ),
            1 => Regex::Alt(
                Box::new(random_regex(rng, depth - 1)),
                Box::new(random_regex(rng, depth - 1)),
            ),
            _ => Regex::Star(Box::new(random_regex(rng, depth - 1))),
        }
    }
}

fn random_word(rng: &mut StdRng, max_len: usize) -> Vec<Symbol> {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| sym(rng.gen_range(0..2))).collect()
}

/// Random unranked tree over a 2-symbol alphabet, 1..=max_nodes nodes.
fn random_tree(rng: &mut StdRng, max_nodes: usize) -> Tree {
    let n = rng.gen_range(1..=max_nodes);
    query_automata::trees::generate::random(rng, &[sym(0), sym(1)], n, None)
}

/// regex → NFA → DFA → minimized DFA all agree on membership.
#[test]
fn regex_pipeline_agrees() {
    let mut rng = StdRng::seed_from_u64(101);
    for case in 0..64 {
        let r = random_regex(&mut rng, 3);
        let w = random_word(&mut rng, 8);
        let nfa = r.to_nfa(2);
        let dfa = nfa.determinize();
        let min = dfa.minimize();
        let via_nfa = nfa.accepts(&w);
        assert_eq!(via_nfa, dfa.accepts(&w), "case {case}: {r:?} on {w:?}");
        assert_eq!(via_nfa, min.accepts(&w), "case {case}: {r:?} on {w:?}");
        assert!(min.num_states() <= dfa.num_states(), "case {case}");
    }
}

/// complement really complements; intersection with the complement is
/// empty.
#[test]
fn complement_laws() {
    let mut rng = StdRng::seed_from_u64(102);
    for case in 0..64 {
        let r = random_regex(&mut rng, 3);
        let w = random_word(&mut rng, 6);
        let nfa = r.to_nfa(2);
        let comp = ops::complement(&nfa);
        assert_eq!(nfa.accepts(&w), !comp.accepts(&w), "case {case}: {r:?}");
        assert!(nfa.intersect(&comp.to_nfa()).is_empty(), "case {case}");
    }
}

/// Example 3.4 QA: direct run, behavior-function evaluation, the
/// Shepherdson DFA and the crossing-sequence NFAs all agree.
#[test]
fn string_qa_strategies_agree() {
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&Alphabet::from_names(["0", "1"]));
    let shep = shepherdson::to_dfa(qa.machine());
    let cross = crossing::acceptance_nfa(qa.machine());
    let sel = crossing::selection_nfa(&qa);
    let mut rng = StdRng::seed_from_u64(103);
    for case in 0..64 {
        let w = random_word(&mut rng, 10);
        let via_run = qa.query(&w).unwrap();
        let via_beh = qa.query_via_behavior(&w);
        assert_eq!(via_run, via_beh, "case {case}: {w:?}");

        // acceptance: 2DFA vs Shepherdson vs crossing NFA
        let accepts = qa.machine().accepts(&w).unwrap();
        assert_eq!(accepts, shep.accepts(&w), "case {case}: {w:?}");
        assert_eq!(accepts, cross.accepts(&w), "case {case}: {w:?}");

        // selection NFA agrees position by position
        for pos in 0..w.len() {
            let marked = crossing::mark(&w, pos, 2);
            assert_eq!(
                via_run.contains(&pos),
                sel.accepts(&marked),
                "case {case}: {w:?} @ {pos}"
            );
        }
    }
}

/// Behavior analysis reproduces the literal run on random words.
#[test]
fn behavior_analysis_matches_run() {
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&Alphabet::from_names(["0", "1"]));
    let m = qa.machine();
    let mut rng = StdRng::seed_from_u64(104);
    for case in 0..64 {
        let w = random_word(&mut rng, 12);
        let rec = m.run(&w).unwrap();
        let ba = BehaviorAnalysis::analyze(m, &w);
        assert_eq!(ba.accepted(m), rec.accepted, "case {case}: {w:?}");
        for (i, states) in rec.assumed.iter().enumerate() {
            let mut got = ba.assumed[i].clone();
            let mut want = states.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "case {case}: {w:?} @ {i}");
        }
    }
}

/// Compiled MSO sentences agree with the naive semantics on strings.
#[test]
fn mso_string_sentences_agree() {
    let mut a = Alphabet::from_names(["0", "1"]);
    let corpus: Vec<(Formula, query_automata::strings::Dfa)> = [
        "ex x. label(x, 1)",
        "all x. all y. (edge(x, y) -> !(label(x, 1) & label(y, 1)))",
        "ex x. ex y. (x < y & label(x, 1) & label(y, 0))",
        "ex2 X. ((all x. (root(x) -> x in X)) \
         & (all x. all y. (edge(x, y) -> (y in X <-> !(x in X)))) \
         & (all x. (leaf(x) -> !(x in X))))",
    ]
    .iter()
    .map(|src| {
        let f = parse_mso(src, &mut a).unwrap();
        let d = compile_string::compile_sentence(&f, 2).unwrap();
        (f, d)
    })
    .collect();
    let mut rng = StdRng::seed_from_u64(105);
    for case in 0..64 {
        let w = random_word(&mut rng, 7);
        let (f, d) = &corpus[rng.gen_range(0..corpus.len())];
        let naive_verdict = naive::check(naive::Structure::Word(&w), f).unwrap();
        assert_eq!(d.accepts(&w), naive_verdict, "case {case}: {w:?}");
    }
}

/// FCNS round trip on random trees.
#[test]
fn fcns_round_trip() {
    let nil = sym(2);
    let mut rng = StdRng::seed_from_u64(106);
    for case in 0..48 {
        let t = random_tree(&mut rng, 40);
        let enc = query_automata::trees::fcns::encode(&t, nil);
        assert!(enc.is_ranked(2), "case {case}");
        assert_eq!(
            query_automata::trees::fcns::decode(&enc, nil),
            t,
            "case {case}"
        );
    }
}

/// Example 5.14 SQAu ≡ compiled MSO ≡ reference predicate on random
/// trees — Theorem 5.17 in action.
#[test]
fn example_5_14_equals_mso_query() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let sqa = example_5_14(&sigma);
    let mut a = sigma.clone();
    let phi = parse_mso(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a,
    )
    .unwrap();
    let automaton = PreparedUnary::new(&unranked::compile_unary(&phi, "v", 2).unwrap(), 2);
    let mut rng = StdRng::seed_from_u64(107);
    for case in 0..48 {
        let t = random_tree(&mut rng, 24);
        let mut via_sqa = sqa.query(&t).unwrap();
        let mut via_mso = automaton.eval_unranked(&t);
        via_sqa.sort_unstable();
        via_mso.sort_unstable();
        assert_eq!(via_sqa, via_mso, "case {case}");
    }
}

/// Two-pass evaluation ≡ naive per-node evaluation (Figure 6).
#[test]
fn two_pass_matches_naive() {
    let mut a = Alphabet::from_names(["0", "1"]);
    let phi = parse_mso("leaf(v) & (ex r. (root(r) & label(r, 1)))", &mut a).unwrap();
    let d = unranked::compile_unary(&phi, "v", 2).unwrap();
    let prepared = PreparedUnary::new(&d, 2);
    let mut rng = StdRng::seed_from_u64(108);
    for case in 0..48 {
        let t = random_tree(&mut rng, 20);
        let mut fast = prepared.eval_unranked(&t);
        let mut slow = query_eval::eval_unary_unranked_naive(&d, &t, 2);
        fast.sort_unstable();
        slow.sort_unstable();
        assert_eq!(fast, slow, "case {case}");
    }
}

/// Unranked run confluence: random schedules select the same nodes.
#[test]
fn unranked_runs_are_confluent() {
    let qa = example_5_14(&Alphabet::from_names(["0", "1"]));
    let mut rng = StdRng::seed_from_u64(109);
    for case in 0..48 {
        let t = random_tree(&mut rng, 16);
        let reference = qa.machine().run(&t).unwrap();
        let rec = qa
            .machine()
            .run_scheduled(&t, qa.machine().default_fuel(&t), |n| rng.gen_range(0..n))
            .unwrap();
        assert_eq!(rec.accepted, reference.accepted, "case {case}");
        assert_eq!(rec.assumed, reference.assumed, "case {case}");
    }
}

/// Random metrics registry: arbitrary counter bumps and series samples.
fn random_metrics(rng: &mut StdRng) -> query_automata::obs::Metrics {
    use query_automata::obs::{Counter, Observer, Series};
    let m = query_automata::obs::Metrics::new();
    {
        let mut o = m.observer();
        for _ in 0..rng.gen_range(0..40) {
            let c = Counter::ALL[rng.gen_range(0..Counter::ALL.len())];
            o.count(c, rng.gen_range(0..1000) as u64);
        }
        for _ in 0..rng.gen_range(0..40) {
            let s = Series::ALL[rng.gen_range(0..Series::ALL.len())];
            // Spread samples across the full bucket range, including 0.
            let v = (rng.gen_range(0..1024) as u64) << rng.gen_range(0..50);
            o.record(s, v);
        }
    }
    m
}

/// `Metrics::merge` is commutative and associative — the algebraic fact
/// `qa-fleet --jobs N` byte-identity rests on: any grouping and any order
/// of per-run registries must fold to the same exposition.
#[test]
fn metrics_merge_is_commutative_and_associative() {
    use query_automata::probe::export::prometheus_text;
    let mut rng = StdRng::seed_from_u64(110);
    for case in 0..32 {
        let (a, b, c) = (
            random_metrics(&mut rng),
            random_metrics(&mut rng),
            random_metrics(&mut rng),
        );
        let render = |parts: &[&query_automata::obs::Metrics]| {
            let acc = query_automata::obs::Metrics::new();
            for p in parts {
                acc.merge(p);
            }
            prometheus_text(&acc, "qa_prop")
        };
        // Commutativity: a+b == b+a.
        assert_eq!(render(&[&a, &b]), render(&[&b, &a]), "case {case}");
        // Associativity: (a+b)+c == a+(b+c), via the flat fold and the
        // explicitly grouped fold.
        let ab = query_automata::obs::Metrics::new();
        ab.merge(&a);
        ab.merge(&b);
        let bc = query_automata::obs::Metrics::new();
        bc.merge(&b);
        bc.merge(&c);
        assert_eq!(render(&[&ab, &c]), render(&[&a, &bc]), "case {case}");
        assert_eq!(render(&[&ab, &c]), render(&[&a, &b, &c]), "case {case}");
    }
}
