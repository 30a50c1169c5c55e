//! Cross-crate integration tests: the full pipelines a user of the facade
//! crate would run.

use query_automata::decision::{ranked_decisions, string_decisions, tiling};
use query_automata::mso::{compile_string, naive, to_qa, unranked, PreparedUnary};
use query_automata::prelude::*;
use query_automata::xml::{figures, validate};

/// Figures 1–4 → DTD validation → MSO query → selected nodes.
#[test]
fn bibliography_pipeline() {
    let (doc, dtd) = figures::bibliography().unwrap();
    validate::validate(&dtd, &doc.tree).unwrap();
    let auto = validate::to_automaton(&dtd).unwrap();
    assert!(auto.accepts(&doc.tree));

    // "select all authors of books"
    let mut a = doc.alphabet.clone();
    let phi = parse_mso(
        "label(v, author) & (ex b. (label(b, book) & edge(b, v)))",
        &mut a,
    )
    .unwrap();
    let compiled = unranked::compile_unary(&phi, "v", doc.alphabet.len()).unwrap();
    let selected = PreparedUnary::new(&compiled, doc.alphabet.len()).eval_unranked(&doc.tree);
    // the book has exactly 3 authors; the article's author is not selected
    assert_eq!(selected.len(), 3);
    let author = doc.alphabet.symbol("author");
    let book = doc.alphabet.symbol("book");
    for v in &selected {
        assert_eq!(doc.tree.label(*v), author);
        assert_eq!(doc.tree.label(doc.tree.parent(*v).unwrap()), book);
    }
    // agree with the naive semantics
    let slow = naive::query(naive::Structure::Tree(&doc.tree), &phi, "v").unwrap();
    let mut fast: Vec<usize> = selected.iter().map(|v| v.index()).collect();
    fast.sort_unstable();
    assert_eq!(fast, slow);
}

/// MSO → marked DFA → synthesized two-way QA → crossing-sequence decision.
#[test]
fn string_synthesis_and_decisions_agree() {
    let sigma = Alphabet::from_names(["a", "b"]);
    let mut a = sigma.clone();
    let phi = parse_mso("leaf(v) & (ex x. label(x, b))", &mut a).unwrap();
    let marked = compile_string::compile_unary(&phi, "v", sigma.len()).unwrap();
    let qa = to_qa::string_query_to_qa(&marked, sigma.len()).unwrap();

    // non-emptiness through the crossing-sequence pipeline, on a machine
    // synthesized from a compact query (crossing-sequence spaces grow
    // exponentially with machine size, so keep the decision leg small)
    let mut a2 = sigma.clone();
    let simple = parse_mso("label(v, b)", &mut a2).unwrap();
    let simple_marked = compile_string::compile_unary(&simple, "v", sigma.len()).unwrap();
    let simple_qa = to_qa::string_query_to_qa(&simple_marked, sigma.len()).unwrap();
    let w = string_decisions::non_emptiness(&simple_qa).expect("query is satisfiable");
    assert!(simple_qa.query(&w.word).unwrap().contains(&w.position));
    // the witness is minimal: the single word "b" with its only position
    assert_eq!(w.word, vec![sigma.symbol("b")]);
    assert_eq!(w.position, 0);

    // semantics spot-check: the synthesized machine matches the marked DFA
    for text in ["", "a", "b", "ab", "aab", "bba"] {
        let word: Vec<Symbol> = text.chars().map(|c| sigma.symbol(&c.to_string())).collect();
        let selected = qa.query(&word).unwrap();
        for pos in 0..word.len() {
            let m = compile_string::mark_word(&word, pos, sigma.len());
            assert_eq!(
                selected.contains(&pos),
                marked.accepts(&m),
                "{text} @ {pos}"
            );
        }
    }

    // containment/equivalence are exercised on the compact hand-built
    // machine (the synthesized one's selection NFA is too large to
    // complement in a unit-test budget — containment needs ¬L_sel).
    let hand = query_automata::twoway::string_qa::example_3_4_qa(&Alphabet::from_names(["0", "1"]));
    assert!(string_decisions::equivalence(&hand, &hand.clone()).is_ok());
    let mut never = hand.clone();
    for s in 0..never.machine().num_states() {
        for x in 0..2 {
            never.set_selecting(
                query_automata::strings::StateId::from_index(s),
                Symbol::from_index(x),
                false,
            );
        }
    }
    assert!(string_decisions::equivalence(&hand, &never).is_err());
    assert!(string_decisions::containment(&never, &hand).is_ok());
}

/// Tiling game ⇄ automaton non-emptiness on a batch of random instances.
#[test]
fn tiling_reduction_matches_game_solver() {
    use query_automata::base::rng::{Rng, StdRng};
    let mut rng = StdRng::seed_from_u64(2026);
    let mut wins = 0;
    let mut losses = 0;
    // two tiles keeps the strategy trees binary (fixpoint tuples quadratic);
    // the EXPTIME growth itself is measured in bench e5, not asserted here.
    for _ in 0..15 {
        let num_tiles = 2usize;
        let width = rng.gen_range(1..=2usize);
        let mut horizontal = Vec::new();
        let mut vertical = Vec::new();
        for x in 0..num_tiles {
            for y in 0..num_tiles {
                if rng.gen_bool(0.7) {
                    horizontal.push((x, y));
                }
                if rng.gen_bool(0.5) {
                    vertical.push((x, y));
                }
            }
        }
        let inst = tiling::TilingInstance {
            num_tiles,
            horizontal,
            vertical,
            bottom: (0..width).map(|_| rng.gen_range(0..num_tiles)).collect(),
            top: (0..width).map(|_| rng.gen_range(0..num_tiles)).collect(),
        };
        let winner = tiling::solve_game(&inst).unwrap();
        let machine = tiling::to_tree_automaton(&inst).unwrap();
        let mut qa = RankedQa::new(machine);
        for s in 0..qa.machine().num_states() {
            for t in 0..qa.machine().alphabet_len() {
                qa.set_selecting(
                    query_automata::strings::StateId::from_index(s),
                    Symbol::from_index(t),
                    true,
                );
            }
        }
        // The summary space is worst-case exponential (the problem is
        // EXPTIME-complete); skip the rare instance that blows the budget.
        let nonempty = match ranked_decisions::non_emptiness_with_budget(&qa, 5_000) {
            Ok(r) => r,
            Err(query_automata::base::Error::FuelExhausted { .. }) => continue,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(nonempty.is_some(), winner, "{inst:?}");
        if let Some(w) = nonempty {
            assert!(
                qa.machine().accepts(&w.tree).unwrap(),
                "witness strategy tree accepted: {inst:?}"
            );
        }
        if winner {
            wins += 1;
        } else {
            losses += 1;
        }
    }
    assert!(
        wins > 0 && losses > 0,
        "instance mix exercises both outcomes"
    );
}

/// Ranked decision fixpoint vs brute force on perturbed circuit automata.
#[test]
fn ranked_decisions_match_bounded_oracle() {
    let a = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let full = example_4_4(&a);
    let variants: Vec<RankedQa> = {
        let mut v = vec![full.clone()];
        // drop selections one symbol at a time
        for name in ["AND", "OR", "1"] {
            let mut q = full.clone();
            for s in 0..q.machine().num_states() {
                q.set_selecting(
                    query_automata::strings::StateId::from_index(s),
                    a.symbol(name),
                    false,
                );
            }
            v.push(q);
        }
        v
    };
    for (i, q1) in variants.iter().enumerate() {
        for q2 in &variants {
            let exact = ranked_decisions::containment(q1, q2).unwrap();
            let brute = query_automata::decision::bounded::containment_bounded(
                &|t| q1.query(t).unwrap_or_default(),
                &|t| q2.query(t).unwrap_or_default(),
                a.len(),
                2,
                5,
            );
            assert_eq!(exact.is_some(), brute.is_some(), "variant {i}");
            if let Some(w) = exact {
                assert!(q1.query(&w.tree).unwrap().contains(&w.node));
                assert!(!q2.query(&w.tree).unwrap().contains(&w.node));
            }
        }
    }
}

/// The paper's headline discrepancy: QAu and SQAu accept the same tree
/// languages but compute different queries (Propositions 5.10/5.15 +
/// Example 5.14).
#[test]
fn stay_transitions_add_query_power_not_language_power() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let sqa = example_5_14(&sigma);
    assert!(sqa.is_strong());
    // language: the Example 5.14 machine accepts every tree (F = Q)
    let mut names = sigma.clone();
    for s in ["0", "(1 0 1)", "(0 (1 1) (0 0 1))"] {
        let t = from_sexpr(s, &mut names).unwrap();
        assert!(sqa.accepts(&t).unwrap(), "{s}");
    }
    // query: selects exactly the first-1-leaf-per-sibling-group nodes,
    // which Proposition 5.10 shows no stay-free QAu computes. Sanity-check
    // the query against the MSO compilation.
    let mut a2 = sigma.clone();
    let phi = parse_mso(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a2,
    )
    .unwrap();
    let compiled = unranked::compile_unary(&phi, "v", sigma.len()).unwrap();
    let t = from_sexpr("(0 1 1 (1 0 1) 1)", &mut names).unwrap();
    let mut via_sqa = sqa.query(&t).unwrap();
    let mut via_mso = PreparedUnary::new(&compiled, sigma.len()).eval_unranked(&t);
    via_sqa.sort_unstable();
    via_mso.sort_unstable();
    assert_eq!(via_sqa, via_mso);
}
