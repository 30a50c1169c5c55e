//! MSO over unranked trees (Theorem 5.4), realized through the
//! first-child/next-sibling encoding.
//!
//! An unranked MSO formula is *translated* into an MSO formula over the
//! binary encoding: the unranked parent–child relation `E` becomes
//! "left child, then a chain of right children", sibling order becomes
//! "a nonempty chain of right children", and quantifiers are relativized to
//! the non-`nil` nodes. The ranked compiler (Theorem 2.8's construction)
//! then produces the automaton. This mirrors how the paper transfers
//! results between Sections 4 and 5, with the encoding in the role of the
//! `≡ᵏ`-type bookkeeping.

use qa_base::{Error, Result, Symbol};
use qa_core::ranked::Dbta;
use qa_trees::{NodeId, Tree};

use crate::ast::Formula;
use crate::compile_ranked;

/// The alphabet size of the encoded world: Σ plus the `nil` padding symbol
/// (`nil` is the last symbol, index `sigma`).
pub fn encoded_alphabet_len(sigma: usize) -> usize {
    sigma + 1
}

/// The `nil` symbol for a Σ of the given size.
pub fn nil_symbol(sigma: usize) -> Symbol {
    Symbol::from_index(sigma)
}

/// `¬label(x, nil)`.
fn nonnil(x: &str, sigma: usize) -> Formula {
    Formula::Label(x.to_string(), nil_symbol(sigma)).not()
}

/// Translate an unranked-tree formula into an encoded-binary-tree formula.
///
/// The navigation atoms `FirstChild`/`SecondChild`/`Chain2` compile to
/// 3-state automata, so each unranked `edge`/`<` costs only one extra
/// first-order variable. `depth` disambiguates the helper variables.
///
/// Errors on the encoding-level navigation atoms: they are not part of the
/// unranked surface language, and formulas are caller-supplied, so this is
/// a domain error rather than a programming bug.
fn translate(f: &Formula, sigma: usize, depth: usize) -> Result<Formula> {
    Ok(match f {
        Formula::True | Formula::False | Formula::Eq(_, _) | Formula::In(_, _) => f.clone(),
        Formula::Label(x, a) => Formula::Label(x.clone(), *a),
        Formula::FirstChild(_, _) | Formula::SecondChild(_, _) | Formula::Chain2(_, _) => {
            return Err(Error::domain(
                "encoding navigation atoms (first_child/second_child/chain2) \
                 are not part of the unranked surface language",
            ))
        }
        Formula::Edge(x, y) => {
            // unranked E(x, y): y is in the second-child chain from x's
            // first (encoded left) child
            let w = format!("#e{depth}");
            Formula::exists(
                w.clone(),
                Formula::FirstChild(x.clone(), w.clone()).and(Formula::Chain2(w, y.clone())),
            )
        }
        Formula::Less(x, y) => {
            // sibling order: y in the nonempty second-child chain from x
            let w = format!("#s{depth}");
            Formula::exists(
                w.clone(),
                Formula::SecondChild(x.clone(), w.clone()).and(Formula::Chain2(w, y.clone())),
            )
        }
        Formula::Not(p) => translate(p, sigma, depth)?.not(),
        Formula::And(p, q) => translate(p, sigma, depth + 1)?.and(translate(q, sigma, depth + 2)?),
        Formula::Or(p, q) => translate(p, sigma, depth + 1)?.or(translate(q, sigma, depth + 2)?),
        Formula::Exists(v, p) => Formula::exists(
            v.clone(),
            nonnil(v, sigma).and(translate(p, sigma, depth + 1)?),
        ),
        Formula::Forall(v, p) => Formula::forall(
            v.clone(),
            nonnil(v, sigma).implies(translate(p, sigma, depth + 1)?),
        ),
        Formula::ExistsSet(v, p) => {
            let u = format!("#m{depth}");
            Formula::exists_set(
                v.clone(),
                Formula::forall(
                    u.clone(),
                    Formula::In(u.clone(), v.clone()).implies(nonnil(&u, sigma)),
                )
                .and(translate(p, sigma, depth + 1)?),
            )
        }
        Formula::ForallSet(v, p) => {
            let u = format!("#m{depth}");
            Formula::forall_set(
                v.clone(),
                Formula::forall(
                    u.clone(),
                    Formula::In(u.clone(), v.clone()).implies(nonnil(&u, sigma)),
                )
                .implies(translate(p, sigma, depth + 1)?),
            )
        }
    })
}

/// Compile an unranked-tree MSO sentence to a DBTAʳ over the encoded
/// alphabet `(Σ ⊎ {nil}) × {}` (rank 2); test trees with
/// [`accepts_unranked`].
pub fn compile_sentence(f: &Formula, sigma: usize) -> Result<Dbta> {
    let translated = translate(f, sigma, 0)?;
    compile_ranked::compile_sentence(&translated, encoded_alphabet_len(sigma), 2)
}

/// Compile a unary unranked query `φ(x)` to a DBTAʳ over the encoded
/// marked alphabet; evaluate with [`PreparedUnary::eval_unranked`](crate::PreparedUnary::eval_unranked).
pub fn compile_unary(f: &Formula, var: &str, sigma: usize) -> Result<Dbta> {
    let translated = translate(f, sigma, 0)?;
    // relativize the free variable as well
    let relativized = nonnil(var, sigma).and(translated);
    compile_ranked::compile_unary(&relativized, var, encoded_alphabet_len(sigma), 2)
}

/// Whether the compiled sentence automaton accepts the unranked tree.
pub fn accepts_unranked(d: &Dbta, tree: &Tree, sigma: usize) -> bool {
    let enc = qa_trees::fcns::encode(tree, nil_symbol(sigma));
    d.accepts(&enc)
}

/// Evaluate a compiled unary automaton on an unranked tree node by marking
/// its encoded counterpart (the naive per-node strategy).
pub fn selects_unranked(d: &Dbta, tree: &Tree, node: NodeId, sigma: usize) -> bool {
    let (enc, map) = qa_trees::fcns::encode_with_map(tree, nil_symbol(sigma));
    let enc_node = map
        .iter()
        .position(|&s| s == Some(node))
        .expect("every source node has an encoded counterpart");
    let marked = compile_ranked::mark_tree(
        &enc,
        NodeId::from_index(enc_node),
        encoded_alphabet_len(sigma),
    );
    d.accepts(&marked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{check, query, Structure};
    use crate::parser::parse;
    use crate::PreparedUnary;
    use qa_base::rng::StdRng;
    use qa_base::Alphabet;

    fn random_unranked(sigma: usize, count: usize, seed: u64) -> Vec<Tree> {
        let labels: Vec<Symbol> = (0..sigma).map(Symbol::from_index).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for n in [1usize, 2, 4, 6] {
            for _ in 0..count {
                out.push(qa_trees::generate::random(&mut rng, &labels, n, None));
            }
        }
        out
    }

    fn agree_sentence(src: &str, sigma_names: &[&str], seed: u64) {
        let mut a = Alphabet::from_names(sigma_names.to_vec());
        let sigma = a.len();
        let f = parse(src, &mut a).unwrap();
        let d = compile_sentence(&f, sigma).unwrap();
        for t in random_unranked(sigma, 3, seed) {
            let naive = check(Structure::Tree(&t), &f).unwrap();
            assert_eq!(
                accepts_unranked(&d, &t, sigma),
                naive,
                "{src} on {}",
                t.render(&a)
            );
        }
    }

    #[test]
    fn label_queries_transfer() {
        agree_sentence("ex x. label(x, b)", &["a", "b"], 11);
        agree_sentence("all x. (leaf(x) -> label(x, a))", &["a", "b"], 12);
    }

    #[test]
    fn unranked_edge_is_true_parenthood() {
        agree_sentence(
            "ex x. ex y. (edge(x, y) & label(x, a) & label(y, b))",
            &["a", "b"],
            13,
        );
        // E is not the encoded edge: a node and its (unranked) second child
        agree_sentence(
            "ex x. ex y. ex z. (edge(x, y) & edge(x, z) & y < z)",
            &["a", "b"],
            14,
        );
    }

    #[test]
    fn sibling_order_transfers() {
        agree_sentence(
            "ex x. ex y. (x < y & label(x, b) & label(y, b))",
            &["a", "b"],
            15,
        );
    }

    #[test]
    fn root_leaf_on_unranked() {
        // NB: root(x)/leaf(x) desugar to edge-based forms, which translate.
        agree_sentence("ex x. (root(x) & label(x, b))", &["a", "b"], 16);
        agree_sentence("all x. (label(x, b) -> leaf(x))", &["a", "b"], 17);
    }

    #[test]
    fn encoding_atoms_are_a_domain_error_not_a_panic() {
        let f = Formula::exists(
            "x",
            Formula::exists("y", Formula::FirstChild("x".to_string(), "y".to_string())),
        );
        assert!(matches!(
            compile_sentence(&f, 2),
            Err(qa_base::Error::Domain { .. })
        ));
        assert!(matches!(
            compile_unary(&f, "x", 2),
            Err(qa_base::Error::Domain { .. })
        ));
    }

    /// Every unary formula, on every random tree, selects the same nodes
    /// through the compiled automaton ([`selects_unranked`]), through the
    /// served path ([`PreparedUnary::eval_unranked`]), and under the naive
    /// MSO semantics — the independent oracle. The served path's dense
    /// tables must equal `ops::totalize` entry for entry.
    #[test]
    fn unary_query_on_unranked_trees() {
        let table = [
            // Proposition 5.10's query (with b for 1): b-labeled leaves
            // with no b-labeled node among their left siblings.
            "label(v, b) & leaf(v) & !(ex w. (w < v & label(w, b)))",
            "label(v, a)",
            "ex w. (edge(w, v) & label(w, a))",
            "ex w. (w < v & label(w, b))",
            "root(v) | (leaf(v) & label(v, b))",
            // Nested quantifiers: every left sibling of v has a child.
            "all w. (w < v -> ex u. edge(w, u))",
        ];
        for (i, src) in table.into_iter().enumerate() {
            let mut a = Alphabet::from_names(["a", "b"]);
            let sigma = a.len();
            let f = parse(src, &mut a).unwrap();
            let d = compile_unary(&f, "v", sigma).unwrap();
            crate::query_eval::assert_tables_match_totalize(&d);
            let prepared = PreparedUnary::new(&d, sigma);
            for t in random_unranked(sigma, 3, 18 + i as u64) {
                let naive = query(Structure::Tree(&t), &f, "v").unwrap();
                let mut served: Vec<usize> = prepared
                    .eval_unranked(&t)
                    .into_iter()
                    .map(|v| v.index())
                    .collect();
                served.sort_unstable();
                assert_eq!(served, naive, "{src} on {}", t.render(&a));
                for v in t.nodes() {
                    assert_eq!(
                        selects_unranked(&d, &t, v, sigma),
                        naive.contains(&v.index()),
                        "{src}: node {v:?} of {}",
                        t.render(&a)
                    );
                }
            }
        }
    }

    #[test]
    fn unary_query_matches_example_5_14_sqa() {
        let a = Alphabet::from_names(["0", "1"]);
        let sigma = a.len();
        let qa = qa_core::unranked::query::example_5_14(&a);
        let mut a2 = a.clone();
        let src = "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))";
        let f = parse(src, &mut a2).unwrap();
        let d = compile_unary(&f, "v", sigma).unwrap();
        for t in random_unranked(sigma, 3, 19) {
            let selected = qa.query(&t).unwrap();
            for v in t.nodes() {
                assert_eq!(
                    selects_unranked(&d, &t, v, sigma),
                    selected.contains(&v),
                    "node {v:?} of {}",
                    t.render(&a)
                );
            }
        }
    }
}
