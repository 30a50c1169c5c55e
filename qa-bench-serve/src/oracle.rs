//! Expected answers, computed without any automaton.
//!
//! Each served formula comes with a hand-written predicate over the tree
//! that states its meaning directly. The expected node set of a
//! `(formula, document)` pair is the set of nodes the predicate accepts.
//! For the small bibliography documents the predicates are confirmed once
//! more against the naive MSO semantics in `qa_mso::naive`.

use qa_base::{Alphabet, Result};
use qa_trees::{NodeId, Tree};

/// One served formula with its free node variable `v` and its meaning.
pub struct Query {
    /// The MSO formula text sent to the daemon.
    pub text: &'static str,
    /// Whether node `v` of the tree belongs to the answer.
    pub selects: fn(&Tree, &Alphabet, NodeId) -> bool,
}

fn is(t: &Tree, a: &Alphabet, v: NodeId, label: &str) -> bool {
    a.name(t.label(v)) == label
}

fn has_child(t: &Tree, a: &Alphabet, v: NodeId, label: &str) -> bool {
    t.children(v).iter().any(|&c| is(t, a, c, label))
}

fn has_parent(t: &Tree, a: &Alphabet, v: NodeId, label: &str) -> bool {
    t.parent(v).is_some_and(|p| is(t, a, p, label))
}

/// `eval_heavy`'s formulas over the random a/b/c documents: label tests
/// plus one `edge` quantifier.
pub const EVAL_QUERIES: [Query; 4] = [
    Query {
        text: "label(v, a)",
        selects: |t, a, v| is(t, a, v, "a"),
    },
    Query {
        text: "leaf(v) & label(v, c)",
        selects: |t, a, v| t.children(v).is_empty() && is(t, a, v, "c"),
    },
    Query {
        text: "label(v, b) | label(v, c)",
        selects: |t, a, v| is(t, a, v, "b") || is(t, a, v, "c"),
    },
    Query {
        text: "label(v, a) & ex x. (edge(v, x) & label(x, b))",
        selects: |t, a, v| is(t, a, v, "a") && has_child(t, a, v, "b"),
    },
];

/// `request_heavy`'s and `churn`'s formulas over Figure 1 bibliographies,
/// in the same shape: label tests plus one `edge` quantifier.
pub const BIB_QUERIES: [Query; 4] = [
    Query {
        text: "label(v, author)",
        selects: |t, a, v| is(t, a, v, "author"),
    },
    Query {
        text: "label(v, title) & ex x. (edge(x, v) & label(x, book))",
        selects: |t, a, v| is(t, a, v, "title") && has_parent(t, a, v, "book"),
    },
    Query {
        text: "label(v, year) | label(v, journal)",
        selects: |t, a, v| is(t, a, v, "year") || is(t, a, v, "journal"),
    },
    Query {
        text: "label(v, book) | label(v, article)",
        selects: |t, a, v| is(t, a, v, "book") || is(t, a, v, "article"),
    },
];

/// A document parsed locally, numbered exactly as the daemon numbers it
/// (the store uses the same s-expression and XML parsers).
pub struct LocalDoc {
    /// The parsed tree.
    pub tree: Tree,
    /// The labels its symbols name.
    pub alphabet: Alphabet,
}

impl LocalDoc {
    /// Parse XML (text starting with `<`) or an s-expression.
    pub fn parse(text: &str) -> Result<LocalDoc> {
        let text = text.trim();
        if text.starts_with('<') {
            let doc = qa_xml::parser::parse_document(text)?;
            Ok(LocalDoc {
                tree: doc.tree,
                alphabet: doc.alphabet,
            })
        } else {
            let mut alphabet = Alphabet::new();
            let tree = qa_trees::sexpr::from_sexpr(text, &mut alphabet)?;
            Ok(LocalDoc { tree, alphabet })
        }
    }

    /// Node ids `query` selects, ascending.
    pub fn answer(&self, query: &Query) -> Vec<u64> {
        self.tree
            .nodes()
            .filter(|&v| (query.selects)(&self.tree, &self.alphabet, v))
            .map(|v| v.index() as u64)
            .collect()
    }

    /// Node ids the naive MSO semantics selects for `query`, ascending.
    pub fn naive_answer(&self, query: &Query) -> Result<Vec<u64>> {
        let mut alphabet = self.alphabet.clone();
        let formula = qa_mso::parse(query.text, &mut alphabet)?;
        let mut nodes: Vec<u64> =
            qa_mso::naive::query(qa_mso::naive::Structure::Tree(&self.tree), &formula, "v")?
                .into_iter()
                .map(|v| v as u64)
                .collect();
        nodes.sort_unstable();
        Ok(nodes)
    }
}
