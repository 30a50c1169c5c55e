//! The paper's motivating workload (Section 1, Figures 1–4): parse the
//! bibliography document, validate it against its DTD, and run unary MSO
//! queries over it.
//!
//! ```sh
//! cargo run --example xml_bibliography
//! ```

use query_automata::mso::{unranked, PreparedUnary};
use query_automata::prelude::*;
use query_automata::xml::{figures, validate};

fn main() -> Result<()> {
    // Figures 1 + 2: document and DTD over a shared alphabet.
    let (doc, dtd) = figures::bibliography()?;
    let names = &doc.alphabet;
    println!("Figure 3 tree ({} nodes):", doc.tree.num_nodes());
    println!("  {}", doc.tree.render(names));

    // Validation, both directly and through the compiled tree automaton.
    validate::validate(&dtd, &doc.tree)?;
    let automaton = validate::to_automaton(&dtd)?;
    assert!(automaton.accepts(&doc.tree));
    println!("document validates against the Figure 2 DTD ✓");

    // Lemma 5.2: the DTD language is non-empty; here is a minimal document.
    let minimal = query_automata::core::unranked::emptiness::witness(&automaton)
        .expect("the DTD admits documents");
    println!("minimal valid document: {}", minimal.render(names));

    // ── Unary MSO queries over the document ─────────────────────────────
    let sigma = names.len();
    let queries = [
        (
            "authors of books",
            "label(v, author) & (ex b. (label(b, book) & edge(b, v)))",
        ),
        ("years appearing anywhere", "label(v, year)"),
        (
            "first author of each publication",
            "label(v, author) & !(ex w. (w < v & label(w, author)))",
        ),
        (
            "fields of publications that have a journal (articles)",
            "ex p. ex j. (edge(p, v) & edge(p, j) & label(j, journal))",
        ),
    ];
    for (what, src) in queries {
        let mut a = names.clone();
        let phi = parse_mso(src, &mut a)?;
        let compiled = unranked::compile_unary(&phi, "v", sigma)?;
        let selected = PreparedUnary::new(&compiled, sigma).eval_unranked(&doc.tree);
        println!("{what}:");
        for v in selected {
            let label = names.name(doc.tree.label(v));
            // show the text below, if any
            let text = doc
                .tree
                .children(v)
                .iter()
                .find_map(|&c| doc.text_of(c))
                .unwrap_or("");
            println!("  <{label}> {text}");
        }
    }
    Ok(())
}
