//! Write MSO, get automata: the Büchi / Doner–Thatcher–Wright pipelines and
//! the constructive Theorem 3.9 synthesis.
//!
//! ```sh
//! cargo run --example mso_queries
//! ```

use query_automata::mso::{compile_string, naive, to_qa, unranked, PreparedUnary};
use query_automata::prelude::*;

fn main() -> Result<()> {
    let sigma = Alphabet::from_names(["a", "b"]);

    // ── Sentences on strings (Theorem 2.5) ───────────────────────────────
    let mut names = sigma.clone();
    let phi = parse_mso(
        "all x. all y. (edge(x, y) -> !(label(x, b) & label(y, b)))",
        &mut names,
    )?;
    let dfa = compile_string::compile_sentence(&phi, sigma.len())?;
    println!(
        "\"no two consecutive b\" compiled to a {}-state DFA",
        dfa.num_states()
    );
    for text in ["abab", "abba", ""] {
        let w = names.word(text);
        println!(
            "  {text:?}: automaton={} naive={}",
            dfa.accepts(&w),
            naive::check(naive::Structure::Word(&w), &phi)?
        );
    }

    // ── Unary query → literal two-way query automaton (Theorem 3.9) ─────
    let mut names2 = sigma.clone();
    let psi = parse_mso("(root(v) | leaf(v)) & (ex x. label(x, b))", &mut names2)?;
    let marked = compile_string::compile_unary(&psi, "v", sigma.len())?;
    let synthesized: StringQa = to_qa::string_query_to_qa(&marked, sigma.len())?;
    println!(
        "\nRemark 3.3's query synthesized as a 2DFA with {} states:",
        synthesized.machine().num_states()
    );
    for text in ["aba", "aaa", "b"] {
        let w = names2.word(text);
        println!("  {text:?} selects {:?}", synthesized.query(&w)?);
    }

    // ── Unranked trees (Theorems 5.4/5.17) ───────────────────────────────
    let mut names3 = sigma.clone();
    let tree = from_sexpr("(a b (a b b) a b)", &mut names3)?;
    let chi = parse_mso("label(v, b) & !(ex w. (w < v & label(w, b)))", &mut names3)?;
    let automaton = unranked::compile_unary(&chi, "v", sigma.len())?;
    let fast = PreparedUnary::new(&automaton, sigma.len()).eval_unranked(&tree);
    let slow = naive::query(naive::Structure::Tree(&tree), &chi, "v")?;
    println!(
        "\n\"first b among siblings\" on {}:\n  two-pass (Fig. 6): {fast:?}\n  naive MSO:        {slow:?}",
        tree.render(&names3)
    );
    Ok(())
}
