//! Quickstart: build and run query automata from the paper.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use query_automata::prelude::*;

fn main() -> Result<()> {
    // ── Strings: the Example 3.4 query automaton ────────────────────────
    // "select every 1 at an odd position counting from the right end"
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&sigma);
    let w = sigma.word("0110");
    println!("Example 3.4 on 0110 selects positions {:?}", qa.query(&w)?);

    // ── Unranked trees: the Example 5.14 strong query automaton ─────────
    // "select every 1-labeled leaf with no 1-labeled left sibling" — the
    // query Proposition 5.10 proves impossible without stay transitions.
    let sqa = example_5_14(&sigma);
    let mut names = sigma.clone();
    let tree = from_sexpr("(0 0 1 (1 1) 0 1)", &mut names)?;
    println!("tree: {}", tree.render(&names));
    let selected = sqa.query(&tree)?;
    for v in &selected {
        println!(
            "  selected node {v:?} (label {}, depth {})",
            names.name(tree.label(*v)),
            tree.depth(*v)
        );
    }

    // ── The same query, written in MSO and compiled ─────────────────────
    let mut a2 = sigma.clone();
    let phi = parse_mso(
        "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))",
        &mut a2,
    )?;
    let automaton = query_automata::mso::unranked::compile_unary(&phi, "v", sigma.len())?;
    let compiled =
        query_automata::mso::PreparedUnary::new(&automaton, sigma.len()).eval_unranked(&tree);
    println!("MSO compilation selects {compiled:?}");
    assert_eq!(
        {
            let mut s = selected.clone();
            s.sort_unstable();
            s
        },
        {
            let mut c = compiled;
            c.sort_unstable();
            c
        },
        "Theorem 5.17: the SQAu and the MSO query agree"
    );

    // ── Decision procedures (Section 6) ─────────────────────────────────
    let witness = query_automata::decision::string_decisions::non_emptiness(&qa)
        .expect("example 3.4 selects something");
    println!(
        "non-emptiness witness: word {:?}, position {}",
        sigma.render(&witness.word),
        witness.position
    );
    Ok(())
}
