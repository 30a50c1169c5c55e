//! The `qa-obs` instrumentation layer end to end.
//!
//! Three scenarios, each observed a different way:
//!
//! 1. the Example 3.4 two-way string run, captured as a full
//!    configuration-by-configuration [`RunTrace`] (head reversals included);
//! 2. a Figure 5 two-pass ranked MSO evaluation, with per-phase wall-clock
//!    timings and table-lookup counts;
//! 3. a Theorem 6.3 query non-emptiness check, with summary-fixpoint and
//!    witness-materialization metrics.
//!
//! The final output is a single JSON run report assembled with
//! `qa_obs::json` — no serde anywhere.
//!
//! Run with: `cargo run --example observability`

use query_automata::obs::json;
use query_automata::obs::{Metrics, RunTrace, Tee};
use query_automata::prelude::*;

fn main() {
    // ── 1. Example 3.4: trace the literal two-way run ────────────────────
    // "select every 1 at an odd position from the right": the head runs to
    // the right endmarker, comes back counting parity, so every run has
    // exactly one head reversal.
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = query_automata::twoway::string_qa::example_3_4_qa(&sigma);
    let word: Vec<Symbol> = [1u32, 0, 1, 1, 0, 1]
        .iter()
        .map(|&i| Symbol::from_index(i as usize))
        .collect();

    let mut trace = RunTrace::new();
    let selected = qa.query_with(&word, &mut trace).unwrap();
    println!("=== Example 3.4 on 101101 ===");
    println!("selected positions: {selected:?}");
    print!("{}", trace.render_text());
    let string_report = trace.to_json();

    // ── 2. Figure 5: two-pass ranked MSO evaluation ──────────────────────
    // Compile "v is a leaf and the root is labeled s" and evaluate it on a
    // complete binary tree with the linear two-pass algorithm. A Tee feeds
    // the same events to a Metrics registry (counters + histograms) and a
    // RunTrace (per-phase wall-clock).
    let mut a = Alphabet::from_names(["s", "t"]);
    let phi = parse_mso("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
    let d = query_automata::mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
    let tree = query_automata::trees::generate::complete(a.symbol("s"), 2, 10);

    let fig5_metrics = Metrics::new();
    let mut fig5_trace = RunTrace::new();
    let selected = {
        let mut tee = Tee(fig5_metrics.observer(), &mut fig5_trace);
        query_automata::mso::PreparedUnary::new(&d, 2).eval_ranked_with(&tree, &mut tee)
    };
    println!("\n=== Figure 5 ranked evaluation ===");
    println!("selected {} of {} nodes", selected.len(), tree.num_nodes());
    for p in &fig5_trace.phases {
        println!("  [{}] {:.3} ms", p.name, p.elapsed.as_secs_f64() * 1e3);
    }

    // ── 3. Theorem 6.3: query non-emptiness ──────────────────────────────
    // Is there a circuit on which the Example 4.4 query selects some node?
    // The decision procedure saturates a summary fixpoint, then materializes
    // a witness tree.
    let circuits = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let ranked_qa = example_4_4(&circuits);
    let ne_metrics = Metrics::new();
    let mut ne_trace = RunTrace::new();
    let witness = {
        let mut tee = Tee(ne_metrics.observer(), &mut ne_trace);
        query_automata::decision::ranked_decisions::non_emptiness_with(
            &ranked_qa,
            query_automata::decision::ranked_decisions::DEFAULT_MAX_ITEMS,
            &mut tee,
        )
        .unwrap()
    };
    println!("\n=== Theorem 6.3 non-emptiness ===");
    match &witness {
        Some(w) => println!(
            "non-empty; witness: {} selecting node {:?}",
            to_sexpr(&w.tree, &circuits),
            w.node
        ),
        None => println!("empty query"),
    }

    // ── the combined JSON run report ─────────────────────────────────────
    let report = json::object(|w| {
        w.field_raw("example_3_4_run", &string_report);
        w.field_raw(
            "fig5_ranked_eval",
            &json::object(|s| {
                s.field_raw("metrics", &fig5_metrics.to_json());
                s.field_raw("trace", &fig5_trace.to_json());
            }),
        );
        w.field_raw(
            "thm_6_3_nonemptiness",
            &json::object(|s| {
                s.field_bool("nonempty", witness.is_some());
                s.field_raw("metrics", &ne_metrics.to_json());
                s.field_raw("trace", &ne_trace.to_json());
            }),
        );
    });
    println!("\n=== JSON run report ===");
    println!("{report}");
}
