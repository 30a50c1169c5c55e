//! E2 (Figure 5 / Theorem 4.8): ranked unary-query evaluation — the
//! two-pass algorithm is linear, the naive per-node re-run quadratic.
//! A live `MetricsObserver` arm shows the cost of counting. Each two-pass
//! arm prepares the query (builds its transition tables) inside the timed
//! closure, so the figures include that per-call set-up.

use qa_base::Alphabet;
use qa_bench::Harness;
use qa_mso::PreparedUnary;
use qa_obs::{Metrics, NoopObserver};

fn main() {
    let mut h = Harness::new("e2_fig5_ranked_eval");
    let mut a = Alphabet::from_names(["s", "t"]);
    let phi = qa_mso::parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
    let d = qa_mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();

    for height in [4usize, 6, 8, 10] {
        let t = qa_trees::generate::complete(a.symbol("s"), 2, height);
        let n = t.num_nodes();
        h.bench(&format!("fig5_two_pass/{n}"), || {
            PreparedUnary::new(&d, 2)
                .eval_ranked_with(&t, &mut NoopObserver)
                .len()
        });
        let metrics = Metrics::new();
        h.bench(&format!("fig5_two_pass_metrics_obs/{n}"), || {
            PreparedUnary::new(&d, 2)
                .eval_ranked_with(&t, &mut metrics.observer())
                .len()
        });
        // naive is quadratic: keep it to the smaller sizes
        if height <= 8 {
            h.bench(&format!("naive_per_node/{n}"), || {
                qa_mso::query_eval::eval_unary_ranked_naive(&d, &t, 2).len()
            });
        }
    }
}
