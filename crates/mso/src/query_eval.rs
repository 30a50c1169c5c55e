//! Unary-query evaluation: naive re-runs vs the Figure 5/6 two-pass
//! algorithm.
//!
//! Given the compiled deterministic automaton `D` over `Σ × {0,1}` for a
//! unary query `φ(x)`, node `v` is selected iff `D` accepts the tree with
//! `v` marked. The naive strategy re-runs `D` per node — `O(n²)`. The
//! paper's Figure 5 (ranked) / Figure 6 (unranked) algorithm computes every
//! node's verdict in one bottom-up pass (subtree states, the
//! `τ(t_v, v)` analogue) and one top-down pass (context tables, the
//! `τ(t̄_v, v)` analogue): `O(n · |Q|)` overall. [`PreparedUnary`] is its
//! one entry point; Figure 6 is Figure 5 run on the first-child/next-sibling
//! encoding.

use qa_base::Symbol;
use qa_core::ranked::{ops, Dbta};
use qa_obs::{Counter, Machine, NoopObserver, Observer, Series};
use qa_strings::StateId;
use qa_trees::{NodeId, Tree};

use crate::compile_ranked::mark_tree;
use crate::compile_string::ext_symbol;
use crate::unranked::{encoded_alphabet_len, nil_symbol};

/// Naive evaluation: re-run the automaton once per node. `O(n²)`.
pub fn eval_unary_ranked_naive(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    tree.nodes()
        .filter(|&v| d.accepts(&mark_tree(tree, v, sigma)))
        .collect()
}

/// Naive per-node evaluation for unranked trees. `O(n²)`.
pub fn eval_unary_unranked_naive(d: &Dbta, tree: &Tree, sigma: usize) -> Vec<NodeId> {
    tree.nodes()
        .filter(|&v| crate::unranked::selects_unranked(d, tree, v, sigma))
        .collect()
}

/// A compiled unary query prepared for the Figure 5/6 algorithm: the
/// automaton is totalized **once**, at construction, instead of per
/// document. Totalization costs `O(|Q| · |Σ×{0,1}| · rank)`; across a
/// batch of small documents that fixed cost would dominate evaluation, so
/// qa-par's `Job::Mso` and the serving daemon's query cache hold a
/// `PreparedUnary` per compiled query and evaluate every document through
/// it.
#[derive(Clone, Debug)]
pub struct PreparedUnary {
    total: Dbta,
    sigma: usize,
}

impl PreparedUnary {
    /// Prepare `d` (compiled over `Σ × {0,1}` for a base alphabet of
    /// `sigma` symbols) by totalizing it now.
    pub fn new(d: &Dbta, sigma: usize) -> Self {
        PreparedUnary {
            total: ops::totalize(d),
            sigma,
        }
    }

    /// Base alphabet size the query was compiled over.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Figure 5 on a ranked tree: one bottom-up pass computing the
    /// all-unmarked subtree state of every node, one top-down pass computing
    /// every node's *context table* (the function "state at `v` ↦ state at
    /// the root"), then a per-node verdict. `O(n · |Q|)`.
    ///
    /// The two passes and the verdict scan run as named phases, every
    /// deterministic transition lookup is a [`Counter::TableLookups`], and
    /// the machine's (totalized) state count lands in
    /// [`Series::MachineStates`]. With [`NoopObserver`] the instrumentation
    /// compiles away.
    pub fn eval_ranked_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<NodeId> {
        two_pass(&self.total, tree, self.sigma, obs)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Figure 6 on an unranked tree, without instrumentation.
    pub fn eval_unranked(&self, tree: &Tree) -> Vec<NodeId> {
        self.eval_unranked_with(tree, &mut NoopObserver)
    }

    /// Figure 6 on an unranked tree: encode it (first-child/next-sibling)
    /// as its own `fcns encoding` phase, run Figure 5 on the encoding, and
    /// map the selected encoded nodes back.
    pub fn eval_unranked_with<O: Observer>(&self, tree: &Tree, obs: &mut O) -> Vec<NodeId> {
        self.eval_unranked_explained(tree, obs)
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }

    /// Like [`eval_unranked_with`](Self::eval_unranked_with), but pairs
    /// every selected node with its Figure 5 certificate: the state the
    /// bottom-up run reaches on the *marked* node, whose context maps it
    /// to an accepting root. The node list (and its order) is identical to
    /// `eval_unranked_with`. A serving daemon uses this for
    /// `why_selected` provenance.
    pub fn eval_unranked_explained<O: Observer>(
        &self,
        tree: &Tree,
        obs: &mut O,
    ) -> Vec<(NodeId, u32)> {
        obs.phase_start("fcns encoding");
        let (enc, map) = qa_trees::fcns::encode_with_map(tree, nil_symbol(self.sigma));
        obs.phase_end("fcns encoding");
        two_pass(&self.total, &enc, encoded_alphabet_len(self.sigma), obs)
            .into_iter()
            .filter_map(|(ev, state)| map[ev.index()].map(|v| (v, state)))
            .collect()
    }
}

/// The Figure 5 two-pass algorithm on an already-total automaton. Returns
/// every selected node paired with its certificate, the state the
/// bottom-up run reaches on the marked node.
///
/// Every node processed counts one `Counter::Steps` and polls
/// [`Observer::checkpoint`]; a budget-enforcing observer (a serving
/// daemon's per-request watchdog) can therefore abort a runaway
/// evaluation early. An aborted evaluation returns an empty selection —
/// the caller distinguishes "nothing selected" from "budget tripped" by
/// inspecting its watchdog.
fn two_pass<O: Observer>(d: &Dbta, tree: &Tree, sigma: usize, obs: &mut O) -> Vec<(NodeId, u32)> {
    obs.record(Series::MachineStates, d.num_states() as u64);
    let unmarked = |s: Symbol| ext_symbol(s, 0, sigma);
    let marked = |s: Symbol| ext_symbol(s, 1, sigma);
    // Scratch row of child states, refilled per node.
    let mut kids: Vec<StateId> = Vec::new();

    // Pass 1 (bottom-up): b[v] = state of the unmarked subtree t_v.
    obs.phase_start("bottom-up pass");
    let mut b: Vec<StateId> = vec![StateId(0); tree.num_nodes()];
    for v in tree.postorder() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("bottom-up pass");
            return Vec::new();
        }
        kids.clear();
        kids.extend(tree.children(v).iter().map(|c| b[c.index()]));
        obs.count(Counter::TableLookups, 1);
        let ext = unmarked(tree.label(v));
        let Some(q) = d.transition(&kids, ext) else {
            // total automaton ⇒ only possible if the tree's rank exceeds
            // the automaton's; nothing is selected then.
            obs.phase_end("bottom-up pass");
            return Vec::new();
        };
        b[v.index()] = q;
        obs.state_visit(Machine::Dbtar, q.index() as u32, ext.index() as u32);
        if obs.is_enabled() {
            for &c in &kids {
                obs.transition_fired(
                    Machine::Dbtar,
                    c.index() as u32,
                    ext.index() as u32,
                    q.index() as u32,
                );
            }
        }
    }
    obs.phase_end("bottom-up pass");

    // Pass 2 (top-down): ctx[v·|Q| + q] = root state if v's subtree
    // evaluated to q (everything outside v unmarked).
    obs.phase_start("top-down pass");
    let nq = d.num_states();
    let mut ctx: Vec<StateId> = vec![StateId(0); tree.num_nodes() * nq];
    let root = tree.root().index() * nq;
    for (q, slot) in ctx[root..root + nq].iter_mut().enumerate() {
        *slot = StateId::from_index(q);
    }
    for v in tree.preorder() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("top-down pass");
            return Vec::new();
        }
        let table = v.index() * nq;
        let ext = unmarked(tree.label(v));
        kids.clear();
        kids.extend(tree.children(v).iter().map(|c| b[c.index()]));
        for (i, &c) in tree.children(v).iter().enumerate() {
            let own = kids[i];
            for q in 0..nq {
                kids[i] = StateId::from_index(q);
                obs.count(Counter::TableLookups, 1);
                let here = d.transition(&kids, ext).expect("totalized");
                obs.state_visit(Machine::Dbtar, here.index() as u32, ext.index() as u32);
                ctx[c.index() * nq + q] = ctx[table + here.index()];
            }
            kids[i] = own;
        }
    }
    obs.phase_end("top-down pass");

    // Verdicts: replace v's subtree state by its marked variant.
    obs.phase_start("verdicts");
    let mut out = Vec::new();
    for v in tree.nodes() {
        obs.count(Counter::Steps, 1);
        if obs.checkpoint().is_err() {
            obs.phase_end("verdicts");
            return Vec::new();
        }
        kids.clear();
        kids.extend(tree.children(v).iter().map(|c| b[c.index()]));
        obs.count(Counter::SelectionChecks, 1);
        let ext = marked(tree.label(v));
        if let Some(q_marked) = d.transition(&kids, ext) {
            obs.state_visit(Machine::Dbtar, q_marked.index() as u32, ext.index() as u32);
            if d.is_final(ctx[v.index() * nq + q_marked.index()]) {
                // certificate: marking v drives the bottom-up run
                // into q_marked, and v's context maps that to an
                // accepting root state.
                obs.config(q_marked.index() as u32, v.index() as u32, 0);
                obs.selected(
                    v.index() as u32,
                    q_marked.index() as u32,
                    tree.label(v).index() as u32,
                );
                out.push((v, q_marked.index() as u32));
            }
        }
    }
    obs.phase_end("verdicts");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::{compile_ranked, unranked};
    use qa_base::rng::StdRng;
    use qa_base::Alphabet;

    #[test]
    fn two_pass_matches_naive_on_ranked_trees() {
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let labels = [a.symbol("s"), a.symbol("t")];
        let prepared = PreparedUnary::new(&d, 2);
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1usize, 3, 7, 15, 40] {
            let t = qa_trees::generate::random(&mut rng, &labels, n, Some(2));
            let mut fast = prepared.eval_ranked_with(&t, &mut NoopObserver);
            let mut naive = eval_unary_ranked_naive(&d, &t, 2);
            fast.sort_unstable();
            naive.sort_unstable();
            assert_eq!(fast, naive, "{}", t.render(&a));
        }
    }

    #[test]
    fn two_pass_matches_naive_on_unranked_trees() {
        let mut a = Alphabet::from_names(["0", "1"]);
        let src = "label(v, 1) & leaf(v) & !(ex w. (w < v & label(w, 1)))";
        let f = parse(src, &mut a).unwrap();
        let d = unranked::compile_unary(&f, "v", 2).unwrap();
        let labels = [a.symbol("0"), a.symbol("1")];
        let prepared = PreparedUnary::new(&d, 2);
        let mut rng = StdRng::seed_from_u64(29);
        for n in [1usize, 4, 9, 20] {
            let t = qa_trees::generate::random(&mut rng, &labels, n, None);
            let mut fast = prepared.eval_unranked(&t);
            let mut naive = eval_unary_unranked_naive(&d, &t, 2);
            fast.sort_unstable();
            naive.sort_unstable();
            assert_eq!(fast, naive, "{}", t.render(&a));
        }
    }

    #[test]
    fn two_pass_scales_to_large_trees() {
        // the point of Figure 5: linear evaluation; run on a tree far beyond
        // naive's comfort zone.
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let t = qa_trees::generate::complete(a.symbol("s"), 2, 12); // 8191 nodes
        let selected = PreparedUnary::new(&d, 2).eval_ranked_with(&t, &mut NoopObserver);
        assert_eq!(selected.len(), 4096, "all leaves selected");
    }
}
