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
use qa_core::ranked::Dbta;
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
/// automaton's transition function as flat `u32` tables, built **once**,
/// at construction, instead of per document.
///
/// There is one table per arity `k ≤ max_rank`, indexed
/// `(a·|Q| + q₁)·|Q| + … + q_k` for a letter `a` of `Σ × {0,1}` and child
/// states `q₁…q_k`. Every transition the compiled automaton leaves
/// undefined goes to a dead state appended last (`|Q| − 1`), so the tables
/// are the totalized automaton ([`ops::totalize`] numbers its dead state
/// the same way) and every lookup is one index computation. A table has
/// exactly the `|Σ×{0,1}| · |Q|^k` entries totalization enumerates.
/// qa-par's `Job::Mso` and the serving daemon's query cache hold a
/// `PreparedUnary` per compiled query and evaluate every document through
/// it.
///
/// [`ops::totalize`]: qa_core::ranked::ops::totalize
#[derive(Clone, Debug)]
pub struct PreparedUnary {
    sigma: usize,
    /// States of the total automaton, the dead state included.
    nq: usize,
    /// `delta[k][(a·nq + q₁)·nq + … + q_k]`: the state of a node labelled
    /// `a` whose `k` children are in states `q₁…q_k`.
    delta: Vec<Vec<u32>>,
    finals: Vec<bool>,
}

impl PreparedUnary {
    /// Prepare `d` (compiled over `Σ × {0,1}` for a base alphabet of
    /// `sigma` symbols) by tabulating its totalized transition function
    /// now.
    pub fn new(d: &Dbta, sigma: usize) -> Self {
        let nq = d.num_states() + 1;
        let dead = u32::try_from(nq - 1).expect("state count fits in u32");
        let mut delta: Vec<Vec<u32>> = (0..=d.max_rank())
            .map(|k| {
                let len = u32::try_from(k)
                    .ok()
                    .and_then(|k| nq.checked_pow(k))
                    .and_then(|rows| rows.checked_mul(d.alphabet_len()))
                    .expect("transition table size fits in usize");
                vec![dead; len]
            })
            .collect();
        for (kids, label, q) in d.transitions() {
            let i = kids.iter().fold(label.index(), |i, c| i * nq + c.index());
            delta[kids.len()][i] = q.index() as u32;
        }
        let finals = (0..d.num_states())
            .map(|i| d.is_final(StateId::from_index(i)))
            .chain([false])
            .collect();
        PreparedUnary {
            sigma,
            nq,
            delta,
            finals,
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
        self.two_pass(tree, self.sigma, obs)
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
        self.two_pass(&enc, encoded_alphabet_len(self.sigma), obs)
            .into_iter()
            .filter_map(|(ev, state)| map[ev.index()].map(|v| (v, state)))
            .collect()
    }

    /// Index of `(letter, states of kids)` in `delta[kids.len()]`.
    #[inline]
    fn index(&self, letter: Symbol, kids: &[NodeId], b: &[u32]) -> usize {
        kids.iter()
            .fold(letter.index(), |i, c| i * self.nq + b[c.index()] as usize)
    }

    /// The Figure 5 two-pass algorithm over the tables, on a tree whose
    /// labels come from a base alphabet of `sigma` symbols. Returns every
    /// selected node paired with its certificate, the state the bottom-up
    /// run reaches on the marked node.
    ///
    /// Every node processed counts one `Counter::Steps` and polls
    /// [`Observer::checkpoint`]; a budget-enforcing observer (a serving
    /// daemon's per-request watchdog) can therefore abort a runaway
    /// evaluation early. An aborted evaluation returns an empty selection —
    /// the caller distinguishes "nothing selected" from "budget tripped" by
    /// inspecting its watchdog.
    fn two_pass<O: Observer>(&self, tree: &Tree, sigma: usize, obs: &mut O) -> Vec<(NodeId, u32)> {
        let nq = self.nq;
        // A letter is defined iff it is in the compiled alphabet.
        let letters = self.delta[0].len();
        obs.record(Series::MachineStates, nq as u64);
        let unmarked = |s: Symbol| ext_symbol(s, 0, sigma);
        let marked = |s: Symbol| ext_symbol(s, 1, sigma);

        // Pass 1 (bottom-up): b[v] = state of the unmarked subtree t_v.
        obs.phase_start("bottom-up pass");
        let mut b: Vec<u32> = vec![0; tree.num_nodes()];
        for v in tree.postorder() {
            obs.count(Counter::Steps, 1);
            if obs.checkpoint().is_err() {
                obs.phase_end("bottom-up pass");
                return Vec::new();
            }
            let kids = tree.children(v);
            obs.count(Counter::TableLookups, 1);
            let ext = unmarked(tree.label(v));
            if kids.len() >= self.delta.len() || ext.index() >= letters {
                // the tree's rank exceeds the automaton's, or the label is
                // outside its alphabet: nothing is selected then.
                obs.phase_end("bottom-up pass");
                return Vec::new();
            }
            let q = self.delta[kids.len()][self.index(ext, kids, &b)];
            b[v.index()] = q;
            obs.state_visit(Machine::Dbtar, q, ext.index() as u32);
            if obs.is_enabled() {
                for c in kids {
                    obs.transition_fired(Machine::Dbtar, b[c.index()], ext.index() as u32, q);
                }
            }
        }
        obs.phase_end("bottom-up pass");

        // Pass 2 (top-down): ctx[v·nq + q] = root state if v's subtree
        // evaluated to q (everything outside v unmarked). Child i's row
        // varies one digit of v's table index, whose stride is
        // nq^(k−1−i).
        obs.phase_start("top-down pass");
        let mut ctx: Vec<u32> = vec![0; tree.num_nodes() * nq];
        let root = tree.root().index() * nq;
        for (q, slot) in ctx[root..root + nq].iter_mut().enumerate() {
            *slot = q as u32;
        }
        for v in tree.preorder() {
            obs.count(Counter::Steps, 1);
            if obs.checkpoint().is_err() {
                obs.phase_end("top-down pass");
                return Vec::new();
            }
            let kids = tree.children(v);
            let Some(last) = kids.len().checked_sub(1) else {
                continue;
            };
            let table = &self.delta[kids.len()];
            let ext = unmarked(tree.label(v));
            let full = self.index(ext, kids, &b);
            let at_v = v.index() * nq;
            let mut stride = nq.pow(last as u32);
            for c in kids {
                let row = full - b[c.index()] as usize * stride;
                obs.count(Counter::TableLookups, nq as u64);
                for q in 0..nq {
                    let here = table[row + q * stride];
                    obs.state_visit(Machine::Dbtar, here, ext.index() as u32);
                    ctx[c.index() * nq + q] = ctx[at_v + here as usize];
                }
                stride /= nq;
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
            obs.count(Counter::SelectionChecks, 1);
            let ext = marked(tree.label(v));
            if ext.index() >= letters {
                continue;
            }
            let kids = tree.children(v);
            let q_marked = self.delta[kids.len()][self.index(ext, kids, &b)];
            obs.state_visit(Machine::Dbtar, q_marked, ext.index() as u32);
            if self.finals[ctx[v.index() * nq + q_marked as usize] as usize] {
                // certificate: marking v drives the bottom-up run into
                // q_marked, and v's context maps that to an accepting root
                // state.
                obs.config(q_marked, v.index() as u32, 0);
                obs.selected(v.index() as u32, q_marked, tree.label(v).index() as u32);
                out.push((v, q_marked));
            }
        }
        obs.phase_end("verdicts");
        out
    }
}

/// Assert that `PreparedUnary::new(d, _)` tabulates exactly
/// `ops::totalize(d)`: every (letter, child-state tuple) entry of every
/// arity, and every state's finality.
#[cfg(test)]
pub(crate) fn assert_tables_match_totalize(d: &Dbta) {
    let total = qa_core::ranked::ops::totalize(d);
    let p = PreparedUnary::new(d, 0);
    assert_eq!(p.nq, total.num_states());
    for (q, &fin) in p.finals.iter().enumerate() {
        assert_eq!(fin, total.is_final(StateId::from_index(q)), "final {q}");
    }
    for (k, table) in p.delta.iter().enumerate() {
        assert_eq!(table.len(), total.alphabet_len() * p.nq.pow(k as u32));
        for (i, &entry) in table.iter().enumerate() {
            // decode i = (a·nq + q₁)·nq + … + q_k
            let mut rest = i;
            let mut kids = vec![StateId(0); k];
            for slot in kids.iter_mut().rev() {
                *slot = StateId::from_index(rest % p.nq);
                rest /= p.nq;
            }
            let label = Symbol::from_index(rest);
            assert_eq!(
                Some(StateId(entry)),
                total.transition(&kids, label),
                "δ({kids:?}, {label:?})"
            );
        }
    }
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
    fn trees_beyond_the_automatons_rank_select_nothing() {
        // a binary root's two leaves are selected; a ternary root has no
        // row in a rank-2 automaton's tables, so nothing is selected
        let mut a = Alphabet::from_names(["s", "t"]);
        let f = parse("leaf(v)", &mut a).unwrap();
        let d = compile_ranked::compile_unary(&f, "v", 2, 2).unwrap();
        let prepared = PreparedUnary::new(&d, 2);
        let s = a.symbol("s");
        let mut t = Tree::leaf(s);
        for _ in 0..2 {
            t.add_child(t.root(), s);
        }
        assert_eq!(prepared.eval_ranked_with(&t, &mut NoopObserver).len(), 2);
        t.add_child(t.root(), s);
        assert_eq!(eval_unary_ranked_naive(&d, &t, 2), Vec::<NodeId>::new());
        assert_eq!(
            prepared.eval_ranked_with(&t, &mut NoopObserver),
            Vec::<NodeId>::new()
        );
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
