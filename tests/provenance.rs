//! Selection provenance: `why_selected` must return the *correct*
//! certificate — the paper's own evidence for the selection — on the
//! running examples, and trace diffing must pinpoint where two machines
//! differing in one transition part ways.

use query_automata::obs::json::parse;
use query_automata::obs::RunTrace;
use query_automata::prelude::*;
use query_automata::probe::{first_divergence, ProvenanceObserver};
use query_automata::twoway::string_qa::example_3_4_qa;
use query_automata::twoway::Tape;

/// Example 3.4 on `0110`: word index 1 is the unique selected position.
/// The certificate must name the selecting state `s1` reading `1`, and the
/// visit list must be the position's crossing-sequence fragment: the
/// left-to-right sweep in `s0`, then the right-to-left parity visit in `s1`.
#[test]
fn example_3_4_certificate_is_the_crossing_sequence_fragment() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_3_4_qa(&sigma);
    let w = sigma.word("0110");
    let mut prov = ProvenanceObserver::new();
    let selected = qa.query_with(&w, &mut prov).unwrap();
    assert_eq!(selected, vec![1]);

    let e = prov.why_selected_word(1).expect("index 1 selected");
    assert_eq!(e.pos, 2, "tape coordinates: word index 1 = position 2");
    assert_eq!(e.state, 1, "witnessing state is s1 (odd parity from right)");
    assert_eq!(e.sym, sigma.symbol("1").index() as u32);
    // crossing sequence at position 2: s0 rightward, s1 leftward
    assert_eq!(e.visits.len(), 2);
    assert_eq!((e.visits[0].state, e.visits[0].dir), (0, 1));
    assert_eq!((e.visits[1].state, e.visits[1].dir), (1, -1));
    assert!(e.stay.is_none(), "string runs have no stay certificates");

    // unselected positions have no explanation
    assert!(prov.why_selected_word(0).is_none());
    assert!(prov.why_selected_word(2).is_none());
    assert_eq!(prov.selected_positions(), vec![2]);
}

/// The behavior-function evaluation (Theorem 3.9) selects through the
/// reconstructed `Assumed` sets; its certificates must agree with the
/// literal run's witnessing state.
#[test]
fn example_3_4_behavior_route_yields_the_same_witness() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_3_4_qa(&sigma);
    let w = sigma.word("0110");
    let mut prov = ProvenanceObserver::new();
    let selected = qa.query_via_behavior_with(&w, &mut prov);
    assert_eq!(selected, vec![1]);
    let e = prov.why_selected_word(1).expect("index 1 selected");
    assert_eq!((e.state, e.sym), (1, 1));
}

/// Example 4.4 ranked circuit query: every selected gate's certificate
/// carries a state the run assumed at that node (the cut through the node,
/// Definition 4.3) with the node's own label.
#[test]
fn example_4_4_certificates_come_from_the_cut() {
    let sigma = Alphabet::from_names(["AND", "OR", "0", "1"]);
    let qa = query_automata::core::ranked::query::example_4_4(&sigma);
    let mut names = sigma.clone();
    let t = from_sexpr("(OR (AND 1 0) 1)", &mut names).unwrap();
    let mut prov = ProvenanceObserver::new();
    let selected = qa.query_with(&t, &mut prov).unwrap();
    assert!(!selected.is_empty(), "the circuit evaluates to true");
    for v in &selected {
        let e = prov
            .why_selected(v.index() as u32)
            .expect("selected node has a certificate");
        assert_eq!(
            e.sym,
            t.label(*v).index() as u32,
            "certificate labels match"
        );
        assert!(
            e.visits.iter().any(|visit| visit.state == e.state),
            "witnessing state q{} was assumed at node {} during the run",
            e.state,
            v.index()
        );
    }
    // a node the query did not select has no certificate
    let unselected = t.nodes().find(|v| !selected.contains(v)).unwrap();
    assert!(prov.why_selected(unselected.index() as u32).is_none());
}

/// Figure 5 two-pass evaluation: the verdict certificate is the marked
/// state `q_marked` the bottom-up run reaches at the node.
#[test]
fn fig5_ranked_eval_certificates_name_the_marked_state() {
    let mut sigma = Alphabet::from_names(["s", "t"]);
    let phi = query_automata::mso::parse("leaf(v) & (ex r. (root(r) & label(r, s)))", &mut sigma)
        .unwrap();
    let d = query_automata::mso::compile_ranked::compile_unary(&phi, "v", 2, 2).unwrap();
    let t = query_automata::trees::generate::complete(sigma.symbol("s"), 2, 3);
    let mut prov = ProvenanceObserver::new();
    let selected = query_automata::mso::PreparedUnary::new(&d, 2).eval_ranked_with(&t, &mut prov);
    assert_eq!(
        selected.len(),
        8,
        "all leaves of the height-3 complete tree"
    );
    for v in &selected {
        let e = prov
            .why_selected(v.index() as u32)
            .expect("selected leaf has a certificate");
        assert_eq!(e.sym, t.label(*v).index() as u32);
        assert!(
            e.visits.iter().any(|visit| visit.state == e.state),
            "the marked verdict state appears as a recorded configuration"
        );
    }
    assert_eq!(selected.len(), prov.selected_positions().len());
}

/// Example 5.14 (`SQAu`): the selected leaf's state was produced by a stay
/// transition, so its certificate must carry the GSQA child-run evidence.
#[test]
fn example_5_14_certificate_carries_the_stay_evidence() {
    let sigma = Alphabet::from_names(["0", "1"]);
    let qa = example_5_14(&sigma);
    let mut names = sigma.clone();
    let t = from_sexpr("(0 0 1 (1 1) 0 1)", &mut names).unwrap();
    let mut prov = ProvenanceObserver::new();
    let selected = qa.query_with(&t, &mut prov).unwrap();
    assert_eq!(selected.len(), 2);
    for v in &selected {
        let e = prov
            .why_selected(v.index() as u32)
            .expect("selected node has a certificate");
        assert_eq!(e.sym, sigma.symbol("1").index() as u32, "selects 1-leaves");
        let stay = e
            .stay
            .expect("the `one` verdict is assigned by the stay transition");
        assert_eq!(stay.child, v.index() as u32);
        assert_eq!(stay.state, e.state);
        assert_eq!(
            stay.parent,
            t.parent(*v).unwrap().index() as u32,
            "the stay ran at the selected leaf's parent"
        );
    }
}

/// Two machines differing in ONE transition: Example 3.4 vs a variant whose
/// turn at `⊲` enters the even-parity state. `first_divergence` must point
/// at exactly the first configuration after the turn.
#[test]
fn diff_pinpoints_the_changed_transition() {
    use query_automata::twoway::Dir;
    let sigma = Alphabet::from_names(["0", "1"]);
    let original = example_3_4_qa(&sigma);

    // rebuild the machine with the single changed action
    let one = sigma.symbol("1");
    let mut b = TwoDfaBuilder::new(sigma.len());
    let s0 = b.add_state();
    let s1 = b.add_state();
    let s2 = b.add_state();
    b.set_initial(s0);
    b.set_final(s1, true);
    b.set_final(s2, true);
    b.set_action(s0, Tape::LeftMarker, Dir::Right, s0);
    b.set_action_all_symbols(s0, Dir::Right, s0);
    b.set_action(s0, Tape::RightMarker, Dir::Left, s2); // original: s1
    b.set_action_all_symbols(s1, Dir::Left, s2);
    b.set_action_all_symbols(s2, Dir::Left, s1);
    let mut variant = StringQa::new(b.build().unwrap());
    variant.set_selecting(s1, one, true);

    let w = sigma.word("0110");
    let mut ta = RunTrace::new();
    let mut tb = RunTrace::new();
    original.query_with(&w, &mut ta).unwrap();
    variant.query_with(&w, &mut tb).unwrap();

    let a = parse(&ta.to_json()).unwrap();
    let b = parse(&tb.to_json()).unwrap();
    let d = first_divergence(&a, &b)
        .unwrap()
        .expect("the changed transition must show up");
    // steps 0..=5 walk right identically (⊳,0,1,1,0,⊲); the turn's target
    // differs at step 6.
    assert_eq!(d.index, 6);
    let (ca, cb) = (d.a.unwrap(), d.b.unwrap());
    assert_eq!(ca.pos, cb.pos, "divergence is in the state, not the head");
    assert_eq!(ca.state, s1.index() as u32);
    assert_eq!(cb.state, s2.index() as u32);

    // sanity: a machine diffed against itself reports nothing
    assert_eq!(first_divergence(&a, &a).unwrap(), None);
}
