//! E1 (Figures 1–4): the XML pipeline — parse, validate, query — scales
//! linearly in document size.

use qa_bench::Harness;

fn main() {
    let mut h = Harness::new("e1_xml_pipeline");
    // compile the query once (compilation cost is measured separately)
    let (doc0, dtd) = qa_xml::figures::bibliography().unwrap();
    let sigma = doc0.alphabet.len();
    let mut a = doc0.alphabet.clone();
    let phi = qa_mso::parse(
        "label(v, author) & (ex b. (label(b, book) & edge(b, v)))",
        &mut a,
    )
    .unwrap();
    let compiled = qa_mso::unranked::compile_unary(&phi, "v", sigma).unwrap();
    let automaton = qa_xml::validate::to_automaton(&dtd).unwrap();

    for k in [1usize, 4, 16, 64] {
        let xml = qa_bench::bibliography_of_size(k);
        h.bench(&format!("parse/{k}"), || {
            let mut al = doc0.alphabet.clone();
            qa_xml::parser::parse_with_alphabet(&xml, &mut al).unwrap()
        });
        let mut al = doc0.alphabet.clone();
        let doc = qa_xml::parser::parse_with_alphabet(&xml, &mut al).unwrap();
        h.bench(&format!("validate/{k}"), || {
            assert!(automaton.accepts(&doc.tree))
        });
        h.bench(&format!("query/{k}"), || {
            let sel = qa_mso::PreparedUnary::new(&compiled, sigma).eval_unranked(&doc.tree);
            assert_eq!(sel.len(), 3 * k);
        });
    }
}
