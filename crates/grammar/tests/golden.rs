//! Golden-file test for the `pdf-grammar v1` codec: the committed file
//! was written by the encoder this format shipped with, so decoding it
//! and re-encoding the value must reproduce its bytes exactly.

use pdf_grammar::{Grammar, GrammarFile, Label, Sym, START};

const GOLDEN: &str = include_str!("golden/sample.grammar");

fn expected() -> GrammarFile {
    let mut g = Grammar::default();
    let num = Label(0xaa);
    g.add_alternative(
        START,
        vec![
            Sym::Lit(b"(".to_vec()),
            Sym::Ref(num),
            Sym::Lit(b")".to_vec()),
        ],
    );
    g.add_alternative(START, vec![Sym::Ref(num)]);
    g.add_alternative(START, Vec::new());
    g.add_alternative(num, vec![Sym::Lit(b"1".to_vec())]);
    g.add_alternative(num, vec![Sym::Lit(b"\n\x00\xff\xc3\x28".to_vec())]);
    GrammarFile::with_weights(g, vec![vec![3, 1, 1], vec![2, 5]]).unwrap()
}

#[test]
fn golden_grammar_decodes_and_reencodes_byte_identically() {
    let file = GrammarFile::decode(GOLDEN).expect("golden file decodes");
    assert_eq!(file, expected());
    assert_eq!(file.encode(), GOLDEN);
}

#[test]
fn every_truncation_of_a_grammar_is_rejected() {
    let last = GOLDEN.len() - 1;
    assert_eq!(&GOLDEN[last..], "\n");
    for cut in 0..GOLDEN.len() {
        let prefix = &GOLDEN[..cut];
        match GrammarFile::decode(prefix) {
            // dropping only the final newline loses nothing
            Ok(file) if cut == last => assert_eq!(file, expected()),
            Ok(_) => panic!("accepted a torn file cut at byte {cut}: {prefix:?}"),
            Err(_) => assert_ne!(cut, last, "rejected the file minus its final newline"),
        }
    }
}
