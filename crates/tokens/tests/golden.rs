//! Golden-file test for the `pdf-dict v1` codec: the committed file
//! was written by the encoder this format shipped with, so decoding it
//! and re-encoding the value must reproduce its bytes exactly.

use pdf_tokens::Dictionary;

const GOLDEN: &str = include_str!("golden/sample.dict");

fn expected() -> Dictionary {
    Dictionary::from_tokens(vec![
        b"while".to_vec(),
        b"\n\"\x00\xff".to_vec(),
        b"=".to_vec(),
        b"\xc3\x28null".to_vec(),
    ])
}

#[test]
fn golden_dict_decodes_and_reencodes_byte_identically() {
    let dict = Dictionary::decode(GOLDEN).expect("golden file decodes");
    assert_eq!(dict, expected());
    assert_eq!(dict.encode(), GOLDEN);
}

#[test]
fn every_truncation_of_a_dict_is_rejected() {
    let last = GOLDEN.len() - 1;
    assert_eq!(&GOLDEN[last..], "\n");
    for cut in 0..GOLDEN.len() {
        let prefix = &GOLDEN[..cut];
        match Dictionary::decode(prefix) {
            // dropping only the final newline loses nothing
            Ok(dict) if cut == last => assert_eq!(dict, expected()),
            Ok(_) => panic!("accepted a torn file cut at byte {cut}: {prefix:?}"),
            Err(_) => assert_ne!(cut, last, "rejected the file minus its final newline"),
        }
    }
}
