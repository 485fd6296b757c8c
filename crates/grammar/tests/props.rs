//! Property suites for the grammar crate: `pdf-grammar v1` codec
//! round-trip and corruption rejection, and miner determinism.

use pdf_grammar::{mine_corpus, Grammar, GrammarFile, Label, Sym, START};
use pdf_runtime::RecordError;
use proptest::collection::vec;
use proptest::prelude::*;

/// A random small grammar: START plus up to four numbered nonterminals,
/// each with a few alternatives mixing literal runs and references.
/// Built through `add_alternative`, so it is deduplicated exactly like
/// a mined grammar.
fn arb_grammar() -> impl Strategy<Value = Grammar> {
    let labels = [START, Label(0x11), Label(0x22), Label(0x33), Label(0x44)];
    let sym = prop_oneof![
        vec(1u8..=255, 1..4).prop_map(Sym::Lit),
        (0usize..labels.len()).prop_map(move |i| Sym::Ref(labels[i])),
    ];
    let alt = vec(sym, 0..4);
    vec((0usize..labels.len(), alt), 0..10).prop_map(move |alts| {
        let mut g = Grammar::default();
        for (i, body) in alts {
            g.add_alternative(labels[i], body);
        }
        g
    })
}

/// Deterministic non-uniform weights shaped to `g`, varied by `seed`.
fn weights_for(g: &Grammar, seed: u32) -> Vec<Vec<u32>> {
    g.labels()
        .enumerate()
        .map(|(r, l)| {
            (0..g.alts(l).len())
                .map(|a| (seed.wrapping_mul(31).wrapping_add(r as u32 * 7 + a as u32) % 9) + 1)
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(f)) == f, for uniform and learned weights alike.
    #[test]
    fn codec_round_trips(g in arb_grammar(), seed in any::<u32>()) {
        let file = GrammarFile::with_weights(g.clone(), weights_for(&g, seed)).unwrap();
        let back = GrammarFile::decode(&file.encode()).unwrap();
        prop_assert_eq!(&back, &file);
        prop_assert_eq!(back.digest(), file.digest());

        let uniform = GrammarFile::uniform(g);
        let back = GrammarFile::decode(&uniform.encode()).unwrap();
        prop_assert_eq!(back, uniform);
    }

    /// Dropping any single record line breaks a structural or integrity
    /// check — a torn write can never decode as a smaller grammar.
    #[test]
    fn codec_rejects_dropped_lines(g in arb_grammar(), seed in any::<u32>()) {
        let file = GrammarFile::with_weights(g.clone(), weights_for(&g, seed)).unwrap();
        let encoded = file.encode();
        let lines: Vec<&str> = encoded.lines().collect();
        for drop in 1..lines.len() {
            let torn: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            prop_assert!(
                GrammarFile::decode(&torn).is_err(),
                "decoded despite dropped line {}: {:?}",
                drop,
                lines[drop]
            );
        }
    }

    /// Corrupting the header digest is always caught.
    #[test]
    fn codec_rejects_digest_corruption(g in arb_grammar(), seed in any::<u32>(), flip in 0usize..16) {
        let file = GrammarFile::with_weights(g.clone(), weights_for(&g, seed)).unwrap();
        let encoded = file.encode();
        let pos = encoded.find("digest=").unwrap() + "digest=".len() + flip;
        let mut bytes = encoded.into_bytes();
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        let corrupt = String::from_utf8(bytes).unwrap();
        prop_assert!(matches!(
            GrammarFile::decode(&corrupt),
            Err(RecordError::Integrity(_)) | Err(RecordError::Header(_))
        ));
    }

    /// Mining is deterministic: the same corpus mines the same grammar,
    /// twice — the property the `--grammar-out` flag relies on.
    #[test]
    fn miner_is_deterministic(corpus in vec(vec(any::<u8>(), 0..8), 0..6)) {
        let a = mine_corpus(pdf_subjects::arith::subject(), &corpus);
        let b = mine_corpus(pdf_subjects::arith::subject(), &corpus);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.render(), b.render());
    }
}
