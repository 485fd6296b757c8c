//! Grammar-based generation from a mined grammar: the recursive
//! reference walk that `pdf-gen`'s compiled generator is tested and
//! benchmarked against.

use std::collections::BTreeMap;

use pdf_runtime::Rng;

use crate::mine::{Grammar, Label, Sym, START};

/// Depth-bounded random expander over a mined [`Grammar`].
///
/// Below the depth bound, alternatives are chosen uniformly (favouring
/// recursion and therefore longer outputs); once the bound is reached,
/// the expander switches to each nonterminal's *cheapest* alternative
/// (fewest references), so expansion always terminates.
///
/// # Example
///
/// ```
/// use pdf_grammar::{mine_corpus, Generator};
/// use pdf_runtime::Rng;
///
/// let subject = pdf_subjects::arith::subject();
/// let corpus = vec![b"1".to_vec(), b"(1)".to_vec(), b"1+2".to_vec()];
/// let grammar = mine_corpus(subject, &corpus);
/// let mut generator = Generator::new(&grammar, 8);
/// let mut rng = Rng::new(7);
/// let input = generator.generate(&mut rng);
/// assert!(!input.is_empty());
/// ```
#[derive(Debug)]
pub struct Generator<'g> {
    grammar: &'g Grammar,
    max_depth: usize,
    cheapest: BTreeMap<Label, usize>,
}

impl<'g> Generator<'g> {
    /// Creates a generator over `grammar` with the given recursion
    /// bound.
    pub fn new(grammar: &'g Grammar, max_depth: usize) -> Self {
        let mut generator = Generator {
            grammar,
            max_depth,
            cheapest: BTreeMap::new(),
        };
        generator.index_cheapest();
        generator
    }

    /// Index of the alternative with the fewest nonterminal references
    /// per label (the termination choice).
    fn index_cheapest(&mut self) {
        let labels: Vec<Label> = std::iter::once(START).chain(self.all_labels()).collect();
        for label in labels {
            let alts = self.grammar.alts(label);
            let best = alts
                .iter()
                .enumerate()
                .min_by_key(|(_, alt)| alt.iter().filter(|s| matches!(s, Sym::Ref(_))).count())
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.cheapest.insert(label, best);
        }
    }

    fn all_labels(&self) -> Vec<Label> {
        let mut labels = Vec::new();
        let mut stack = vec![START];
        while let Some(l) = stack.pop() {
            for alt in self.grammar.alts(l) {
                for sym in alt {
                    if let Sym::Ref(r) = sym {
                        if !labels.contains(r) {
                            labels.push(*r);
                            stack.push(*r);
                        }
                    }
                }
            }
        }
        labels
    }

    /// Generates one input.
    pub fn generate(&mut self, rng: &mut Rng) -> Vec<u8> {
        let mut out = Vec::new();
        self.expand(START, 0, rng, &mut out);
        out
    }

    fn expand(&self, label: Label, depth: usize, rng: &mut Rng, out: &mut Vec<u8>) {
        let alts = self.grammar.alts(label);
        if alts.is_empty() {
            return;
        }
        let index = if depth >= self.max_depth {
            self.cheapest.get(&label).copied().unwrap_or(0)
        } else {
            rng.gen_range(0, alts.len())
        };
        // clone the symbol list index-wise to avoid borrowing issues
        for sym in &alts[index] {
            match sym {
                Sym::Lit(bytes) => out.extend_from_slice(bytes),
                Sym::Ref(r) => self.expand(*r, depth + 1, rng, out),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::mine_corpus;

    fn arith_generator_corpus() -> Vec<Vec<u8>> {
        [&b"1"[..], b"(1)", b"((2))", b"1+2", b"(1+2)-3"]
            .iter()
            .map(|c| c.to_vec())
            .collect()
    }

    #[test]
    fn generation_terminates_and_is_deterministic() {
        let grammar = mine_corpus(pdf_subjects::arith::subject(), &arith_generator_corpus());
        let mut generator = Generator::new(&grammar, 10);
        let mut r1 = Rng::new(5);
        let mut r2 = Rng::new(5);
        for _ in 0..50 {
            assert_eq!(generator.generate(&mut r1), generator.generate(&mut r2));
        }
    }

    #[test]
    fn generated_inputs_are_mostly_valid() {
        let subject = pdf_subjects::arith::subject();
        let grammar = mine_corpus(subject, &arith_generator_corpus());
        let mut generator = Generator::new(&grammar, 8);
        let mut rng = Rng::new(3);
        let mut valid = 0;
        const N: usize = 200;
        for _ in 0..N {
            let input = generator.generate(&mut rng);
            if subject.run(&input).valid {
                valid += 1;
            }
        }
        assert!(valid * 2 > N, "only {valid}/{N} generated inputs valid");
    }

    #[test]
    fn recursion_produces_longer_inputs_than_corpus() {
        let subject = pdf_subjects::arith::subject();
        let corpus = arith_generator_corpus();
        let max_corpus_len = corpus.iter().map(Vec::len).max().unwrap();
        let grammar = mine_corpus(subject, &corpus);
        let mut generator = Generator::new(&grammar, 14);
        let mut rng = Rng::new(11);
        let longest = (0..500)
            .map(|_| generator.generate(&mut rng).len())
            .max()
            .unwrap();
        assert!(
            longest > max_corpus_len,
            "longest generated {longest} <= corpus max {max_corpus_len}"
        );
    }

    #[test]
    fn depth_zero_uses_cheapest_alternatives() {
        let grammar = mine_corpus(pdf_subjects::arith::subject(), &arith_generator_corpus());
        let mut generator = Generator::new(&grammar, 0);
        let mut rng = Rng::new(1);
        // all expansions pick the cheapest alternative: output fixed
        let a = generator.generate(&mut rng);
        let b = generator.generate(&mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_grammar_generates_empty() {
        let grammar = Grammar::default();
        let mut generator = Generator::new(&grammar, 5);
        let mut rng = Rng::new(1);
        assert!(generator.generate(&mut rng).is_empty());
    }
}
