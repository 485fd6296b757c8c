//! The candidate-scoring heuristic (Algorithm 1, lines 47–51).

use crate::config::HeuristicConfig;
use crate::queue::QueueEntry;
use pdf_runtime::BranchSet;

/// Scores a queue entry against the current set of branches covered by
/// valid inputs (`vBr`) and the number of times its execution path has
/// already been taken.
///
/// Higher scores are dequeued first. The terms follow the paper:
///
/// ```text
/// cov ← size(branches \ vBr)          (line 48)
/// cov ← cov − len(inp) + 2·len(c)     (line 49)
/// cov ← cov − avgStackSize() ∓ numParents   (line 50; see below)
/// cov ← cov − pathSeenCount           (Section 3.2, path dedup)
/// ```
///
/// The paper's listing *adds* `numParents` while its prose says inputs
/// with fewer parents should rank higher; the default configuration
/// follows the prose (subtract), and
/// [`HeuristicConfig::paper_literal_parent_sign`] restores the listing.
pub fn score(entry: &QueueEntry, v_br: &BranchSet, path_seen: usize, cfg: &HeuristicConfig) -> f64 {
    score_parts(
        cfg,
        entry.parent_branches.difference_size(v_br),
        (path_seen as f64).ln_1p(),
        entry.avg_stack,
        entry.num_parents,
        entry.input.len(),
        entry.replacement_len,
    )
}

/// [`score`] from precomputed terms: `new_branches` is
/// `size(branches \ vBr)` and `path_penalty` is `ln_1p(pathSeenCount)`.
/// The candidate queue computes both once per family of siblings; the
/// arithmetic below is the single definition of the score, so cached
/// and freshly computed scores agree bit for bit.
pub(crate) fn score_parts(
    cfg: &HeuristicConfig,
    new_branches: usize,
    path_penalty: f64,
    avg_stack: f64,
    num_parents: usize,
    input_len: usize,
    replacement_len: usize,
) -> f64 {
    let mut cov = 0.0;
    if cfg.use_new_branches {
        cov += new_branches as f64;
    }
    if cfg.use_input_length {
        cov -= input_len as f64;
    }
    if cfg.use_replacement_len {
        cov += 2.0 * replacement_len as f64;
    }
    if cfg.use_stack_size {
        cov -= avg_stack;
    }
    if cfg.use_parent_penalty {
        if cfg.paper_literal_parent_sign {
            cov += num_parents as f64;
        } else {
            cov -= num_parents as f64;
        }
    }
    if cfg.use_path_dedup {
        // Logarithmic damping: on permissive subjects a single hot path
        // (e.g. "identifier;") repeats thousands of times, and a linear
        // penalty would bury every candidate derived from it — including
        // the keyword substitutions the whole technique is about.
        cov -= path_penalty;
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_runtime::{BranchId, SiteId};

    fn entry(
        input: &[u8],
        branches: &[u64],
        repl: usize,
        stack: f64,
        parents: usize,
    ) -> QueueEntry {
        QueueEntry {
            input: input.to_vec(),
            parent_branches: branches
                .iter()
                .map(|&r| BranchId::new(SiteId::from_raw(r), true))
                .collect(),
            replacement_len: repl,
            avg_stack: stack,
            num_parents: parents,
            path_hash: 0,
        }
    }

    #[test]
    fn new_branches_raise_score() {
        let cfg = HeuristicConfig::default();
        let v_br = BranchSet::new();
        let poor = entry(b"ab", &[], 1, 0.0, 0);
        let rich = entry(b"ab", &[1, 2, 3], 1, 0.0, 0);
        assert!(score(&rich, &v_br, 0, &cfg) > score(&poor, &v_br, 0, &cfg));
    }

    #[test]
    fn already_covered_branches_do_not_count() {
        let cfg = HeuristicConfig::default();
        let v_br: BranchSet = [BranchId::new(SiteId::from_raw(1), true)]
            .into_iter()
            .collect();
        let e = entry(b"ab", &[1], 1, 0.0, 0);
        let f = entry(b"ab", &[], 1, 0.0, 0);
        assert_eq!(score(&e, &v_br, 0, &cfg), score(&f, &v_br, 0, &cfg));
    }

    #[test]
    fn longer_inputs_score_lower() {
        let cfg = HeuristicConfig::default();
        let v_br = BranchSet::new();
        let short = entry(b"ab", &[], 1, 0.0, 0);
        let long = entry(b"abcdefgh", &[], 1, 0.0, 0);
        assert!(score(&short, &v_br, 0, &cfg) > score(&long, &v_br, 0, &cfg));
    }

    #[test]
    fn keyword_replacements_score_higher() {
        let cfg = HeuristicConfig::default();
        let v_br = BranchSet::new();
        let ch = entry(b"whX", &[], 1, 0.0, 0);
        let kw = entry(b"while", &[], 3, 0.0, 0); // "ile" spliced in
        assert!(score(&kw, &v_br, 0, &cfg) > score(&ch, &v_br, 0, &cfg));
    }

    #[test]
    fn deep_stacks_score_lower() {
        let cfg = HeuristicConfig::default();
        let v_br = BranchSet::new();
        let shallow = entry(b"ab", &[], 1, 1.0, 0);
        let deep = entry(b"ab", &[], 1, 9.0, 0);
        assert!(score(&shallow, &v_br, 0, &cfg) > score(&deep, &v_br, 0, &cfg));
    }

    #[test]
    fn parent_sign_follows_config() {
        let v_br = BranchSet::new();
        let few = entry(b"ab", &[], 1, 0.0, 1);
        let many = entry(b"ab", &[], 1, 0.0, 9);
        let prose = HeuristicConfig::default();
        assert!(score(&few, &v_br, 0, &prose) > score(&many, &v_br, 0, &prose));
        let literal = HeuristicConfig {
            paper_literal_parent_sign: true,
            ..HeuristicConfig::default()
        };
        assert!(score(&few, &v_br, 0, &literal) < score(&many, &v_br, 0, &literal));
    }

    #[test]
    fn repeated_paths_score_lower() {
        let cfg = HeuristicConfig::default();
        let v_br = BranchSet::new();
        let e = entry(b"ab", &[], 1, 0.0, 0);
        assert!(score(&e, &v_br, 0, &cfg) > score(&e, &v_br, 5, &cfg));
    }

    #[test]
    fn disabled_heuristic_scores_everything_zero() {
        let cfg = HeuristicConfig::disabled();
        let v_br = BranchSet::new();
        let e = entry(b"abcdef", &[1, 2], 3, 7.0, 4);
        assert_eq!(score(&e, &v_br, 9, &cfg), 0.0);
    }
}
