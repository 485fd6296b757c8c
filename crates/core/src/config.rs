//! Fuzzer configuration.

/// Which terms of the Algorithm 1 heuristic (lines 47–51) are active.
///
/// The default enables everything the paper describes; individual terms
/// can be switched off for the ablation benchmarks called out in
/// DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// Line 48: `cov ← size(branches \ vBr)` — reward newly covered
    /// branches.
    pub use_new_branches: bool,
    /// Line 49, first term: `cov ← cov − len(inp)` — penalise long
    /// inputs (avoids degenerate depth-first search).
    pub use_input_length: bool,
    /// Line 49, second term: `cov ← cov + 2 · len(c)` — reward long
    /// replacements (string comparisons lead to keywords).
    pub use_replacement_len: bool,
    /// Line 50: `cov ← cov − avgStackSize()` — penalise deep parser
    /// stacks (helps closing open syntactic features).
    pub use_stack_size: bool,
    /// Line 50: the `numParents` term — penalise long substitution
    /// chains to keep search depth low.
    pub use_parent_penalty: bool,
    /// Use the paper's *literal* formula `cov + inp.numParents` instead
    /// of the prose's intent ("inputs with fewer parents … should be
    /// ranked higher"), which the default implements as `− numParents`.
    pub paper_literal_parent_sign: bool,
    /// Section 3.2: rank inputs lower the more often their execution
    /// path has already been taken.
    pub use_path_dedup: bool,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            use_new_branches: true,
            use_input_length: true,
            use_replacement_len: true,
            use_stack_size: true,
            use_parent_penalty: true,
            paper_literal_parent_sign: false,
            use_path_dedup: true,
        }
    }
}

impl HeuristicConfig {
    /// A configuration with every guidance term disabled: candidate
    /// order degenerates to insertion order, approximating the naive
    /// breadth-first search Section 3 argues against.
    pub fn disabled() -> Self {
        HeuristicConfig {
            use_new_branches: false,
            use_input_length: false,
            use_replacement_len: false,
            use_stack_size: false,
            use_parent_penalty: false,
            paper_literal_parent_sign: false,
            use_path_dedup: false,
        }
    }
}

/// Candidate-selection discipline. Section 3 discusses why the naive
/// searches fail: "Depth-first search is fast in generating large
/// prefixes of inputs but may not be able to close them properly [...]
/// Breadth-first search on the other hand explores all combinations of
/// possible inputs on a shallow level [...] Generating a large prefix
/// is, however, hard". The heuristic queue is the paper's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// The heuristic priority queue of Algorithm 1 (the paper's pFuzzer).
    #[default]
    Heuristic,
    /// Naive depth-first: always continue from the newest candidate.
    DepthFirst,
    /// Naive breadth-first: always continue from the oldest candidate.
    BreadthFirst,
}

/// How each loop iteration extends the current input (Section 3.1
/// explains why pFuzzer runs *both* forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExtensionMode {
    /// Run the substituted input, and if it is invalid run it again with
    /// a random character appended (the paper's algorithm).
    #[default]
    Both,
    /// Only ever substitute the last character — gets stuck as soon as a
    /// correct substitution needs a follow-up character.
    ReplaceOnly,
    /// Only ever append — destroys correct substitutions immediately.
    AppendOnly,
}

/// How much of each candidate execution the driver learns from.
///
/// `Full` is the paper's behaviour: every execution produces a complete
/// [`FailureSummary`](pdf_runtime::FailureSummary) (branch sets, path
/// hash, substitution candidates). `Tiered` applies the fast-failure
/// filter of *Fuzzing with Fast Failure Feedback* to the
/// [`FastSummary`](pdf_runtime::FastSummary) of each run: valid inputs
/// always escalate to the full summary, and a rejected candidate
/// escalates only when its rejection index advanced past the campaign's
/// watermark or its last comparison is one the campaign has not seen
/// before — everything else is learned from the fast summary alone.
/// Each input runs once, under full instrumentation; the budget is
/// charged as if a fast run came first and each escalation re-ran the
/// input (two executions per escalated run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Full instrumentation on every execution (the default; campaign
    /// digests and journals are byte-identical to earlier releases).
    #[default]
    Full,
    /// Two-tier schedule: fast-failure filter first, full summaries for
    /// the survivors of the rejection-index / last-comparison filter.
    Tiered,
}

/// Inputs longer than this are not extended further (guard against
/// permissive subjects where everything is valid).
pub const MAX_INPUT_LEN: usize = 128;

/// Driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverConfig {
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Execution budget: total number of subject runs.
    pub max_execs: u64,
    /// Stop early after this many valid inputs (None = run out the
    /// budget).
    pub max_valid_inputs: Option<usize>,
    /// Heuristic term selection.
    pub heuristic: HeuristicConfig,
    /// Candidate-selection discipline (heuristic vs. the naive searches
    /// of Section 3).
    pub search: SearchMode,
    /// Extension behaviour (see [`ExtensionMode`]).
    pub extension_mode: ExtensionMode,
    /// Record a step-by-step trace (used by the Figure 1 walkthrough).
    pub trace: bool,
    /// Instrumentation tiering for candidate executions (see
    /// [`ExecMode`]).
    pub exec_mode: ExecMode,
    /// Token dictionary for multi-byte substitution: at each rejection
    /// point the driver additionally tries replacing the rejected suffix
    /// with each whole dictionary token (where the baseline substitutes
    /// one character at a time). Empty disables the stage and keeps
    /// campaign digests byte-identical to earlier releases.
    pub dictionary: Vec<Vec<u8>>,
    /// Mine tokens while fuzzing: record the expected strings of failed
    /// comparisons and every recorded valid input into the campaign's
    /// token counts (surfaced via `FuzzReport::mined_tokens` and the
    /// checkpoint). Observation only — does not alter the search.
    pub mine_tokens: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            seed: 0,
            max_execs: 50_000,
            max_valid_inputs: None,
            heuristic: HeuristicConfig::default(),
            search: SearchMode::default(),
            extension_mode: ExtensionMode::Both,
            trace: false,
            exec_mode: ExecMode::default(),
            dictionary: Vec::new(),
            mine_tokens: false,
        }
    }
}

impl DriverConfig {
    /// FNV-1a hash over every configuration field that shapes the
    /// search, *excluding* `seed` and `max_execs` — those identify the
    /// campaign (and are recorded separately in journals); this hash
    /// identifies the configuration a campaign ran under, so a replay
    /// against a drifted configuration is detected instead of silently
    /// producing a digest mismatch with no explanation.
    pub fn config_hash(&self) -> u64 {
        let mut d = pdf_runtime::Digest::new();
        d.write_str("driver-config-v1");
        match self.max_valid_inputs {
            Some(n) => {
                d.write_u8(1);
                d.write_u64(n as u64);
            }
            None => d.write_u8(0),
        }
        let h = &self.heuristic;
        for flag in [
            h.use_new_branches,
            h.use_input_length,
            h.use_replacement_len,
            h.use_stack_size,
            h.use_parent_penalty,
            h.paper_literal_parent_sign,
            h.use_path_dedup,
        ] {
            d.write_u8(flag as u8);
        }
        d.write_u8(match self.search {
            SearchMode::Heuristic => 0,
            SearchMode::DepthFirst => 1,
            SearchMode::BreadthFirst => 2,
        });
        d.write_u8(match self.extension_mode {
            ExtensionMode::Both => 0,
            ExtensionMode::ReplaceOnly => 1,
            ExtensionMode::AppendOnly => 2,
        });
        // The retired `max_input_len` field: always `MAX_INPUT_LEN`.
        d.write_u64(MAX_INPUT_LEN as u64);
        d.write_u8(self.trace as u8);
        // The retired sink selector: always the streaming sink (`1`).
        d.write_u8(1);
        // Folded in only when non-default so that hashes (and the
        // checkpoints / journals that embed them) from releases that
        // predate `exec_mode` keep verifying byte-for-byte. Tiered keeps
        // the tag `2` it had when a fast-only mode held `1`.
        if self.exec_mode == ExecMode::Tiered {
            d.write_str("exec-mode");
            d.write_u8(2);
        }
        // Same back-compat discipline as `exec_mode`: the dictionary and
        // the mining flag fold in only when non-default, so pre-token
        // hashes keep verifying byte-for-byte.
        if !self.dictionary.is_empty() {
            d.write_str("dictionary");
            d.write_u64(self.dictionary.len() as u64);
            for tok in &self.dictionary {
                d.write_bytes(tok);
            }
        }
        if self.mine_tokens {
            d.write_str("mine-tokens");
            d.write_u8(1);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_paper_terms() {
        let h = HeuristicConfig::default();
        assert!(h.use_new_branches);
        assert!(h.use_input_length);
        assert!(h.use_replacement_len);
        assert!(h.use_stack_size);
        assert!(h.use_parent_penalty);
        assert!(!h.paper_literal_parent_sign);
        assert!(h.use_path_dedup);
    }

    #[test]
    fn disabled_turns_everything_off() {
        let h = HeuristicConfig::disabled();
        assert!(!h.use_new_branches);
        assert!(!h.use_path_dedup);
    }

    #[test]
    fn default_driver_config_is_sane() {
        let c = DriverConfig::default();
        assert!(c.max_execs > 0);
        assert_eq!(c.extension_mode, ExtensionMode::Both);
        assert_eq!(c.search, SearchMode::Heuristic);
        assert!(!c.trace);
    }

    #[test]
    fn search_mode_default_is_heuristic() {
        assert_eq!(SearchMode::default(), SearchMode::Heuristic);
    }

    #[test]
    fn config_hash_ignores_seed_and_budget() {
        let a = DriverConfig::default();
        let b = DriverConfig {
            seed: 99,
            max_execs: 123,
            ..DriverConfig::default()
        };
        assert_eq!(a.config_hash(), b.config_hash());
    }

    #[test]
    fn config_hash_sees_search_shaping_fields() {
        let base = DriverConfig::default().config_hash();
        let variants = [
            DriverConfig {
                max_valid_inputs: Some(5),
                ..DriverConfig::default()
            },
            DriverConfig {
                heuristic: HeuristicConfig::disabled(),
                ..DriverConfig::default()
            },
            DriverConfig {
                search: SearchMode::DepthFirst,
                ..DriverConfig::default()
            },
            DriverConfig {
                extension_mode: ExtensionMode::AppendOnly,
                ..DriverConfig::default()
            },
            DriverConfig {
                exec_mode: ExecMode::Tiered,
                ..DriverConfig::default()
            },
            DriverConfig {
                dictionary: vec![b"while".to_vec()],
                ..DriverConfig::default()
            },
            DriverConfig {
                mine_tokens: true,
                ..DriverConfig::default()
            },
        ];
        for v in variants {
            assert_ne!(v.config_hash(), base, "{v:?} hashed same as default");
        }
    }

    /// Journals and checkpoints embed `config_hash`, so its value for
    /// every surviving configuration is part of the on-disk format.
    /// These constants were computed before any option was removed;
    /// a change here breaks replay of recorded campaigns.
    #[test]
    fn config_hash_values_are_pinned() {
        let pins: [(&str, DriverConfig, u64); 11] = [
            ("default", DriverConfig::default(), 0xec2fb96a112f83c5),
            (
                "tiered",
                DriverConfig {
                    exec_mode: ExecMode::Tiered,
                    ..DriverConfig::default()
                },
                0x71ec39cf42395bcb,
            ),
            (
                "dictionary",
                DriverConfig {
                    dictionary: vec![b"while".to_vec(), b"if".to_vec()],
                    ..DriverConfig::default()
                },
                0x7a3cb0315edc89a4,
            ),
            (
                "mine-tokens",
                DriverConfig {
                    mine_tokens: true,
                    ..DriverConfig::default()
                },
                0xa7eab08a1e1439e9,
            ),
            (
                "depth-first",
                DriverConfig {
                    search: SearchMode::DepthFirst,
                    ..DriverConfig::default()
                },
                0xe1733b0a6bfdb910,
            ),
            (
                "breadth-first",
                DriverConfig {
                    search: SearchMode::BreadthFirst,
                    ..DriverConfig::default()
                },
                0x5c87aea60b70c963,
            ),
            (
                "replace-only",
                DriverConfig {
                    extension_mode: ExtensionMode::ReplaceOnly,
                    ..DriverConfig::default()
                },
                0x77c815dee237796a,
            ),
            (
                "append-only",
                DriverConfig {
                    extension_mode: ExtensionMode::AppendOnly,
                    ..DriverConfig::default()
                },
                0xe59bf1f67eb8b6af,
            ),
            (
                "trace",
                DriverConfig {
                    trace: true,
                    ..DriverConfig::default()
                },
                0xec331d6a11326388,
            ),
            (
                "no-path-dedup",
                DriverConfig {
                    heuristic: HeuristicConfig {
                        use_path_dedup: false,
                        ..HeuristicConfig::default()
                    },
                    ..DriverConfig::default()
                },
                0xd7000e610d778c22,
            ),
            (
                "tiered-mining-dictionary",
                DriverConfig {
                    exec_mode: ExecMode::Tiered,
                    dictionary: vec![b"true".to_vec()],
                    mine_tokens: true,
                    max_valid_inputs: Some(5),
                    ..DriverConfig::default()
                },
                0x177d89f9a5f753de,
            ),
        ];
        for (name, cfg, want) in pins {
            assert_eq!(cfg.config_hash(), want, "{name}");
        }
    }

    #[test]
    fn config_hash_sees_dictionary_order() {
        let a = DriverConfig {
            dictionary: vec![b"if".to_vec(), b"while".to_vec()],
            ..DriverConfig::default()
        };
        let b = DriverConfig {
            dictionary: vec![b"while".to_vec(), b"if".to_vec()],
            ..DriverConfig::default()
        };
        assert_ne!(a.config_hash(), b.config_hash());
    }
}
