//! Token inventories and *input coverage* scoring.
//!
//! Section 5.3 of the paper measures input coverage: which of a
//! subject's language tokens appear in the valid inputs a tool
//! generated. "Strings, numbers and identifiers are classified as one
//! token as they can consist of many different characters but will all
//! trigger the same behavior in the program. Any non-token characters
//! (e.g. whitespaces) are ignored."
//!
//! This crate provides, per subject:
//!
//! - the **token inventory** with each token's length — exactly the
//!   paper's Tables 2 (json), 3 (tinyC) and 4 (mjs); for ini and csv
//!   (which the paper describes only in prose) and for the mjs tokens
//!   the paper lists as "..." the concrete choices are documented on the
//!   inventory functions;
//! - a **scanner** mapping a (valid) input to the set of inventory
//!   tokens it contains;
//! - [`TokenCoverage`], which accumulates found tokens over a corpus and
//!   produces the per-length counts of Figure 3 and the headline
//!   aggregates ("for tokens of length ≤ 3, AFL finds 91.5%, ...").
//!
//! # Example
//!
//! ```
//! use pdf_tokens::{inventory, TokenCoverage};
//!
//! let inv = inventory("cjson").unwrap();
//! assert_eq!(inv.total(), 12); // Table 2: 8 + 1 + 2 + 1
//!
//! let mut cov = TokenCoverage::new("cjson").unwrap();
//! cov.add_input(b"{\"a\": [1, true]}");
//! assert!(cov.found("true"));
//! assert!(!cov.found("false"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dict;
mod miner;
mod scan;

use std::collections::BTreeSet;

pub use dict::Dictionary;
pub use miner::{MinerConfig, TokenMiner};
pub use scan::found_tokens;

/// One token of a subject's input language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDef {
    /// Display name; for classes (number, string, identifier) the class
    /// name.
    pub name: &'static str,
    /// The length the paper's tables assign to the token.
    pub length: usize,
}

const fn tok(name: &'static str, length: usize) -> TokenDef {
    TokenDef { name, length }
}

/// A subject's full token inventory.
#[derive(Debug, Clone)]
pub struct TokenInventory {
    /// Subject name (paper spelling: ini, csv, cjson, tinyC, mjs).
    pub subject: &'static str,
    /// All tokens.
    pub tokens: Vec<TokenDef>,
}

impl TokenInventory {
    /// Total number of tokens.
    pub fn total(&self) -> usize {
        self.tokens.len()
    }

    /// Number of tokens of exactly this length.
    pub fn count_of_length(&self, length: usize) -> usize {
        self.tokens.iter().filter(|t| t.length == length).count()
    }

    /// The distinct lengths present, ascending.
    pub fn lengths(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.tokens.iter().map(|t| t.length).collect();
        set.into_iter().collect()
    }

    /// Tokens with length in `range` (inclusive bounds).
    pub fn tokens_in(&self, min: usize, max: usize) -> Vec<&TokenDef> {
        self.tokens
            .iter()
            .filter(|t| t.length >= min && t.length <= max)
            .collect()
    }
}

/// The ini inventory. The paper gives no table for ini; Figure 3 shows
/// five length-1 tokens (KLEE missing the two brackets) and two longer
/// classes. We use: `[`, `]`, `=`, `:`, `;` plus the `name` and `value`
/// classes (at length 2, matching the figure's second column).
pub fn ini_inventory() -> TokenInventory {
    TokenInventory {
        subject: "ini",
        tokens: vec![
            tok("[", 1),
            tok("]", 1),
            tok("=", 1),
            tok(":", 1),
            tok(";", 1),
            tok("name", 2),
            tok("value", 2),
        ],
    }
}

/// The csv inventory (no table in the paper): the comma and the
/// unquoted `field` class at length 1, the newline separator and the
/// `quoted` field class at length 2.
pub fn csv_inventory() -> TokenInventory {
    TokenInventory {
        subject: "csv",
        tokens: vec![
            tok(",", 1),
            tok("field", 1),
            tok("newline", 2),
            tok("quoted", 2),
        ],
    }
}

/// Table 2: the json tokens — 8 of length 1, `string` at length 2,
/// `null`/`true` at length 4, `false` at length 5.
pub fn json_inventory() -> TokenInventory {
    TokenInventory {
        subject: "cjson",
        tokens: vec![
            tok("{", 1),
            tok("}", 1),
            tok("[", 1),
            tok("]", 1),
            tok("-", 1),
            tok(":", 1),
            tok(",", 1),
            tok("number", 1),
            tok("string", 2),
            tok("null", 4),
            tok("true", 4),
            tok("false", 5),
        ],
    }
}

/// Table 3: the tinyC tokens — 11 of length 1 (including the
/// `identifier` and `number` classes), `if`/`do`, `else`, `while`.
pub fn tinyc_inventory() -> TokenInventory {
    TokenInventory {
        subject: "tinyC",
        tokens: vec![
            tok("<", 1),
            tok("+", 1),
            tok("-", 1),
            tok(";", 1),
            tok("=", 1),
            tok("{", 1),
            tok("}", 1),
            tok("(", 1),
            tok(")", 1),
            tok("identifier", 1),
            tok("number", 1),
            tok("if", 2),
            tok("do", 2),
            tok("else", 4),
            tok("while", 5),
        ],
    }
}

/// Table 4: the mjs tokens, 99 in total with the paper's per-length
/// counts (27, 24, 13, 10, 9, 7, 3, 3, 2, 1). Table 4 only lists
/// examples per length; where it prints "..." we complete the inventory
/// with the remaining operators, keywords and builtin names of our mjs
/// subject (builtin method names such as `indexOf` and `stringify` are
/// tokens in the paper's own table). The single-quoted string form
/// counts as its own length-1 class (the quote character selects a
/// distinct lexer path), keeping the length-1 count at 27.
pub fn mjs_inventory() -> TokenInventory {
    let mut tokens = Vec::new();
    // length 1: 24 punctuation/operator characters + 3 classes
    for p in [
        "{", "}", "(", ")", "[", "]", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "?", ":",
        ";", ",", "<", ">", "=", ".",
    ] {
        tokens.push(tok(p, 1));
    }
    tokens.push(tok("identifier", 1));
    tokens.push(tok("number", 1));
    tokens.push(tok("sq-string", 1));
    // length 2: 19 operators + 4 keywords + the double-quoted string class
    for p in [
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "==", "!=", "<=", ">=", "<<", ">>", "&&",
        "||", "++", "--", "**",
    ] {
        tokens.push(tok(p, 2));
    }
    for k in ["if", "in", "do", "of"] {
        tokens.push(tok(k, 2));
    }
    tokens.push(tok("string", 2));
    // length 3: 5 operators + 5 keywords + 3 builtin names
    for p in ["===", "!==", "<<=", ">>=", ">>>"] {
        tokens.push(tok(p, 3));
    }
    for k in ["for", "try", "let", "var", "new", "NaN", "abs", "pow"] {
        tokens.push(tok(k, 3));
    }
    // length 4
    for k in [
        ">>>=", "true", "null", "void", "with", "else", "case", "this", "Math", "JSON",
    ] {
        tokens.push(tok(k, 4));
    }
    // length 5
    for k in [
        "false", "throw", "while", "break", "catch", "const", "floor", "slice", "split",
    ] {
        tokens.push(tok(k, 5));
    }
    // length 6
    for k in [
        "return", "delete", "typeof", "Object", "switch", "String", "length",
    ] {
        tokens.push(tok(k, 6));
    }
    // length 7
    for k in ["default", "finally", "indexOf"] {
        tokens.push(tok(k, 7));
    }
    // length 8
    for k in ["continue", "function", "debugger"] {
        tokens.push(tok(k, 8));
    }
    // length 9
    for k in ["undefined", "stringify"] {
        tokens.push(tok(k, 9));
    }
    // length 10
    tokens.push(tok("instanceof", 10));
    TokenInventory {
        subject: "mjs",
        tokens,
    }
}

/// Looks up a subject's inventory by its paper name.
pub fn inventory(subject: &str) -> Option<TokenInventory> {
    match subject {
        "ini" => Some(ini_inventory()),
        "csv" => Some(csv_inventory()),
        "cjson" | "json" => Some(json_inventory()),
        "tinyC" | "tinyc" => Some(tinyc_inventory()),
        "mjs" => Some(mjs_inventory()),
        _ => None,
    }
}

/// Accumulates the tokens found in a corpus of valid inputs and scores
/// them against the inventory — the Figure 3 measurement.
#[derive(Debug, Clone)]
pub struct TokenCoverage {
    inventory: TokenInventory,
    found: BTreeSet<&'static str>,
}

impl TokenCoverage {
    /// Creates an empty coverage record for `subject`.
    pub fn new(subject: &str) -> Option<Self> {
        Some(TokenCoverage {
            inventory: inventory(subject)?,
            found: BTreeSet::new(),
        })
    }

    /// Scans one (valid) input and records the tokens it contains.
    pub fn add_input(&mut self, input: &[u8]) {
        for name in found_tokens(self.inventory.subject, input) {
            self.found.insert(name);
        }
    }

    /// Whether the named token has been seen.
    pub fn found(&self, name: &str) -> bool {
        self.found.contains(name)
    }

    /// The inventory being scored against.
    pub fn inventory(&self) -> &TokenInventory {
        &self.inventory
    }

    /// Number of found tokens of exactly this length — one bar of
    /// Figure 3.
    pub fn found_of_length(&self, length: usize) -> usize {
        self.inventory
            .tokens
            .iter()
            .filter(|t| t.length == length && self.found.contains(t.name))
            .count()
    }

    /// Found / total over tokens with length in `[min, max]` — the
    /// paper's headline aggregates use (1, 3) and (4, usize::MAX).
    pub fn fraction_in(&self, min: usize, max: usize) -> (usize, usize) {
        let total = self.inventory.tokens_in(min, max);
        let found = total.iter().filter(|t| self.found.contains(t.name)).count();
        (found, total.len())
    }

    /// All found token names, sorted.
    pub fn found_names(&self) -> Vec<&'static str> {
        self.found.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_counts() {
        let inv = json_inventory();
        assert_eq!(inv.count_of_length(1), 8);
        assert_eq!(inv.count_of_length(2), 1);
        assert_eq!(inv.count_of_length(4), 2);
        assert_eq!(inv.count_of_length(5), 1);
        assert_eq!(inv.total(), 12);
    }

    #[test]
    fn table3_counts() {
        let inv = tinyc_inventory();
        assert_eq!(inv.count_of_length(1), 11);
        assert_eq!(inv.count_of_length(2), 2);
        assert_eq!(inv.count_of_length(4), 1);
        assert_eq!(inv.count_of_length(5), 1);
        assert_eq!(inv.total(), 15);
    }

    #[test]
    fn table4_counts() {
        let inv = mjs_inventory();
        let expected = [27, 24, 13, 10, 9, 7, 3, 3, 2, 1];
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(
                inv.count_of_length(i + 1),
                want,
                "length {} should have {} tokens",
                i + 1,
                want
            );
        }
        assert_eq!(inv.total(), 99);
    }

    #[test]
    fn no_duplicate_token_names_per_inventory() {
        for subj in ["ini", "csv", "cjson", "tinyC", "mjs"] {
            let inv = inventory(subj).unwrap();
            let names: BTreeSet<&str> = inv.tokens.iter().map(|t| t.name).collect();
            assert_eq!(names.len(), inv.total(), "{subj} has duplicate names");
        }
    }

    #[test]
    fn lengths_listing() {
        assert_eq!(json_inventory().lengths(), vec![1, 2, 4, 5]);
        assert_eq!(
            mjs_inventory().lengths(),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        );
    }

    #[test]
    fn coverage_accumulates() {
        let mut cov = TokenCoverage::new("cjson").unwrap();
        assert_eq!(cov.fraction_in(1, 3), (0, 9));
        cov.add_input(b"[1, 2]");
        assert!(cov.found("["));
        assert!(cov.found("]"));
        assert!(cov.found(","));
        assert!(cov.found("number"));
        cov.add_input(b"true");
        let (found_long, total_long) = cov.fraction_in(4, usize::MAX);
        assert_eq!((found_long, total_long), (1, 3));
    }

    #[test]
    fn unknown_subject_is_none() {
        assert!(inventory("nope").is_none());
        assert!(TokenCoverage::new("nope").is_none());
    }
}
