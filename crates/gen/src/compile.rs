//! Grammar compilation: a mined [`Grammar`] flattened into dense rule
//! tables the generator walks without allocation or recursion.
//!
//! *Building Fast Fuzzers* (PAPERS.md) observes that the gap between
//! tree-walking grammar generators and compiled ones is one to two
//! orders of magnitude; this module reproduces the compiled half under
//! this repo's determinism contract. The transformation:
//!
//! - **Dense rule ids.** Every nonterminal (defined or merely
//!   referenced) gets a `u32` id; id `0` is always the start symbol.
//!   All per-rule state lives in flat `Vec`s indexed by id — no
//!   `BTreeMap` walk per expansion.
//! - **Pre-concatenated terminals.** All literal bytes live in one
//!   shared pool; adjacent literals inside an alternative are fused at
//!   compile time, so emitting a terminal run is a single
//!   `extend_from_slice`.
//! - **Forced chains inlined.** A rule with a single, literal-only
//!   alternative emits the same fixed bytes at every depth, draws
//!   nothing and carries no choice worth tracing — so references to it
//!   are spliced into the caller (transitively) and re-fused with the
//!   neighbouring literals. What the recursive generator resolves with
//!   a map walk per level, the compiled one resolves at compile time.
//! - **Precomputed cheapest expansions.** Once the depth bound is
//!   reached, the recursive [`Generator`](pdf_grammar::Generator)
//!   deterministically expands each rule's cheapest alternative all the
//!   way down without drawing any randomness — so the entire subtree is
//!   a *fixed byte string* per rule, precomputed here and emitted as one
//!   copy.
//! - **Explicit work stack.** Expansion keeps the current alternative's
//!   op cursor in locals and suspends parents on a reusable frame
//!   stack; a rule whose reference is the last op of its parent resumes
//!   nothing and pushes no frame. With
//!   [`CompiledGrammar::generate_into`] reusing the caller's buffer,
//!   the steady state allocates nothing.
//!
//! # Determinism and derivation contract
//!
//! All randomness is rooted in the caller's [`Rng`] chokepoint, but not
//! drawn per choice: the first real choice derives a [`DerivedRng`]
//! bulk stream via [`Rng::derive_stream`] — **one accounted draw for
//! the generator's lifetime** — and every alternative is then sampled
//! from that stream (one SplitMix64 step and a multiply-shift per
//! choice, no per-draw accounting). The derived stream is a pure
//! function of the accounted draw, so seeded campaigns replay
//! byte-identically and the chokepoint's draw count and rolling digest
//! still witness the entire generated corpus. Forced paths — single
//! alternatives, depth-bound expansions — consume no entropy at all,
//! mirroring the recursive generator.
//!
//! Under uniform weights each choice is uniform over the same
//! alternatives the recursive [`Generator`](pdf_grammar::Generator)
//! chooses from, so the two sample the *same distribution* over the
//! grammar's language; the concrete byte streams differ because the
//! compiled generator does not pay one accounted draw per choice —
//! that difference is precisely what the `grammar_gen` bench measures.
//! On fully forced grammars (or a zero depth bound) no entropy is
//! consumed and the two are byte-for-byte identical; `tests/
//! equivalence.rs` certifies both halves of this contract.

use std::collections::BTreeSet;
use std::fmt;

use pdf_grammar::{Grammar, GrammarFile, Label, Sym, START};
use pdf_runtime::{DerivedRng, Rng};

/// One flattened operation of an alternative's body.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Emit `pool[off..off + len]`.
    Lit { off: u32, len: u32 },
    /// Expand the rule with this dense id, one level deeper.
    Rule(u32),
}

/// A suspended parent: the op range still to process for one expanded
/// alternative, at the depth its rule was expanded at.
#[derive(Debug, Clone, Copy)]
struct Frame {
    cursor: u32,
    end: u32,
    depth: u32,
}

/// Errors compiling a grammar or updating its weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The cheapest alternatives of these rules form a reference cycle,
    /// so depth-bounded expansion would never terminate (the recursive
    /// `Generator` would overflow the stack on such a grammar; the
    /// compiler refuses it instead). Carries the first offending label.
    CheapCycle(Label),
    /// A weight update did not match the compiled shape.
    Weights(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::CheapCycle(l) => write!(
                f,
                "cheapest alternatives cycle through rule {:016x}: depth-bounded \
                 expansion cannot terminate",
                l.0
            ),
            CompileError::Weights(m) => write!(f, "bad weight update: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A grammar compiled into flat tables, plus the per-alternative weight
/// vector the evolutionary layer tunes. See the module docs for the
/// layout and the derivation contract.
///
/// # Example
///
/// ```
/// use pdf_gen::CompiledGrammar;
/// use pdf_grammar::{mine_corpus, GrammarFile};
/// use pdf_runtime::Rng;
///
/// let subject = pdf_subjects::arith::subject();
/// let corpus = vec![b"1".to_vec(), b"(1)".to_vec(), b"1+2".to_vec()];
/// let file = GrammarFile::uniform(mine_corpus(subject, &corpus));
/// let mut compiled = CompiledGrammar::compile(&file, 8).unwrap();
/// let mut rng = Rng::new(7);
/// let mut buf = Vec::new();
/// compiled.generate_into(&mut rng, &mut buf);
/// assert!(!buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledGrammar {
    /// Dense id → label; index 0 is always [`START`].
    labels: Vec<Label>,
    /// Per rule: global alternative index range; length `rules + 1`.
    rule_alt_start: Vec<u32>,
    /// Per rule: index of its weight row in [`Grammar::labels`] order,
    /// when the rule is defined (referenced-but-undefined rules have no
    /// alternatives and no weights).
    defined_row: Vec<Option<u32>>,
    /// Per global alternative: op range in `ops`.
    alt_ops: Vec<(u32, u32)>,
    /// Per global alternative: sampling weight (always ≥ 1).
    weights: Vec<u32>,
    /// Per rule: sum of its alternatives' weights.
    rule_total: Vec<u64>,
    /// Per rule: whether every weight is exactly 1 (the uniform fast
    /// path skips the prefix scan).
    rule_uniform: Vec<bool>,
    ops: Vec<Op>,
    /// Shared terminal byte pool.
    pool: Vec<u8>,
    /// Per rule: byte range in `cheap_pool` holding its full
    /// cheapest-alternative expansion.
    cheap: Vec<(u32, u32)>,
    cheap_pool: Vec<u8>,
    max_depth: usize,
    /// The derived choice stream; seeded lazily from the chokepoint on
    /// the first real choice (forced-only generation never draws).
    stream: Option<DerivedRng>,
    /// Reusable walk stack (cleared per generation, never shrunk).
    stack: Vec<Frame>,
    /// Reusable trace buffer backing [`Self::generate_into`].
    scratch_trace: Vec<u32>,
}

impl CompiledGrammar {
    /// Compiles `file`'s grammar and weights under the given depth
    /// bound.
    ///
    /// # Errors
    ///
    /// [`CompileError::CheapCycle`] when the cheapest alternatives form
    /// a reference cycle (see the variant docs).
    pub fn compile(file: &GrammarFile, max_depth: usize) -> Result<Self, CompileError> {
        let grammar = file.grammar();
        // dense ids: START first, then every other defined label in
        // sorted order, then referenced-but-undefined labels (they
        // expand to nothing, exactly like `Grammar::alts` returning
        // empty)
        let defined: Vec<Label> = grammar.labels().collect();
        let mut referenced: BTreeSet<Label> = BTreeSet::new();
        for &l in &defined {
            for alt in grammar.alts(l) {
                for sym in alt {
                    if let Sym::Ref(r) = sym {
                        referenced.insert(*r);
                    }
                }
            }
        }
        let mut labels = vec![START];
        labels.extend(defined.iter().copied().filter(|&l| l != START));
        labels.extend(
            referenced
                .iter()
                .copied()
                .filter(|l| !defined.contains(l) && *l != START),
        );
        let id_of = |l: Label| labels.iter().position(|&x| x == l).unwrap() as u32;

        let mut rule_alt_start = Vec::with_capacity(labels.len() + 1);
        let mut defined_row = Vec::with_capacity(labels.len());
        let mut alt_ops = Vec::new();
        let mut weights = Vec::new();
        let mut rule_total = Vec::with_capacity(labels.len());
        let mut ops = Vec::new();
        let mut pool = Vec::new();
        for &label in &labels {
            rule_alt_start.push(alt_ops.len() as u32);
            let row = defined.iter().position(|&l| l == label);
            defined_row.push(row.map(|r| r as u32));
            let alt_weights = row.map(|r| &file.weights()[r]);
            let mut total = 0u64;
            for (a, alt) in grammar.alts(label).iter().enumerate() {
                let op_start = ops.len() as u32;
                // fuse adjacent literals into single pool runs
                let mut run: Option<(u32, u32)> = None;
                for sym in alt {
                    match sym {
                        Sym::Lit(bytes) => {
                            let off = pool.len() as u32;
                            pool.extend_from_slice(bytes);
                            run = Some(match run {
                                Some((o, l)) => (o, l + bytes.len() as u32),
                                None => (off, bytes.len() as u32),
                            });
                        }
                        Sym::Ref(r) => {
                            if let Some((off, len)) = run.take() {
                                ops.push(Op::Lit { off, len });
                            }
                            ops.push(Op::Rule(id_of(*r)));
                        }
                    }
                }
                if let Some((off, len)) = run {
                    ops.push(Op::Lit { off, len });
                }
                alt_ops.push((op_start, ops.len() as u32));
                let w = alt_weights.map_or(1, |row| row[a]).max(1);
                weights.push(w);
                total += u64::from(w);
            }
            rule_total.push(total);
        }
        rule_alt_start.push(alt_ops.len() as u32);

        Self::inline_literal_rules(&rule_alt_start, &mut alt_ops, &mut ops, &mut pool);

        let (cheap, cheap_pool) =
            Self::compute_cheap(&labels, &rule_alt_start, &alt_ops, &ops, &pool)?;

        let rule_uniform = (0..labels.len())
            .map(|r| {
                let (lo, hi) = (rule_alt_start[r], rule_alt_start[r + 1]);
                rule_total[r] == u64::from(hi - lo)
            })
            .collect();

        Ok(CompiledGrammar {
            labels,
            rule_alt_start,
            defined_row,
            alt_ops,
            weights,
            rule_total,
            rule_uniform,
            ops,
            pool,
            cheap,
            cheap_pool,
            max_depth,
            stream: None,
            stack: Vec::new(),
            scratch_trace: Vec::new(),
        })
    }

    /// Splices references to forced, literal-only rules into their
    /// callers. A rule qualifies when it has exactly one alternative
    /// whose body is (after earlier passes) a single literal run or
    /// empty, or no alternatives at all (a referenced-but-undefined
    /// rule, which expands to nothing). Such a rule produces the same
    /// fixed bytes at every depth — its only alternative is also its
    /// cheapest — draws nothing, and its forced trace entry carries no
    /// signal the evolutionary layer could use, so splicing is
    /// behaviour-preserving. Runs to a fixpoint: a rule that becomes
    /// literal-only once its own references are spliced is picked up by
    /// the next pass.
    fn inline_literal_rules(
        rule_alt_start: &[u32],
        alt_ops: &mut Vec<(u32, u32)>,
        ops: &mut Vec<Op>,
        pool: &mut Vec<u8>,
    ) {
        let rules = rule_alt_start.len() - 1;
        // every substitution removes at least one `Op::Rule`, so the
        // fixpoint needs at most one pass per chain link
        for _ in 0..=rules {
            let subst: Vec<Option<(u32, u32)>> = (0..rules)
                .map(|r| {
                    let (lo, hi) = (rule_alt_start[r], rule_alt_start[r + 1]);
                    if lo == hi {
                        return Some((0, 0));
                    }
                    if hi - lo != 1 {
                        return None;
                    }
                    let (olo, ohi) = alt_ops[lo as usize];
                    match &ops[olo as usize..ohi as usize] {
                        [] => Some((0, 0)),
                        [Op::Lit { off, len }] => Some((*off, *len)),
                        _ => None,
                    }
                })
                .collect();

            let mut changed = false;
            let mut new_ops = Vec::with_capacity(ops.len());
            let mut new_alt_ops = Vec::with_capacity(alt_ops.len());
            for &(olo, ohi) in alt_ops.iter() {
                let start = new_ops.len() as u32;
                let mut run: Option<(u32, u32)> = None;
                for op in &ops[olo as usize..ohi as usize] {
                    let lit = match op {
                        Op::Lit { off, len } => Some((*off, *len)),
                        Op::Rule(r) => {
                            let s = subst[*r as usize];
                            changed |= s.is_some();
                            s
                        }
                    };
                    match lit {
                        Some((_, 0)) => {}
                        Some((off, len)) => {
                            run = Some(match run {
                                None => (off, len),
                                // adjacent in the pool: extend the run;
                                // otherwise concatenate into a fresh run
                                Some((o, l)) if o + l == off => (o, l + len),
                                Some((o, l)) => {
                                    let fused = pool.len() as u32;
                                    let head = o as usize..(o + l) as usize;
                                    let tail = off as usize..(off + len) as usize;
                                    pool.extend_from_within(head);
                                    pool.extend_from_within(tail);
                                    (fused, l + len)
                                }
                            });
                        }
                        None => {
                            if let Some((o, l)) = run.take() {
                                new_ops.push(Op::Lit { off: o, len: l });
                            }
                            new_ops.push(*op);
                        }
                    }
                }
                if let Some((o, l)) = run {
                    new_ops.push(Op::Lit { off: o, len: l });
                }
                new_alt_ops.push((start, new_ops.len() as u32));
            }
            *ops = new_ops;
            *alt_ops = new_alt_ops;
            if !changed {
                break;
            }
        }
    }

    /// Per-rule full cheapest expansions, by fixpoint: a rule resolves
    /// once every rule its cheapest alternative references has resolved.
    /// Rules left unresolved when the fixpoint stalls are exactly the
    /// cheap cycles.
    #[allow(clippy::type_complexity)]
    fn compute_cheap(
        labels: &[Label],
        rule_alt_start: &[u32],
        alt_ops: &[(u32, u32)],
        ops: &[Op],
        pool: &[u8],
    ) -> Result<(Vec<(u32, u32)>, Vec<u8>), CompileError> {
        let rules = labels.len();
        // cheapest alternative per rule: fewest rule references, first
        // on ties — the same choice `Generator::index_cheapest` makes
        let cheapest: Vec<Option<u32>> = (0..rules)
            .map(|r| {
                let (lo, hi) = (rule_alt_start[r], rule_alt_start[r + 1]);
                (lo..hi).min_by_key(|&a| {
                    let (olo, ohi) = alt_ops[a as usize];
                    ops[olo as usize..ohi as usize]
                        .iter()
                        .filter(|op| matches!(op, Op::Rule(_)))
                        .count()
                })
            })
            .collect();
        let mut resolved: Vec<Option<Vec<u8>>> = (0..rules)
            .map(|r| cheapest[r].is_none().then(Vec::new))
            .collect();
        loop {
            let mut progress = false;
            for r in 0..rules {
                if resolved[r].is_some() {
                    continue;
                }
                let (olo, ohi) = alt_ops[cheapest[r].expect("unresolved rule has alts") as usize];
                let deps_ready = ops[olo as usize..ohi as usize].iter().all(|op| match op {
                    Op::Rule(c) => resolved[*c as usize].is_some(),
                    Op::Lit { .. } => true,
                });
                if !deps_ready {
                    continue;
                }
                let mut bytes = Vec::new();
                for op in &ops[olo as usize..ohi as usize] {
                    match op {
                        Op::Lit { off, len } => {
                            bytes.extend_from_slice(&pool[*off as usize..(*off + *len) as usize])
                        }
                        Op::Rule(c) => {
                            bytes.extend_from_slice(resolved[*c as usize].as_ref().expect("ready"))
                        }
                    }
                }
                resolved[r] = Some(bytes);
                progress = true;
            }
            if !progress {
                break;
            }
        }
        if let Some(r) = resolved.iter().position(Option::is_none) {
            return Err(CompileError::CheapCycle(labels[r]));
        }
        let mut cheap = Vec::with_capacity(rules);
        let mut cheap_pool = Vec::new();
        for bytes in resolved {
            let bytes = bytes.expect("all resolved");
            let lo = cheap_pool.len() as u32;
            cheap_pool.extend_from_slice(&bytes);
            cheap.push((lo, cheap_pool.len() as u32));
        }
        Ok((cheap, cheap_pool))
    }

    /// Number of rules (dense ids).
    pub fn rules(&self) -> usize {
        self.labels.len()
    }

    /// Total number of alternatives across all rules.
    pub fn alt_count(&self) -> usize {
        self.alt_ops.len()
    }

    /// The depth bound generation runs under.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The flat per-alternative weights, in global alternative order
    /// (rule 0's alternatives first, then rule 1's, ...).
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Replaces the flat weight vector and recomputes per-rule totals.
    /// Zero weights are rejected rather than clamped: a zero would
    /// silently remove an alternative from the sample space.
    ///
    /// # Errors
    ///
    /// [`CompileError::Weights`] on a length mismatch or zero weight.
    pub fn set_weights(&mut self, weights: &[u32]) -> Result<(), CompileError> {
        if weights.len() != self.weights.len() {
            return Err(CompileError::Weights(format!(
                "{} weights for {} alternatives",
                weights.len(),
                self.weights.len()
            )));
        }
        if let Some(i) = weights.iter().position(|&w| w == 0) {
            return Err(CompileError::Weights(format!(
                "zero weight at alternative {i}"
            )));
        }
        self.weights.copy_from_slice(weights);
        for r in 0..self.rules() {
            let (lo, hi) = (self.rule_alt_start[r], self.rule_alt_start[r + 1]);
            self.rule_total[r] = self.weights[lo as usize..hi as usize]
                .iter()
                .map(|&w| u64::from(w))
                .sum();
            self.rule_uniform[r] = self.rule_total[r] == u64::from(hi - lo);
        }
        Ok(())
    }

    /// Exports the weights in [`GrammarFile`] shape (one row per
    /// defined rule, in [`Grammar::labels`] order) — the persistence
    /// path back into the `pdf-grammar v1` codec.
    pub fn weight_rows(&self) -> Vec<Vec<u32>> {
        let defined = self.defined_row.iter().flatten().count();
        let mut rows = vec![Vec::new(); defined];
        for r in 0..self.rules() {
            if let Some(row) = self.defined_row[r] {
                let (lo, hi) = (self.rule_alt_start[r], self.rule_alt_start[r + 1]);
                rows[row as usize] = self.weights[lo as usize..hi as usize].to_vec();
            }
        }
        rows
    }

    /// Generates one input into `out`, clearing it first. Entropy
    /// consumption follows the module-level derivation contract: at
    /// most one accounted chokepoint draw over the generator's whole
    /// lifetime, none on forced paths. Steady-state allocation-free
    /// (buffer, stack and trace scratch all keep their capacity).
    pub fn generate_into(&mut self, rng: &mut Rng, out: &mut Vec<u8>) {
        let mut trace = std::mem::take(&mut self.scratch_trace);
        self.generate_traced(rng, out, &mut trace);
        self.scratch_trace = trace;
    }

    /// [`generate_into`](Self::generate_into), also recording the
    /// global index of every alternative chosen, in expansion
    /// (pre-order) order — the attribution stream the evolutionary
    /// weighting layer consumes. Forced expansions (depth-bound
    /// cheapest paths, inlined literal chains) draw nothing and are not
    /// traced.
    pub fn generate_traced(&mut self, rng: &mut Rng, out: &mut Vec<u8>, trace: &mut Vec<u32>) {
        out.clear();
        trace.clear();
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        let mut stream = self.stream.take();
        self.walk(rng, &mut stream, &mut stack, out, trace);
        self.stream = stream;
        self.stack = stack;
    }

    /// Generates `n` inputs into `batch`'s flat arena, clearing it
    /// first — the flood hot path. Amortises everything per-input
    /// generation pays per call (scratch swaps, buffer clears, stack
    /// setup) across the whole batch; inputs and traces land
    /// back-to-back in two byte/index pools, read back as `&[u8]`
    /// views without materialising per-input `Vec`s.
    pub fn generate_batch(&mut self, rng: &mut Rng, batch: &mut GenBatch, n: usize) {
        batch.clear();
        batch.bounds.reserve(n);
        batch.trace_bounds.reserve(n);
        let mut stack = std::mem::take(&mut self.stack);
        stack.clear();
        let mut stream = self.stream.take();
        for _ in 0..n {
            self.walk(
                rng,
                &mut stream,
                &mut stack,
                &mut batch.bytes,
                &mut batch.traces,
            );
            batch.bounds.push(batch.bytes.len() as u32);
            batch.trace_bounds.push(batch.traces.len() as u32);
        }
        self.stream = stream;
        self.stack = stack;
    }

    /// Expands one derivation from the start symbol, appending bytes to
    /// `out` and chosen alternatives to `trace`. The current
    /// alternative's op cursor lives in locals; parents are suspended
    /// on the frame stack only when they still have ops left (a tail
    /// reference resumes nothing).
    #[inline]
    fn walk(
        &self,
        rng: &mut Rng,
        stream: &mut Option<DerivedRng>,
        stack: &mut Vec<Frame>,
        out: &mut Vec<u8>,
        trace: &mut Vec<u32>,
    ) {
        if let Some((mut cursor, mut end)) = self.select(0, 0, rng, stream, out, trace) {
            let mut depth: u32 = 0;
            loop {
                if cursor == end {
                    match stack.pop() {
                        Some(f) => {
                            cursor = f.cursor;
                            end = f.end;
                            depth = f.depth;
                            continue;
                        }
                        None => break,
                    }
                }
                let op = self.ops[cursor as usize];
                cursor += 1;
                match op {
                    Op::Lit { off, len } => {
                        out.extend_from_slice(&self.pool[off as usize..(off + len) as usize]);
                    }
                    Op::Rule(r) => {
                        if let Some((olo, ohi)) = self.select(r, depth + 1, rng, stream, out, trace)
                        {
                            if cursor != end {
                                stack.push(Frame { cursor, end, depth });
                            }
                            cursor = olo;
                            end = ohi;
                            depth += 1;
                        }
                    }
                }
            }
        }
    }

    /// Expands one rule at `depth`: emits its precomputed cheapest
    /// bytes at the depth bound (returning `None`: there is no body to
    /// walk), otherwise samples an alternative — from the derived
    /// stream only when there is a real choice — and returns its op
    /// range.
    #[inline]
    fn select(
        &self,
        rule: u32,
        depth: u32,
        rng: &mut Rng,
        stream: &mut Option<DerivedRng>,
        out: &mut Vec<u8>,
        trace: &mut Vec<u32>,
    ) -> Option<(u32, u32)> {
        let r = rule as usize;
        let (lo, hi) = (self.rule_alt_start[r], self.rule_alt_start[r + 1]);
        if lo == hi {
            return None;
        }
        if depth as usize >= self.max_depth {
            let (clo, chi) = self.cheap[r];
            out.extend_from_slice(&self.cheap_pool[clo as usize..chi as usize]);
            return None;
        }
        let alt = if hi - lo == 1 {
            lo
        } else {
            let s = match stream {
                Some(s) => s,
                None => stream.insert(rng.derive_stream()),
            };
            if self.rule_uniform[r] {
                lo + s.index(u64::from(hi - lo)) as u32
            } else {
                let mut draw = s.index(self.rule_total[r]);
                let mut a = lo;
                while a + 1 < hi {
                    let w = u64::from(self.weights[a as usize]);
                    if draw < w {
                        break;
                    }
                    draw -= w;
                    a += 1;
                }
                a
            }
        };
        trace.push(alt);
        Some(self.alt_ops[alt as usize])
    }
}

/// A flat batch of generated inputs: all input bytes back-to-back in
/// one arena with boundary offsets, and all choice traces likewise —
/// the output shape of [`CompiledGrammar::generate_batch`]. Reusing one
/// batch across flood epochs is allocation-free at steady state, and
/// [`inputs`](Self::inputs) yields `&[u8]` views that the batch
/// executors accept directly.
#[derive(Debug, Clone, Default)]
pub struct GenBatch {
    bytes: Vec<u8>,
    /// Input `i` is `bytes[bounds[i] as usize..bounds[i + 1] as usize]`.
    bounds: Vec<u32>,
    traces: Vec<u32>,
    /// Trace `i` bounded the same way in `traces`.
    trace_bounds: Vec<u32>,
}

impl GenBatch {
    /// An empty batch.
    pub fn new() -> Self {
        GenBatch::default()
    }

    /// Removes all inputs, keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bounds.clear();
        self.traces.clear();
        self.trace_bounds.clear();
    }

    /// Number of inputs in the batch.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether the batch holds no inputs.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The bytes of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn input(&self, i: usize) -> &[u8] {
        let lo = if i == 0 {
            0
        } else {
            self.bounds[i - 1] as usize
        };
        &self.bytes[lo..self.bounds[i] as usize]
    }

    /// The choice trace of input `i` (global alternative indices, in
    /// expansion order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn trace(&self, i: usize) -> &[u32] {
        let lo = if i == 0 {
            0
        } else {
            self.trace_bounds[i - 1] as usize
        };
        &self.traces[lo..self.trace_bounds[i] as usize]
    }

    /// All inputs, in generation order.
    pub fn inputs(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.input(i))
    }
}

/// Compiles a bare grammar under uniform weights — the common
/// entry point when no learned weights exist yet.
///
/// # Errors
///
/// As [`CompiledGrammar::compile`].
pub fn compile_uniform(
    grammar: &Grammar,
    max_depth: usize,
) -> Result<CompiledGrammar, CompileError> {
    CompiledGrammar::compile(&GrammarFile::uniform(grammar.clone()), max_depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdf_grammar::mine_corpus;

    fn arith_grammar() -> Grammar {
        let corpus: Vec<Vec<u8>> = [&b"1"[..], b"(1)", b"((2))", b"1+2", b"(1+2)-3"]
            .iter()
            .map(|c| c.to_vec())
            .collect();
        mine_corpus(pdf_subjects::arith::subject(), &corpus)
    }

    #[test]
    fn compiles_and_generates() {
        let mut c = compile_uniform(&arith_grammar(), 8).unwrap();
        let mut rng = Rng::new(3);
        let mut buf = Vec::new();
        c.generate_into(&mut rng, &mut buf);
        assert!(!buf.is_empty());
        assert!(c.rules() >= 1);
        assert_eq!(c.alt_count(), c.weights().len());
    }

    #[test]
    fn lifetime_entropy_is_one_chokepoint_draw() {
        let mut c = compile_uniform(&arith_grammar(), 8).unwrap();
        let mut rng = Rng::new(3);
        let mut buf = Vec::new();
        for _ in 0..500 {
            c.generate_into(&mut rng, &mut buf);
        }
        assert_eq!(
            rng.draw_count(),
            1,
            "any number of inputs costs one accounted draw"
        );
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let mut c1 = compile_uniform(&arith_grammar(), 8).unwrap();
        let mut c2 = compile_uniform(&arith_grammar(), 8).unwrap();
        let mut r1 = Rng::new(17);
        let mut r2 = Rng::new(17);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        for _ in 0..200 {
            c1.generate_into(&mut r1, &mut b1);
            c2.generate_into(&mut r2, &mut b2);
            assert_eq!(b1, b2);
        }
        assert_eq!(r1.stream_digest(), r2.stream_digest());

        // a different seed derives a different stream
        let mut c3 = compile_uniform(&arith_grammar(), 8).unwrap();
        let mut r3 = Rng::new(18);
        let mut distinct = false;
        for _ in 0..200 {
            c1.generate_into(&mut r1, &mut b1);
            c3.generate_into(&mut r3, &mut b2);
            distinct |= b1 != b2;
        }
        assert!(distinct, "seeds 17 and 18 generated identical corpora");
    }

    #[test]
    fn empty_grammar_generates_empty() {
        let mut c = compile_uniform(&Grammar::default(), 5).unwrap();
        let mut rng = Rng::new(1);
        let mut buf = vec![1, 2, 3];
        c.generate_into(&mut rng, &mut buf);
        assert!(buf.is_empty());
        assert_eq!(rng.draw_count(), 0);
    }

    #[test]
    fn cheap_cycle_is_rejected() {
        let mut g = Grammar::default();
        let a = Label(0xa);
        let b = Label(0xb);
        g.add_alternative(START, vec![Sym::Ref(a)]);
        g.add_alternative(a, vec![Sym::Ref(b)]);
        g.add_alternative(b, vec![Sym::Ref(a)]);
        assert!(matches!(
            compile_uniform(&g, 4),
            Err(CompileError::CheapCycle(_))
        ));
    }

    #[test]
    fn undefined_refs_expand_to_nothing() {
        let mut g = Grammar::default();
        g.add_alternative(
            START,
            vec![
                Sym::Lit(b"a".to_vec()),
                Sym::Ref(Label(0x99)),
                Sym::Lit(b"b".to_vec()),
            ],
        );
        let mut c = compile_uniform(&g, 4).unwrap();
        let mut rng = Rng::new(1);
        let mut buf = Vec::new();
        c.generate_into(&mut rng, &mut buf);
        assert_eq!(buf, b"ab");
        assert_eq!(rng.draw_count(), 0, "forced expansion must not draw");
    }

    #[test]
    fn literal_chains_inline_to_one_op() {
        // START -> A "-" B ; A -> "xy" ; B -> C ; C -> "z"
        // the whole derivation is forced and literal, so after inlining
        // the start alternative is a single fused literal run
        let mut g = Grammar::default();
        let (a, b, c) = (Label(0xa), Label(0xb), Label(0xc));
        g.add_alternative(
            START,
            vec![Sym::Ref(a), Sym::Lit(b"-".to_vec()), Sym::Ref(b)],
        );
        g.add_alternative(a, vec![Sym::Lit(b"xy".to_vec())]);
        g.add_alternative(b, vec![Sym::Ref(c)]);
        g.add_alternative(c, vec![Sym::Lit(b"z".to_vec())]);
        let mut compiled = compile_uniform(&g, 6).unwrap();
        let (olo, ohi) = compiled.alt_ops[compiled.rule_alt_start[0] as usize];
        assert_eq!(ohi - olo, 1, "forced chain should fuse to one op");
        let mut rng = Rng::new(4);
        let mut buf = Vec::new();
        compiled.generate_into(&mut rng, &mut buf);
        assert_eq!(buf, b"xy-z");
        assert_eq!(rng.draw_count(), 0);
    }

    #[test]
    fn depth_bound_emits_precomputed_cheap_bytes() {
        let g = arith_grammar();
        let mut c = compile_uniform(&g, 0).unwrap();
        let mut rng = Rng::new(5);
        let mut a = Vec::new();
        let mut b = Vec::new();
        c.generate_into(&mut rng, &mut a);
        c.generate_into(&mut rng, &mut b);
        assert_eq!(a, b, "depth 0 is fully forced");
        assert_eq!(rng.draw_count(), 0);
    }

    #[test]
    fn set_weights_validates_and_reweights() {
        let mut g = Grammar::default();
        g.add_alternative(START, vec![Sym::Lit(b"x".to_vec())]);
        g.add_alternative(START, vec![Sym::Lit(b"y".to_vec())]);
        let mut c = compile_uniform(&g, 4).unwrap();
        assert!(c.set_weights(&[1]).is_err());
        assert!(c.set_weights(&[1, 0]).is_err());
        // weight y overwhelmingly: nearly every sample becomes y
        c.set_weights(&[1, 1000]).unwrap();
        let mut rng = Rng::new(9);
        let mut buf = Vec::new();
        let mut ys = 0;
        for _ in 0..100 {
            c.generate_into(&mut rng, &mut buf);
            if buf == b"y" {
                ys += 1;
            }
        }
        assert!(ys > 90, "only {ys}/100 samples hit the 1000x alternative");
    }

    #[test]
    fn batch_generation_matches_per_call_generation() {
        let g = arith_grammar();
        let mut per_call = compile_uniform(&g, 8).unwrap();
        let mut batched = compile_uniform(&g, 8).unwrap();
        let mut r1 = Rng::new(6);
        let mut r2 = Rng::new(6);
        let mut batch = GenBatch::new();
        batched.generate_batch(&mut r2, &mut batch, 100);
        assert_eq!(batch.len(), 100);
        let mut buf = Vec::new();
        let mut trace = Vec::new();
        for i in 0..100 {
            per_call.generate_traced(&mut r1, &mut buf, &mut trace);
            assert_eq!(batch.input(i), buf, "input {i} diverged");
            assert_eq!(batch.trace(i), trace, "trace {i} diverged");
        }
        assert_eq!(r1.draw_count(), r2.draw_count());
        // reuse: a second batch starts clean
        batched.generate_batch(&mut r2, &mut batch, 7);
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.inputs().count(), 7);
    }

    #[test]
    fn traced_generation_attributes_choices() {
        let g = arith_grammar();
        let mut c = compile_uniform(&g, 8).unwrap();
        let mut rng = Rng::new(2);
        let mut buf = Vec::new();
        let mut trace = Vec::new();
        c.generate_traced(&mut rng, &mut buf, &mut trace);
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|&a| (a as usize) < c.alt_count()));
    }

    #[test]
    fn weight_rows_round_trip_through_codec() {
        let g = arith_grammar();
        let mut c = compile_uniform(&g, 8).unwrap();
        let flat: Vec<u32> = (0..c.alt_count() as u32).map(|i| i % 7 + 1).collect();
        c.set_weights(&flat).unwrap();
        let file = GrammarFile::with_weights(g, c.weight_rows()).unwrap();
        let back = GrammarFile::decode(&file.encode()).unwrap();
        assert_eq!(back, file);
        // recompiling from the round-tripped file restores the weights
        let c2 = CompiledGrammar::compile(&back, 8).unwrap();
        assert_eq!(c2.weights(), c.weights());
    }
}
