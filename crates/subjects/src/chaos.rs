//! Deterministic fault injection: the chaos subject.
//!
//! Robustness claims need a subject that *actually misbehaves*. A
//! [`ChaosConfig`] wraps any existing subject and injects three fault
//! classes — panics, fuel-burning hang loops and flaky rejections — on a
//! schedule that is a pure function of `(chaos seed, input bytes)`.
//! Determinism is the whole point: a chaos-wrapped campaign is exactly
//! as replayable and checkpointable as a healthy one (equal seeds give
//! equal digests), so every supervisor and recovery path can be tested
//! under fire without giving up the workspace's replay contracts.
//!
//! Wrapped subjects go through the same [`Subject`] machinery as real
//! ones, so injected panics are caught by the runtime's isolation layer
//! and classified as [`Verdict::Crash`](pdf_runtime::Verdict::Crash),
//! and burned fuel surfaces as [`Verdict::Hang`](pdf_runtime::Verdict::Hang).
//!
//! # Implementation note
//!
//! [`Subject`] stores plain `fn` pointers, which cannot capture the
//! wrapped subject. Wrapping therefore allocates one of a fixed set of
//! process-global *chaos slots* and mints the entry points from
//! const-generic functions (`chaos_full::<I>` is a distinct `fn` item
//! per slot index). Re-wrapping the same subject with the same config
//! reuses its slot, so the table only bounds the number of *distinct*
//! chaos subjects per process.
//!
//! # Example
//!
//! ```
//! use pdf_subjects::chaos::{wrap, ChaosConfig};
//!
//! // all-faults-off chaos is a transparent proxy
//! let quiet = wrap(pdf_subjects::arith::subject(), ChaosConfig::silent(7));
//! assert!(quiet.run(b"1+1").valid);
//!
//! // at panic rate 1000‰ every input crashes — deterministically
//! let cfg = ChaosConfig { panic_per_mille: 1000, ..ChaosConfig::silent(7) };
//! let noisy = wrap(pdf_subjects::arith::subject(), cfg);
//! assert!(noisy.run(b"1+1").verdict.is_crash());
//! ```

use std::sync::{Mutex, OnceLock};

use pdf_runtime::{
    cov, CoverageOnly, CoverageSubjectFn, Digest, EventSink, ExecCtx, FastFailure,
    FastFailureSubjectFn, FullLog, LastFailure, LastFailureSubjectFn, ParseError, Subject,
    SubjectFn,
};

/// Fault schedule for a chaos-wrapped subject. Rates are per-mille and
/// checked in order (panic, hang, flaky) against a hash of the seed and
/// the input bytes, so each concrete input always takes the same fault
/// (or none) — across runs, sink flavours, threads and processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule; different seeds fault different
    /// inputs at the same rates.
    pub seed: u64,
    /// Per-mille of inputs that panic inside the subject.
    pub panic_per_mille: u16,
    /// Per-mille of inputs that burn all execution fuel (a hang).
    pub hang_per_mille: u16,
    /// Per-mille of inputs spuriously rejected regardless of validity.
    pub flaky_per_mille: u16,
}

impl ChaosConfig {
    /// All fault rates zero: the wrapper becomes a transparent proxy
    /// (useful as a baseline and for overriding individual rates).
    pub fn silent(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_per_mille: 0,
            hang_per_mille: 0,
            flaky_per_mille: 0,
        }
    }

    /// The default supervision-test mix: 2.5% panics, 1.5% hangs, 6%
    /// flaky rejections — enough faults that every campaign meets each
    /// class, while most executions still make search progress.
    pub fn stormy(seed: u64) -> Self {
        ChaosConfig {
            seed,
            panic_per_mille: 25,
            hang_per_mille: 15,
            flaky_per_mille: 60,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fault {
    Panic,
    Hang,
    Flaky,
    Pass,
}

/// The fault decision: a [`Digest`] of the seed then the input bytes,
/// reduced per-mille.
fn decide(cfg: &ChaosConfig, input: &[u8]) -> Fault {
    let mut h = Digest::new();
    h.write_u64(cfg.seed);
    for &b in input {
        h.write_u8(b);
    }
    let v = (h.finish() % 1000) as u16;
    if v < cfg.panic_per_mille {
        Fault::Panic
    } else if v < cfg.panic_per_mille + cfg.hang_per_mille {
        Fault::Hang
    } else if v < cfg.panic_per_mille + cfg.hang_per_mille + cfg.flaky_per_mille {
        Fault::Flaky
    } else {
        Fault::Pass
    }
}

/// How many distinct (subject, config) chaos wrappers one process can
/// hold. Slots are reused on identical re-wraps, so this bounds variety,
/// not call count.
pub const CHAOS_SLOTS: usize = 16;

#[derive(Clone, Copy)]
struct Slot {
    inner: Subject,
    cfg: ChaosConfig,
    name: &'static str,
}

static SLOTS: OnceLock<Mutex<Vec<Slot>>> = OnceLock::new();

fn slots() -> &'static Mutex<Vec<Slot>> {
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn slot(i: usize) -> Slot {
    slots().lock().expect("chaos slot table poisoned")[i]
}

fn chaos_run<S: EventSink>(
    cfg: &ChaosConfig,
    ctx: &mut ExecCtx<S>,
    inner: fn(&mut ExecCtx<S>) -> Result<(), ParseError>,
) -> Result<(), ParseError> {
    match decide(cfg, ctx.input()) {
        Fault::Panic => {
            // a coverage point before the panic gives the crash a
            // non-empty site tail, so its dedup key is stable
            cov!(ctx);
            panic!("chaos: injected panic");
        }
        Fault::Hang => {
            cov!(ctx);
            while ctx.tick() {}
            // fuel is gone; the runtime classifies the exhausted context
            // as a hang no matter what we return here
            Err(ctx.reject("chaos: fuel burned"))
        }
        Fault::Flaky => Err(ctx.reject("chaos: flaky rejection")),
        Fault::Pass => inner(ctx),
    }
}

fn chaos_full<const I: usize>(ctx: &mut ExecCtx<FullLog>) -> Result<(), ParseError> {
    let s = slot(I);
    chaos_run(&s.cfg, ctx, s.inner.entry())
}

fn chaos_cov<const I: usize>(ctx: &mut ExecCtx<CoverageOnly>) -> Result<(), ParseError> {
    let s = slot(I);
    let inner = s
        .inner
        .coverage_entry()
        .expect("slot registered without a coverage entry");
    chaos_run(&s.cfg, ctx, inner)
}

fn chaos_lf<const I: usize>(ctx: &mut ExecCtx<LastFailure>) -> Result<(), ParseError> {
    let s = slot(I);
    let inner = s
        .inner
        .last_failure_entry()
        .expect("slot registered without a last-failure entry");
    chaos_run(&s.cfg, ctx, inner)
}

fn chaos_ff<const I: usize>(ctx: &mut ExecCtx<FastFailure>) -> Result<(), ParseError> {
    let s = slot(I);
    let inner = s
        .inner
        .fast_failure_entry()
        .expect("slot registered without a fast-failure entry");
    chaos_run(&s.cfg, ctx, inner)
}

macro_rules! fn_table {
    ($f:ident, $t:ty) => {{
        const T: [$t; CHAOS_SLOTS] = [
            $f::<0>, $f::<1>, $f::<2>, $f::<3>, $f::<4>, $f::<5>, $f::<6>, $f::<7>, $f::<8>,
            $f::<9>, $f::<10>, $f::<11>, $f::<12>, $f::<13>, $f::<14>, $f::<15>,
        ];
        T
    }};
}

/// Wraps `inner` in a deterministic fault injector.
///
/// The returned subject is named `chaos-<inner name>` and mirrors the
/// inner subject's fuel budget and registered sink flavours. Wrapping
/// the same subject with the same config again returns an equivalent
/// subject backed by the same slot.
///
/// # Panics
///
/// Panics when more than [`CHAOS_SLOTS`] distinct (subject, config)
/// pairs are wrapped in one process.
pub fn wrap(inner: Subject, cfg: ChaosConfig) -> Subject {
    let full: [SubjectFn; CHAOS_SLOTS] = fn_table!(chaos_full, SubjectFn);
    let covs: [CoverageSubjectFn; CHAOS_SLOTS] = fn_table!(chaos_cov, CoverageSubjectFn);
    let lfs: [LastFailureSubjectFn; CHAOS_SLOTS] = fn_table!(chaos_lf, LastFailureSubjectFn);
    let ffs: [FastFailureSubjectFn; CHAOS_SLOTS] = fn_table!(chaos_ff, FastFailureSubjectFn);

    let (idx, name) = {
        let mut table = slots().lock().expect("chaos slot table poisoned");
        match table
            .iter()
            .position(|s| s.inner.name() == inner.name() && s.cfg == cfg)
        {
            Some(i) => (i, table[i].name),
            None => {
                assert!(
                    table.len() < CHAOS_SLOTS,
                    "chaos slot table exhausted: at most {CHAOS_SLOTS} distinct \
                     wrapped subjects per process"
                );
                // leaked once per slot; names feed journal/checkpoint
                // line framing, so they must stay free of whitespace
                // and '=' — subject names already are
                let name: &'static str =
                    Box::leak(format!("chaos-{}", inner.name()).into_boxed_str());
                table.push(Slot { inner, cfg, name });
                (table.len() - 1, name)
            }
        }
    };

    let mut subject = Subject::new(name, full[idx]).with_fuel(inner.fuel());
    if inner.coverage_entry().is_some() {
        subject = subject.with_coverage_entry(covs[idx]);
    }
    if inner.last_failure_entry().is_some() {
        subject = subject.with_last_failure_entry(lfs[idx]);
    }
    if inner.fast_failure_entry().is_some() {
        subject = subject.with_fast_failure_entry(ffs[idx]);
    }
    subject
}

/// The five evaluation subjects, each chaos-wrapped with `cfg` (the
/// chaos-supervision matrix runs on these). Reference corpora pass
/// through untouched: they describe the *language*, which chaos does not
/// change — only whether a given run survives to judge it.
pub fn chaos_evaluation_subjects(cfg: ChaosConfig) -> Vec<crate::SubjectInfo> {
    crate::evaluation_subjects()
        .into_iter()
        .map(|mut info| {
            let wrapped = wrap(info.subject, cfg);
            info.subject = wrapped;
            info.name = wrapped.name();
            info
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arith_chaos(cfg: ChaosConfig) -> Subject {
        wrap(crate::arith::subject(), cfg)
    }

    #[test]
    fn silent_chaos_is_a_transparent_proxy() {
        let subject = arith_chaos(ChaosConfig::silent(1));
        assert_eq!(subject.name(), "chaos-arith");
        for input in crate::arith::reference_corpus() {
            assert!(subject.run(input).valid, "{:?}", input);
            assert!(subject.run_coverage(input).valid);
            assert!(subject.run_last_failure(input).valid);
        }
        assert!(!subject.run(b"+").valid);
    }

    #[test]
    fn full_panic_rate_crashes_every_input() {
        let cfg = ChaosConfig {
            panic_per_mille: 1000,
            ..ChaosConfig::silent(2)
        };
        let subject = arith_chaos(cfg);
        for input in [b"1".as_slice(), b"1+1", b"anything"] {
            let exec = subject.run(input);
            assert!(exec.verdict.is_crash(), "{:?}: {:?}", input, exec.verdict);
            assert_eq!(exec.error.as_deref(), Some("crash: chaos: injected panic"));
        }
    }

    #[test]
    fn full_hang_rate_hangs_every_input() {
        let cfg = ChaosConfig {
            hang_per_mille: 1000,
            ..ChaosConfig::silent(3)
        };
        let subject = arith_chaos(cfg);
        let exec = subject.run(b"1+1");
        assert!(exec.verdict.is_hang(), "{:?}", exec.verdict);
        assert!(subject.run_last_failure(b"1+1").verdict.is_hang());
    }

    #[test]
    fn fault_decision_is_deterministic_and_seed_dependent() {
        let stormy = ChaosConfig::stormy(7);
        // per-input decisions repeat exactly
        for i in 0..200u32 {
            let input = i.to_le_bytes();
            assert_eq!(decide(&stormy, &input), decide(&stormy, &input));
        }
        // and over many inputs every class occurs
        let mut seen = std::collections::HashSet::new();
        for i in 0..4000u32 {
            seen.insert(decide(&stormy, &i.to_le_bytes()));
        }
        assert!(seen.contains(&Fault::Panic));
        assert!(seen.contains(&Fault::Hang));
        assert!(seen.contains(&Fault::Flaky));
        assert!(seen.contains(&Fault::Pass));
        // a different seed faults a different subset
        let other = ChaosConfig::stormy(8);
        let differs = (0..4000u32)
            .any(|i| decide(&stormy, &i.to_le_bytes()) != decide(&other, &i.to_le_bytes()));
        assert!(differs);
    }

    #[test]
    fn fault_decisions_are_pinned() {
        let cfg = ChaosConfig {
            seed: 9,
            panic_per_mille: 250,
            hang_per_mille: 250,
            flaky_per_mille: 250,
        };
        let inputs = (0..32u32).map(|i| i.to_le_bytes().to_vec()).chain([
            b"".to_vec(),
            b"1+1".to_vec(),
            b"{\"a\":[1,2]}".to_vec(),
        ]);
        let vector: String = inputs
            .map(|input| match decide(&cfg, &input) {
                Fault::Panic => 'P',
                Fault::Hang => 'H',
                Fault::Flaky => 'F',
                Fault::Pass => '.',
            })
            .collect();
        assert_eq!(vector, "PPHHHFF...PPPHHFFF...PPHHHFFF..PFFH");
    }

    #[test]
    fn verdicts_agree_across_sink_flavours() {
        let subject = arith_chaos(ChaosConfig::stormy(11));
        for i in 0..300u32 {
            let input = format!("{i}");
            let full = subject.run(input.as_bytes()).verdict;
            let lf = subject.run_last_failure(input.as_bytes()).verdict;
            let cov = subject.run_coverage(input.as_bytes()).verdict;
            let ff = subject.run_fast_failure(input.as_bytes()).verdict;
            assert_eq!(full, lf, "input {input:?}");
            assert_eq!(full, cov, "input {input:?}");
            assert_eq!(full, ff, "input {input:?}");
        }
    }

    #[test]
    fn rewrapping_reuses_the_slot() {
        let before = slots().lock().unwrap().len();
        let a = arith_chaos(ChaosConfig::stormy(21));
        let b = arith_chaos(ChaosConfig::stormy(21));
        let after = slots().lock().unwrap().len();
        assert_eq!(after, before + 1);
        assert_eq!(a.name(), b.name());
        assert_eq!(a.run(b"1").verdict, b.run(b"1").verdict);
    }

    #[test]
    fn chaos_evaluation_subjects_cover_table1() {
        let subjects = chaos_evaluation_subjects(ChaosConfig::stormy(5));
        let names: Vec<&str> = subjects.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec![
                "chaos-ini",
                "chaos-csv",
                "chaos-cjson",
                "chaos-tinyC",
                "chaos-mjs"
            ]
        );
        for info in &subjects {
            assert_eq!(info.subject.name(), info.name);
        }
    }
}
