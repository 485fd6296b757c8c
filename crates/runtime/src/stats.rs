//! Run-level observability: execution counters and wall time.
//!
//! Every tool (driver, AFL baseline, KLEE baseline) fills a [`RunStats`]
//! while it runs; the evaluation harness emits them as JSON lines
//! (`evalrunner --stats-out`). Stats are measurements, not results:
//! wall-clock fields vary between runs and are deliberately excluded
//! from all determinism comparisons. Per-phase time comes from
//! `pdf-obs` spans (`evalrunner --metrics-out`).

/// Counters and wall time sampled over one fuzzing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Subject executions performed.
    pub executions: u64,
    /// Instrumentation events emitted across all executions.
    pub events: u64,
    /// Valid inputs found.
    pub valid_inputs: u64,
    /// Executions that exhausted their fuel budget
    /// ([`Verdict::Hang`](crate::Verdict::Hang)).
    pub hangs: u64,
    /// Executions that panicked and were caught
    /// ([`Verdict::Crash`](crate::Verdict::Crash)).
    pub crashes: u64,
    /// Supervisor-level retries this outcome took before completing
    /// (zero for a first-attempt success). Set by the evaluation
    /// supervisor, not by the campaign itself, and excluded from all
    /// campaign digests: a replayed cell runs the recorded attempt
    /// directly and legitimately retries zero times.
    pub retries: u64,
    /// Depth of the work queue when the run ended.
    pub queue_depth: usize,
    /// Random decisions drawn over the run (replay-relevant randomness:
    /// decision bytes for the driver, raw RNG draws for the baselines).
    pub decisions: u64,
    /// FNV-1a digest of the decision stream ([`crate::digest_bytes`] of
    /// the decision bytes, or [`crate::Rng::stream_digest`]).
    pub decision_digest: u64,
    /// Total wall time of the run, in seconds.
    pub wall_secs: f64,
}

impl RunStats {
    /// Executions per second of wall time (zero for an instant run).
    pub fn execs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.executions as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The inner fields of a JSON object, without surrounding braces,
    /// so callers can prepend context keys (tool, subject, seed). The
    /// environment has no serde; the format is hand-rolled but stable.
    pub fn json_fields(&self) -> String {
        format!(
            "\"executions\":{},\"execs_per_sec\":{:.1},\"events\":{},\
             \"valid_inputs\":{},\"hangs\":{},\"crashes\":{},\"retries\":{},\
             \"queue_depth\":{},\"decisions\":{},\
             \"decision_digest\":\"{:016x}\",\"wall_secs\":{:.6}",
            self.executions,
            self.execs_per_sec(),
            self.events,
            self.valid_inputs,
            self.hangs,
            self.crashes,
            self.retries,
            self.queue_depth,
            self.decisions,
            self.decision_digest,
            self.wall_secs,
        )
    }

    /// This record as a complete JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let stats = RunStats {
            executions: 10,
            events: 100,
            valid_inputs: 2,
            hangs: 4,
            crashes: 5,
            retries: 1,
            queue_depth: 3,
            decisions: 17,
            decision_digest: 0xabcd,
            wall_secs: 0.5,
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"executions\":10"));
        assert!(json.contains("\"execs_per_sec\":20.0"));
        assert!(json.contains("\"hangs\":4"));
        assert!(json.contains("\"crashes\":5"));
        assert!(json.contains("\"retries\":1"));
        assert!(json.contains("\"decisions\":17"));
        assert!(json.contains("\"decision_digest\":\"000000000000abcd\""));
        assert!(json.ends_with("\"wall_secs\":0.500000}"));
    }

    #[test]
    fn execs_per_sec_handles_zero_wall() {
        assert_eq!(RunStats::default().execs_per_sec(), 0.0);
    }
}
