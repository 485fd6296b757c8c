//! The fixed-schema [`MetricsRegistry`] every instrumented crate writes
//! into, plus the span table it aggregates phase timings in.
//!
//! The registry is *fixed-schema*: every metric is a named struct field,
//! not a map entry, so the hot path (one exec = one counter bump + two
//! histogram observes) is a handful of relaxed atomic adds with no
//! hashing, no locking, and no allocation. Only spans — recorded at
//! phase granularity, thousands of times per campaign rather than
//! millions — go through a small `Mutex`'d table.

use std::sync::Mutex;
use std::time::Duration;

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::{HistSnapshot, MetricsSnapshot, SpanSnapshot};

/// Accumulated time for one named span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span was entered.
    pub count: u64,
    /// Total nanoseconds spent inside the span.
    pub total_ns: u64,
}

/// The full set of metrics one campaign (or one eval run spanning many
/// campaigns) accumulates. All methods take `&self`; a single registry
/// behind an [`Arc`](std::sync::Arc) is safely shared by every matrix
/// worker thread.
///
/// The counter schema is the contract the identity checks in
/// [`MetricsSnapshot::check_identities`] rely on: the four verdict
/// counters are bumped exactly once per `execs` bump, at the same
/// chokepoint.
///
/// ```
/// use pdf_obs::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// reg.execs.inc();
/// reg.accepts.inc();
/// reg.exec_latency_ns.observe(1_500);
/// reg.input_len.observe(12);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("execs"), Some(1));
/// assert!(snap.check_identities().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Total subject executions (one per `Subject::exec`).
    pub execs: Counter,
    /// Executions whose verdict was `Accept`.
    pub accepts: Counter,
    /// Executions whose verdict was `Reject`.
    pub rejects: Counter,
    /// Executions whose verdict was `Hang` (fuel exhausted).
    pub hangs: Counter,
    /// Executions whose verdict was `Crash` (panic caught).
    pub crashes: Counter,

    /// Substitution candidates enqueued by the driver (Algorithm 1's
    /// comparison-guided byte replacements).
    pub substitutions: Counter,
    /// Append-driven extensions enqueued by the driver.
    pub appends: Counter,
    /// EOF-driven extensions (parser ran off the end of the prefix).
    pub eof_extensions: Counter,
    /// Times the driver restarted from a fresh random byte because the
    /// queue ran dry.
    pub restarts: Counter,
    /// Executions that ran under the fast-failure tier (tiered exec
    /// mode).
    pub tier_fast_execs: Counter,
    /// Fast-tier executions escalated to full instrumentation by the
    /// tier filter.
    pub tier_escalations: Counter,
    /// Fast-tier executions the filter discarded without escalation.
    pub tier_skips: Counter,
    /// Expected-token observations fed to the miner (failed string
    /// comparisons at rejection points, mining enabled).
    pub tokens_observed: Counter,
    /// Tokens emitted by `TokenMiner::mine` reductions.
    pub tokens_mined: Counter,
    /// Whole-token dictionary substitutions enqueued by the driver.
    pub tokens_dict_subs: Counter,
    /// Dictionary mutations applied by the AFL baseline's havoc stages.
    pub tokens_dict_mutations: Counter,
    /// Valid (accepted) inputs discovered by the search.
    pub valid_inputs: Counter,
    /// New coverage branches discovered by the search.
    pub new_branches: Counter,

    /// Eval matrix cells that completed (any non-poisoned outcome).
    pub cells_completed: Counter,
    /// Eval matrix cells abandoned after exhausting retries.
    pub cells_poisoned: Counter,
    /// Supervised retries across all eval cells.
    pub cell_retries: Counter,

    /// Campaigns submitted to the serve daemon (accepted `submit`
    /// requests).
    pub serve_submitted: Counter,
    /// Daemon campaigns that reached the `Done` state.
    pub serve_completed: Counter,
    /// Daemon campaigns that reached the `Failed` state.
    pub serve_failed: Counter,
    /// Daemon campaigns that reached the `Cancelled` state.
    pub serve_cancelled: Counter,
    /// Journaled lifecycle transitions across all daemon campaigns.
    pub serve_transitions: Counter,
    /// Epoch slices the daemon's worker pool dispatched.
    pub serve_slices: Counter,
    /// Campaign checkpoints the daemon wrote (one per slice boundary
    /// when a state directory is configured).
    pub serve_checkpoints: Counter,
    /// Connection threads the accept loop failed to spawn (the
    /// connection is dropped; the accept loop survives).
    pub serve_spawn_failed: Counter,
    /// Submissions refused with `overloaded` + `retry_after_ms` by the
    /// daemon's load shedder.
    pub serve_shed: Counter,
    /// Connections refused at the server's concurrent-connection cap.
    pub serve_conn_rejected: Counter,
    /// Connections killed by the per-connection read timeout
    /// (slowloris defense).
    pub serve_conn_timeouts: Counter,
    /// Journal recoveries that salvaged a legal prefix and quarantined
    /// a torn tail.
    pub serve_journal_recovered: Counter,
    /// Checkpoint generations quarantined as corrupt during campaign
    /// rebuild (the rebuild fell back to an older generation).
    pub serve_checkpoint_quarantined: Counter,
    /// Slice-boundary persistence writes (journal append, meta,
    /// checkpoint) that failed and were survived in degraded mode —
    /// disk is one generation staler than the contract's best case.
    pub serve_write_degraded: Counter,
    /// Faults injected by an installed `pdf-chaos` plan (zero outside
    /// chaos runs).
    pub chaos_injected: Counter,

    /// Fleet synchronization epochs completed (one per coordinator
    /// barrier across all shards).
    pub fleet_epochs: Counter,
    /// Valid inputs the fleet coordinator promoted (deduplicated by
    /// digest across shards and epochs).
    pub fleet_promotions: Counter,
    /// Queue injections the coordinator performed (each promotion is
    /// injected into every shard except its origin).
    pub fleet_injections: Counter,

    /// Inputs produced by the compiled grammar generator (`pdf-gen`).
    pub grammar_generated: Counter,
    /// Generated inputs the subject accepted (duplicates included).
    pub grammar_generated_valid: Counter,
    /// Evolutionary re-weighting epochs the generator completed.
    pub grammar_weight_epochs: Counter,
    /// Distinct generator-found valid inputs promoted into fleet
    /// shard queues by the combined campaign.
    pub grammar_promotions: Counter,

    /// Wall-clock latency of each `Subject::exec`, in nanoseconds.
    pub exec_latency_ns: Histogram,
    /// Length in bytes of each executed input.
    pub input_len: Histogram,
    /// Candidate queue depth, observed once per scheduling decision.
    pub queue_depth: Histogram,
    /// Wall-clock nanoseconds each fleet sync epoch spent merging
    /// coverage and promoting inputs (the coordinator's serial section).
    pub fleet_sync_ns: Histogram,
    /// The most recent queue depth (for live progress display).
    pub queue_depth_now: Gauge,

    spans: Mutex<Vec<(&'static str, SpanStat)>>,
}

impl MetricsRegistry {
    /// Creates a registry with every metric at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dur` to the named span's accumulated time.
    ///
    /// Span names are static strings at phase granularity
    /// (`"driver.exec"`, `"eval.cell"`, ...), so the table stays a few
    /// entries long and a linear scan beats any map.
    pub fn record_span(&self, name: &'static str, dur: Duration) {
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let mut spans = self.spans.lock().expect("span table poisoned");
        match spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, stat)) => {
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(ns);
            }
            None => spans.push((
                name,
                SpanStat {
                    count: 1,
                    total_ns: ns,
                },
            )),
        }
    }

    /// The accumulated stat for one span, if it was ever entered.
    pub fn span_stat(&self, name: &str) -> Option<SpanStat> {
        let spans = self.spans.lock().expect("span table poisoned");
        spans.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    /// Freezes the current values into a plain-data [`MetricsSnapshot`].
    ///
    /// Concurrent writers may race individual loads (a snapshot taken
    /// mid-campaign is a consistent-enough progress report, not a
    /// barrier); a snapshot taken after all workers joined is exact.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = [
            ("execs", &self.execs),
            ("verdict.accept", &self.accepts),
            ("verdict.reject", &self.rejects),
            ("verdict.hang", &self.hangs),
            ("verdict.crash", &self.crashes),
            ("driver.substitutions", &self.substitutions),
            ("driver.appends", &self.appends),
            ("driver.eof_extensions", &self.eof_extensions),
            ("driver.restarts", &self.restarts),
            ("tier.fast_execs", &self.tier_fast_execs),
            ("tier.escalations", &self.tier_escalations),
            ("tier.skips", &self.tier_skips),
            ("tokens.observations", &self.tokens_observed),
            ("tokens.mined", &self.tokens_mined),
            ("tokens.dict_subs", &self.tokens_dict_subs),
            ("tokens.dict_mutations", &self.tokens_dict_mutations),
            ("search.valid_inputs", &self.valid_inputs),
            ("search.new_branches", &self.new_branches),
            ("eval.cells_completed", &self.cells_completed),
            ("eval.cells_poisoned", &self.cells_poisoned),
            ("eval.cell_retries", &self.cell_retries),
            ("serve.submitted", &self.serve_submitted),
            ("serve.completed", &self.serve_completed),
            ("serve.failed", &self.serve_failed),
            ("serve.cancelled", &self.serve_cancelled),
            ("serve.transitions", &self.serve_transitions),
            ("serve.slices", &self.serve_slices),
            ("serve.checkpoints", &self.serve_checkpoints),
            ("serve.spawn_failed", &self.serve_spawn_failed),
            ("serve.shed", &self.serve_shed),
            ("serve.conn_rejected", &self.serve_conn_rejected),
            ("serve.conn_timeout", &self.serve_conn_timeouts),
            ("serve.journal_recovered", &self.serve_journal_recovered),
            (
                "serve.checkpoint_quarantined",
                &self.serve_checkpoint_quarantined,
            ),
            ("serve.write_degraded", &self.serve_write_degraded),
            ("chaos.injected", &self.chaos_injected),
            ("fleet.epochs", &self.fleet_epochs),
            ("fleet.promotions", &self.fleet_promotions),
            ("fleet.injections", &self.fleet_injections),
            ("grammar.generated", &self.grammar_generated),
            ("grammar.generated_valid", &self.grammar_generated_valid),
            ("grammar.weight_epochs", &self.grammar_weight_epochs),
            ("grammar.promotions", &self.grammar_promotions),
        ]
        .into_iter()
        .map(|(name, c)| (name.to_string(), c.get()))
        .collect();

        let gauges = vec![(
            "driver.queue_depth_now".to_string(),
            self.queue_depth_now.get(),
        )];

        let hists = [
            ("exec.latency_ns", &self.exec_latency_ns),
            ("exec.input_len", &self.input_len),
            ("driver.queue_depth", &self.queue_depth),
            ("fleet.sync_ns", &self.fleet_sync_ns),
        ]
        .into_iter()
        .map(|(name, h)| {
            let counts = h.bucket_counts();
            HistSnapshot {
                name: name.to_string(),
                count: h.count(),
                sum: h.sum(),
                buckets: counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n != 0)
                    .map(|(i, &n)| (i as u32, n))
                    .collect(),
            }
        })
        .collect();

        let mut spans: Vec<SpanSnapshot> = {
            let table = self.spans.lock().expect("span table poisoned");
            table
                .iter()
                .map(|(name, stat)| SpanSnapshot {
                    name: name.to_string(),
                    count: stat.count,
                    total_ns: stat.total_ns,
                })
                .collect()
        };
        // Spans land in the table in first-entered order, which varies
        // across thread interleavings; sort so the snapshot encoding is
        // stable.
        spans.sort_by(|a, b| a.name.cmp(&b.name));

        MetricsSnapshot {
            counters,
            gauges,
            hists,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_accumulates_per_name() {
        let reg = MetricsRegistry::new();
        reg.record_span("driver.exec", Duration::from_nanos(100));
        reg.record_span("driver.exec", Duration::from_nanos(50));
        reg.record_span("driver.pick", Duration::from_nanos(7));
        assert_eq!(
            reg.span_stat("driver.exec"),
            Some(SpanStat {
                count: 2,
                total_ns: 150
            })
        );
        assert_eq!(
            reg.span_stat("driver.pick"),
            Some(SpanStat {
                count: 1,
                total_ns: 7
            })
        );
        assert_eq!(reg.span_stat("driver.classify"), None);
    }

    #[test]
    fn snapshot_contains_all_counters_and_sorted_spans() {
        let reg = MetricsRegistry::new();
        reg.execs.add(3);
        reg.accepts.add(1);
        reg.rejects.add(2);
        reg.record_span("z.late", Duration::from_nanos(1));
        reg.record_span("a.early", Duration::from_nanos(2));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("execs"), Some(3));
        assert_eq!(snap.counter("verdict.reject"), Some(2));
        assert_eq!(snap.counter("eval.cell_retries"), Some(0));
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a.early", "z.late"]);
    }

    #[test]
    fn shared_across_threads() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let reg = std::sync::Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        reg.execs.inc();
                        reg.rejects.inc();
                        reg.exec_latency_ns.observe(10);
                        reg.input_len.observe(3);
                    }
                    reg.record_span("worker", Duration::from_nanos(5));
                });
            }
        });
        assert_eq!(reg.execs.get(), 4000);
        assert_eq!(reg.exec_latency_ns.count(), 4000);
        assert_eq!(reg.span_stat("worker").unwrap().count, 4);
        assert!(reg.snapshot().check_identities().is_ok());
    }
}
