//! Jittered exponential backoff, the client-side half of the fault
//! model.
//!
//! A [`Backoff`] hands out the delay before each retry attempt:
//! exponential doubling from a base, capped, with *full jitter* over
//! the top half of the window (so synchronized clients spread out, but
//! no delay collapses to zero). The jitter draw is a pure function of
//! `(seed, attempt)` — a retry schedule, like a fault schedule, must be
//! reproducible from its seed.

use std::time::Duration;

use pdf_runtime::splitmix64;

/// A deterministic jittered-exponential retry schedule.
///
/// ```
/// use std::time::Duration;
/// use pdf_chaos::Backoff;
///
/// let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(500), 7);
/// let first = b.next_delay();
/// assert!(first >= Duration::from_millis(5) && first <= Duration::from_millis(10));
/// // Same seed, same schedule.
/// let mut b2 = Backoff::new(Duration::from_millis(10), Duration::from_millis(500), 7);
/// assert_eq!(first, b2.next_delay());
/// ```
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base`, doubling per attempt, never
    /// exceeding `cap`, jittered by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            seed,
            attempt: 0,
        }
    }

    /// How many delays have been handed out.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Resets the schedule to attempt zero (after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The delay for attempt `n` as a pure function.
    pub fn delay_for(&self, n: u32) -> Duration {
        let base_us = self.base.as_micros() as u64;
        let cap_us = self.cap.as_micros() as u64;
        let window = base_us
            .saturating_mul(1u64.checked_shl(n.min(32)).unwrap_or(u64::MAX))
            .min(cap_us)
            .max(1);
        // Full jitter over the top half: [window/2, window].
        let half = window / 2;
        let jitter = splitmix64(self.seed ^ u64::from(n).wrapping_mul(0x9e37_79b9)) % (half + 1);
        Duration::from_micros(half + jitter)
    }

    /// Hands out the next delay and advances the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let d = self.delay_for(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        d
    }

    /// Sleeps for the next delay (convenience for retry loops).
    pub fn sleep(&mut self) {
        std::thread::sleep(self.next_delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let b = Backoff::new(Duration::from_millis(4), Duration::from_millis(100), 1);
        let mut last_window_top = Duration::ZERO;
        for n in 0..12 {
            let d = b.delay_for(n);
            assert!(d <= Duration::from_millis(100), "attempt {n}: {d:?}");
            // The top of the window never shrinks.
            assert!(d >= last_window_top / 4, "attempt {n}: {d:?}");
            last_window_top = last_window_top.max(d);
        }
        // After enough doublings the cap dominates: delay >= cap/2.
        assert!(b.delay_for(20) >= Duration::from_millis(50));
    }

    #[test]
    fn same_seed_same_schedule_distinct_seeds_differ() {
        let a = Backoff::new(Duration::from_millis(3), Duration::from_secs(1), 11);
        let b = Backoff::new(Duration::from_millis(3), Duration::from_secs(1), 11);
        let c = Backoff::new(Duration::from_millis(3), Duration::from_secs(1), 12);
        let sa: Vec<_> = (0..16).map(|n| a.delay_for(n)).collect();
        let sb: Vec<_> = (0..16).map(|n| b.delay_for(n)).collect();
        let sc: Vec<_> = (0..16).map(|n| c.delay_for(n)).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn reset_restarts_the_schedule() {
        let mut b = Backoff::new(Duration::from_millis(2), Duration::from_millis(64), 5);
        let first = b.next_delay();
        b.next_delay();
        b.next_delay();
        assert_eq!(b.attempts(), 3);
        b.reset();
        assert_eq!(b.next_delay(), first);
    }
}
