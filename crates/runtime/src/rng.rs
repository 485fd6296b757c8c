//! A small, fully deterministic random number generator.
//!
//! All three fuzzers take explicit seeds so every experiment is exactly
//! reproducible; rather than depending on an external RNG crate whose
//! stream might change across versions, the whole workspace shares this
//! fixed xoshiro256** implementation (public-domain algorithm by Blackman
//! and Vigna), seeded via SplitMix64.

use crate::Digest;

/// Deterministic xoshiro256** generator.
///
/// # Example
///
/// ```
/// use pdf_runtime::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let byte = a.gen_range(0, 256) as u8;
/// let _ = byte;
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    draws: u64,
    digest: Digest,
}

/// SplitMix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 as a pure function: the value a SplitMix64 generator in
/// state `x` produces next. The workspace's one seed scrambler: it
/// seeds [`Rng`], drives [`DerivedRng`], and makes `pdf-chaos` fault
/// and backoff schedules pure functions of their seed.
///
/// ```
/// use pdf_runtime::splitmix64;
/// assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        Rng {
            s: [0, 1, 2, 3].map(|i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(GAMMA)))),
            draws: 0,
            digest: Digest::new(),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        self.draws += 1;
        self.digest.write_u64(result);
        result
    }

    /// How many raw 64-bit values this generator has produced. Recorded
    /// into replay journals so a re-run can assert it consumed exactly
    /// the same amount of randomness.
    pub fn draw_count(&self) -> u64 {
        self.draws
    }

    /// Rolling [`Digest`] over every value this generator has
    /// produced — a compact fingerprint of the whole random stream.
    pub fn stream_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as usize
    }

    /// A uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let i = self.gen_range(0, items.len());
        &items[i]
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }

    /// A random printable-ish ASCII byte. pFuzzer appends "a random
    /// character from the set of all ASCII characters"; like the
    /// prototype we bias towards the printable range plus the common
    /// whitespace controls to keep examples legible. The full byte range
    /// is reachable via [`byte_any`](Self::byte_any).
    pub fn byte_ascii(&mut self) -> u8 {
        const EXTRA: [u8; 3] = [b'\t', b'\n', b'\r'];
        if self.chance(1, 16) {
            *self.pick(&EXTRA)
        } else {
            self.gen_range(0x20, 0x7f) as u8
        }
    }

    /// A uniformly random byte from the full 0..256 range.
    pub fn byte_any(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// Derives an independent generator (for per-run streams).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Discards `n` draws, fast-forwarding the generator — the draw
    /// count and rolling digest advance exactly as if the values had
    /// been consumed. Used by campaign resume: a checkpoint records the
    /// draw count, and a fresh generator skipped to it continues the
    /// stream byte-identically.
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.next_u64();
        }
    }

    /// Expands one accounted draw into a [`DerivedRng`] bulk stream.
    ///
    /// Costs exactly one [`next_u64`](Self::next_u64) — counted and
    /// digest-folded like any other draw — and every value the derived
    /// stream will ever produce is a pure function of that draw. A
    /// seeded campaign therefore replays derived values byte-identically,
    /// and the parent's draw count and stream digest still witness them.
    pub fn derive_stream(&mut self) -> DerivedRng {
        DerivedRng {
            state: self.next_u64(),
        }
    }
}

/// A cheap bulk stream expanded from a single accounted [`Rng`] draw.
///
/// This is the randomness source for inner loops that would otherwise be
/// dominated by the chokepoint's per-draw accounting (counter bump plus
/// an eight-step digest fold): the compiled grammar generator samples
/// one alternative per expanded rule, and at millions of inputs per
/// second the accounting would cost more than the generation. The
/// derived stream is plain SplitMix64 — a few arithmetic instructions
/// per value, no accounting — and it has **no public seed constructor**:
/// the only way to obtain one is [`Rng::derive_stream`], so bulk
/// consumers still cannot acquire randomness outside the chokepoint.
///
/// # Example
///
/// ```
/// use pdf_runtime::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// let mut sa = a.derive_stream();
/// let mut sb = b.derive_stream();
/// assert_eq!(sa.next_u64(), sb.next_u64());
/// assert_eq!(a.draw_count(), 1); // the derivation is one accounted draw
/// ```
#[derive(Debug, Clone)]
pub struct DerivedRng {
    state: u64,
}

impl DerivedRng {
    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Uniform index in `[0, n)` by multiply-shift (one draw, no
    /// division; bias is bounded by `n / 2^64`). Returns `0` when `n`
    /// is `0`.
    #[inline]
    pub fn index(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let v = r.gen_range(5, 10);
            assert!((5..10).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_empty_panics() {
        Rng::new(0).gen_range(3, 3);
    }

    #[test]
    fn byte_ascii_is_reasonable() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let b = r.byte_ascii();
            assert!(
                (0x20..0x7f).contains(&b) || b == b'\t' || b == b'\n' || b == b'\r',
                "byte {b:#x} outside expected set"
            );
        }
    }

    #[test]
    fn byte_ascii_covers_many_values() {
        let mut r = Rng::new(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4000 {
            seen.insert(r.byte_ascii());
        }
        assert!(seen.len() > 80, "only {} distinct bytes", seen.len());
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut r = Rng::new(9);
        let mut f = r.fork();
        assert_ne!(r.next_u64(), f.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(13);
        assert!(!r.chance(0, 10));
        assert!(r.chance(10, 10));
    }

    #[test]
    fn draw_count_and_digest_track_the_stream() {
        let mut a = Rng::new(21);
        let mut b = Rng::new(21);
        assert_eq!(a.draw_count(), 0);
        assert_eq!(a.stream_digest(), b.stream_digest());
        for _ in 0..50 {
            a.next_u64();
            b.next_u64();
        }
        assert_eq!(a.draw_count(), 50);
        assert_eq!(a.stream_digest(), b.stream_digest());
        a.next_u64();
        assert_ne!(a.stream_digest(), b.stream_digest());
        assert_eq!(a.draw_count(), b.draw_count() + 1);
    }

    #[test]
    fn stream_digest_is_pinned() {
        let mut r = Rng::new(42);
        assert_eq!(r.stream_digest(), 0xcbf2_9ce4_8422_2325);
        for _ in 0..5 {
            r.next_u64();
        }
        assert_eq!(r.stream_digest(), 0x61cd_a79e_c452_0ee2);
    }

    #[test]
    fn skip_fast_forwards_the_stream() {
        let mut consumed = Rng::new(17);
        for _ in 0..37 {
            consumed.next_u64();
        }
        let mut skipped = Rng::new(17);
        skipped.skip(37);
        assert_eq!(skipped.draw_count(), 37);
        assert_eq!(skipped.stream_digest(), consumed.stream_digest());
        assert_eq!(skipped.next_u64(), consumed.next_u64());
    }

    #[test]
    fn byte_ascii_draws_exactly_two() {
        let mut r = Rng::new(33);
        let before = r.draw_count();
        r.byte_ascii();
        assert_eq!(r.draw_count(), before + 2);
    }

    #[test]
    fn derived_stream_is_one_draw_and_deterministic() {
        let mut a = Rng::new(51);
        let mut b = Rng::new(51);
        let mut sa = a.derive_stream();
        let mut sb = b.derive_stream();
        assert_eq!(a.draw_count(), 1);
        assert_eq!(a.stream_digest(), b.stream_digest());
        for _ in 0..1000 {
            assert_eq!(sa.next_u64(), sb.next_u64());
        }
        // arbitrarily many derived values cost no further accounting
        assert_eq!(a.draw_count(), 1);
    }

    #[test]
    fn derived_streams_from_successive_draws_differ() {
        let mut r = Rng::new(8);
        let mut s1 = r.derive_stream();
        let mut s2 = r.derive_stream();
        let a: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn derived_index_in_bounds() {
        let mut r = Rng::new(19);
        let mut s = r.derive_stream();
        assert_eq!(s.index(0), 0);
        for n in [1u64, 2, 3, 7, 100] {
            for _ in 0..200 {
                assert!(s.index(n) < n);
            }
        }
    }
}
