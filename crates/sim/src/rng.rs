//! Deterministic pseudo-random numbers for the simulation.
//!
//! The whole reproduction must be bit-reproducible from a single seed, so
//! the simulator owns its own small PRNG instead of pulling in an external
//! crate whose stream could change between versions. The generator is
//! xoshiro256** (public-domain algorithm by Blackman & Vigna), seeded
//! through splitmix64 — fast, tiny state, and more than good enough for
//! workload jitter, back-off randomization, and fault injection. It is
//! **not** cryptographically secure.

/// A seeded, deterministic pseudo-random number generator.
///
/// Obtain a node's generator through
/// [`Sim::with_rng_for`](crate::Sim::with_rng_for) so the node's draws
/// follow its own event order; [`Prng::for_key`] gives a one-off stream
/// tied to an event key (fault draws). Constructing private instances is
/// fine for workload generation (for example city coordinates) where the
/// stream is independent of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Create a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64: expand the 64-bit seed into the 256-bit state.
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Prng { s: [next(), next(), next(), next()] }
    }

    /// A generator for the draws attached to one event: its stream depends
    /// only on `seed` and the event's partition-independent `key`, so the
    /// draws come out the same however nodes are split across shards.
    pub fn for_key(seed: u64, key: u64) -> Self {
        Prng::seed_from_u64(seed ^ key.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 uniformly random bits (xoshiro256** step).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Debiased via rejection sampling on the top of the range.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive on both ends).
    pub fn gen_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_inclusive: {lo} > {hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(span + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "gen_range_f64: empty range {lo}..{hi}");
        lo + self.gen_f64() * (hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Prng::seed_from_u64(8);
        let first: Vec<u64> = (0..8).map(|_| Prng::seed_from_u64(7).next_u64()).collect();
        assert!(first.iter().all(|v| *v == first[0]));
        assert_ne!(Prng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Prng::seed_from_u64(99);
        for _ in 0..10_000 {
            assert!(r.gen_below(7) < 7);
            let v = r.gen_inclusive(10, 12);
            assert!((10..=12).contains(&v));
            let f = r.gen_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.gen_range_f64(-3.0, 4.5);
            assert!((-3.0..4.5).contains(&g));
        }
    }

    #[test]
    fn bernoulli_edge_probabilities_are_exact() {
        let mut r = Prng::seed_from_u64(1);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
        // A fair-ish coin lands on both sides within 10k draws.
        let heads = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((3_000..7_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = Prng::seed_from_u64(5);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.gen_below(8) as usize] += 1;
        }
        for b in buckets {
            assert!((8_000..12_000).contains(&b), "bucket {b}");
        }
    }
}
