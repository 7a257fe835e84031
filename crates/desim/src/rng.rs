//! Deterministic random-number streams.
//!
//! Each stochastic process in a simulation (arrivals, job sizes, service
//! times, routing, …) gets its own [`RngStream`], derived from the run's
//! master seed by mixing in a stream label. Separate streams keep the
//! processes statistically independent *and* make variance reduction by
//! common random numbers possible: two policies simulated with the same
//! master seed see exactly the same job sequence.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded through a
//! SplitMix64 chain — the textbook combination for simulation work. It is
//! implemented here rather than taken from a crate so that every bit of
//! the stream is fixed by this repository: results are reproducible across
//! dependency upgrades, and streams can be cloned to replay decisions.

/// SplitMix64 finalizer: a high-quality 64-bit mixing function used to
/// derive seeds and substream labels.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A named, reproducible random stream (xoshiro256++).
#[derive(Clone, Debug)]
pub struct RngStream {
    s: [u64; 4],
    seed: u64,
}

impl RngStream {
    /// Creates a stream from a 64-bit seed. The four words of state are
    /// produced by iterating SplitMix64, as the xoshiro authors recommend.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        RngStream { s, seed }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream labelled by an index. The same
    /// `(seed, index)` pair always yields the same substream.
    pub fn substream(&self, index: u64) -> RngStream {
        RngStream::new(splitmix64(self.seed ^ splitmix64(index.wrapping_add(1))))
    }

    /// Derives an independent substream labelled by a string (e.g.
    /// `"arrivals"`), hashing the label bytes through SplitMix64.
    pub fn labelled(&self, label: &str) -> RngStream {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        RngStream::new(splitmix64(self.seed ^ h))
    }

    /// Raw 64 random bits — one step of xoshiro256++.
    #[inline]
    pub fn bits(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform variate in the half-open interval `[0, 1)` with 53 random
    /// bits of mantissa.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.bits() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform variate in the open-closed interval `(0, 1]`, safe as an
    /// argument to `ln` in inversion sampling.
    #[inline]
    pub fn uniform_pos(&mut self) -> f64 {
        1.0 - self.uniform()
    }

    /// Uniform integer in `[0, n)` by Lemire's unbiased multiply-shift
    /// rejection method.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() on empty range");
        let n = n as u64;
        loop {
            let x = self.bits();
            let m = u128::from(x) * u128::from(n);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as usize;
            }
        }
    }

    /// A Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(42);
        let mut b = RngStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.bits(), b.bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::new(1);
        let mut b = RngStream::new(2);
        let same = (0..64).filter(|_| a.bits() == b.bits()).count();
        assert!(same < 4, "streams with different seeds should diverge");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = RngStream::new(0);
        let x = r.bits();
        let y = r.bits();
        assert_ne!(x, y);
    }

    #[test]
    fn clone_replays() {
        let mut a = RngStream::new(5);
        let _ = a.bits();
        let mut b = a.clone();
        assert_eq!(a.bits(), b.bits());
    }

    #[test]
    fn substreams_are_reproducible_and_distinct() {
        let master = RngStream::new(7);
        let mut s0a = master.substream(0);
        let mut s0b = master.substream(0);
        let s1 = master.substream(1);
        assert_eq!(s0a.bits(), s0b.bits());
        assert_ne!(s0a.seed(), s1.seed());
    }

    #[test]
    fn labelled_streams_are_reproducible() {
        let master = RngStream::new(7);
        let mut a = master.labelled("arrivals");
        let mut b = master.labelled("arrivals");
        let c = master.labelled("sizes");
        assert_eq!(a.bits(), b.bits());
        assert_ne!(a.seed(), c.seed());
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = RngStream::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_pos();
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = RngStream::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn bits_are_well_distributed() {
        // Count set bits over many words: should be very close to 32/64.
        let mut r = RngStream::new(13);
        let n = 10_000;
        let ones: u32 = (0..n).map(|_| r.bits().count_ones()).sum();
        let frac = f64::from(ones) / (n as f64 * 64.0);
        assert!((frac - 0.5).abs() < 0.01, "set-bit fraction {frac}");
    }

    #[test]
    fn index_covers_range_uniformly() {
        let mut r = RngStream::new(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.index(10)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = f64::from(c) / n as f64;
            assert!((f - 0.1).abs() < 0.01, "bucket {i}: {f}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = RngStream::new(9);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "astronomically unlikely identity");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn index_zero_panics() {
        RngStream::new(1).index(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::new(21);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
