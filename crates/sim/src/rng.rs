//! Deterministic random number generation.
//!
//! Every experiment in the repository must be reproducible from a single
//! `u64` seed, including across library upgrades, so the generator is
//! implemented here (xoshiro256** seeded through SplitMix64) rather than
//! relying on `StdRng`, whose algorithm is explicitly not stable across
//! `rand` releases. The `rand` crate is still used by callers that want the
//! `Rng` trait extension methods; [`DetRng`] implements [`rand::RngCore`].
//!
//! Besides raw integers, this module provides the handful of distributions
//! the workload generators need: uniform ranges, exponential inter-arrival
//! times, and Zipf hotspot selection.

use rand::RngCore;

/// SplitMix64 step, used for seeding.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator with convenience distributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derives an independent child generator. Children created with
    /// different labels from the same parent state are statistically
    /// independent streams; used to give each component its own stream so
    /// that adding a component does not perturb the draws of another.
    pub fn split(&mut self, label: u64) -> DetRng {
        let mixed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(mixed)
    }

    /// Next raw 64-bit value (xoshiro256**).
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

    /// A uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `range` (half-open).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Lemire-style rejection-free enough for simulation purposes: use
        // 128-bit multiply to map uniformly.
        let x = self.next_u64();
        let m = (x as u128 * span as u128) >> 64;
        range.start + m as u64
    }

    /// A uniform usize in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index bound must be positive");
        self.range_u64(0..bound as u64) as usize
    }

    /// Returns true with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponentially distributed value with the given mean (inter-arrival
    /// times of a Poisson process).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// A Zipf-distributed index in `[0, n)` with exponent `s` (s=0 is
    /// uniform; larger s concentrates probability on low indices). Used for
    /// hotspot destination selection.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf needs at least one element");
        if n == 1 {
            return 0;
        }
        // Inverse-CDF over the (small) support; n is at most a few thousand
        // nodes in a rack so the linear scan is fine and exact.
        let mut norm = 0.0;
        for k in 1..=n {
            norm += 1.0 / (k as f64).powf(s);
        }
        let target = self.next_f64() * norm;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        n - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// A random derangement-ish permutation of `0..n` used for permutation
    /// traffic: a shuffle re-drawn until no element maps to itself (for n>1).
    pub fn permutation_no_fixpoint(&mut self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        if n < 2 {
            return perm;
        }
        loop {
            self.shuffle(&mut perm);
            if perm.iter().enumerate().all(|(i, &p)| i != p) {
                return perm;
            }
        }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&DetRng::next_u64(self).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = DetRng::next_u64(self).to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = DetRng::new(0);
        let v: Vec<u64> = (0..10).map(|_| r.next_u64()).collect();
        assert!(v.iter().any(|&x| x != 0));
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = DetRng::new(5);
        let mut a = parent.split(1);
        let mut b = parent.split(2);
        let overlap = (0..200).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(overlap < 5);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_covers() {
        let mut r = DetRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.range_u64(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(13);
        let n = 100_000;
        let mean = 250.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() / mean < 0.02, "mean was {got}");
    }

    #[test]
    fn zipf_prefers_low_indices() {
        let mut r = DetRng::new(19);
        let mut counts = [0u32; 16];
        for _ in 0..20_000 {
            counts[r.zipf(16, 1.2)] += 1;
        }
        assert!(counts[0] > counts[8], "zipf should favour index 0");
        assert!(counts[0] > counts[15] * 3);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let mut r = DetRng::new(23);
        let mut counts = vec![0u32; 8];
        for _ in 0..16_000 {
            counts[r.zipf(8, 0.0)] += 1;
        }
        for &c in &counts {
            assert!((1500..2500).contains(&c), "count {c} deviates from uniform");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(31);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<u32>>(),
            "shuffle should move things"
        );
    }

    #[test]
    fn permutation_has_no_fixpoints() {
        let mut r = DetRng::new(37);
        for n in [2usize, 3, 8, 64] {
            let p = r.permutation_no_fixpoint(n);
            assert_eq!(p.len(), n);
            for (i, &dst) in p.iter().enumerate() {
                assert_ne!(i, dst);
            }
        }
        assert_eq!(r.permutation_no_fixpoint(1), vec![0]);
    }

    #[test]
    fn fill_bytes_works_for_odd_lengths() {
        let mut r = DetRng::new(41);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
