//! Deterministic random number generation.
//!
//! Every stochastic component of the simulator (PEBS sample jitter, address
//! pattern generation, ASLR slides, workload irregularity) draws from a
//! [`DetRng`] derived from a master seed and a textual *stream label*. Two
//! runs with the same master seed therefore produce identical traces,
//! identical advisor decisions and identical figures, while distinct
//! components never share a stream.
//!
//! The generator is a self-contained xoshiro256++ (public domain algorithm by
//! Blackman & Vigna) seeded through SplitMix64, so the workspace carries no
//! external RNG dependency and the byte stream is stable across toolchains.

/// Deterministic random number generator with labelled sub-streams.
#[derive(Clone, Debug)]
pub struct DetRng {
    seed: u64,
    state: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { seed, state }
    }

    /// The master seed this generator (or its ancestors) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent sub-stream identified by `label`.
    ///
    /// The derivation is a simple FNV-1a hash of the label folded into the
    /// master seed; it only needs to be stable and well-spread, not
    /// cryptographic.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf29ce484222325 ^ self.seed.rotate_left(17);
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        DetRng::new(h)
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Next raw 32-bit value (upper half of [`next_u64`](Self::next_u64)).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` (53 bits of entropy).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_range requires lo < hi ({lo} >= {hi})");
        let span = hi - lo;
        // Lemire's multiply-shift bounded generation; the modulo bias at
        // 64-bit state is far below anything the simulator can observe.
        let wide = u128::from(self.next_u64()) * u128::from(span);
        lo + (wide >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = self.uniform();
        -mean * (1.0 - u).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_differ_by_label() {
        let root = DetRng::new(7);
        let mut a = root.derive("pebs");
        let mut b = root.derive("aslr");
        let mut c = root.derive("pebs");
        let xs: Vec<u64> = (0..10).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..10).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..10).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
        assert_eq!(xs, zs);
    }

    #[test]
    fn uniform_range_stays_in_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.uniform_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn uniform_range_covers_whole_span() {
        let mut r = DetRng::new(17);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.uniform_range(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "some bucket never drawn: {seen:?}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn exponential_is_positive_with_right_mean() {
        let mut r = DetRng::new(5);
        let n = 20_000;
        let vals: Vec<f64> = (0..n).map(|_| r.exponential(4.0)).collect();
        assert!(vals.iter().all(|v| *v >= 0.0));
        let mean = vals.iter().sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean was {mean}");
    }
}
