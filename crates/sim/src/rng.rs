//! Deterministic pseudo-random numbers for the simulation.
//!
//! All stochastic processes in the workspace (weather, link loss, probe
//! mortality, GPRS dropouts) draw from [`SimRng`], a xoshiro256++ generator
//! seeded through SplitMix64. The implementation is self-contained so that
//! simulation traces are bit-stable across platforms and across upstream
//! `rand` releases — an identical seed must regenerate an identical
//! deployment, which the integration tests assert.

use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A deterministic xoshiro256++ PRNG with the distributions the Glacsweb
/// models need.
///
/// The generator state — the four xoshiro words, the cached Box–Muller
/// spare, and the stream position — serializes losslessly, so a restored
/// snapshot resumes the exact raw stream the saved run would have drawn.
///
/// # Example
///
/// ```
/// use glacsweb_sim::SimRng;
/// use rand::RngCore; // `next_u64` comes from the `RngCore` impl
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let p = a.f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
    /// Raw 64-bit outputs consumed since seeding (the stream position).
    pos: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
            spare_normal: None,
            pos: 0,
        }
    }

    /// Raw 64-bit outputs consumed since seeding.
    ///
    /// Every distribution helper consumes a fixed, documented number of
    /// raw outputs (one each for [`SimRng::f64`]/[`SimRng::below`], two
    /// per Box–Muller *pair* in [`SimRng::normal`]), so the position is
    /// a complete index into the stream: two generators with the same
    /// seed and the same position are bit-identical (modulo the cached
    /// Box–Muller spare, which the caller controls via draw parity).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Skips below this crank the generator; skips at or above it jump
    /// algebraically. Roughly where ~log₂(n) 256×256 GF(2) matrix
    /// squarings start beating n plain state transitions.
    const JUMP_THRESHOLD: u64 = 1 << 18;

    /// Advances the stream by exactly `n` raw outputs.
    ///
    /// After `skip_raw(n)` the generator state (and [`SimRng::position`])
    /// is identical to having called `next_u64` `n` times and discarded
    /// the results. Short skips (below ~2¹⁸) do exactly that — an O(n)
    /// crank. Longer skips jump instead: the xoshiro256++ state
    /// transition is linear over GF(2), so `n` steps are the 256-bit
    /// matrix power `Tⁿ` applied to the state, computed with O(log n)
    /// bit-matrix squarings and no intermediate outputs materialised.
    /// Both routes land on the identical state, which the jump-vs-crank
    /// tests pin across the threshold.
    ///
    /// The Box–Muller spare is untouched: skipping is a raw-stream
    /// operation, so leap code that replaces `normal()` calls must skip
    /// the *raw* draws those calls would have made and clear or preserve
    /// the spare to match the stepped path's parity.
    pub fn skip_raw(&mut self, n: u64) {
        if n < Self::JUMP_THRESHOLD {
            for _ in 0..n {
                self.raw_next_u64();
            }
        } else {
            self.s = jump_state(self.s, n);
            self.pos = self.pos.wrapping_add(n);
        }
    }

    /// Derives an independent child generator for a named stream.
    ///
    /// Components each fork their own stream so that adding a new consumer
    /// of randomness does not perturb every other component's draws.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.raw_next_u64();
        SimRng::seed_from(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    fn raw_next_u64(&mut self) -> u64 {
        self.pos = self.pos.wrapping_add(1);
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        self.s = step_state(self.s);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.raw_next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire-style rejection-free-enough: fine for simulation purposes.
        ((u128::from(self.raw_next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Normally distributed value (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                // Avoid ln(0).
                let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
                let u2 = self.f64();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std_dev * z
    }

    /// Exponentially distributed value with the given rate (`1/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -u.ln() / rate
    }

    /// Weibull-distributed value with the given scale and shape.
    ///
    /// Used by the probe mortality model (shape > 1 gives wear-out failures
    /// matching the paper's "4/7 survived one year").
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `shape` is not strictly positive.
    pub fn weibull(&mut self, scale: f64, shape: f64) -> f64 {
        assert!(
            scale > 0.0 && shape > 0.0,
            "weibull parameters must be positive"
        );
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        scale * (-u.ln()).powf(1.0 / shape)
    }
}

/// One xoshiro256++ state transition — the linear part of
/// [`SimRng::raw_next_u64`], with no output computed. Every operation
/// (xor, left shift, rotation) is linear over GF(2), which is what makes
/// the matrix jump in [`jump_state`] exact.
fn step_state(mut s: [u64; 4]) -> [u64; 4] {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    s
}

/// A 256×256 GF(2) matrix stored as 256 columns, each a 256-bit vector
/// packed into four words in state order (`s[0]` low).
type BitMatrix = Vec<[u64; 4]>;

/// The state-transition matrix `T`: column `j` is [`step_state`] applied
/// to the `j`-th basis state.
fn transition_matrix() -> BitMatrix {
    (0..256)
        .map(|j| {
            let mut e = [0u64; 4];
            e[j / 64] = 1u64 << (j % 64);
            step_state(e)
        })
        .collect()
}

/// Matrix–vector product over GF(2): XOR of the columns selected by the
/// set bits of `v`.
fn mat_vec(m: &[[u64; 4]], v: [u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    for (j, col) in m.iter().enumerate() {
        if (v[j / 64] >> (j % 64)) & 1 == 1 {
            for (o, c) in out.iter_mut().zip(col) {
                *o ^= c;
            }
        }
    }
    out
}

/// Matrix product over GF(2), column representation: column `j` of `A·B`
/// is `A` applied to column `j` of `B`.
fn mat_mul(a: &[[u64; 4]], b: &[[u64; 4]]) -> BitMatrix {
    b.iter().map(|&col| mat_vec(a, col)).collect()
}

/// `Tⁿ` applied to `s` by square-and-multiply: the state after `n` raw
/// steps, without materialising any of them.
fn jump_state(s: [u64; 4], mut n: u64) -> [u64; 4] {
    let mut v = s;
    let mut m = transition_matrix();
    while n > 0 {
        if n & 1 == 1 {
            v = mat_vec(&m, v);
        }
        n >>= 1;
        if n > 0 {
            m = mat_mul(&m, &m);
        }
    }
    v
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (self.raw_next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.raw_next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.raw_next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    // Explicit import wins over the ambiguous globs above.
    use rand::RngCore;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from(1234);
        let mut b = SimRng::seed_from(1234);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "seeds 1 and 2 should produce different streams");
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from(99);
        let mut root2 = SimRng::seed_from(99);
        let mut a1 = root1.fork(1);
        let mut a2 = root2.fork(1);
        assert_eq!(a1.next_u64(), a2.next_u64());
        let mut b1 = root1.fork(2);
        assert_ne!(a1.next_u64(), b1.next_u64());
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = SimRng::seed_from(7);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut rng = SimRng::seed_from(8);
        let n = 50_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.13)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.13).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::seed_from(9);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::seed_from(10);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let mut rng = SimRng::seed_from(11);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.weibull(2.0, 1.0)).sum::<f64>() / n as f64;
        // Weibull(scale, shape=1) has mean = scale.
        assert!((mean - 2.0).abs() < 0.06, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::seed_from(12);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn position_counts_raw_draws() {
        let mut rng = SimRng::seed_from(21);
        assert_eq!(rng.position(), 0);
        rng.f64();
        assert_eq!(rng.position(), 1);
        rng.below(10);
        assert_eq!(rng.position(), 2);
        // A Box–Muller pair consumes two raw draws; the spare is free.
        rng.normal(0.0, 1.0);
        assert_eq!(rng.position(), 4);
        rng.normal(0.0, 1.0);
        assert_eq!(rng.position(), 4);
    }

    #[test]
    fn skip_raw_matches_discarded_draws() {
        let mut skipped = SimRng::seed_from(33);
        let mut stepped = SimRng::seed_from(33);
        skipped.skip_raw(1000);
        for _ in 0..1000 {
            stepped.next_u64();
        }
        assert_eq!(skipped, stepped);
        assert_eq!(skipped.next_u64(), stepped.next_u64());
    }

    #[test]
    fn skip_raw_jump_path_matches_discarded_draws() {
        // Pin the matrix jump against the plain crank on both sides of
        // the threshold and just past it.
        for n in [
            SimRng::JUMP_THRESHOLD - 1,
            SimRng::JUMP_THRESHOLD,
            SimRng::JUMP_THRESHOLD + 12_345,
        ] {
            let mut skipped = SimRng::seed_from(77);
            let mut stepped = SimRng::seed_from(77);
            skipped.skip_raw(n);
            for _ in 0..n {
                stepped.next_u64();
            }
            assert_eq!(skipped, stepped, "n = {n}");
            assert_eq!(skipped.next_u64(), stepped.next_u64());
        }
    }

    #[test]
    fn giant_skips_compose() {
        // Distances too far to cross-check by cranking: one big jump
        // equals the same distance covered in jump-sized chunks plus a
        // cranked remainder, and the position tracks exactly.
        let total = 5 * SimRng::JUMP_THRESHOLD + 3;
        let mut one = SimRng::seed_from(9);
        let mut parts = SimRng::seed_from(9);
        one.skip_raw(total);
        for _ in 0..5 {
            parts.skip_raw(SimRng::JUMP_THRESHOLD);
        }
        parts.skip_raw(3);
        assert_eq!(one, parts);
        assert_eq!(one.position(), total);
        assert_eq!(one.next_u64(), parts.next_u64());
    }

    proptest! {
        #[test]
        fn skip_raw_equals_n_draws(seed in any::<u64>(), n in 0u64..4096) {
            let mut skipped = SimRng::seed_from(seed);
            let mut stepped = SimRng::seed_from(seed);
            skipped.skip_raw(n);
            for _ in 0..n {
                stepped.next_u64();
            }
            prop_assert_eq!(skipped.position(), n);
            prop_assert_eq!(skipped.next_u64(), stepped.next_u64());
        }

        #[test]
        fn below_is_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
            let mut rng = SimRng::seed_from(seed);
            for _ in 0..32 {
                prop_assert!(rng.below(n) < n);
            }
        }

        #[test]
        fn uniform_is_in_range(seed in any::<u64>(), lo in -1e6f64..1e6, width in 0.0f64..1e6) {
            let mut rng = SimRng::seed_from(seed);
            let hi = lo + width;
            let x = rng.uniform(lo, hi);
            prop_assert!(x >= lo && (x < hi || width == 0.0));
        }

        #[test]
        fn weibull_is_nonnegative(seed in any::<u64>(), scale in 0.01f64..100.0, shape in 0.2f64..5.0) {
            let mut rng = SimRng::seed_from(seed);
            prop_assert!(rng.weibull(scale, shape) >= 0.0);
        }
    }
}
