//! Cached per-tick step coefficients for the stochastic models.
//!
//! The environment advances on a *fixed* tick, so quantities like the
//! Ornstein–Uhlenbeck decay factor `exp(-θ·dt)` and the matching step
//! standard deviation are constants across a run — yet the step
//! functions used to re-evaluate `exp`/`sqrt` on every tick. Each model
//! keeps one of these caches keyed on the last-seen `dt`; the values it
//! returns are computed by exactly the formula the models used inline,
//! so simulation traces stay bit-identical.

use crate::daycache::derived_state_serde;

derived_state_serde!(OuStepCache);
derived_state_serde!(AlphaStepCache);

/// Memoised Ornstein–Uhlenbeck step coefficients for one `(θ, σ)` pair.
///
/// Equality deliberately ignores the cache contents: it is derived
/// state, reproducible from the owning model's parameters and the tick.
#[derive(Debug, Clone, Default)]
pub struct OuStepCache {
    dt: f64,
    decay: f64,
    step_sd: f64,
    valid: bool,
}

impl OuStepCache {
    /// The `(decay, step_sd)` pair for a step of `dt` with rate `theta`
    /// and stationary standard deviation `stationary_sd`.
    ///
    /// Recomputes only when `dt` changes (the owner's `theta` and
    /// `stationary_sd` are construction-time constants).
    pub fn coeffs(&mut self, dt: f64, theta: f64, stationary_sd: f64) -> (f64, f64) {
        if !self.valid || self.dt != dt {
            let decay = (-theta * dt).exp();
            self.dt = dt;
            self.decay = decay;
            self.step_sd = stationary_sd * (1.0 - decay * decay).sqrt();
            self.valid = true;
        }
        (self.decay, self.step_sd)
    }

    /// Advances an OU state by `n_steps` ticks of `dt` in one call.
    ///
    /// `draw(step_sd)` supplies the per-step noise increment (typically
    /// `rng.normal(0.0, step_sd)`). The leap *replays* the exact
    /// per-step recurrence `x ← x·decay + draw(sd)` with the decay and
    /// step deviation hoisted out of the loop, so it is **provably
    /// bit-identical** to calling the model's `step` `n_steps` times:
    /// same float operations, same order, same draws. The algebraic
    /// closed form (`x·decayⁿ + Σ…`) is deliberately *not* used — it
    /// re-associates the sum and changes the low bits.
    ///
    /// For spans where the noise is not observed, pair this with
    /// [`SimRng::skip_raw`](glacsweb_sim::SimRng::skip_raw) to consume
    /// exactly the draws the stepped path would have made.
    pub fn leap<F>(
        &mut self,
        n_steps: u32,
        dt: f64,
        theta: f64,
        stationary_sd: f64,
        mut value: f64,
        mut draw: F,
    ) -> f64
    where
        F: FnMut(f64) -> f64,
    {
        let (decay, step_sd) = self.coeffs(dt, theta, stationary_sd);
        for _ in 0..n_steps {
            value = value * decay + draw(step_sd);
        }
        value
    }

    /// The cached decay factor raised to `n` — the O(log n) closed form
    /// `decay(dt)ⁿ`.
    ///
    /// This is **not** bit-identical to `n` iterated multiplies (see
    /// [`OuStepCache::decay_leap`] for that contract); it is the
    /// primitive for recurrences that are *defined* anchor-style, like
    /// the fleet kernel's sleeping microclimate anomaly
    /// `x(k) = x₀·decayᵏ`: a per-tick evaluator and a whole-window leap
    /// both call this with their own `k`, so they agree bit-for-bit by
    /// construction at any split of the window.
    pub fn decay_pow(&mut self, n: u32, dt: f64, theta: f64, stationary_sd: f64) -> f64 {
        let (decay, _) = self.coeffs(dt, theta, stationary_sd);
        decay.powi(i32::try_from(n).unwrap_or(i32::MAX))
    }

    /// Advances a noise-free exponential decay by `n_steps` ticks.
    ///
    /// Replays `x ← x·decay` per step (not `x·decayⁿ` via `powi`, which
    /// rounds differently), so it is bit-identical to `n_steps`
    /// deterministic steps.
    pub fn decay_leap(
        &mut self,
        n_steps: u32,
        dt: f64,
        theta: f64,
        stationary_sd: f64,
        mut value: f64,
    ) -> f64 {
        let (decay, _) = self.coeffs(dt, theta, stationary_sd);
        for _ in 0..n_steps {
            value *= decay;
        }
        value
    }
}

impl PartialEq for OuStepCache {
    fn eq(&self, _: &Self) -> bool {
        true // derived state: two models differing only here are equal
    }
}

/// Memoised low-pass filter gains for the hydrology melt filter, which
/// switches between a rise and a fall time constant.
#[derive(Debug, Clone, Default)]
pub struct AlphaStepCache {
    dt: f64,
    alpha_rise: f64,
    alpha_fall: f64,
    valid: bool,
}

impl AlphaStepCache {
    /// `(alpha_rise, alpha_fall)` = `1 - exp(-dt/τ)` for the two time
    /// constants, recomputed only when `dt` changes.
    pub fn alphas(&mut self, dt: f64, tau_rise: f64, tau_fall: f64) -> (f64, f64) {
        if !self.valid || self.dt != dt {
            self.dt = dt;
            self.alpha_rise = 1.0 - (-dt / tau_rise).exp();
            self.alpha_fall = 1.0 - (-dt / tau_fall).exp();
            self.valid = true;
        }
        (self.alpha_rise, self.alpha_fall)
    }

    /// Advances an asymmetric low-pass filter state by `n_steps` ticks.
    ///
    /// `drive(step_index)` supplies the per-step target (e.g. the melt
    /// drive derived from that tick's temperature). Each step replays
    /// the exact filter recurrence — gain selection, multiply-add and
    /// clamp — so the result is bit-identical to `n_steps` calls of the
    /// owning model's `step`.
    pub fn leap<F>(
        &mut self,
        n_steps: u32,
        dt: f64,
        tau_rise: f64,
        tau_fall: f64,
        mut value: f64,
        mut drive: F,
    ) -> f64
    where
        F: FnMut(u32) -> f64,
    {
        let (alpha_rise, alpha_fall) = self.alphas(dt, tau_rise, tau_fall);
        for i in 0..n_steps {
            let target = drive(i);
            let alpha = if target > value {
                alpha_rise
            } else {
                alpha_fall
            };
            value += alpha * (target - value);
            value = value.clamp(0.0, 1.0);
        }
        value
    }
}

impl PartialEq for AlphaStepCache {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ou_matches_inline_formula() {
        let mut c = OuStepCache::default();
        let (theta, sd, dt) = (1.0 / 12.0, 1.5, 0.5);
        let (decay, step_sd) = c.coeffs(dt, theta, sd);
        let expect_decay = (-theta * dt).exp();
        assert_eq!(decay, expect_decay, "bit-identical decay");
        assert_eq!(step_sd, sd * (1.0 - expect_decay * expect_decay).sqrt());
        // Cached path returns the very same bits.
        assert_eq!(c.coeffs(dt, theta, sd), (decay, step_sd));
    }

    #[test]
    fn ou_recomputes_on_dt_change() {
        let mut c = OuStepCache::default();
        let a = c.coeffs(0.5, 0.1, 1.0);
        let b = c.coeffs(1.0, 0.1, 1.0);
        assert_ne!(a, b);
        assert_eq!(c.coeffs(1.0, 0.1, 1.0), b);
    }

    #[test]
    fn alpha_matches_inline_formula() {
        let mut c = AlphaStepCache::default();
        let dt = 1.0 / 144.0;
        let (rise, fall) = c.alphas(dt, 10.0, 25.0);
        assert_eq!(rise, 1.0 - (-dt / 10.0).exp());
        assert_eq!(fall, 1.0 - (-dt / 25.0).exp());
    }

    #[test]
    fn ou_leap_matches_stepped_path() {
        let (theta, sd, dt) = (1.0 / 12.0, 1.6, 0.5);
        let mut cache = OuStepCache::default();
        let mut rng_leap = glacsweb_sim::SimRng::seed_from(404);
        let mut rng_step = glacsweb_sim::SimRng::seed_from(404);
        let leapt = cache.leap(100, dt, theta, sd, 0.75, |s| rng_leap.normal(0.0, s));
        let mut stepped = 0.75;
        let mut step_cache = OuStepCache::default();
        for _ in 0..100 {
            let (decay, step_sd) = step_cache.coeffs(dt, theta, sd);
            stepped = stepped * decay + rng_step.normal(0.0, step_sd);
        }
        assert_eq!(leapt.to_bits(), stepped.to_bits());
        assert_eq!(rng_leap, rng_step);
    }

    #[test]
    fn decay_pow_is_the_closed_power() {
        let mut c = OuStepCache::default();
        let (decay, _) = c.coeffs(0.5, 1.0 / 8.0, 0.15);
        assert_eq!(
            c.decay_pow(1, 0.5, 1.0 / 8.0, 0.15).to_bits(),
            decay.to_bits()
        );
        assert_eq!(
            c.decay_pow(48, 0.5, 1.0 / 8.0, 0.15).to_bits(),
            decay.powi(48).to_bits()
        );
        assert_eq!(
            c.decay_pow(0, 0.5, 1.0 / 8.0, 0.15).to_bits(),
            1.0f64.to_bits()
        );
        // Splitting a window re-derives from the same anchor expression,
        // so pow(a)·pow(b) need not equal pow(a+b) — anchor-style users
        // never multiply two pows together.
        let whole = c.decay_pow(48, 0.5, 1.0 / 8.0, 0.15);
        assert!((whole - decay.powi(24) * decay.powi(24)).abs() < 1e-15);
    }

    #[test]
    fn decay_leap_matches_stepped_path() {
        let mut cache = OuStepCache::default();
        let leapt = cache.decay_leap(48, 0.5, 1.0 / 8.0, 0.15, 0.9);
        let mut stepped = 0.9;
        let mut step_cache = OuStepCache::default();
        for _ in 0..48 {
            let (decay, _) = step_cache.coeffs(0.5, 1.0 / 8.0, 0.15);
            stepped *= decay;
        }
        assert_eq!(leapt.to_bits(), stepped.to_bits());
    }

    #[test]
    fn alpha_leap_matches_stepped_path() {
        let dt = 1.0 / 48.0;
        let drives: Vec<f64> = (0..200).map(|i| f64::from(i % 9) - 2.0).collect();
        let mut cache = AlphaStepCache::default();
        let leapt = cache.leap(200, dt, 10.0, 25.0, 0.3, |i| {
            (drives[i as usize] / 4.0).clamp(0.0, 1.0)
        });
        let mut stepped = 0.3;
        let mut step_cache = AlphaStepCache::default();
        for &d in &drives {
            let target = (d / 4.0).clamp(0.0, 1.0);
            let (rise, fall) = step_cache.alphas(dt, 10.0, 25.0);
            let alpha = if target > stepped { rise } else { fall };
            stepped += alpha * (target - stepped);
            stepped = stepped.clamp(0.0, 1.0);
        }
        assert_eq!(leapt.to_bits(), stepped.to_bits());
    }

    #[test]
    fn caches_compare_equal_regardless_of_state() {
        let mut a = OuStepCache::default();
        let b = OuStepCache::default();
        let _ = a.coeffs(0.5, 0.1, 1.0);
        assert_eq!(a, b, "cache state is invisible to model equality");
    }

    mod leap_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `leap(n)` ≡ n × step for the OU recurrence, bit for bit,
            /// across rate/volatility/dt ranges — including the RNG
            /// stream position afterwards.
            #[test]
            fn ou_leap_equals_n_steps(
                n in 1u32..300,
                seed in 0u64..1_000,
                dt in 1e-3f64..2.0,
                theta in 1e-3f64..2.0,
                sd in 0.0f64..5.0,
                x0 in -10.0f64..10.0,
            ) {
                let mut rng_leap = glacsweb_sim::SimRng::seed_from(seed);
                let mut rng_step = glacsweb_sim::SimRng::seed_from(seed);
                let mut leap_cache = OuStepCache::default();
                let leapt =
                    leap_cache.leap(n, dt, theta, sd, x0, |s| rng_leap.normal(0.0, s));
                let mut stepped = x0;
                let mut step_cache = OuStepCache::default();
                for _ in 0..n {
                    let (decay, step_sd) = step_cache.coeffs(dt, theta, sd);
                    stepped = stepped * decay + rng_step.normal(0.0, step_sd);
                }
                prop_assert_eq!(leapt.to_bits(), stepped.to_bits());
                prop_assert_eq!(rng_leap, rng_step);
            }

            /// `decay_leap(n)` ≡ n × (multiply by the cached decay),
            /// bit for bit, across rate/dt ranges.
            #[test]
            fn decay_leap_equals_n_steps(
                n in 1u32..300,
                dt in 1e-3f64..2.0,
                theta in 1e-3f64..2.0,
                sd in 0.0f64..5.0,
                x0 in -10.0f64..10.0,
            ) {
                let mut leap_cache = OuStepCache::default();
                let leapt = leap_cache.decay_leap(n, dt, theta, sd, x0);
                let mut stepped = x0;
                let mut step_cache = OuStepCache::default();
                for _ in 0..n {
                    let (decay, _) = step_cache.coeffs(dt, theta, sd);
                    stepped *= decay;
                }
                prop_assert_eq!(leapt.to_bits(), stepped.to_bits());
            }

            /// Asymmetric-alpha `leap(n)` ≡ n × step across tau/dt
            /// ranges and arbitrary per-step drive targets.
            #[test]
            fn alpha_leap_equals_n_steps(
                drives in proptest::collection::vec(-4.0f64..8.0, 1..200),
                dt in 1e-3f64..2.0,
                tau_rise in 1e-2f64..50.0,
                tau_fall in 1e-2f64..50.0,
                x0 in 0.0f64..1.0,
            ) {
                let n = drives.len() as u32;
                let target_of = |d: f64| (d / 4.0).clamp(0.0, 1.0);
                let mut leap_cache = AlphaStepCache::default();
                let leapt = leap_cache.leap(n, dt, tau_rise, tau_fall, x0, |i| {
                    target_of(drives[i as usize])
                });
                let mut stepped = x0;
                let mut step_cache = AlphaStepCache::default();
                for &d in &drives {
                    let target = target_of(d);
                    let (rise, fall) = step_cache.alphas(dt, tau_rise, tau_fall);
                    let alpha = if target > stepped { rise } else { fall };
                    stepped += alpha * (target - stepped);
                    stepped = stepped.clamp(0.0, 1.0);
                }
                prop_assert_eq!(leapt.to_bits(), stepped.to_bits());
            }
        }
    }
}
