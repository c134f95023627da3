//! The environment's derived-state memos: interior-mutable memos for
//! terms that depend only on the clock, and the per-tick step
//! coefficients of the stochastic models.
//!
//! The power rail evaluates the environment at every one-minute substep
//! of every station — ~1440 times per station per day — but several of
//! the terms it reads are pure functions of time, identical for every
//! station sharing the [`Environment`](crate::Environment), and take far
//! fewer distinct values than they are asked for:
//!
//! * [`MinuteTable`] caches a whole-minute term: the environment's
//!   clear-sky solar fraction (the `asin → sin` chain of
//!   [`SolarModel::clear_sky_fraction`](crate::SolarModel::clear_sky_fraction)),
//!   so the base and the reference rail, which integrate the same
//!   minutes, pay for it once per sim-minute between them.
//! * [`DayCell`] caches a term that is constant within a civil day: the
//!   café-mains season (a civil-date conversion), the solar declination
//!   products the clear-sky fraction is computed from on a minute-table
//!   miss, and the annual parts of the temperature and wind models.
//! * [`SodTable`] caches a term that depends only on the second of the
//!   day: the cosine of the solar hour angle (for the clear-sky
//!   fraction's misses) and the diurnal temperature swing.
//!
//! Each memo stores the **whole expression** exactly as the model
//! computes it: a hit returns the very bits a fresh evaluation would
//! produce, so trajectories are bit-identical with or without the cache
//! (asserted by the golden-trajectory test).
//!
//! These types use interior mutability (`Cell`/`RefCell`, never
//! wall-clock or hashing — see the `glacsweb-analyze` determinism rule)
//! so read paths keep `&self`.
//!
//! The environment also advances on a *fixed* tick, so the
//! Ornstein–Uhlenbeck decay factor `exp(-θ·dt)`, its step standard
//! deviation and the melt filter's gains are constants across a run.
//! [`OuStepCache`] and [`AlphaStepCache`] keep them keyed on the
//! last-seen `dt`, computed by exactly the formula the models used
//! inline, so traces stay bit-identical.
//!
//! Every memo compares equal regardless of fill state: memo contents are
//! derived data, invisible to model equality.

use std::cell::{Cell, OnceCell, RefCell};

/// Serde for the memos mirrors their `PartialEq`: contents are derived
/// state, so a snapshot carries nothing (`Null`) and a restore starts
/// from an empty memo that refills bit-identically on first use.
macro_rules! derived_state_serde {
    ($ty:ident $(<$param:ident>)?) => {
        impl$(<$param: Copy + Default>)? ::serde::Serialize for $ty$(<$param>)? {
            fn to_value(&self) -> ::serde::Value {
                ::serde::Value::Null
            }
        }

        impl$(<$param: Copy + Default>)? ::serde::Deserialize for $ty$(<$param>)? {
            fn from_value(_: &::serde::Value) -> Result<Self, ::serde::de::Error> {
                Ok(Self::default())
            }
        }
    };
}

derived_state_serde!(DayCell<T>);
derived_state_serde!(MinuteTable);
derived_state_serde!(SodTable);
derived_state_serde!(OuStepCache);
derived_state_serde!(AlphaStepCache);

/// Sentinel key meaning "nothing memoised yet".
const NO_KEY: u64 = u64::MAX;

/// Seconds-of-day domain size.
const SOD: usize = 86_400;

/// Minutes per day: the slot count of a [`MinuteTable`].
const MINUTES_PER_DAY: u64 = 1_440;

/// One-slot memo for a value that is constant within a civil day.
#[derive(Debug, Clone)]
pub(crate) struct DayCell<T: Copy = f64> {
    day: Cell<u64>,
    value: Cell<T>,
}

impl<T: Copy + Default> Default for DayCell<T> {
    fn default() -> Self {
        DayCell {
            day: Cell::new(NO_KEY),
            value: Cell::new(T::default()),
        }
    }
}

impl<T: Copy + Default> DayCell<T> {
    /// The memoised value for `day` (days since the epoch), computing it
    /// with `f` on the first request of each new day.
    pub(crate) fn get_or(&self, day: u64, f: impl FnOnce() -> T) -> T {
        if self.day.get() != day {
            self.value.set(f());
            self.day.set(day);
        }
        self.value.get()
    }
}

impl<T: Copy> PartialEq for DayCell<T> {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

/// Day-tagged memo of a value at whole sim-minutes: 1440 slots, one per
/// minute of the day, each tagged with the absolute minute (and so the
/// day) it holds. A slot left over from an earlier day never hits, so
/// callers need not be in step: one rail may run a few minutes into
/// tomorrow while another finishes today.
///
/// Instants off the minute grid (substeps that start mid-minute, after a
/// GPS session or inside a window) are not memoised: the closure runs
/// every time.
#[derive(Debug, Clone, Default)]
pub(crate) struct MinuteTable {
    /// Allocated on first use, so building an environment stays cheap.
    slots: OnceCell<Box<[MinuteSlot]>>,
}

/// One minute of a [`MinuteTable`]: the absolute minute it holds, and
/// the value.
type MinuteSlot = Cell<(u64, f64)>;

impl MinuteTable {
    /// The memoised value at `unix` seconds since the epoch, computing it
    /// with `f` on the first request of each whole minute; `f` must be a
    /// pure function of the instant.
    pub(crate) fn get_or(&self, unix: u64, f: impl FnOnce() -> f64) -> f64 {
        if !unix.is_multiple_of(60) {
            return f();
        }
        let minute = unix / 60;
        let slots = self.slots.get_or_init(|| {
            vec![Cell::new((NO_KEY, 0.0)); MINUTES_PER_DAY as usize].into_boxed_slice()
        });
        let Some(slot) = slots.get((minute % MINUTES_PER_DAY) as usize) else {
            return f();
        };
        let (key, cached) = slot.get();
        if key == minute {
            return cached;
        }
        let fresh = f();
        slot.set((minute, fresh));
        fresh
    }
}

impl PartialEq for MinuteTable {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

/// Lazily filled table for a value that depends only on the second of
/// the day (86 400 slots, NaN = unfilled).
///
/// The closure must be a pure function of `sod` that never returns NaN;
/// every deterministic diurnal term here (cosine of the hour angle,
/// diurnal temperature swing) satisfies both.
#[derive(Debug, Clone)]
pub(crate) struct SodTable {
    values: RefCell<Vec<f64>>,
}

impl Default for SodTable {
    fn default() -> Self {
        SodTable {
            values: RefCell::new(Vec::new()),
        }
    }
}

impl SodTable {
    /// The memoised value for `sod` seconds past midnight, computing it
    /// with `f` on first access. The table itself is allocated on the
    /// first call so unused environments stay small.
    pub(crate) fn get_or(&self, sod: u64, f: impl FnOnce() -> f64) -> f64 {
        let mut values = self.values.borrow_mut();
        if values.is_empty() {
            values.resize(SOD, f64::NAN);
        }
        let idx = usize::try_from(sod).unwrap_or(0).min(SOD - 1);
        let cached = values[idx];
        if cached.is_nan() {
            let fresh = f();
            values[idx] = fresh;
            fresh
        } else {
            cached
        }
    }
}

impl PartialEq for SodTable {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

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

    /// The cached decay factor raised to `n` — the O(log n) closed form
    /// `decay(dt)ⁿ`.
    ///
    /// This is **not** bit-identical to `n` iterated multiplies; it is
    /// the primitive for recurrences that are *defined* anchor-style,
    /// like the fleet kernel's sleeping microclimate anomaly
    /// `x(k) = x₀·decayᵏ`: a per-tick evaluator and a whole-window leap
    /// both call this with their own `k`, so they agree bit-for-bit by
    /// construction at any split of the window.
    pub fn decay_pow(&mut self, n: u32, dt: f64, theta: f64, stationary_sd: f64) -> f64 {
        let (decay, _) = self.coeffs(dt, theta, stationary_sd);
        decay.powi(i32::try_from(n).unwrap_or(i32::MAX))
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
pub(crate) struct AlphaStepCache {
    dt: f64,
    alpha_rise: f64,
    alpha_fall: f64,
    valid: bool,
}

impl AlphaStepCache {
    /// `(alpha_rise, alpha_fall)` = `1 - exp(-dt/τ)` for the two time
    /// constants, recomputed only when `dt` changes.
    pub(crate) fn alphas(&mut self, dt: f64, tau_rise: f64, tau_fall: f64) -> (f64, f64) {
        if !self.valid || self.dt != dt {
            self.dt = dt;
            self.alpha_rise = 1.0 - (-dt / tau_rise).exp();
            self.alpha_fall = 1.0 - (-dt / tau_fall).exp();
            self.valid = true;
        }
        (self.alpha_rise, self.alpha_fall)
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
    fn day_cell_memoises_per_day() {
        let cell = DayCell::default();
        let mut calls = 0;
        let mut probe = |day| {
            cell.get_or(day, || {
                calls += 1;
                day as f64 * 2.0
            })
        };
        assert_eq!(probe(10), 20.0);
        assert_eq!(probe(10), 20.0);
        assert_eq!(probe(11), 22.0);
        assert_eq!(calls, 2);
    }

    #[test]
    fn day_pair_memoises_per_day() {
        let pair: DayCell<(f64, f64)> = DayCell::default();
        let (a, b) = pair.get_or(3, || (1.5, 2.5));
        assert_eq!((a, b), (1.5, 2.5));
        // A hit must not re-run the closure.
        let (a, b) = pair.get_or(3, || unreachable!());
        assert_eq!((a, b), (1.5, 2.5));
    }

    #[test]
    fn minute_table_memoises_whole_minutes_only() {
        let table = MinuteTable::default();
        let mut calls = 0;
        let mut probe = |unix: u64| {
            table.get_or(unix, || {
                calls += 1;
                unix as f64
            })
        };
        assert_eq!(probe(600), 600.0);
        assert_eq!(probe(600), 600.0, "hit");
        // Off the minute grid: evaluated directly every time.
        assert_eq!(probe(627), 627.0);
        assert_eq!(probe(627), 627.0);
        // Same slot a day later: the tag differs, so it misses.
        assert_eq!(probe(600 + 86_400), (600 + 86_400) as f64);
        // And the earlier day's value is gone from that slot.
        assert_eq!(probe(600), 600.0);
        assert_eq!(calls, 5);
    }

    #[test]
    fn sod_table_returns_identical_bits() {
        let table = SodTable::default();
        let f = |sod: u64| (sod as f64 / 3600.0).cos();
        let first = table.get_or(4321, || f(4321));
        let hit = table.get_or(4321, || unreachable!());
        assert_eq!(first.to_bits(), hit.to_bits());
        assert_eq!(first.to_bits(), f(4321).to_bits());
    }

    #[test]
    fn sod_table_handles_domain_edges() {
        let table = SodTable::default();
        assert_eq!(table.get_or(0, || 1.0), 1.0);
        assert_eq!(table.get_or(86_399, || 2.0), 2.0);
    }

    #[test]
    fn caches_are_invisible_to_equality() {
        let a = DayCell::default();
        let b = DayCell::default();
        let _ = a.get_or(5, || 9.0);
        assert_eq!(a, b);
        let ta = SodTable::default();
        let tb = SodTable::default();
        let _ = ta.get_or(7, || 3.0);
        assert_eq!(ta, tb);
        let ma = MinuteTable::default();
        let _ = ma.get_or(60, || 3.0);
        assert_eq!(ma, MinuteTable::default());
    }

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
    fn caches_compare_equal_regardless_of_state() {
        let mut a = OuStepCache::default();
        let b = OuStepCache::default();
        let _ = a.coeffs(0.5, 0.1, 1.0);
        assert_eq!(a, b, "cache state is invisible to model equality");
    }
}
