//! Shared unit newtypes.
//!
//! The paper's derivations (a 3.6 W dGPS draining a 36 Ah battery in five
//! days, 165 KB readings over a 5 000 bps GPRS link…) are all unit
//! arithmetic; these newtypes make that arithmetic type-checked across the
//! workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize,
        )]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// The raw numeric value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The larger of two values.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// The smaller of two values.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Clamps into `[lo, hi]`.
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                $name(self.0.clamp(lo.0, hi.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.3} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

unit!(
    /// Electrical power in watts.
    Watts, "W"
);
unit!(
    /// Electrical energy in watt-hours.
    WattHours, "Wh"
);
unit!(
    /// Electrical potential in volts.
    Volts, "V"
);
unit!(
    /// Electrical current in amperes.
    Amps, "A"
);
unit!(
    /// Battery charge in ampere-hours.
    AmpHours, "Ah"
);
unit!(
    /// Temperature in degrees Celsius.
    Celsius, "degC"
);

impl Watts {
    /// Constructs from milliwatts — Table I of the paper quotes mW.
    pub const fn from_milliwatts(mw: f64) -> Watts {
        Watts(mw / 1000.0)
    }

    /// The value in milliwatts.
    pub const fn milliwatts(self) -> f64 {
        self.0 * 1000.0
    }

    /// Energy delivered at this power over `dt`.
    ///
    /// ```
    /// use glacsweb_sim::{SimDuration, Watts};
    /// let gps = Watts(3.6);
    /// let e = gps.over(SimDuration::from_hours(10));
    /// assert!((e.value() - 36.0).abs() < 1e-9);
    /// ```
    pub fn over(self, dt: SimDuration) -> WattHours {
        WattHours(self.0 * dt.as_hours_f64())
    }
}

impl AmpHours {
    /// Energy content at a nominal voltage.
    ///
    /// The paper's worked example: 36 Ah at 12 V nominal is 432 Wh.
    pub fn energy_at(self, v: Volts) -> WattHours {
        WattHours(self.0 * v.0)
    }
}

impl Mul<Volts> for Amps {
    type Output = Watts;
    fn mul(self, rhs: Volts) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

impl Mul<Amps> for Volts {
    type Output = Watts;
    fn mul(self, rhs: Amps) -> Watts {
        Watts(self.0 * rhs.0)
    }
}

/// A count of bytes.
///
/// ```
/// use glacsweb_sim::Bytes;
/// let reading = Bytes::from_kib(165);
/// assert_eq!(reading.value(), 165 * 1024);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Constructs from binary kilobytes.
    pub const fn from_kib(kib: u64) -> Bytes {
        Bytes(kib * 1024)
    }

    /// Constructs from binary megabytes.
    pub const fn from_mib(mib: u64) -> Bytes {
        Bytes(mib * 1024 * 1024)
    }

    /// The raw byte count.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The size in fractional binary megabytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two sizes.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Length of this size's `Display` text, counted in integer
    /// arithmetic instead of float formatting (exact below 2⁵³ bytes,
    /// where the display's `f64` holds the count exactly).
    ///
    /// Only the digit count of the integer part varies: the display
    /// rounds to one decimal of KiB or two of MiB, and rounding carries
    /// into the integer part only from `.95` KiB or `.995` MiB, which no
    /// whole byte count hits exactly — so no tie-breaking rule matters.
    pub fn display_len(self) -> u64 {
        /// Integer part of `b / 2^shift` rounded to `1/scale`.
        fn rounded_whole(b: u64, shift: u32, scale: u128) -> u64 {
            let scaled = (u128::from(b) * scale + (1 << (shift - 1))) >> shift;
            u64::try_from(scaled / scale).unwrap_or(u64::MAX)
        }
        let (whole, suffix) = if self.0 >= 1 << 20 {
            (rounded_whole(self.0, 20, 100), ".00 MiB".len())
        } else if self.0 >= 1 << 10 {
            (rounded_whole(self.0, 10, 10), ".0 KiB".len())
        } else {
            (self.0, " B".len())
        };
        u64::from(whole.checked_ilog10().map_or(1, |d| d + 1)) + suffix as u64
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2} MiB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.1} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

/// A data rate in bits per second.
///
/// ```
/// use glacsweb_sim::{BitsPerSecond, Bytes};
/// let gprs = BitsPerSecond(5_000);
/// let dt = gprs.transfer_time(Bytes::from_kib(165));
/// // 165 KiB over 5 kbps is about 4.5 minutes.
/// assert!((dt.as_secs() as f64 - 270.0).abs() < 10.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BitsPerSecond(pub u64);

impl BitsPerSecond {
    /// The raw bit rate.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// The equivalent rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to transfer `size` at this rate (rounded up to whole seconds).
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn transfer_time(self, size: Bytes) -> SimDuration {
        assert!(self.0 > 0, "cannot transfer over a zero-rate link");
        SimDuration::from_secs((size.value() * 8).div_ceil(self.0))
    }

    /// Bytes transferable in `dt` at this rate.
    pub fn capacity(self, dt: SimDuration) -> Bytes {
        Bytes(self.0 * dt.as_secs() / 8)
    }
}

impl fmt::Display for BitsPerSecond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bps", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_depletion_arithmetic() {
        // §III: "the GPS device uses 3.6W ... would deplete 36AH of
        // batteries in 5 days".
        let bank = AmpHours(36.0).energy_at(Volts(12.0));
        assert!((bank.value() - 432.0).abs() < 1e-9);
        let days = bank.value() / Watts(3.6).value() / 24.0;
        assert!((days - 5.0).abs() < 1e-9);
    }

    #[test]
    fn milliwatt_round_trip() {
        let w = Watts::from_milliwatts(2640.0);
        assert!((w.value() - 2.64).abs() < 1e-12);
        assert!((w.milliwatts() - 2640.0).abs() < 1e-9);
    }

    #[test]
    fn power_current_voltage_relations() {
        let p = Volts(12.0) * Amps(0.1);
        assert!((p.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn bytes_display_scales() {
        assert_eq!(Bytes(12).to_string(), "12 B");
        assert_eq!(Bytes::from_kib(165).to_string(), "165.0 KiB");
        assert_eq!(Bytes::from_mib(4096).to_string(), "4096.00 MiB");
    }

    #[test]
    fn display_len_is_the_display_text_length() {
        use std::fmt::Write;
        let mut text = String::new();
        let mut check = |b: u64| {
            text.clear();
            write!(text, "{}", Bytes(b)).expect("formats");
            assert_eq!(Bytes(b).display_len(), text.len() as u64, "{text}");
        };
        for b in 0..1 << 21 {
            check(b);
        }
        // Around every carry into a new integer digit, up to 10⁶ MiB.
        for k in 1..=6u32 {
            let edge = 10u64.pow(k) << 20;
            for b in edge - 6_000..edge + 100 {
                check(b);
            }
        }
        check(u64::from(u32::MAX));
    }

    #[test]
    fn transfer_time_rounds_up() {
        let rate = BitsPerSecond(8);
        assert_eq!(rate.transfer_time(Bytes(1)).as_secs(), 1);
        assert_eq!(rate.transfer_time(Bytes(2)).as_secs(), 2);
        assert_eq!(rate.capacity(SimDuration::from_secs(10)), Bytes(10));
    }

    #[test]
    fn unit_sums_and_ordering() {
        let total: Watts = [Watts(0.9), Watts(2.64), Watts(3.6)].into_iter().sum();
        assert!((total.value() - 7.14).abs() < 1e-12);
        assert!(Watts(2.0) > Watts(1.0));
        assert_eq!(Watts(5.0).min(Watts(2.0)), Watts(2.0));
        assert_eq!(Watts(-1.0).max(Watts::ZERO), Watts::ZERO);
    }

    #[test]
    fn dimensionless_ratio() {
        assert!((WattHours(432.0) / WattHours(3.6) - 120.0).abs() < 1e-9);
    }
}
