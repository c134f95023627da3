//! Discrete-event simulation kernel for the Glacsweb reproduction.
//!
//! This crate provides the foundation every other crate in the workspace is
//! built on:
//!
//! * [`SimTime`] / [`SimDuration`] — a simulated wall clock with a civil
//!   calendar (the deployment logic cares about *midday UTC*, day-of-year for
//!   solar elevation, and seasons).
//! * [`EventWheel`] — a deterministic, FIFO-tie-broken calendar of timed
//!   events.
//! * [`SimRng`] — a small, fully deterministic PRNG (xoshiro256++) with the
//!   distributions the environment and link models need.
//! * [`TimeSeries`] — a recorder used to regenerate the paper's figures.
//! * [`plot`] — terminal sparklines/charts used by the experiment harness
//!   to render the regenerated figures.
//! * [`units`] — shared newtypes ([`Watts`], [`Volts`], …) so that power
//!   arithmetic cannot silently mix units.
//!
//! # Example
//!
//! ```
//! use glacsweb_sim::{EventWheel, SimDuration, SimTime};
//!
//! let start = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
//! let mut queue = EventWheel::new();
//! queue.push(start + SimDuration::from_hours(12), "midday window");
//! queue.push(start + SimDuration::from_mins(30), "battery sample");
//!
//! let (t, what) = queue.pop().expect("queue is non-empty");
//! assert_eq!(what, "battery sample");
//! assert_eq!(t.seconds_of_day(), 30 * 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config_error;
#[cfg(test)]
mod event;
pub mod plot;
mod rng;
mod series;
mod time;
pub mod units;
mod wheel;

pub use config_error::ConfigError;
pub use rng::SimRng;
pub use series::{SeriesStats, TimeSeries};
pub use time::{CivilDate, SimDuration, SimTime};
pub use units::{AmpHours, Amps, BitsPerSecond, Bytes, Celsius, Volts, WattHours, Watts};
pub use wheel::EventWheel;
