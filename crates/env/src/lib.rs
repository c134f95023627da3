//! Synthetic glacier environment for the Glacsweb reproduction.
//!
//! The paper's field deployment sits on Vatnajökull at roughly 64° N. Every
//! behaviour the paper evaluates is driven by the environment:
//!
//! * battery charging follows **solar elevation** (diurnal voltage peaks at
//!   midday in Fig 5) and **wind**, both of which collapse in winter;
//! * **snow** buries the solar panel and wind generator and damaged the
//!   original antenna mounting (§II);
//! * the **melt-water index** controls probe radio loss ("radio
//!   communication with the probes is better in the winter due to the drier
//!   ice"), the end-of-winter **conductivity** rise of Fig 6, and subglacial
//!   water pressure;
//! * subglacial water pressure modulates **stick-slip glacier motion**,
//!   which is what the dGPS pipeline exists to measure;
//! * the **café mains supply** at the reference station only exists during
//!   the tourist season (April–September).
//!
//! [`Environment`] composes all of these behind one deterministic,
//! seed-reproducible façade. Deterministic components (solar geometry,
//! seasonal means, café season) are pure functions of time; stochastic ones
//! (cloud, wind gusts, storms, slip events) are advanced on a fixed internal
//! tick by [`Environment::advance_to`].
//!
//! # Example
//!
//! ```
//! use glacsweb_env::{EnvConfig, Environment};
//! use glacsweb_sim::SimTime;
//!
//! let midsummer_noon = SimTime::from_ymd_hms(2009, 6, 21, 12, 0, 0);
//! let midwinter_noon = SimTime::from_ymd_hms(2009, 12, 21, 12, 0, 0);
//! let mut env = Environment::new(EnvConfig::vatnajokull(), 42);
//! env.advance_to(midsummer_noon);
//! let summer_sun = env.solar_factor(midsummer_noon);
//! assert!(summer_sun > 0.2, "high sun at midsummer noon");
//! let mut env2 = Environment::new(EnvConfig::vatnajokull(), 42);
//! env2.advance_to(midwinter_noon);
//! assert!(env2.solar_factor(midwinter_noon) < summer_sun);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cafe;
mod config;
mod daycache;
mod environment;
mod hydrology;
mod motion;
mod snow;
mod solar;
pub mod stepcache;
mod temperature;
mod wind;

pub use cafe::cafe_mains_available;
pub use config::EnvConfig;
pub use environment::{Environment, Season, SolarSpan};
pub use hydrology::Hydrology;
pub use motion::GlacierMotion;
pub use snow::SnowPack;
pub use solar::{solar_elevation_deg, SolarModel};
pub use temperature::TemperatureModel;
pub use wind::WindModel;
