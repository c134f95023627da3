//! Fleet-scale simulation kernel for the Glacsweb reproduction.
//!
//! The paper deploys a handful of Gumsense nodes on one glacier; the
//! design space it opens — base-station hopping to equalise drain,
//! harvest-aware adaptive duty cycling — only matters at many-station
//! scale. This crate grows the reproduction from the two-station
//! [`Deployment`](https://docs.rs/glacsweb) world to **N sites × M
//! stations** (100k+ stations) while keeping the workspace's
//! reproducibility contract: same seed → bit-identical telemetry and
//! summaries, at any thread count, with or without leaping.
//!
//! # Architecture
//!
//! * **Struct-of-arrays station state** ([`Site`]): each per-station
//!   field (battery, RNG stream, microclimate anomaly, schedule cursor)
//!   lives in its own column vector, so batch advancing sweeps cache
//!   lines instead of chasing pointers through 100k station objects.
//! * **Per-site event wheels**: sites are fully independent — their own
//!   [`EventWheel`](glacsweb_sim::EventWheel), climate, storm timeline
//!   and RNG streams — so the fleet shards site-by-site across the
//!   [`glacsweb_sweep`] thread pool with an index-ordered merge.
//! * **Quiescent-station leaping**: a sleeping station whose next event
//!   is its own wake-up is advanced over the whole sleep window in one
//!   step. Its sleep trajectory is *defined* by closed forms anchored at
//!   the segment start — a [`SleepGlide`](glacsweb_power::SleepGlide)
//!   for the battery and
//!   [`OuStepCache::decay_pow`](glacsweb_env::OuStepCache::decay_pow)
//!   for the microclimate anomaly — and every wake retires a fixed
//!   number of raw draws, topped up with
//!   [`SimRng::skip_raw`](glacsweb_sim::SimRng::skip_raw). The per-tick
//!   path and the leap evaluate the same expressions at different `k`,
//!   so leaping is **bit-identical** to ticking by construction
//!   (asserted by this crate's equivalence tests).
//!
//! # Quick start
//!
//! ```
//! use glacsweb_fleet::{Fleet, FleetConfig};
//!
//! // Ten glaciers, fifty stations each, one simulated week.
//! let config = FleetConfig::new(10, 50).seed(2008);
//! let mut fleet = Fleet::new(config).expect("valid config");
//! fleet.run_days(7);
//! let summary = fleet.summary();
//! assert_eq!(summary.stations, 500);
//! assert!(summary.comms_windows() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod fleet;
mod kernel;
mod site;
mod trace;

pub use config::{FleetConfig, FleetConfigError};
pub use fleet::{ExecStats, Fleet, FleetState, FleetSummary, SiteSummary};
pub use site::{Site, SiteEvent, Tier, KIND_COMMS, KIND_OVERRIDE, KIND_SAMPLE, TICK};
pub use trace::{WakeEntry, WakeTrace};
