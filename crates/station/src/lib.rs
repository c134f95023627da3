//! The Glacsweb station controller — the paper's primary contribution.
//!
//! A *station* (base station on the glacier, or dGPS reference station at
//! the café) is a Gumsense board: an always-on MSP430 that samples the
//! battery every thirty minutes, keeps the schedule and switches power
//! rails, plus a Gumstix ARM Linux computer powered only for the daily
//! midday-UTC communications window.
//!
//! This crate implements, faithfully to the paper:
//!
//! * **Table II** — the four-level adaptive power-state policy driven by
//!   the daily average battery voltage ([`PowerState`], [`PolicyTable`]);
//! * **Fig 4** — the daily-run flowchart: probe jobs → MSP readings →
//!   local power state → GPS files → package → upload state → upload data
//!   → fetch override → fetch/execute special ([`Station::on_window`]);
//! * the **2-hour watchdog** bounding every run (§VI), including the
//!   documented ordering bug where a backlogged upload starves the special
//!   command ([`ControllerConfig::special_before_upload`]);
//! * **§IV** — automatic schedule resetting after total power loss: RTC
//!   reset detection, GPS time re-sync with a sleep-a-day retry, optional
//!   NTP-over-GPRS fallback, restart in state 0 ([`recovery`]);
//! * **§VI** — remote code updates verified with an MD5 checksum
//!   (implemented from scratch in [`md5`]) and acknowledged immediately
//!   via HTTP GET, because the deployed `wget` had no POST support;
//! * server-mediated power-state synchronisation through the [`Uplink`]
//!   trait, with the local clamping rules (never above what the battery
//!   allows, never forced to state 0).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod data;
mod log;
pub mod md5;
mod power_state;
pub mod recovery;
mod schedule;
mod station;
mod uplink;

pub use controller::{ControllerConfig, TraceLevel, WindowReport, WindowStep, WindowSteps};
pub use data::{DataStore, FileKind, FilePayload, PendingFile};
pub use power_state::{PolicyTable, PowerState};
pub use schedule::Schedule;
pub use station::{CommsPath, Station, StationConfig, StationRole, StationStatus};
pub use uplink::{CodeUpdate, SpecialCommand, SpecialResult, StationId, Uplink, UploadItem};
