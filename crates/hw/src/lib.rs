//! Hardware device models for the Gumsense platform.
//!
//! Each model captures the *behavioural* parameters the paper reports
//! (Table I power and transfer rates, the ~165 KB dGPS reading, the 2-hour
//! watchdog, the volatile MSP430 schedule RAM and resettable RTC) behind a
//! small API that the station controller drives. A port to real hardware
//! would re-implement these types against actual device drivers; nothing
//! in `glacsweb-station` would change.
//!
//! # Table I
//!
//! | Device | Transfer rate | Power |
//! |---|---|---|
//! | Gumstix | — | 900 mW |
//! | GPRS modem | 5 000 bps | 2 640 mW |
//! | Radio modem | 2 000 bps | 3 960 mW |
//! | GPS | — | 3 600 mW |
//!
//! Those constants live in [`table1`] and are the single source of truth
//! for every crate in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
mod dgps;
mod gumstix;
mod modem;
mod msp430;
mod sensors;
mod storage;
pub mod table1;
mod watchdog;

pub use dgps::{common_mode_error_m, DGps, GpsFile};
pub use gumstix::{Gumstix, GumstixState};
pub use modem::{GprsModem, RadioModem};
pub use msp430::Msp430;
pub use sensors::{BaseSensors, SensorReading};
pub use storage::{CfCard, FileKind, FileName, StorageError, StoredFile};
pub use watchdog::Watchdog;
