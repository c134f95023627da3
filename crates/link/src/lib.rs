//! Lossy communication channels for the Glacsweb reproduction.
//!
//! Three links matter in the paper:
//!
//! * the **probe radio** through up to 70 m of ice, whose loss rate is
//!   coupled to ice wetness ("radio communication with the probes is
//!   better in the winter due to the drier ice conditions") — the §V
//!   numbers are ~400 packets missed out of 3000 across the wet summer
//!   link ([`ProbeRadioLink`]);
//! * the per-station **GPRS** uplink, a session-oriented, paid-per-MB,
//!   dropout-prone channel ([`GprsLink`], [`DataCostMeter`]);
//! * the abandoned **PPP over long-range radio modem** inter-station link,
//!   "very unreliable with frequent drop outs and a very low data rate",
//!   whose reliability "was affected by the time of day which implies that
//!   the problems were caused by local interference" ([`PppRadioLink`]).
//!
//! All models are deterministic functions of a [`SimRng`](glacsweb_sim::SimRng)
//! stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod gprs;
mod loss;
mod ppp;
mod probe_radio;
mod wan;

pub use cost::DataCostMeter;
pub use gprs::{GprsConfig, GprsLink, TransferOutcome};
pub use loss::LossModel;
pub use ppp::{DisconnectReason, PppRadioLink};
pub use probe_radio::{BatchResult, ProbeRadioLink, PROBE_RX_POWER};
pub use wan::{RelayWanLink, Wan};
