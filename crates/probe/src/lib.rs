//! Subglacial probes and the reading-retrieval protocol.
//!
//! The Glacsweb probes sit ~70 m under the ice surface (§I), sampling
//! conductivity, pressure and orientation, and buffering readings until
//! the base station queries them during the daily window. This crate
//! models:
//!
//! * the probe **firmware** — sampling, ring-buffer storage, and the
//!   probe-side half of the transfer protocol, including the crucial §V
//!   property that "the task was not marked as complete in the probes; so
//!   many missing readings were obtained in subsequent days"
//!   ([`ProbeFirmware`]);
//! * **sensing** — per-probe conductivity/pressure/tilt signals derived
//!   from the shared hydrology so Fig 6 regenerates ([`ProbeSensing`]);
//! * **mortality** — a Weibull wear-out model calibrated to the paper's
//!   survival record: 4/7 probes alive after one year, 2 producing data
//!   after 18 months ([`MortalityModel`]);
//! * the base-side **protocol** — the §V NACK-based bulk fetch ("avoiding
//!   acknowledge packets… records missing or broken data packets then
//!   later requests individual readings which were missed, unless there
//!   were so many that it would be as efficient to request them all
//!   again"), plus a classic stop-and-wait ACK protocol as the ablation
//!   baseline ([`FetchSession`], [`AckFetchSession`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod firmware;
mod mortality;
mod protocol;
mod reading;
mod sensing;
mod seqruns;

pub use firmware::{ProbeFirmware, ProbeId};
pub use mortality::MortalityModel;
pub use protocol::{AckFetchSession, FetchOutcome, FetchSession, ProtocolConfig};
pub use reading::ProbeReading;
pub use sensing::ProbeSensing;
