//! Networked front end for the Glacsweb coordination server.
//!
//! The paper's §III server is a set of CGI scripts in Southampton that
//! the stations hit over GPRS once a day: upload the local power state,
//! read back the pair-minimum override, fetch staged code updates, and
//! acknowledge them with an MD5 receipt. In the reproduction that
//! protocol has so far been a pure in-process function call
//! ([`glacsweb_server::SouthamptonServer`]); this crate puts it behind a
//! real socket so it can be load-tested the way a fleet would hit it.
//!
//! # Architecture
//!
//! * [`FleetCore`] ([`core`]) — the decision state: fleet stations are
//!   grouped into §III pairs (station `2p` is pair `p`'s base, `2p + 1`
//!   its reference), each station holding one small record decided by
//!   the same [`StateSync`](glacsweb_server::StateSync) rules the
//!   in-process server runs. Pairs are sharded across a fixed number of
//!   mutexes, each shard carrying its own
//!   [`MemoryRecorder`](glacsweb_obs::MemoryRecorder); merging shard
//!   recorders in index order makes the `/api/telemetry` NDJSON a pure
//!   function of the requests served, independent of scheduling.
//! * [`HttpServer`] ([`http`]) — a hand-rolled HTTP/1.1 listener on
//!   `std::net::TcpListener` with a fixed pool of worker threads
//!   (consistent with the workspace's vendored-deps policy: no tokio,
//!   no hyper). Keep-alive, bounded header/body sizes, and typed error
//!   responses; malformed input can never panic the server (this crate
//!   is in `glacsweb-analyze`'s panic-freedom scope).
//! * [`load`] — the deterministic replay harness: a
//!   [`WakeTrace`](glacsweb_fleet::WakeTrace) derived from a fleet
//!   config expands to a canonical request sequence (compressed time:
//!   requests carry their *sim* timestamps and replay flat out), pairs
//!   get connection affinity, and the transcript is folded in
//!   canonical order — byte-identical across runs **and** connection
//!   counts.
//!
//! # Determinism boundary
//!
//! The simulation's bit-reproducibility contract does not extend to
//! this crate's wall-clock measurements: request latencies and
//! requests/sec are real time and vary run to run. What *is* pinned is
//! the payload surface — the request sequence, every response body, and
//! the exported telemetry — because all of it is derived from sim time
//! and per-pair state. CI asserts exactly that split.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod http;
pub mod load;

pub use crate::core::{FleetCore, PowerCounts, SocHistogram};
pub use crate::http::{
    push_hex, push_u64, serve_stream, ConnBuffers, ConnStats, HttpError, HttpServer, Request,
    ResponseWriter, ServerConfig,
};
pub use crate::load::{
    replay, script_from_trace, Action, LatencyStats, ReplayConfig, ReplayOutcome, Script, Step,
};
