//! Pins the north-star service replay: the benchmark's script (40 × 256
//! stations, 2 days, seed 2010, code updates on) replayed pipelined
//! against a loopback server must issue 116,148 requests and digest to
//! the transcript FNV every build has produced since the replay harness
//! was written. A change to any request or response byte moves it.

use std::sync::Arc;
use std::time::Duration;

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::{
    replay, script_from_trace, FleetCore, HttpServer, ReplayConfig, ServerConfig,
};

#[test]
fn benchmark_replay_digest_is_pinned() {
    let trace = WakeTrace::derive(&FleetConfig::new(40, 256).seed(2010), 2).expect("valid config");
    let script = script_from_trace(&trace, true);
    let core = Arc::new(FleetCore::new(trace.stations, 32).expect("valid core"));
    core.stage_updates();
    let server = HttpServer::start(
        Arc::clone(&core),
        &ServerConfig {
            workers: 2,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let outcome = replay(
        server.addr(),
        &script,
        &ReplayConfig {
            clients: 2,
            pipeline: 8,
            batch_checkins: false,
            keep_transcript: false,
        },
    );
    server.shutdown();
    let outcome = outcome.expect("replay");
    assert_eq!(outcome.requests, 116_148);
    assert_eq!(
        outcome.transcript_fnv, 0x2458_8881_da83_1f45,
        "transcript digest {:#018x}",
        outcome.transcript_fnv
    );
}
