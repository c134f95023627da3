//! Pins the north-star service replay: the benchmark's script (40 × 256
//! stations, 2 days, seed 2010, code updates on) replayed pipelined
//! against a loopback server must issue 116,148 requests and digest to
//! the transcript FNV every build has produced since the replay harness
//! was written. A change to any request or response byte moves it.
//! After the replay the core's telemetry export and both analytics
//! bodies are pinned too: the other replay checks compare runs with
//! each other, so a change that moved them the same way in every run
//! would pass those.

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

    let telemetry = fnv1a(core.telemetry_ndjson().as_bytes());
    // The bodies the `/api/analytics/{states,battery}` routes serve.
    let mut states = String::new();
    core.power_counts().write_json(&mut states);
    let mut battery = String::new();
    core.soc_histogram().write_json(&mut battery);
    let (states, battery) = (fnv1a(states.as_bytes()), fnv1a(battery.as_bytes()));
    assert_eq!(
        (telemetry, states, battery),
        (
            0x79be_93fa_626e_9595,
            0xe85f_8892_760c_fad1,
            0x4e1f_6a13_7b68_cda7
        ),
        "telemetry {telemetry:#018x}, states {states:#018x}, battery {battery:#018x}"
    );
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
