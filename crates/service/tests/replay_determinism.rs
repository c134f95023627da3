//! The tentpole contract: a fixed-seed fleet replay produces a
//! byte-identical transcript and telemetry export across runs *and*
//! across client counts — only the wall-clock measurements may differ.
//! Pipelining depth is part of that contract (it changes when bytes hit
//! the wire, never which bytes); check-in batching preserves analytics
//! and telemetry while necessarily changing the transcript.

use std::sync::Arc;
use std::time::Duration;

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::http::{HttpServer, ServerConfig};
use glacsweb_service::load::{replay, script_from_trace, ReplayConfig};
use glacsweb_service::FleetCore;

struct RunOut {
    transcript: Vec<u8>,
    fnv: u64,
    telemetry: String,
    states_json: String,
    battery_json: String,
    requests: u64,
    steps: u64,
}

/// One full boot + replay with the given client topology.
fn run(clients: usize, shards: usize, workers: usize, pipeline: usize, batch: bool) -> RunOut {
    let config = FleetConfig::new(2, 8).seed(2009);
    let trace = WakeTrace::derive(&config, 2).expect("valid config");
    let script = script_from_trace(&trace, true);
    assert!(!script.steps.is_empty());

    let core = Arc::new(FleetCore::new(trace.stations, shards).expect("valid core"));
    core.stage_updates();
    let server = HttpServer::start(
        Arc::clone(&core),
        &ServerConfig {
            workers: workers.max(clients),
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let outcome = replay(
        server.addr(),
        &script,
        &ReplayConfig {
            clients,
            pipeline,
            batch_checkins: batch,
            keep_transcript: true,
        },
    )
    .expect("replay");
    let telemetry = core.telemetry_ndjson();
    let mut states_json = String::new();
    core.power_counts().write_json(&mut states_json);
    let mut battery_json = String::new();
    core.soc_histogram().write_json(&mut battery_json);
    server.shutdown();
    RunOut {
        transcript: outcome.transcript.expect("kept transcript"),
        fnv: outcome.transcript_fnv,
        telemetry,
        states_json,
        battery_json,
        requests: outcome.requests,
        steps: script.steps.len() as u64,
    }
}

#[test]
fn byte_identical_across_runs_and_client_counts() {
    let a = run(2, 4, 4, 1, false);
    let b = run(2, 4, 4, 1, false);
    assert_eq!(a.requests, a.steps, "unbatched replay covers every step");
    assert_eq!(a.fnv, b.fnv, "same config, same digest");
    assert_eq!(a.transcript, b.transcript, "same config, same transcript");
    assert_eq!(a.telemetry, b.telemetry, "same config, same telemetry");

    // A different client count, shard count, and worker count changes
    // the interleaving completely — and nothing observable.
    let c = run(5, 2, 8, 1, false);
    assert_eq!(a.fnv, c.fnv, "client/shard/worker counts never leak");
    assert_eq!(a.transcript, c.transcript);
    assert_eq!(a.telemetry, c.telemetry);
}

#[test]
fn pipelining_depth_never_changes_a_byte() {
    let lockstep = run(3, 4, 4, 1, false);
    for depth in [2, 8, 32] {
        let piped = run(3, 4, 4, depth, false);
        assert_eq!(piped.requests, piped.steps);
        assert_eq!(
            lockstep.transcript, piped.transcript,
            "pipeline depth {depth} changed the transcript"
        );
        assert_eq!(lockstep.fnv, piped.fnv);
        assert_eq!(
            lockstep.telemetry, piped.telemetry,
            "pipeline depth {depth} changed the telemetry"
        );
    }
}

#[test]
fn batching_preserves_analytics_and_telemetry() {
    let plain = run(3, 4, 4, 1, false);
    let batched = run(3, 4, 4, 4, true);
    assert!(
        batched.requests < batched.steps,
        "batching coalesced nothing ({} requests for {} steps)",
        batched.requests,
        batched.steps
    );
    assert_eq!(plain.states_json, batched.states_json);
    assert_eq!(plain.battery_json, batched.battery_json);
    assert_eq!(
        plain.telemetry, batched.telemetry,
        "batched check-ins record per-entry, so telemetry is identical"
    );
    assert_ne!(
        plain.transcript, batched.transcript,
        "the batched transcript legitimately differs"
    );
    let text = String::from_utf8(batched.transcript).expect("transcripts are text");
    assert!(text.contains("POST /api/checkin-batch 200\nok batch="));

    // Batched replay is still deterministic in itself.
    let again = run(3, 4, 4, 4, true);
    assert_eq!(batched.fnv, again.fnv);
}

#[test]
fn transcript_covers_every_endpoint_kind() {
    let out = run(3, 4, 4, 1, false);
    let text = String::from_utf8(out.transcript).expect("transcripts are text");
    for needle in [
        "POST /api/checkin?",
        "POST /api/state?",
        "GET /api/override?",
        "GET /api/update?",
        "POST /api/ack?",
        "verified=true",
    ] {
        assert!(text.contains(needle), "transcript misses {needle}");
    }
    assert!(
        !text.contains("verified=false"),
        "every MD5 receipt verifies in a clean replay"
    );
    for needle in ["checkins", "state_reports", "update_acks_verified"] {
        assert!(out.telemetry.contains(needle), "telemetry misses {needle}");
    }
}
