//! The fold and the kept transcript are one digest: for every client
//! count and pipeline depth, a replay that keeps no transcript reports
//! the digest of one that does, and that digest is the FNV-1a of the
//! kept bytes.

use std::sync::Arc;
use std::time::Duration;

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::{
    replay, script_from_trace, FleetCore, HttpServer, ReplayConfig, ReplayOutcome, Script,
    ServerConfig,
};

/// FNV-1a, 64-bit: the transcript digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(script: &Script, clients: usize, pipeline: usize, keep_transcript: bool) -> ReplayOutcome {
    let core = Arc::new(FleetCore::new(script.stations, 4).expect("valid core"));
    core.stage_updates();
    let server = HttpServer::start(
        Arc::clone(&core),
        &ServerConfig {
            workers: clients,
            read_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let outcome = replay(
        server.addr(),
        script,
        &ReplayConfig {
            clients,
            pipeline,
            batch_checkins: false,
            keep_transcript,
        },
    );
    server.shutdown();
    outcome.expect("replay")
}

#[test]
fn the_folded_digest_is_the_digest_of_the_kept_transcript() {
    // Long enough that every client fills and hands over many chunks.
    let trace = WakeTrace::derive(&FleetConfig::new(4, 32).seed(2011), 2).expect("valid config");
    let script = script_from_trace(&trace, true);
    let mut digests = Vec::new();
    for clients in [1, 2, 3, 5] {
        for pipeline in [1, 8] {
            let folded = run(&script, clients, pipeline, false);
            let kept = run(&script, clients, pipeline, true);
            let transcript = kept.transcript.expect("kept transcript");
            assert_eq!(folded.transcript, None, "nothing kept unless asked");
            assert_eq!(folded.requests, script.steps.len() as u64);
            assert_eq!(
                folded.transcript_fnv, kept.transcript_fnv,
                "clients {clients}, pipeline {pipeline}: folded and kept digests"
            );
            assert_eq!(
                kept.transcript_fnv,
                fnv1a(&transcript),
                "clients {clients}, pipeline {pipeline}: the digest of the kept bytes"
            );
            digests.push(folded.transcript_fnv);
        }
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "one digest at every client count and depth: {digests:x?}"
    );
}
