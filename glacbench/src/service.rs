//! `service`: a fleet wake trace (40 × 256 stations, 2 days) expanded
//! to its request script and replayed with `glacsweb_service::replay`
//! against `HttpServer` on loopback, once in lockstep (pass L, latency)
//! and once pipelined (pass P, throughput), each pass on a fresh core.
//! A traced repetition also replays the script straight into
//! `FleetCore` and through `serve_stream` over in-memory streams.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

use glacsweb_fleet::{FleetConfig, WakeTrace};
use glacsweb_service::core::{update_md5_hex, update_name, update_payload};
use glacsweb_service::{
    replay, script_from_trace, serve_stream, Action, ConnBuffers, FleetCore, HttpServer,
    ReplayConfig, Script, ServerConfig,
};

use crate::{pinned, repeat, secs, Checks, Measured, Options, Samples, Size};

/// Mutex shards of every core.
const SHARDS: usize = 32;

/// The two replay passes: name and pipeline depth.
const PASSES: [(&str, usize); 2] = [("L", 1), ("P", 8)];

/// `(sites, stations per site, days)`.
fn scale(size: Size) -> (u32, u32, u64) {
    match size {
        Size::Full => (40, 256, 2),
        Size::Smoke => (2, 16, 1),
    }
}

/// Requests on each connection under the replay's pair affinity (pair
/// `p` rides connection `p % clients`).
fn per_connection(script: &Script, clients: usize) -> Vec<Vec<usize>> {
    let n = clients.max(1);
    let mut parts = vec![Vec::new(); n];
    for (i, step) in script.steps.iter().enumerate() {
        parts[((step.station / 2) % n as u64) as usize].push(i);
    }
    parts
}

/// Mean of the values after dropping the lowest and highest when there
/// are at least four. The replay reports whole microseconds, so a
/// median over repetitions would mostly repeat one integer.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 4 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// The service workload.
pub fn run(opts: &Options) -> Measured {
    let (sites, per_site, days) = scale(opts.size);
    let config = FleetConfig::new(sites, per_site).seed(opts.seed);
    let clients = opts.threads;
    let want = opts.expect_digest.or(match opts.size {
        Size::Full => pinned::service(opts.seed),
        Size::Smoke => None,
    });
    let mut m = Measured {
        connections: clients,
        pipeline: "1 (pass L), 8 (pass P)",
        ..Measured::default()
    };
    let mut reference: Option<u64> = None;
    let (mut p50s, mut p99s, mut requests) = (Vec::new(), Vec::new(), 0u64);
    // Peak RSS after the first pass. The second pass adds anywhere from
    // 1.5 to 10 MiB from one run to the next, depending on how the
    // allocator reuses the first pass's freed memory.
    let mut rss = 0.0;

    repeat(opts, 1, |index, traced| {
        let samples = if traced { &mut m.traced } else { &mut m.plain };
        let t = Instant::now();
        let trace = WakeTrace::derive(&config, days).expect("valid service fleet config");
        let trace_s = secs(t);
        let t = Instant::now();
        let script = script_from_trace(&trace, true);
        let script_s = secs(t);
        let steps = script.steps.len() as u64;
        let max_conn = per_connection(&script, clients)
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0);
        samples.add("service.requests", steps as f64);
        samples.add("service.max_conn_requests", max_conn as f64);
        if traced {
            samples.add("fleet.trace_ms", trace_s * 1e3);
            samples.add("service.script_ms", script_s * 1e3);
        }

        let mut pass_l_p50 = None;
        for (pass, pipeline) in PASSES {
            let t = Instant::now();
            let core =
                Arc::new(FleetCore::new(trace.stations, SHARDS).expect("valid service core"));
            core.stage_updates();
            let core_s = secs(t);
            let t = Instant::now();
            let server = HttpServer::start(
                Arc::clone(&core),
                &ServerConfig {
                    workers: clients,
                    ..ServerConfig::default()
                },
            );
            let bind_s = secs(t);
            if traced {
                samples.add("service.core_build_ms", core_s * 1e3);
                samples.add("service.bind_ms", bind_s * 1e3);
            } else {
                samples.add("setup_s", trace_s + script_s + core_s + bind_s);
            }
            let server = match server {
                Ok(s) => s,
                Err(e) => {
                    m.checks
                        .fail(steps, format!("service pass {pass}: server start: {e}"));
                    continue;
                }
            };
            let outcome = replay(
                server.addr(),
                &script,
                &ReplayConfig {
                    clients,
                    pipeline,
                    batch_checkins: false,
                    keep_transcript: false,
                },
            );
            server.shutdown();
            if index == 0 && pass == "L" {
                rss = crate::peak_rss_mb();
            }
            let o = match outcome {
                Ok(o) => o,
                Err(e) => {
                    // `replay` gives up on the first unanswered request
                    // and keeps no transcript, so none of the pass's
                    // requests can be counted as answered correctly.
                    m.checks.fail(
                        steps,
                        format!("service repetition {index} pass {pass}: {e}"),
                    );
                    continue;
                }
            };
            // Without a pinned value the first pass is only the
            // reference, and is not counted as checked.
            match reference {
                None => {
                    if let Some(w) = want {
                        m.checks
                            .expect(steps, "service transcript FNV", o.transcript_fnv, w);
                    }
                    m.digests.push(("service.transcript_fnv", o.transcript_fnv));
                    reference = Some(o.transcript_fnv);
                }
                Some(r) => m.checks.expect(
                    steps,
                    &format!("service repetition {index} pass {pass} transcript FNV"),
                    o.transcript_fnv,
                    r,
                ),
            }
            if pass == "L" {
                pass_l_p50 = Some(o.latency.p50_us as f64);
                if traced {
                    samples.add_n("service.p99_us", o.latency.p99_us as f64, o.requests);
                } else {
                    p50s.push(o.latency.p50_us as f64);
                    p99s.push(o.latency.p99_us as f64);
                    requests += o.requests;
                }
            } else {
                samples.add("throughput_per_s", o.requests_per_sec);
            }
        }

        if traced {
            core_layer(samples, &mut m.checks, &script);
            let request_ns = http_layer(samples, &mut m.checks, &script, clients);
            if let Some(p50) = pass_l_p50 {
                samples.add("service.wire_us", p50 - request_ns / 1e3);
            }
        }
    });
    m.plain.add("peak_rss_mb", rss);
    if !p50s.is_empty() {
        m.plain.add_n("op_p50_us", trimmed_mean(&p50s), requests);
        m.plain.add_n("op_p99_us", trimmed_mean(&p99s), requests);
    }
    m
}

/// The staged update's `(file, md5 hex)` a correct station acks.
fn staged_update(station: u64) -> (String, String) {
    (
        update_name(station),
        update_md5_hex(&update_payload(station)),
    )
}

/// Replays the script's steps in order straight into a fresh
/// `FleetCore` on one thread, timing each call by kind.
fn core_layer(samples: &mut Samples, checks: &mut Checks, script: &Script) {
    let core = FleetCore::new(script.stations, SHARDS).expect("valid service core");
    core.stage_updates();
    let mut fetched: BTreeMap<u64, (String, String)> = BTreeMap::new();
    // checkin, state, override, update, ack: (seconds, calls)
    let mut spent = [(0.0f64, 0u64); 5];
    let mut errors = 0u64;
    for step in &script.steps {
        let (s, at) = (step.station, step.at);
        let t = Instant::now();
        let (kind, ok) = match step.action {
            Action::CheckIn { soc } => (0, core.check_in(s, at, soc).is_ok()),
            Action::StateReport { level } => (1, core.report_state(s, at, level).is_ok()),
            Action::OverrideQuery => (2, core.override_for(s, at).is_ok()),
            Action::UpdateFetch => {
                let update = core.update_for(s, at);
                let elapsed = secs(t);
                spent[3].0 += elapsed;
                spent[3].1 += 1;
                match update {
                    Ok(Some(u)) => {
                        fetched.insert(s, (u.name, update_md5_hex(&u.payload)));
                    }
                    _ => errors += 1,
                }
                continue;
            }
            Action::UpdateAck => match fetched.get(&s) {
                Some((file, md5)) => (4, core.ack_update(s, at, file, md5) == Ok(true)),
                None => (4, false),
            },
        };
        spent[kind].0 += secs(t);
        spent[kind].1 += 1;
        errors += u64::from(!ok);
    }
    checks.expect(
        script.steps.len() as u64,
        "direct FleetCore calls that erred",
        errors,
        0,
    );
    let names = [
        "service.core.checkin_ns",
        "service.core.state_ns",
        "service.core.override_ns",
        "service.core.update_ns",
        "service.core.ack_ns",
    ];
    for (name, (s, n)) in names.into_iter().zip(spent) {
        if n > 0 {
            samples.add_n(name, s * 1e9 / n as f64, n);
        }
    }
}

/// An in-memory connection: reads a request buffer, counts response
/// bytes.
struct MemStream {
    input: Vec<u8>,
    at: usize,
    written: u64,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.input[self.at..];
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written += buf.len() as u64;
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves each connection's request bytes (the replay's pair affinity
/// and request bytes) through `serve_stream` on a fresh core, one
/// connection after another; returns nanoseconds per request.
fn http_layer(samples: &mut Samples, checks: &mut Checks, script: &Script, clients: usize) -> f64 {
    let inputs: Vec<Vec<u8>> = per_connection(script, clients)
        .into_iter()
        .map(|indices| {
            let mut bytes = Vec::new();
            for i in indices {
                append_request(&mut bytes, &script.steps[i]);
            }
            bytes
        })
        .collect();
    let core = FleetCore::new(script.stations, SHARDS).expect("valid service core");
    core.stage_updates();
    let config = ServerConfig::default();
    let mut conn = ConnBuffers::default();
    let (mut spent, mut served) = (0.0, 0u64);
    for input in inputs {
        let mut stream = MemStream {
            input,
            at: 0,
            written: 0,
        };
        let t = Instant::now();
        let stats = serve_stream(&mut stream, &core, &config, &mut conn);
        spent += secs(t);
        served += stats.requests;
        std::hint::black_box(stream.written);
    }
    let steps = script.steps.len() as u64;
    // Requests past the per-connection cap go unanswered.
    checks.expect(steps, "in-memory HTTP requests answered", served, steps);
    let ns = spent * 1e9 / served.max(1) as f64;
    samples.add_n("service.http.request_ns", ns, served);
    ns
}

/// The exact request bytes `replay` sends for one step.
fn append_request(out: &mut Vec<u8>, step: &glacsweb_service::Step) {
    let (s, at) = (step.station, step.at.unix());
    let (method, target) = match step.action {
        Action::CheckIn { soc } => (
            "POST",
            format!("/api/checkin?station={s}&at={at}&soc={soc}"),
        ),
        Action::StateReport { level } => (
            "POST",
            format!("/api/state?station={s}&at={at}&level={level}"),
        ),
        Action::OverrideQuery => ("GET", format!("/api/override?station={s}&at={at}")),
        Action::UpdateFetch => ("GET", format!("/api/update?station={s}&at={at}")),
        Action::UpdateAck => {
            let (file, md5) = staged_update(s);
            (
                "POST",
                format!("/api/ack?station={s}&at={at}&file={file}&md5={md5}"),
            )
        }
    };
    let extra = if method == "POST" {
        "Content-Length: 0\r\n"
    } else {
        ""
    };
    out.extend_from_slice(
        format!("{method} {target} HTTP/1.1\r\nHost: glacsweb\r\n{extra}\r\n").as_bytes(),
    );
}
