//! Concurrent-client torture: the front end must survive hostile and
//! broken peers — garbage bytes, oversized requests, partial writes,
//! mid-request disconnects, stalls — without panicking, and keep
//! serving well-formed traffic throughout.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use glacsweb_service::http::{HttpServer, ServerConfig};
use glacsweb_service::load::http_get;
use glacsweb_service::FleetCore;

fn boot(workers: usize) -> (Arc<FleetCore>, HttpServer) {
    let core = Arc::new(FleetCore::new(8, 2).expect("valid core"));
    core.stage_updates();
    let server = HttpServer::start(
        Arc::clone(&core),
        &ServerConfig {
            workers,
            max_header_bytes: 1024,
            max_body_bytes: 2048,
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    (core, server)
}

/// Sends raw bytes, returns whatever the server answers (may be empty
/// if it just closes).
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let _ = s.write_all(bytes);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    text.split(' ').nth(1).and_then(|s| s.parse().ok())
}

#[test]
fn typed_errors_for_every_malformed_shape() {
    let (_core, server) = boot(2);
    let addr = server.addr();

    let cases: Vec<(&[u8], u16, &str)> =
        vec![
        (b"NONSENSE\r\n\r\n", 400, "error=bad-request-line"),
        (b"GET /api/override HTTP/9.9\r\n\r\n", 400, "error=bad-request-line"),
        (b"GET /no/such/path HTTP/1.1\r\n\r\n", 404, "error=not-found"),
        (b"DELETE /api/checkin HTTP/1.1\r\n\r\n", 405, "error=method-not-allowed"),
        (b"GET /api/override?station=weird HTTP/1.1\r\n\r\n", 400, "error=bad-param"),
        (
            b"GET /api/override?station=9999&at=0 HTTP/1.1\r\n\r\n",
            404,
            "error=unknown-station",
        ),
        (b"POST /api/checkin?station=0&at=0&soc=1 HTTP/1.1\r\n\r\n", 411, "error=length-required"),
        (b"GET / HTTP/1.1\r\nBroken header line\r\n\r\n", 400, "error=bad-header"),
        (
            b"POST /api/ack HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
            400,
            "error=conflicting-length",
        ),
        (
            b"POST /api/checkin-batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            501,
            "error=transfer-encoding",
        ),
        (
            b"POST /api/checkin?station=0&at=0&soc=1 HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            413,
            "error=body-too-large",
        ),
    ];
    for (bytes, status, token) in cases {
        let response = raw_exchange(addr, bytes);
        let text = String::from_utf8_lossy(&response);
        assert_eq!(
            status_of(&response),
            Some(status),
            "request {:?} -> {text}",
            String::from_utf8_lossy(bytes)
        );
        assert!(
            text.contains(token),
            "request {:?} -> {text}",
            String::from_utf8_lossy(bytes)
        );
        assert!(text.contains("Connection: close"), "errors close: {text}");
    }

    // Oversized header block: caps out at 431.
    let mut huge = b"GET /health HTTP/1.1\r\n".to_vec();
    huge.extend(std::iter::repeat_n(b'x', 4096));
    let response = raw_exchange(addr, &huge);
    assert_eq!(status_of(&response), Some(431), "oversized header");

    // The server is still healthy after all that.
    let (status, body) = http_get(addr, "/health").expect("health after abuse");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok stations=8"));
    server.shutdown();
}

#[test]
fn keep_alive_and_pipelining_work() {
    let (_core, server) = boot(2);
    let addr = server.addr();

    // Sequential keep-alive on one connection.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    for _ in 0..3 {
        s.write_all(b"GET /api/override?station=0&at=0 HTTP/1.1\r\n\r\n")
            .expect("write");
        let mut buf = [0u8; 512];
        let n = s.read(&mut buf).expect("read");
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(
            text.contains("200 OK") && text.contains("override=none"),
            "{text}"
        );
    }

    // Two pipelined requests in a single write -> two responses.
    s.write_all(b"GET /health HTTP/1.1\r\n\r\nGET /api/analytics/battery HTTP/1.1\r\n\r\n")
        .expect("write");
    std::thread::sleep(Duration::from_millis(100));
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n) = s.read(&mut buf) {
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
        if out
            .windows(8)
            .filter(|w| w.starts_with(b"HTTP/1.1"))
            .count()
            >= 2
        {
            break;
        }
    }
    let text = String::from_utf8_lossy(&out);
    assert!(text.contains("ok stations=8"), "{text}");
    assert!(text.contains("glacsweb-service/battery-1"), "{text}");
    server.shutdown();
}

#[test]
fn survives_concurrent_hostile_and_valid_clients() {
    let (core, server) = boot(6);
    let addr = server.addr();

    std::thread::scope(|scope| {
        // Valid traffic: four clients hammering real endpoints.
        for client in 0..4u64 {
            scope.spawn(move || {
                for i in 0..50u64 {
                    let station = (client * 2 + i) % 8;
                    let (status, _) = http_get(
                        addr,
                        &format!("/api/override?station={station}&at={}", i * 300),
                    )
                    .expect("valid request");
                    assert_eq!(status, 200);
                }
            });
        }
        // Hostile traffic: garbage, partial writes, disconnects, stalls.
        for chaos in 0..4u64 {
            scope.spawn(move || {
                for i in 0..25u64 {
                    match (chaos + i) % 4 {
                        // Pure garbage bytes.
                        0 => {
                            let _ = raw_exchange(addr, b"\x00\xffgarbage\r\nmore\x01garbage");
                        }
                        // Partial request then hard disconnect.
                        1 => {
                            if let Ok(mut s) = TcpStream::connect(addr) {
                                let _ = s.write_all(b"GET /api/over");
                                drop(s);
                            }
                        }
                        // Declared body never sent: server times out (408).
                        2 => {
                            if let Ok(mut s) = TcpStream::connect(addr) {
                                let _ = s.write_all(
                                    b"POST /api/state?station=0&at=0&level=1 HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
                                );
                                std::thread::sleep(Duration::from_millis(250));
                                drop(s);
                            }
                        }
                        // Open a connection and stall without sending.
                        _ => {
                            if let Ok(s) = TcpStream::connect(addr) {
                                std::thread::sleep(Duration::from_millis(250));
                                drop(s);
                            }
                        }
                    }
                }
            });
        }
    });

    // After the storm the server still answers and has served all the
    // valid traffic.
    let (status, body) = http_get(addr, "/health").expect("health after the storm");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok stations=8"), "{body}");
    assert!(core.requests_served() >= 200, "valid requests all served");
    server.shutdown();
}

#[test]
fn mid_request_disconnect_leaves_no_partial_state() {
    let (core, server) = boot(2);
    let addr = server.addr();

    // A half-written check-in dies on the wire...
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b"POST /api/checkin?station=0&at=0&soc=9");
        drop(s);
    }
    std::thread::sleep(Duration::from_millis(300));
    // ...and must not have landed.
    assert_eq!(
        core.soc_histogram().samples,
        0,
        "aborted request not applied"
    );

    // A complete one still lands.
    let response = raw_exchange(
        addr,
        b"POST /api/checkin?station=0&at=0&soc=900 HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&response), Some(200));
    assert_eq!(core.soc_histogram().samples, 1);
    server.shutdown();
}
