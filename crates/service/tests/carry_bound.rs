//! Regression pin for the carry-buffer bound: a client pipelining
//! thousands of requests on one connection must never grow the carry
//! buffer past the configured request-size caps (compaction, not
//! reallocation), and a single over-cap request must fail with the
//! typed error — never with unbounded buffering. Also pins that how a
//! pipelined stream is split across reads never changes what is served.

use std::io::{Read, Write};
use std::sync::Arc;

use glacsweb_service::{serve_stream, ConnBuffers, FleetCore, ServerConfig};

/// A scripted in-memory connection: `serve_stream` reads the prepared
/// request bytes in bounded chunks (exercising partial reads) and
/// writes its responses into `output`. Read `i` returns at most
/// `chunks[i % chunks.len()]` bytes.
struct MemStream {
    input: Vec<u8>,
    read_at: usize,
    chunks: Vec<usize>,
    reads: usize,
    output: Vec<u8>,
}

impl MemStream {
    fn new(input: Vec<u8>, chunk: usize) -> MemStream {
        MemStream::with_chunks(input, vec![chunk])
    }

    fn with_chunks(input: Vec<u8>, chunks: Vec<usize>) -> MemStream {
        MemStream {
            input,
            read_at: 0,
            chunks,
            reads: 0,
            output: Vec::new(),
        }
    }
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = &self.input[self.read_at..];
        let chunk = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = remaining.len().min(buf.len()).min(chunk);
        buf[..n].copy_from_slice(&remaining[..n]);
        self.read_at += n;
        Ok(n)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn core() -> Arc<FleetCore> {
    Arc::new(FleetCore::new(4, 2).expect("valid core"))
}

#[test]
fn pipelining_thousands_of_requests_keeps_the_carry_bounded() {
    let core = core();
    let config = ServerConfig::default();
    let total = 4000u64;
    let mut input = Vec::new();
    for i in 0..total {
        let station = (i % 4) / 2 * 2; // alternate pairs, base stations
        input.extend_from_slice(
            format!(
                "GET /api/override?station={station}&at=86400 HTTP/1.1\r\nHost: glacsweb\r\n\r\n"
            )
            .as_bytes(),
        );
    }
    let mut stream = MemStream::new(input, 4096);
    let mut conn = ConnBuffers::default();
    let stats = serve_stream(&mut stream, &core, &config, &mut conn);

    assert_eq!(stats.requests, total, "every pipelined request answered");
    let cap = config.max_header_bytes + config.max_body_bytes + 16 * 1024;
    assert!(
        stats.carry_capacity <= cap,
        "carry grew to {} bytes serving {} requests (cap {})",
        stats.carry_capacity,
        total,
        cap
    );
    let text = String::from_utf8(stream.output).expect("responses are text");
    assert_eq!(
        text.matches("HTTP/1.1 200 OK\r\n").count(),
        total as usize,
        "one 200 per pipelined request"
    );
    assert_eq!(text.matches("override=none\n").count(), total as usize);
}

#[test]
fn an_over_cap_header_is_a_typed_431() {
    let core = core();
    let config = ServerConfig::default();
    let mut input = Vec::new();
    input.extend_from_slice(
        b"GET /api/override?station=0&at=86400 HTTP/1.1\r\nHost: glacsweb\r\nX-Pad: ",
    );
    input.extend(std::iter::repeat_n(b'a', config.max_header_bytes + 100));
    input.extend_from_slice(b"\r\n\r\n");
    let mut stream = MemStream::new(input, 4096);
    let mut conn = ConnBuffers::default();
    let stats = serve_stream(&mut stream, &core, &config, &mut conn);

    assert_eq!(stats.requests, 0, "the request was rejected, not served");
    let text = String::from_utf8(stream.output).expect("responses are text");
    assert!(
        text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "got: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(text.contains("error=header-too-large\n"));
    assert!(
        text.contains("Connection: close"),
        "errors close the connection"
    );
}

#[test]
fn an_over_cap_body_is_a_typed_413() {
    let core = core();
    let config = ServerConfig::default();
    let declared = config.max_body_bytes + 1;
    let input = format!(
        "POST /api/checkin-batch HTTP/1.1\r\nHost: glacsweb\r\nContent-Length: {declared}\r\n\r\n"
    )
    .into_bytes();
    let mut stream = MemStream::new(input, 4096);
    let mut conn = ConnBuffers::default();
    let stats = serve_stream(&mut stream, &core, &config, &mut conn);

    assert_eq!(stats.requests, 0);
    let text = String::from_utf8(stream.output).expect("responses are text");
    assert!(
        text.starts_with("HTTP/1.1 413 Content Too Large\r\n"),
        "got: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(text.contains("error=body-too-large\n"));
    // The body is rejected from its declared length alone — the carry
    // never buffers it.
    let cap = config.max_header_bytes + 16 * 1024;
    assert!(stats.carry_capacity <= cap);
}

/// A valid pipelined request stream over every route of a 4-station
/// core, built from `(route, station, value)` triples: check-ins, state
/// reports and batch uploads (with bodies), override and update polls,
/// analytics, telemetry and health reads. Timestamps rise request by
/// request, so every request succeeds and the connection stays open.
fn pipelined_stream(ops: &[(u8, u64, u64)]) -> Vec<u8> {
    let mut input = Vec::new();
    for (i, &(route, station, value)) in ops.iter().enumerate() {
        let at = 86_400 + 600 * i as u64;
        let (method, target, body) = match route {
            0 => (
                "POST",
                format!(
                    "/api/checkin?station={station}&at={at}&soc={}",
                    value % 1001
                ),
                String::new(),
            ),
            1 => (
                "POST",
                format!("/api/state?station={station}&at={at}&level={}", value % 4),
                String::new(),
            ),
            2 => (
                "POST",
                "/api/checkin-batch".to_string(),
                (0..=value % 3)
                    .map(|k| {
                        format!(
                            "{{\"station\":{},\"at\":{},\"soc\":{}}}\n",
                            (station + k) % 4,
                            at + k,
                            (value * 37 + k) % 1001
                        )
                    })
                    .collect(),
            ),
            3 => (
                "GET",
                format!("/api/override?station={station}&at={at}"),
                String::new(),
            ),
            4 => (
                "GET",
                format!("/api/update?station={station}&at={at}"),
                String::new(),
            ),
            5 => ("GET", "/api/analytics/states".to_string(), String::new()),
            6 => ("GET", "/api/analytics/battery".to_string(), String::new()),
            7 => ("GET", "/api/telemetry".to_string(), String::new()),
            _ => ("GET", "/health".to_string(), String::new()),
        };
        let length = if method == "POST" {
            format!("Content-Length: {}\r\n", body.len())
        } else {
            String::new()
        };
        input.extend_from_slice(
            format!("{method} {target} HTTP/1.1\r\nHost: glacsweb\r\n{length}\r\n{body}")
                .as_bytes(),
        );
    }
    input
}

/// Serves `input` on a fresh core, read in the given chunk sizes, and
/// returns the transcript and the number of requests served.
fn transcript(input: &[u8], chunks: Vec<usize>) -> (Vec<u8>, u64) {
    let core = core();
    let mut stream = MemStream::with_chunks(input.to_vec(), chunks);
    let mut conn = ConnBuffers::default();
    let stats = serve_stream(&mut stream, &core, &ServerConfig::default(), &mut conn);
    (stream.output, stats.requests)
}

mod chunking {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any split of a valid pipelined stream into reads — single
        /// bytes, splits inside the request line, the headers or a body,
        /// several requests in one read — yields the transcript of the
        /// whole stream read at once.
        #[test]
        fn any_read_chunking_gives_the_same_transcript(
            ops in proptest::collection::vec((0u8..9, 0u64..4, 0u64..10_000), 1..40),
            chunks in proptest::collection::vec(1usize..700, 1..24),
        ) {
            let input = pipelined_stream(&ops);
            let (whole, served) = transcript(&input, vec![usize::MAX]);
            prop_assert_eq!(served, ops.len() as u64, "every request served");
            let (split, served_split) = transcript(&input, chunks);
            prop_assert_eq!(served_split, served);
            prop_assert!(whole == split, "transcripts differ");
        }
    }

    #[test]
    fn one_byte_reads_give_the_same_transcript() {
        let ops: Vec<(u8, u64, u64)> = (0..27)
            .map(|i| (i % 9, u64::from(i) % 4, u64::from(i) * 97))
            .collect();
        let input = pipelined_stream(&ops);
        let whole = transcript(&input, vec![usize::MAX]);
        assert_eq!(whole.1, 27);
        assert_eq!(transcript(&input, vec![1]), whole);
    }
}
