//! Pins what the server does with a seeded corpus of mutated pipelined
//! request streams, byte for byte. The corpus starts from pipelined
//! streams in the replay's request shapes and mutates them: byte flips
//! (CR, LF, `:`, `&`, `=`, non-UTF-8 bytes and more), truncations,
//! duplicated and reordered header lines, `Content-Length` variants and
//! over-cap heads. Each stream is served through `serve_stream` under
//! several read-size cycles; every cycle must give the same output, and
//! one FNV over every output byte plus each connection's request count
//! is pinned. A rewrite of the request framing must leave both
//! unchanged.

use std::io::{Read, Write};

use glacsweb_service::core::{update_md5_hex, update_payload};
use glacsweb_service::{serve_stream, ConnBuffers, FleetCore, ServerConfig};

/// A scripted in-memory connection: read `i` returns at most
/// `chunks[i % chunks.len()]` bytes; everything written is kept.
struct MemStream {
    input: Vec<u8>,
    read_at: usize,
    chunks: Vec<usize>,
    reads: usize,
    output: Vec<u8>,
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

/// SplitMix64: the corpus generator's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stations in every corpus core; ids up to 9 are drawn, so some are
/// unknown.
const STATIONS: u64 = 8;

/// One request in the replay's shapes (plus the batch, analytics and
/// health routes), as its head lines and body.
fn request(rng: &mut Rng, at: u64) -> (String, Vec<String>, String) {
    let s = rng.below(STATIONS as usize + 2) as u64;
    let host = "Host: glacsweb".to_string();
    let zero = "Content-Length: 0".to_string();
    match rng.below(10) {
        0 | 1 => (
            format!(
                "POST /api/checkin?station={s}&at={at}&soc={} HTTP/1.1",
                rng.below(1100)
            ),
            vec![host, zero],
            String::new(),
        ),
        2 => (
            format!(
                "POST /api/state?station={s}&at={at}&level={} HTTP/1.1",
                rng.below(5)
            ),
            vec![host, zero],
            String::new(),
        ),
        3 | 4 => (
            format!("GET /api/override?station={s}&at={at} HTTP/1.1"),
            vec![host],
            String::new(),
        ),
        5 => (
            format!("GET /api/update?station={s}&at={at} HTTP/1.1"),
            vec![host],
            String::new(),
        ),
        6 => (
            format!(
                "POST /api/ack?station={s}&at={at}&file=control-{s}.py&md5={} HTTP/1.1",
                update_md5_hex(&update_payload(s))
            ),
            vec![host, zero],
            String::new(),
        ),
        7 => {
            let body: String = (0..1 + rng.below(3))
                .map(|k| {
                    format!(
                        "{{\"station\":{},\"at\":{},\"soc\":{}}}\n",
                        rng.below(STATIONS as usize),
                        at + k as u64,
                        rng.below(1001)
                    )
                })
                .collect();
            (
                "POST /api/checkin-batch HTTP/1.1".to_string(),
                vec![host, format!("Content-Length: {}", body.len())],
                body,
            )
        }
        8 => (
            [
                "GET /api/analytics/states HTTP/1.1",
                "GET /api/analytics/battery HTTP/1.1",
            ][rng.below(2)]
            .to_string(),
            vec![host],
            String::new(),
        ),
        _ => (
            "GET /health HTTP/1.1".to_string(),
            vec![host],
            String::new(),
        ),
    }
}

/// `Content-Length` lines the corpus swaps in, each on its own line
/// set: signs, padding, empty, negative, overflowing, over-cap,
/// conflicting and agreeing duplicates, non-ASCII whitespace, and a
/// length that swallows the next request.
const LENGTH_VARIANTS: &[&str] = &[
    "Content-Length: +0",
    "Content-Length:0",
    "content-length:  0 ",
    "CONTENT-LENGTH: 00",
    "Content-Length: -1",
    "Content-Length: ",
    "Content-Length: 0x0",
    "Content-Length: 1\r\nContent-Length: 2",
    "Content-Length: 0\r\ncontent-length: 0",
    "Content-Length: 5",
    "Content-Length: 40",
    "Content-Length: 99999999999999999999999",
    "Content-Length: 70000",
    "Transfer-Encoding: chunked",
    "Content-Length: 0\u{a0}",
    "Content-Length:\u{b}0",
    "Content-Length: \u{3000}0",
    " Content-Length : 0",
    "Content-Length 0",
];

/// Bytes a flip may write.
const FLIP_BYTES: &[u8] = &[
    b'\r', b'\n', b':', b'&', b'=', b' ', b'?', b'+', b'0', b'\t', 0x0b, 0xff, 0xc3, 0x80, 0xa0,
];

/// One corpus stream: a pipelined base stream, then `rng`-chosen
/// structural and byte-level mutations.
fn stream(rng: &mut Rng) -> Vec<u8> {
    let n = 2 + rng.below(10);
    let mut requests: Vec<(String, Vec<String>, String)> = (0..n)
        .map(|i| request(rng, 86_400 + 600 * i as u64))
        .collect();
    // Structural mutations on one request's lines.
    for _ in 0..rng.below(3) {
        let pick = rng.below(requests.len());
        let (line, headers, body) = &mut requests[pick];
        match rng.below(8) {
            0 => {
                let at = rng.below(headers.len());
                let copy = headers[at].clone();
                headers.insert(at, copy);
            }
            1 => {
                if headers.len() >= 2 {
                    headers.swap(0, 1);
                }
            }
            2 => {
                let variant = LENGTH_VARIANTS[rng.below(LENGTH_VARIANTS.len())];
                headers.retain(|h| !h.starts_with("Content-Length"));
                headers.push(variant.to_string());
            }
            3 => headers.retain(|h| !h.starts_with("Content-Length")),
            4 => {
                let pad = 8150 + rng.below(200);
                headers.push(format!("X-Pad: {}", "a".repeat(pad)));
            }
            5 => {
                // Duplicated or emptied query parameters.
                *line = line.replacen(
                    "&at=",
                    ["&station=1&at=", "&at=&at=", "&&at=", "&at=+"][rng.below(4)],
                    1,
                );
            }
            6 => body.push_str("{\"station\":1}\n"),
            _ => {
                *line = line.replacen(' ', ["  ", "\t", " /x "][rng.below(3)], 1);
            }
        }
    }
    let mut bytes = Vec::new();
    for (i, (line, headers, body)) in requests.iter().enumerate() {
        // One request may use bare LF line ends.
        let eol = if i == 1 && rng.below(6) == 0 {
            "\n"
        } else {
            "\r\n"
        };
        bytes.extend_from_slice(line.as_bytes());
        bytes.extend_from_slice(eol.as_bytes());
        for h in headers {
            bytes.extend_from_slice(h.as_bytes());
            bytes.extend_from_slice(eol.as_bytes());
        }
        bytes.extend_from_slice(eol.as_bytes());
        bytes.extend_from_slice(body.as_bytes());
    }
    // Byte-level mutations.
    for _ in 0..rng.below(4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        bytes[at] = if rng.below(4) == 0 {
            rng.next() as u8
        } else {
            FLIP_BYTES[rng.below(FLIP_BYTES.len())]
        };
    }
    if rng.below(5) == 0 {
        bytes.truncate(rng.below(bytes.len() + 1));
    }
    bytes
}

/// Read-size cycles every stream is served under.
const CYCLES: &[&[usize]] = &[&[usize::MAX], &[1], &[2, 7, 64], &[4096, 3, 500]];

/// Serves `input` on a fresh core (updates staged) under `chunks`;
/// returns the output bytes and the requests served.
fn serve(input: &[u8], chunks: &[usize], config: &ServerConfig) -> (Vec<u8>, u64) {
    let core = FleetCore::new(STATIONS, 2).expect("valid core");
    core.stage_updates();
    let mut stream = MemStream {
        input: input.to_vec(),
        read_at: 0,
        chunks: chunks.to_vec(),
        reads: 0,
        output: Vec::new(),
    };
    let stats = serve_stream(&mut stream, &core, config, &mut ConnBuffers::default());
    (stream.output, stats.requests)
}

/// The server configuration for corpus stream `i`: every fifth stream
/// runs into a three-request connection cap.
fn config(i: usize) -> ServerConfig {
    ServerConfig {
        max_requests_per_conn: if i % 5 == 4 { 3 } else { 100_000 },
        ..ServerConfig::default()
    }
}

#[test]
fn the_mutated_corpus_is_served_byte_for_byte_as_pinned() {
    let mut rng = Rng(2010);
    let (mut output_fnv, mut requests_fnv) = (FNV_OFFSET, FNV_OFFSET);
    let (mut served, mut bytes) = (0u64, 0usize);
    for i in 0..300 {
        let input = stream(&mut rng);
        let config = config(i);
        let (output, requests) = serve(&input, CYCLES[0], &config);
        for &chunks in &CYCLES[1..] {
            let (other, other_requests) = serve(&input, chunks, &config);
            assert_eq!(other_requests, requests, "stream {i}, reads {chunks:?}");
            assert!(
                other == output,
                "stream {i}: reads {chunks:?} changed the output"
            );
        }
        output_fnv = fnv1a(output_fnv, &output);
        requests_fnv = fnv1a(requests_fnv, &requests.to_le_bytes());
        served += requests;
        bytes += output.len();
    }
    assert_eq!(
        (output_fnv, requests_fnv, served, bytes),
        (0x1479_9cb4_2d4e_5527, 0x2e99_2334_1ec5_e5c2, 549, 95_205),
        "corpus output digest, request-count digest, requests, output bytes"
    );
}

mod no_panic {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Mutated pipelined streams under any read sizes end the
        /// connection without a panic, answering at most one request
        /// per request line sent.
        #[test]
        fn mutated_pipelined_http_never_panics(
            seed in any::<u64>(),
            chunks in proptest::collection::vec(1usize..600, 1..6),
        ) {
            let input = stream(&mut Rng(seed));
            let (output, requests) = serve(&input, &chunks, &ServerConfig::default());
            let lines = input.windows(5).filter(|w| *w == b"HTTP/").count() as u64;
            prop_assert!(requests <= lines, "{} served from {} request lines", requests, lines);
            prop_assert!(requests == 0 || !output.is_empty());
        }
    }
}
