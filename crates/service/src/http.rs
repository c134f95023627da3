//! A hand-rolled HTTP/1.1 front end over `std::net::TcpListener`.
//!
//! The workspace's vendored-deps policy rules out tokio and hyper, and
//! the protocol the §III stations speak — tiny GETs and POSTs from a
//! `wget` on a 400 MHz ARM over GPRS — needs almost none of HTTP
//! anyway. This module implements exactly the subset the fleet uses:
//! request line + headers + optional `Content-Length` body, keep-alive
//! with pipelining, bounded header/body sizes, per-connection read
//! timeouts, and a fixed pool of blocking worker threads. A request
//! whose body length is ambiguous — a `Transfer-Encoding` header, or
//! `Content-Length` headers that disagree — is refused.
//!
//! Every malformed input maps to a typed [`HttpError`] and a plain-text
//! `error=<kind>` response — never a panic. This crate sits in
//! `glacsweb-analyze`'s panic-freedom scope, so the no-unwrap /
//! no-indexing rules are machine-checked — and this file is in its
//! perf-hygiene scope, so the steady-state allocation-freedom below is
//! machine-checked too.
//!
//! # Zero-allocation steady state
//!
//! Each worker owns one set of [`ConnBuffers`], reused across every
//! connection it serves:
//!
//! * the **receive buffer** (`ReadBuf`) is one fixed buffer with two
//!   cursors around its unread bytes. Socket reads land in place after
//!   them — no stack chunk, no copy — and the buffer grows (the only
//!   time it is zeroed) when less than a read's worth of room is free.
//!   Consumed bytes advance the front cursor; the unread tail moves to
//!   the front before every blocking read, so under pipelining the
//!   buffer never grows past one request plus one read's room — the
//!   carry-bound regression test pins that. A parsed [`Request`] is
//!   nothing but borrowed slices over it (no `String` per
//!   method/path/param), and each query is scanned once, into the
//!   parameters its route needs.
//! * **one head scanner** frames every message, here and in the replay
//!   client's response parser: `ReadBuf::head_len` finds the blank
//!   line ending a head by looking only at each `\n`, resuming where
//!   its last search stopped (a head that arrives a byte per read is
//!   still scanned once), and `Head` validates the head once and
//!   walks its CRLF lines and `name: value` fields with byte scans.
//! * the **[`ResponseWriter`]** serialises responses into a reusable
//!   output buffer, formatting integers and hex with hand-rolled
//!   writers ([`push_u64`], [`push_hex`]) instead of `format!`; a 200
//!   response's constant head prefix is one push. Responses are
//!   flushed lazily — always before the connection would block
//!   reading — which both preserves request/response ordering and
//!   coalesces pipelined responses into few `write` syscalls.
//!
//! After the first few requests warm the buffers, serving a request
//! allocates nothing (pinned by the counting-allocator harness in
//! `tests/alloc_count.rs`).
//!
//! # Endpoints
//!
//! | Method | Path                    | Query                          | Body on 200 |
//! |--------|-------------------------|--------------------------------|-------------|
//! | POST   | `/api/checkin`          | `station`, `at`, `soc`         | `ok` |
//! | POST   | `/api/checkin-batch`    | — (NDJSON body)                | `ok batch=<n>` |
//! | POST   | `/api/state`            | `station`, `at`, `level`       | `ok` |
//! | GET    | `/api/override`         | `station`, `at`                | `override=<level>` or `override=none` |
//! | GET    | `/api/update`           | `station`, `at`                | `update=<name>\nmd5=<hex>\npayload=<hex>` or `update=none` |
//! | POST   | `/api/ack`              | `station`, `at`, `file`, `md5` | `verified=true|false` |
//! | GET    | `/api/analytics/states` | —                              | per-state station counts (JSON) |
//! | GET    | `/api/analytics/battery`| —                              | fleet SoC histogram (JSON) |
//! | GET    | `/api/telemetry`        | —                              | merged NDJSON telemetry |
//! | GET    | `/health`               | —                              | liveness line |
//!
//! `/api/checkin-batch` takes one NDJSON object per line, e.g.
//! `{"station":4,"at":1253606400,"soc":815}`, and applies them in order
//! — the §III GPRS-style batch upload. `at` is a unix timestamp in
//! *simulation* time — responses are pure functions of the request
//! sequence, never of the wall clock (no `Date` header, for the same
//! reason).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use glacsweb_sim::SimTime;

use crate::core::{CoreError, FleetCore};

/// Flush the pending response bytes once they pass this size even
/// without a blocking read, bounding writer memory under heavy
/// pipelining (responses still coalesce below it).
const FLUSH_PENDING_BYTES: usize = 64 * 1024;

/// Tuning knobs for [`HttpServer::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`HttpServer::addr`]).
    pub addr: String,
    /// Worker threads sharing the accept loop. Each connection occupies
    /// a worker for its whole keep-alive lifetime, so size this at or
    /// above the expected concurrent connection count.
    pub workers: usize,
    /// Cap on request line + headers, bytes (431 beyond it).
    pub max_header_bytes: usize,
    /// Cap on a request body, bytes (413 beyond it).
    pub max_body_bytes: usize,
    /// Requests served per connection before the server closes it
    /// (bounds how long a connection can monopolise a worker).
    pub max_requests_per_conn: u64,
    /// Per-read socket timeout; a stalled client gets 408 and the
    /// connection is dropped, freeing the worker.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // glacsweb: allow(perf-hygiene, reason = "config construction, once per server")
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_header_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
            max_requests_per_conn: 100_000,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything that can go wrong serving one request. Each variant maps
/// to one status code and one stable `error=<kind>` body token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// A header line was malformed or not valid UTF-8.
    BadHeader,
    /// Request line + headers exceeded the configured cap.
    HeaderTooLarge,
    /// `Content-Length` body exceeded the configured cap.
    BodyTooLarge,
    /// A POST without a `Content-Length` header.
    LengthRequired,
    /// Two `Content-Length` headers with different values (RFC 9112
    /// §6.3): the body's end is ambiguous.
    ConflictingLength,
    /// A `Transfer-Encoding` header: no transfer coding is implemented.
    TransferEncoding,
    /// A required query parameter (or batch body field) was missing or
    /// unparsable.
    BadParam(&'static str),
    /// No route matches the path.
    NotFound,
    /// The path exists but not under this method.
    MethodNotAllowed,
    /// The socket timed out mid-request.
    Timeout,
    /// The peer closed the connection mid-request.
    Disconnected,
    /// The decision core rejected the request.
    Core(CoreError),
}

impl HttpError {
    /// `(status, reason, body-token)` for the error response.
    fn status(&self) -> (u16, &'static str, &'static str) {
        match self {
            HttpError::BadRequestLine => (400, "Bad Request", "bad-request-line"),
            HttpError::BadHeader => (400, "Bad Request", "bad-header"),
            HttpError::HeaderTooLarge => {
                (431, "Request Header Fields Too Large", "header-too-large")
            }
            HttpError::BodyTooLarge => (413, "Content Too Large", "body-too-large"),
            HttpError::LengthRequired => (411, "Length Required", "length-required"),
            HttpError::ConflictingLength => (400, "Bad Request", "conflicting-length"),
            HttpError::TransferEncoding => (501, "Not Implemented", "transfer-encoding"),
            HttpError::BadParam(_) => (400, "Bad Request", "bad-param"),
            HttpError::NotFound => (404, "Not Found", "not-found"),
            HttpError::MethodNotAllowed => (405, "Method Not Allowed", "method-not-allowed"),
            HttpError::Timeout => (408, "Request Timeout", "timeout"),
            HttpError::Disconnected => (400, "Bad Request", "disconnected"),
            HttpError::Core(CoreError::UnknownStation(_)) => (404, "Not Found", "unknown-station"),
            HttpError::Core(_) => (400, "Bad Request", "bad-param"),
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadParam(p) => write!(f, "bad or missing parameter `{p}`"),
            HttpError::Core(e) => write!(f, "core rejected request: {e}"),
            other => {
                let (status, reason, token) = other.status();
                write!(f, "{status} {reason} ({token})")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: borrowed slices over the connection's receive
/// buffer, cut from a head already validated as UTF-8. Nothing is
/// copied out of the buffer — the request is valid until the next read,
/// which is after routing completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// Request method, upper case as received (`GET`, `POST`, …).
    pub method: &'a [u8],
    /// Path component of the target, without the query string.
    pub path: &'a [u8],
    /// Raw query string (no percent-decoding — the fleet protocol never
    /// needs reserved characters); empty if the target had none.
    pub query: &'a [u8],
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: &'a [u8],
}

impl<'a> Request<'a> {
    /// The first value of each of `names`, found in one pass over the
    /// query's `&`-separated pairs; a pair without `=` has an empty
    /// value. No parameter vector is ever materialised.
    fn params<const N: usize>(&self, names: [&[u8]; N]) -> [Option<&'a [u8]>; N] {
        let mut values = [None; N];
        for pair in self.query.split(|&b| b == b'&') {
            if pair.is_empty() {
                continue;
            }
            let mut halves = pair.splitn(2, |&b| b == b'=');
            let key = halves.next().unwrap_or_default();
            let value = halves.next().unwrap_or_default();
            if let Some(slot) = names
                .iter()
                .zip(values.iter_mut())
                .find_map(|(name, slot)| (*name == key).then_some(slot))
            {
                slot.get_or_insert(value);
            }
        }
        values
    }
}

/// A required query parameter parsed as `T`, with a typed failure: what
/// `str::parse::<T>` accepts ([`parse_decimal`], in range for `T`).
fn need<T: TryFrom<u64>>(value: Option<&[u8]>, name: &'static str) -> Result<T, HttpError> {
    value
        .and_then(parse_decimal)
        .and_then(|n| T::try_from(n).ok())
        .ok_or(HttpError::BadParam(name))
}

/// A required query parameter as text, with a typed failure.
fn need_text<'a>(value: Option<&'a [u8]>, name: &'static str) -> Result<&'a str, HttpError> {
    value
        .and_then(|text| std::str::from_utf8(text).ok())
        .ok_or(HttpError::BadParam(name))
}

/// Serialises responses into a reusable output buffer.
///
/// A handler builds its body with `put_str` / `put_u64` / `put_hex` (or
/// writes into `body_mut` directly), then seals it with
/// [`ResponseWriter::finish`], which serialises status line + headers +
/// body into the pending output. Pending output is flushed to the
/// socket before the connection blocks reading — so pipelined
/// responses coalesce into few writes — and whenever it exceeds
/// `FLUSH_PENDING_BYTES`. Deliberately no `Date` header: response
/// bytes must be a pure function of the request sequence.
#[derive(Debug, Default)]
pub struct ResponseWriter {
    /// Serialised responses awaiting a flush.
    out: String,
    /// The body of the response currently being built.
    body: String,
}

impl ResponseWriter {
    /// Appends literal text to the current response body.
    fn put_str(&mut self, s: &str) {
        self.body.push_str(s);
    }

    /// Appends a decimal integer to the current response body without
    /// allocating.
    fn put_u64(&mut self, v: u64) {
        push_u64(&mut self.body, v);
    }

    /// Appends lower-case hex of `bytes` to the current response body
    /// without allocating.
    fn put_hex(&mut self, bytes: &[u8]) {
        push_hex(&mut self.body, bytes);
    }

    /// Direct access to the body buffer, for writers that append into a
    /// `&mut String` (analytics JSON, telemetry NDJSON).
    fn body_mut(&mut self) -> &mut String {
        &mut self.body
    }

    /// Seals the current body into a serialised response on the pending
    /// output and resets the body buffer for the next response.
    pub fn finish(&mut self, status: u16, reason: &str, keep_alive: bool) {
        if status == 200 && reason == "OK" {
            self.out
                .push_str("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: ");
        } else {
            self.out.push_str("HTTP/1.1 ");
            push_u64(&mut self.out, u64::from(status));
            self.out.push(' ');
            self.out.push_str(reason);
            self.out
                .push_str("\r\nContent-Type: text/plain\r\nContent-Length: ");
        }
        push_u64(
            &mut self.out,
            u64::try_from(self.body.len()).unwrap_or(u64::MAX),
        );
        self.out.push_str(if keep_alive {
            "\r\nConnection: keep-alive\r\n\r\n"
        } else {
            "\r\nConnection: close\r\n\r\n"
        });
        self.out.push_str(&self.body);
        self.body.clear();
    }

    /// Discards any partial body and serialises the error response for
    /// `err`; error responses always close the connection so a confused
    /// peer cannot poison the framing of later requests.
    fn write_error(&mut self, err: &HttpError) {
        let (status, reason, token) = err.status();
        self.body.clear();
        self.body.push_str("error=");
        self.body.push_str(token);
        self.body.push('\n');
        self.finish(status, reason, false);
    }

    /// Bytes serialised but not yet flushed.
    pub fn pending(&self) -> usize {
        self.out.len()
    }

    /// Writes all pending output to `stream` and clears it (also on
    /// failure — the connection is dead then).
    fn flush_to<S: Write>(&mut self, stream: &mut S) -> Result<(), HttpError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let result = stream.write_all(self.out.as_bytes());
        self.out.clear();
        result.map_err(|_| HttpError::Disconnected)
    }
}

/// One worker's reusable buffers: the receive buffer, the response
/// writer, and the batch-entry scratch. Created once per worker and
/// reused across every connection it serves, so the steady state of the
/// hot path allocates nothing.
#[derive(Debug, Default)]
pub struct ConnBuffers {
    /// Received bytes and the cursors around the unread ones.
    rx: ReadBuf,
    /// The response serialisation buffers.
    writer: ResponseWriter,
    /// Decoded `/api/checkin-batch` entries, reused across requests.
    batch: Vec<(u64, SimTime, u32)>,
}

impl ConnBuffers {
    /// Clears all state for a fresh connection, keeping capacity.
    fn reset(&mut self) {
        self.rx.clear();
        self.writer.out.clear();
        self.writer.body.clear();
        self.batch.clear();
    }
}

/// What one connection did — returned by [`serve_stream`] so tests and
/// benches can assert on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnStats {
    /// Requests routed (each produced exactly one response).
    pub requests: u64,
    /// Capacity of the receive buffer when the connection ended — the
    /// carry-bound regression test pins that pipelining thousands of
    /// requests never grows it past one request plus read slack.
    pub carry_capacity: usize,
}

/// The running server: a bound listener plus its worker pool.
///
/// Constructed by [`HttpServer::start`]; stopped by
/// [`HttpServer::shutdown`]. Dropping without `shutdown` leaks the
/// workers (they keep serving) — tests and the binary always shut down.
#[derive(Debug)]
pub struct HttpServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `config.addr`, spawns the worker pool, and returns
    /// immediately; requests are served from this point on.
    pub fn start(core: Arc<FleetCore>, config: &ServerConfig) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let listener = Arc::new(listener);
        let stop = Arc::new(AtomicBool::new(false));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let listener = Arc::clone(&listener);
                let stop = Arc::clone(&stop);
                let core = Arc::clone(&core);
                // glacsweb: allow(perf-hygiene, reason = "worker spawn, once per thread at startup")
                let config = config.clone();
                std::thread::Builder::new()
                    // glacsweb: allow(perf-hygiene, reason = "thread naming, once per worker at startup")
                    .name(format!("glacsweb-http-{i}"))
                    .spawn(move || worker_loop(&listener, &stop, &core, &config))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(HttpServer {
            addr,
            stop,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every worker, and joins the pool.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Each worker blocks in accept(); poke one connection per worker
        // so every accept call returns and observes the stop flag.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.workers {
            let _ = handle.join();
        }
    }
}

/// One worker: accept, serve the connection to completion with the
/// worker's reused buffers, repeat.
fn worker_loop(listener: &TcpListener, stop: &AtomicBool, core: &FleetCore, config: &ServerConfig) {
    let mut conn = ConnBuffers::default();
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_read_timeout(Some(config.read_timeout));
        let _ = stream.set_nodelay(true);
        serve_stream(&mut stream, core, config, &mut conn);
    }
}

/// Serves one keep-alive connection until close, error, or the
/// per-connection request cap, using (and warming) `conn`'s buffers.
///
/// Generic over the stream so the carry-bound and allocation-count
/// harnesses can drive it with in-memory streams; the server proper
/// calls it on accepted `TcpStream`s.
pub fn serve_stream<S: Read + Write>(
    stream: &mut S,
    core: &FleetCore,
    config: &ServerConfig,
    conn: &mut ConnBuffers,
) -> ConnStats {
    conn.reset();
    let mut stats = ConnStats::default();
    let mut remaining = config.max_requests_per_conn;
    loop {
        if remaining == 0 {
            // Request cap reached: close politely so the client
            // re-connects.
            conn.writer.put_str("connection-request-cap\n");
            conn.writer.finish(200, "OK", false);
            let _ = conn.writer.flush_to(stream);
            break;
        }
        remaining -= 1;
        match read_request(stream, conn, config) {
            Ok(Some(parsed)) => {
                let request = parsed.request(conn.rx.unread());
                let keep = match route(core, &request, &mut conn.writer, &mut conn.batch) {
                    Ok(()) => true,
                    Err(err) => {
                        conn.writer.write_error(&err);
                        false
                    }
                };
                core.count_served();
                conn.rx.consume(parsed.end);
                stats.requests += 1;
                if !keep {
                    let _ = conn.writer.flush_to(stream);
                    break;
                }
                if conn.writer.pending() >= FLUSH_PENDING_BYTES
                    && conn.writer.flush_to(stream).is_err()
                {
                    break;
                }
            }
            // Clean close at a request boundary.
            Ok(None) => {
                let _ = conn.writer.flush_to(stream);
                break;
            }
            Err(err) => {
                // Disconnection mid-request has no one left to answer.
                if err != HttpError::Disconnected {
                    conn.writer.write_error(&err);
                }
                let _ = conn.writer.flush_to(stream);
                break;
            }
        }
    }
    stats.carry_capacity = conn.rx.capacity();
    stats
}

/// The byte ranges of one parsed request, as `(offset, length)` from
/// the first unread byte. Ranges stay valid across the body's reads
/// because the unread bytes only ever move as a whole, to the front.
struct Parsed {
    method: (usize, usize),
    path: (usize, usize),
    query: (usize, usize),
    body: (usize, usize),
    /// Total bytes the request consumed (cursor advance).
    end: usize,
}

impl Parsed {
    /// Materialises the borrowed [`Request`] over the unread bytes; the
    /// head they are cut from was validated while it was parsed.
    fn request<'a>(&self, unread: &'a [u8]) -> Request<'a> {
        let slice = |(off, len): (usize, usize)| -> &'a [u8] {
            unread.get(off..off + len).unwrap_or_default()
        };
        Request {
            method: slice(self.method),
            path: slice(self.path),
            query: slice(self.query),
            body: slice(self.body),
        }
    }
}

/// What one read attempt gave the request parser.
enum Received {
    /// Some bytes arrived.
    Bytes,
    /// The peer closed the connection.
    Closed,
    /// The read timed out.
    TimedOut,
}

/// Flushes pending responses, then reads once into `conn`'s buffer
/// (see [`ReadBuf::fill`] for `want`). Flushing first keeps a
/// request/response-lockstep peer from deadlocking.
fn receive<S: Read + Write>(
    stream: &mut S,
    conn: &mut ConnBuffers,
    want: usize,
) -> Result<Received, HttpError> {
    conn.writer.flush_to(stream)?;
    loop {
        match conn.rx.fill(stream, want) {
            Ok(0) => return Ok(Received::Closed),
            Ok(_) => return Ok(Received::Bytes),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(Received::TimedOut)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(HttpError::Disconnected),
        }
    }
}

/// Reads one request from `stream` into the receive buffer and parses
/// it in place. `Ok(None)` means the peer closed cleanly at a request
/// boundary.
fn read_request<S: Read + Write>(
    stream: &mut S,
    conn: &mut ConnBuffers,
    config: &ServerConfig,
) -> Result<Option<Parsed>, HttpError> {
    // Phase 1: accumulate until the blank line ending the headers.
    let head_len = loop {
        if let Some(len) = conn.rx.head_len() {
            break len;
        }
        // A head at the cap is still short of its blank line with three
        // of that line's four bytes unread; past those, no head that
        // fits can end, whatever the reads' sizes.
        let unread = conn.rx.unread().len();
        if unread > config.max_header_bytes.saturating_add(3) {
            return Err(HttpError::HeaderTooLarge);
        }
        let idle = unread == 0;
        match receive(stream, conn, 0)? {
            Received::Bytes => {}
            Received::Closed if idle => return Ok(None),
            Received::Closed => return Err(HttpError::Disconnected),
            Received::TimedOut if idle => return Ok(None),
            Received::TimedOut => return Err(HttpError::Timeout),
        }
    };
    if head_len > config.max_header_bytes {
        return Err(HttpError::HeaderTooLarge);
    }

    // Parse the head in place; only ranges and the content length leave
    // this block, so the borrow ends before the body phase reads more.
    let (method_len, path_len, query_len, content_length, is_post) = {
        let head = Head::new(conn.rx.unread().get(..head_len).unwrap_or_default())
            .map_err(|_| HttpError::BadHeader)?;
        let (method, rest) =
            split_at_byte(head.start_line, b' ').ok_or(HttpError::BadRequestLine)?;
        let (target, version) = split_at_byte(rest, b' ').ok_or(HttpError::BadRequestLine)?;
        if version.contains(&b' ') || !version.starts_with(b"HTTP/1.") || method.is_empty() {
            return Err(HttpError::BadRequestLine);
        }
        let mut content_length: Option<usize> = None;
        for field in head.fields() {
            let (name, value) = field.ok_or(HttpError::BadHeader)?;
            if name.eq_ignore_ascii_case(CONTENT_LENGTH) {
                let length = parse_length(value).ok_or(HttpError::BadHeader)?;
                if content_length.is_some_and(|first| first != length) {
                    return Err(HttpError::ConflictingLength);
                }
                content_length = Some(length);
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                return Err(HttpError::TransferEncoding);
            }
        }
        let (path_len, query_len) = match split_at_byte(target, b'?') {
            Some((p, q)) => (p.len(), Some(q.len())),
            None => (target.len(), None),
        };
        (
            method.len(),
            path_len,
            query_len,
            content_length,
            method == b"POST",
        )
    };

    // Phase 2: the body. POSTs must declare a length (411); others
    // default to empty.
    let length = match content_length {
        Some(n) => n,
        None if is_post => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if length > config.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let body_off = head_len + 4;
    let end = body_off + length;
    while conn.rx.unread().len() < end {
        match receive(stream, conn, end)? {
            Received::Bytes => {}
            Received::Closed => return Err(HttpError::Disconnected),
            Received::TimedOut => return Err(HttpError::Timeout),
        }
    }

    let target_off = method_len + 1;
    Ok(Some(Parsed {
        method: (0, method_len),
        path: (target_off, path_len),
        query: match query_len {
            Some(q) => (target_off + path_len + 1, q),
            None => (0, 0),
        },
        body: (body_off, length),
        end,
    }))
}

/// The least free room a read is given: the receive buffer grows when
/// less than this is left after its unread bytes.
const READ_ROOM: usize = 4096;

/// The name of the one header both ends of the wire read.
pub(crate) const CONTENT_LENGTH: &[u8] = b"content-length";

/// A connection's receive buffer, at both ends of the wire: the
/// server's [`ConnBuffers`] and the replay client's connection.
///
/// `buf[start..end]` holds the bytes received and not yet consumed.
/// Reads land in place at `end`; the buffer grows, and only then is
/// the new part zeroed, when fewer than [`READ_ROOM`] bytes are free.
/// The unread bytes move to the front before each read, never between
/// parsing a message and consuming it, so a parsed message's ranges
/// stay valid until the next read.
#[derive(Debug, Default)]
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Where the search for a head's end resumes: no `\n` before it
    /// (and at or after `start + 3`) ends a `\r\n\r\n`.
    scanned: usize,
    /// Bytes the head-end search has looked at, for the linear-work test.
    #[cfg(test)]
    scan_work: usize,
}

impl ReadBuf {
    /// Forgets every byte, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
        self.scanned = 0;
    }

    /// The bytes received and not yet consumed.
    pub(crate) fn unread(&self) -> &[u8] {
        self.buf.get(self.start..self.end).unwrap_or_default()
    }

    /// Consumes the first `n` unread bytes and returns their
    /// `(start, end)` range, readable with [`ReadBuf::bytes`] until the
    /// next [`ReadBuf::fill`].
    pub(crate) fn consume(&mut self, n: usize) -> (usize, usize) {
        let from = self.start;
        self.start = self.end.min(from + n);
        (from, self.start)
    }

    /// The bytes of a range [`ReadBuf::consume`] returned.
    pub(crate) fn bytes(&self, (start, end): (usize, usize)) -> &[u8] {
        self.buf.get(start..end).unwrap_or_default()
    }

    /// The buffer's allocated size.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Moves the unread bytes to the front, grows the buffer if fewer
    /// than [`READ_ROOM`] bytes are free, and reads once from `stream`
    /// straight into the free part. Returns the bytes read (0 at end of
    /// stream).
    ///
    /// A message known to need `want` unread bytes grows the buffer
    /// toward that size, but at most doubles it per read: the buffer
    /// stays within twice the bytes actually received, whatever length
    /// a peer declares.
    pub(crate) fn fill<S: Read>(&mut self, stream: &mut S, want: usize) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned = self.scanned.saturating_sub(self.start);
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_ROOM {
            let len = want
                .min(2 * self.buf.len())
                .max(self.end + READ_ROOM)
                .next_multiple_of(READ_ROOM);
            self.buf.reserve_exact(len - self.buf.len());
            self.buf.resize(len, 0);
        }
        let free = self.buf.get_mut(self.end..).unwrap_or_default();
        let n = stream.read(free)?.min(free.len());
        self.end += n;
        Ok(n)
    }

    /// Length of the head at the front of the unread bytes — the index
    /// of their first `\r\n\r\n` — once it has arrived. Only the `\n`
    /// bytes are candidates, and the search resumes where the last one
    /// stopped, so every received byte is looked at once however the
    /// head was split across reads.
    pub(crate) fn head_len(&mut self) -> Option<usize> {
        let mut at = self.scanned.max(self.start + 3);
        while let Some(tail) = self.buf.get(at..self.end) {
            let Some(i) = find_byte(tail, b'\n') else {
                break;
            };
            #[cfg(test)]
            {
                self.scan_work += i + 1;
            }
            let lf = at + i;
            if self.buf.get(lf - 3..lf) == Some(b"\r\n\r".as_slice()) {
                self.scanned = lf + 1;
                return Some(lf - 3 - self.start);
            }
            at = lf + 1;
        }
        #[cfg(test)]
        {
            self.scan_work += self.end.saturating_sub(at);
        }
        self.scanned = self.end;
        None
    }
}

/// A message head without its blank line: the start line, then one
/// field per CRLF line. Both ends of the wire read heads through it.
/// The head is checked to be UTF-8 once, with a word-at-a-time ASCII
/// check and the full validation only when that fails; the lines and
/// fields are then cut by byte scans.
pub(crate) struct Head<'a> {
    /// The request or status line.
    pub(crate) start_line: &'a [u8],
    /// The field lines after it.
    rest: Option<&'a [u8]>,
}

impl<'a> Head<'a> {
    /// Checks that `head` is UTF-8 and splits off its start line.
    pub(crate) fn new(head: &'a [u8]) -> Result<Head<'a>, std::str::Utf8Error> {
        if !head.is_ascii() {
            std::str::from_utf8(head)?;
        }
        let mut lines = Head {
            start_line: &[],
            rest: Some(head),
        };
        lines.start_line = lines.next_line().unwrap_or_default();
        Ok(lines)
    }

    /// The next CRLF-delimited line, as `str::split("\r\n")` yields them.
    fn next_line(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest?;
        let mut from = 0;
        while let Some(i) = rest.get(from..).and_then(|tail| find_byte(tail, b'\n')) {
            let lf = from + i;
            if lf > 0 && rest.get(lf - 1) == Some(&b'\r') {
                self.rest = rest.get(lf + 1..);
                return rest.get(..lf - 1);
            }
            from = lf + 1;
        }
        self.rest = None;
        Some(rest)
    }

    /// The header fields: each line split at its first `:` into a
    /// [`trim`]med name and an untrimmed value, `None` for a line
    /// without one. A head cut at its first blank line has no empty
    /// lines.
    pub(crate) fn fields(mut self) -> impl Iterator<Item = Option<(&'a [u8], &'a [u8])>> {
        std::iter::from_fn(move || {
            self.next_line()
                .map(|line| split_at_byte(line, b':').map(|(name, value)| (trim(name), value)))
        })
    }
}

/// Index of the first `byte` in `haystack`, found eight bytes at a
/// time: the scan under every framing search.
pub(crate) fn find_byte(haystack: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let pattern = u64::from_ne_bytes([byte; 8]);
    let mut words = haystack.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let Ok(word) = <[u8; 8]>::try_from(word) else {
            break;
        };
        // `x` has a zero byte where `word` has `byte`. The lowest high bit
        // left set marks the first one: a borrow only ever sets the high
        // bits of bytes above a zero byte.
        let x = u64::from_le_bytes(word) ^ pattern;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return usize::try_from(zeros.trailing_zeros() / 8)
                .ok()
                .map(|at| offset + at);
        }
        offset += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == byte)
        .map(|at| offset + at)
}

/// `text` split around its first `byte`.
pub(crate) fn split_at_byte(text: &[u8], byte: u8) -> Option<(&[u8], &[u8])> {
    let at = find_byte(text, byte)?;
    Some((text.get(..at)?, text.get(at + 1..)?))
}

/// `str::trim` over UTF-8 `text` (a piece of a [`Head`]): ASCII
/// whitespace is stripped by a byte scan, and `str::trim` runs only
/// when a non-ASCII byte is left at either end.
pub(crate) fn trim(text: &[u8]) -> &[u8] {
    // `char::is_whitespace` over ASCII: space and `\t` through `\r`.
    let space = |b: &u8| matches!(b, b' ' | b'\t'..=b'\r');
    let start = text.iter().position(|b| !space(b)).unwrap_or(text.len());
    let end = text
        .iter()
        .rposition(|b| !space(b))
        .map_or(start, |at| at + 1);
    let inner = text.get(start..end).unwrap_or_default();
    match (inner.first(), inner.last()) {
        (Some(first), Some(last)) if !first.is_ascii() || !last.is_ascii() => {
            std::str::from_utf8(inner).map_or(inner, |s| s.trim().as_bytes())
        }
        _ => inner,
    }
}

/// `text` as `str::parse::<u64>` reads it — an optional `+`, then one or
/// more decimal digits, without overflow — or `None`.
pub(crate) fn parse_decimal(text: &[u8]) -> Option<u64> {
    let digits = text.strip_prefix(b"+").unwrap_or(text);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        if !b.is_ascii_digit() {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(b - b'0'))
    })
}

/// A `Content-Length` value as `str::parse::<usize>` reads it once
/// [`trim`]med.
pub(crate) fn parse_length(value: &[u8]) -> Option<usize> {
    parse_decimal(trim(value)).and_then(|n| usize::try_from(n).ok())
}

/// Dispatches a parsed request to the decision core, writing the
/// response into `w`. `batch` is the reusable scratch for decoded
/// `/api/checkin-batch` entries.
fn route(
    core: &FleetCore,
    request: &Request<'_>,
    w: &mut ResponseWriter,
    batch: &mut Vec<(u64, SimTime, u32)>,
) -> Result<(), HttpError> {
    match (request.method, request.path) {
        (b"POST", b"/api/checkin") => {
            let [station, at, soc] = request.params([b"station", b"at", b"soc"]);
            let station = need::<u64>(station, "station")?;
            let at = SimTime::from_unix(need(at, "at")?);
            let soc = need::<u32>(soc, "soc")?;
            core.check_in(station, at, soc).map_err(HttpError::Core)?;
            w.put_str("ok\n");
        }
        (b"POST", b"/api/checkin-batch") => {
            batch.clear();
            parse_checkin_batch(request.body, batch)?;
            let applied = core.check_in_batch(batch).map_err(HttpError::Core)?;
            w.put_str("ok batch=");
            w.put_u64(applied);
            w.put_str("\n");
        }
        (b"POST", b"/api/state") => {
            let [station, at, level] = request.params([b"station", b"at", b"level"]);
            let station = need::<u64>(station, "station")?;
            let at = SimTime::from_unix(need(at, "at")?);
            let level = need::<u8>(level, "level")?;
            core.report_state(station, at, level)
                .map_err(HttpError::Core)?;
            w.put_str("ok\n");
        }
        (b"GET", b"/api/override") => {
            let [station, at] = request.params([b"station", b"at"]);
            let station = need::<u64>(station, "station")?;
            let at = SimTime::from_unix(need(at, "at")?);
            let decision = core.override_for(station, at).map_err(HttpError::Core)?;
            match decision {
                Some(state) => {
                    w.put_str("override=");
                    w.put_u64(u64::from(state.level()));
                    w.put_str("\n");
                }
                None => w.put_str("override=none\n"),
            }
        }
        (b"GET", b"/api/update") => {
            let [station, at] = request.params([b"station", b"at"]);
            let station = need::<u64>(station, "station")?;
            let at = SimTime::from_unix(need(at, "at")?);
            let update = core.update_for(station, at).map_err(HttpError::Core)?;
            match update {
                Some(u) => {
                    w.put_str("update=");
                    w.put_str(&u.name);
                    w.put_str("\nmd5=");
                    w.put_hex(&u.expected_md5);
                    w.put_str("\npayload=");
                    w.put_hex(&u.payload);
                    w.put_str("\n");
                }
                None => w.put_str("update=none\n"),
            }
        }
        (b"POST", b"/api/ack") => {
            let [station, at, file, md5] = request.params([b"station", b"at", b"file", b"md5"]);
            let station = need::<u64>(station, "station")?;
            let at = SimTime::from_unix(need(at, "at")?);
            let file = need_text(file, "file")?;
            let md5_hex = need_text(md5, "md5")?;
            let verified = core
                .ack_update(station, at, file, md5_hex)
                .map_err(HttpError::Core)?;
            w.put_str(if verified {
                "verified=true\n"
            } else {
                "verified=false\n"
            });
        }
        (b"GET", b"/api/analytics/states") => core.power_counts().write_json(w.body_mut()),
        (b"GET", b"/api/analytics/battery") => core.soc_histogram().write_json(w.body_mut()),
        (b"GET", b"/api/telemetry") => core.telemetry_ndjson_into(w.body_mut()),
        (b"GET", b"/health") => {
            w.put_str("ok stations=");
            w.put_u64(core.stations());
            w.put_str(" served=");
            w.put_u64(core.requests_served());
            w.put_str("\n");
        }
        (_, b"/api/checkin" | b"/api/checkin-batch" | b"/api/state" | b"/api/ack")
        | (_, b"/api/override" | b"/api/update")
        | (
            _,
            b"/api/analytics/states" | b"/api/analytics/battery" | b"/api/telemetry" | b"/health",
        ) => return Err(HttpError::MethodNotAllowed),
        _ => return Err(HttpError::NotFound),
    }
    w.finish(200, "OK", true);
    Ok(())
}

/// Decodes an `/api/checkin-batch` NDJSON body into `out`: one
/// `{"station":N,"at":U,"soc":S}` object per line (key order and
/// spacing free, other keys ignored), blank lines skipped. Hand-rolled
/// digit scanning — no allocation, no JSON tree.
fn parse_checkin_batch(body: &[u8], out: &mut Vec<(u64, SimTime, u32)>) -> Result<(), HttpError> {
    for line in body.split(|&b| b == b'\n') {
        let line = line.trim_ascii();
        if line.is_empty() {
            continue;
        }
        let station = json_u64(line, b"\"station\"").ok_or(HttpError::BadParam("station"))?;
        let at = json_u64(line, b"\"at\"").ok_or(HttpError::BadParam("at"))?;
        let soc = json_u64(line, b"\"soc\"").ok_or(HttpError::BadParam("soc"))?;
        let soc = u32::try_from(soc).map_err(|_| HttpError::BadParam("soc"))?;
        out.push((station, SimTime::from_unix(at), soc));
    }
    Ok(())
}

/// The unsigned integer following `key` (a quoted JSON key) and its
/// colon in `line`; `None` if the key is absent or the value is not a
/// plain digit run.
fn json_u64(line: &[u8], key: &[u8]) -> Option<u64> {
    let at = line.windows(key.len()).position(|w| w == key)?;
    let mut rest = line.get(at + key.len()..)?;
    while let Some((&b, tail)) = rest.split_first() {
        if b == b' ' {
            rest = tail;
        } else {
            break;
        }
    }
    let (first, tail) = rest.split_first()?;
    if *first != b':' {
        return None;
    }
    let mut rest = tail;
    while let Some((&b, tail)) = rest.split_first() {
        if b == b' ' {
            rest = tail;
        } else {
            break;
        }
    }
    let mut value = 0u64;
    let mut any = false;
    while let Some((&b, tail)) = rest.split_first() {
        if b.is_ascii_digit() {
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            any = true;
            rest = tail;
        } else {
            break;
        }
    }
    any.then_some(value)
}

/// Appends `v`'s decimal digits to `out` — the `format!`-free integer
/// writer the whole response path uses.
pub fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at = at.saturating_sub(1);
        if let Some(slot) = buf.get_mut(at) {
            *slot = b'0' + u8::try_from(v % 10).unwrap_or(0);
        }
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Ok(digits) = std::str::from_utf8(buf.get(at..).unwrap_or_default()) {
        out.push_str(digits);
    }
}

/// Lower-case hex digits for [`push_hex`].
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends lower-case hex of `bytes` to `out` — the `format!`-free hex
/// writer (payloads cross the wire as text).
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    for &b in bytes {
        let hi = HEX_DIGITS.get(usize::from(b >> 4)).copied().unwrap_or(b'0');
        let lo = HEX_DIGITS
            .get(usize::from(b & 0xf))
            .copied()
            .unwrap_or(b'0');
        out.push(char::from(hi));
        out.push(char::from(lo));
    }
}

/// Inverse of [`push_hex`], decoding into `out` (cleared first, its
/// capacity reused); `false` on odd length or non-hex digits.
pub fn hex_decode_into(text: &str, out: &mut Vec<u8>) -> bool {
    out.clear();
    if !text.len().is_multiple_of(2) {
        return false;
    }
    for pair in text.as_bytes().chunks_exact(2) {
        let digit = |at: usize| pair.get(at).and_then(|&d| char::from(d).to_digit(16));
        let (Some(hi), Some(lo)) = (digit(0), digit(1)) else {
            return false;
        };
        out.extend(u8::try_from(hi * 16 + lo).ok());
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A receive buffer holding `bytes` as its unread bytes.
    fn received(bytes: &[u8]) -> ReadBuf {
        let mut rx = ReadBuf::default();
        rx.fill(&mut io::Cursor::new(bytes), bytes.len())
            .expect("in-memory read");
        rx
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(received(b"GET / HTTP/1.1\r\n\r\n").head_len(), Some(14));
        assert_eq!(received(b"GET / HTTP/1.1\r\n").head_len(), None);
        assert_eq!(received(b"\r\n\r\nGET").head_len(), Some(0));
        assert_eq!(received(b"A\n\r\n\r\r\n\r\n").head_len(), Some(5));
    }

    #[test]
    fn a_declared_length_grows_the_buffer_only_with_the_bytes_received() {
        let mut rx = ReadBuf::default();
        let mut stream = OneByteReads(io::Cursor::new(vec![b'x'; 20_000]));
        for _ in 0..20_000 {
            rx.fill(&mut stream, usize::MAX).expect("in-memory read");
        }
        assert_eq!(rx.unread().len(), 20_000);
        assert!(
            rx.capacity() <= 2 * 20_000 + 2 * READ_ROOM,
            "{} bytes held in a {}-byte buffer",
            rx.unread().len(),
            rx.capacity()
        );
    }

    #[test]
    fn a_head_read_a_byte_at_a_time_is_scanned_once() {
        let config = ServerConfig::default();
        let mut head = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
        head.resize(config.max_header_bytes - 4, b'a');
        head.extend_from_slice(b"\r\n\r\n");
        let mut conn = ConnBuffers::default();
        let mut stream = OneByteReads(io::Cursor::new(head.clone()));
        let parsed = read_request(&mut stream, &mut conn, &config).expect("a valid request");
        assert_eq!(parsed.map(|p| p.end), Some(head.len()));
        assert!(
            conn.rx.scan_work <= head.len(),
            "the head-end search looked at {} bytes of a {}-byte head",
            conn.rx.scan_work,
            head.len()
        );
    }

    #[test]
    fn a_head_near_the_cap_gets_one_verdict_however_it_was_split() {
        let config = ServerConfig::default();
        let cap = config.max_header_bytes;
        for len in cap - 3..=cap + 1 {
            let mut request = b"GET /health HTTP/1.1\r\nX-Pad: ".to_vec();
            request.resize(len, b'a');
            request.extend_from_slice(b"\r\n\r\n");
            let whole = end_of_request(io::Cursor::new(request.clone()), &config);
            let bytewise = end_of_request(OneByteReads(io::Cursor::new(request)), &config);
            assert_eq!(bytewise, whole, "a {len}-byte head");
            let want = if len <= cap {
                Ok(Some(len + 4))
            } else {
                Err(HttpError::HeaderTooLarge)
            };
            assert_eq!(whole, want, "a {len}-byte head");
        }
    }

    /// Reads one request off `stream` on a fresh connection: where it
    /// ends, or why it was refused.
    fn end_of_request<S: Read + Write>(
        mut stream: S,
        config: &ServerConfig,
    ) -> Result<Option<usize>, HttpError> {
        read_request(&mut stream, &mut ConnBuffers::default(), config)
            .map(|parsed| parsed.map(|p| p.end))
    }

    /// Serves its input one byte per read.
    struct OneByteReads(io::Cursor<Vec<u8>>);

    impl Read for OneByteReads {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    impl Write for OneByteReads {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_lines_split_as_str_split_does() {
        for text in [
            "A\r\nB: 1\r\nC",
            "",
            "A\r\r\nB\nC:\r\n:D",
            "\r\nA",
            "A\r\n",
            "A\n\rB\r\n\r",
        ] {
            let mut head = Head::new(text.as_bytes()).expect("utf-8");
            let mut lines = vec![head.start_line];
            lines.extend(std::iter::from_fn(|| head.next_line()));
            let want: Vec<&[u8]> = text.split("\r\n").map(str::as_bytes).collect();
            assert_eq!(lines, want, "{text:?}");
        }
        assert!(Head::new(b"GET \xff HTTP/1.1").is_err());
    }

    #[test]
    fn find_byte_finds_the_first_match() {
        let text: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) | 1).collect();
        for needle in [0u8, 1, b'\n', 0x80, 0xff, 0x81, 38] {
            for start in 0..text.len() {
                for mut hay in [text[start..].to_vec(), vec![needle; 3], vec![]] {
                    let want = hay.iter().position(|&b| b == needle);
                    assert_eq!(find_byte(&hay, needle), want, "{needle} in {hay:?}");
                    // A near miss (one bit off) in front does not move it.
                    hay.insert(0, needle ^ 1);
                    let want = hay.iter().position(|&b| b == needle);
                    assert_eq!(find_byte(&hay, needle), want, "{needle} in {hay:?}");
                }
            }
        }
    }

    #[test]
    fn trim_and_lengths_read_as_str_does() {
        for text in [
            "",
            " ",
            "5",
            " 5 ",
            "\t5\x0b",
            "\u{a0}5",
            "5\u{3000}",
            "\u{a0} \u{85}5 \u{2028}",
            " é ",
            "+7",
            "-7",
            "7 7",
            "18446744073709551615",
            "18446744073709551616",
            "\u{a0}",
        ] {
            assert_eq!(trim(text.as_bytes()), text.trim().as_bytes(), "{text:?}");
            assert_eq!(
                parse_length(text.as_bytes()),
                text.trim().parse().ok(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn query_parameters_are_scanned_once_first_value_wins() {
        let request = Request {
            method: b"GET",
            path: b"/api/ack",
            query: b"&station=4&flag&at=&station=5&md5=ab=cd",
            body: b"",
        };
        let [station, flag, at, md5, file] =
            request.params([b"station", b"flag", b"at", b"md5", b"file"]);
        assert_eq!(station, Some(&b"4"[..]));
        assert_eq!(
            flag,
            Some(&b""[..]),
            "a pair without `=` has an empty value"
        );
        assert_eq!(at, Some(&b""[..]));
        assert_eq!(md5, Some(&b"ab=cd"[..]), "the value runs past a second `=`");
        assert_eq!(file, None);
    }

    #[test]
    fn parameters_parse_as_str_parse_does() {
        for text in [
            "0",
            "7",
            "+7",
            "++7",
            "-0",
            "",
            "+",
            " 7",
            "7 ",
            "00012",
            "255",
            "256",
            "4294967295",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1e3",
            "٣",
        ] {
            let want64 = text.parse::<u64>().ok();
            assert_eq!(
                need::<u64>(Some(text.as_bytes()), "v").ok(),
                want64,
                "{text:?}"
            );
            let want32 = text.parse::<u32>().ok();
            assert_eq!(
                need::<u32>(Some(text.as_bytes()), "v").ok(),
                want32,
                "{text:?}"
            );
            let want8 = text.parse::<u8>().ok();
            assert_eq!(
                need::<u8>(Some(text.as_bytes()), "v").ok(),
                want8,
                "{text:?}"
            );
        }
        assert_eq!(need::<u64>(None, "at"), Err(HttpError::BadParam("at")));
    }

    #[test]
    fn hex_round_trip() {
        let data = b"glacsweb \x00\xff payload";
        let mut hex = String::new();
        push_hex(&mut hex, data);
        let mut out = vec![7u8; 3];
        assert!(hex_decode_into(&hex, &mut out));
        assert_eq!(out, data, "decoding replaces what the buffer held");
        assert!(!hex_decode_into("abc", &mut out), "odd length");
        assert!(!hex_decode_into("zz", &mut out), "non-hex");
    }

    #[test]
    fn push_u64_matches_display() {
        for v in [0u64, 1, 9, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn json_u64_scans_fields() {
        let line = br#"{"station": 12, "at":1253606400,"soc" : 815}"#;
        assert_eq!(json_u64(line, b"\"station\""), Some(12));
        assert_eq!(json_u64(line, b"\"at\""), Some(1_253_606_400));
        assert_eq!(json_u64(line, b"\"soc\""), Some(815));
        assert_eq!(json_u64(line, b"\"missing\""), None);
        assert_eq!(json_u64(br#"{"soc":-4}"#, b"\"soc\""), None, "signed");
        assert_eq!(json_u64(br#"{"soc":"x"}"#, b"\"soc\""), None, "non-digit");
    }

    #[test]
    fn batch_bodies_decode_in_order() {
        let body =
            b"{\"station\":0,\"at\":100,\"soc\":500}\n\n{\"at\":101,\"station\":3,\"soc\":9}\n";
        let mut out = Vec::new();
        parse_checkin_batch(body, &mut out).expect("decodes");
        assert_eq!(
            out,
            vec![
                (0, SimTime::from_unix(100), 500),
                (3, SimTime::from_unix(101), 9)
            ]
        );
        let mut out = Vec::new();
        assert_eq!(
            parse_checkin_batch(b"{\"station\":0,\"at\":1}", &mut out).err(),
            Some(HttpError::BadParam("soc")),
            "a malformed line is a typed error"
        );
    }

    #[test]
    fn error_statuses_are_stable() {
        assert_eq!(HttpError::BadRequestLine.status().0, 400);
        assert_eq!(HttpError::HeaderTooLarge.status().0, 431);
        assert_eq!(HttpError::BodyTooLarge.status().0, 413);
        assert_eq!(HttpError::LengthRequired.status().0, 411);
        assert_eq!(HttpError::Timeout.status().0, 408);
        assert_eq!(HttpError::MethodNotAllowed.status().0, 405);
        assert_eq!(
            HttpError::Core(CoreError::UnknownStation(9)).status().0,
            404
        );
    }

    /// Reads one request off `bytes` on a fresh connection.
    fn parse_one(bytes: &[u8]) -> Result<Option<Parsed>, HttpError> {
        let mut stream = io::Cursor::new(bytes.to_vec());
        read_request(
            &mut stream,
            &mut ConnBuffers::default(),
            &ServerConfig::default(),
        )
    }

    #[test]
    fn differing_content_lengths_are_refused() {
        let differing =
            b"POST /api/ack HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nabc";
        assert_eq!(
            parse_one(differing).err(),
            Some(HttpError::ConflictingLength)
        );
        assert_eq!(
            HttpError::ConflictingLength.status(),
            (400, "Bad Request", "conflicting-length")
        );
        let repeated =
            b"POST /api/ack HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc";
        let parsed = parse_one(repeated).expect("identical repeats are accepted");
        assert_eq!(parsed.map(|p| p.body.1), Some(3));
    }

    #[test]
    fn transfer_encoding_is_refused() {
        for request in [
            &b"POST /api/checkin-batch HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"[..],
            b"POST /api/ack HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
            b"GET /health HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n",
        ] {
            assert_eq!(
                parse_one(request).err(),
                Some(HttpError::TransferEncoding),
                "{}",
                String::from_utf8_lossy(request)
            );
        }
        assert_eq!(
            HttpError::TransferEncoding.status(),
            (501, "Not Implemented", "transfer-encoding")
        );
    }

    /// An in-memory connection: reads `input`, keeps what is written.
    struct Duplex {
        input: io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn served_md5_is_the_md5_of_the_served_payload() {
        use glacsweb_station::md5::{md5, to_hex};

        let core = FleetCore::new(8, 2).expect("valid core");
        core.stage_updates();
        let mut stream = Duplex {
            input: io::Cursor::new(b"GET /api/update?station=5&at=86400 HTTP/1.1\r\n\r\n".to_vec()),
            output: Vec::new(),
        };
        let stats = serve_stream(
            &mut stream,
            &core,
            &ServerConfig::default(),
            &mut ConnBuffers::default(),
        );
        assert_eq!(stats.requests, 1);
        let text = String::from_utf8(stream.output).expect("utf-8 response");
        let (_, body) = text.split_once("\r\n\r\n").expect("a body");
        let field = |key: &str| {
            body.lines()
                .find_map(|line| line.strip_prefix(key))
                .unwrap_or_else(|| panic!("no {key} line in {body:?}"))
        };
        let mut payload = Vec::new();
        assert!(hex_decode_into(field("payload="), &mut payload));
        assert_eq!(payload, crate::core::update_payload(5));
        assert_eq!(field("md5="), to_hex(&md5(&payload)));
    }

    #[test]
    fn responses_have_no_date_header() {
        let mut w = ResponseWriter::default();
        w.put_str("x");
        w.finish(200, "OK", true);
        let text = w.out.clone();
        assert!(!text.contains("Date:"), "dates would break determinism");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 1"));
        assert!(text.contains("Connection: keep-alive"));
        assert!(text.ends_with("\r\n\r\nx"));
    }

    #[test]
    fn writer_reuses_buffers_across_responses() {
        let mut w = ResponseWriter::default();
        w.put_str("first\n");
        w.finish(200, "OK", true);
        w.put_u64(42);
        w.finish(200, "OK", false);
        assert!(w.out.contains("Content-Length: 6"));
        assert!(w.out.contains("Content-Length: 2"));
        assert!(w.out.contains("Connection: close"));
        assert!(w.body.is_empty(), "body resets after finish");
    }
}
