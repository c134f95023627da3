//! Deterministic fleet-replay load harness.
//!
//! A [`WakeTrace`] from the fleet kernel is expanded into a [`Script`]:
//! the exact HTTP request sequence the fleet would issue, in canonical
//! `(at, station)` order, with every request parameter (state of
//! charge, reported level) derived by FNV-1a from `(station, at)` — a
//! pure function of the trace, no RNG state to thread. Replay runs
//! *compressed-time*: requests carry their sim timestamps but are
//! issued flat out, so a two-day fleet schedule becomes seconds of
//! sustained load.
//!
//! # Why it is byte-identical across runs and client counts
//!
//! Responses depend only on per-pair server state, and the harness
//! gives every §III pair **connection affinity**: pair `p` is always
//! replayed by client `p % clients`, and each client issues its steps
//! in script order. A pair's request subsequence is therefore identical
//! no matter how many clients run, so every response is too. Each step
//! carries its canonical script index; transcript lines are folded into
//! the digest in index order, which removes the only remaining source
//! of nondeterminism (cross-client interleaving). Wall-clock latency
//! and requests/sec are measured but deliberately excluded from the
//! transcript.
//!
//! # Allocation-free steady state
//!
//! The client shares the host with the server it measures, so every
//! microsecond it spends is one the server cannot have. Once a client's
//! buffers are warm, a request touches the allocator zero times
//! (pinned by the counting-allocator harness in
//! `tests/replay_alloc.rs`):
//!
//! * **Requests** are written straight into the window buffer with the
//!   server's own integer and hex writers ([`push_u64`], [`push_hex`]);
//!   a pending request keeps its target as a byte range of that buffer.
//! * **Responses** are read into the same kind of receive buffer the
//!   server uses and framed by the same head scanner, in place; the
//!   body is a range of the buffer, read before the next response is.
//!   The buffer compacts only before a blocking read — the server's
//!   invariant — so it holds at most one window of responses plus a
//!   read's room.
//! * **Transcript lines** are appended to a `Chunk`, with a mark per
//!   line (its index, end and latency). A full chunk goes to the
//!   calling thread over a bounded channel and comes back empty once
//!   folded. A client's chunks are the queued ones (`CHUNK_DEPTH` at
//!   most), the spares (`SPARE_CHUNKS` at most), the one it fills and
//!   the one being read, however long the script is.
//!
//! # The fold
//!
//! The calling thread walks the script in index order. Pair affinity
//! names the client that owns each step, so the fold always reads that
//! client's next line: the line is hashed into the FNV-1a digest (and
//! appended to the transcript only when
//! [`ReplayConfig::keep_transcript`] asks for it), and its latency is
//! counted in a histogram: a flat array up to `FLAT_LATENCY_US`, a map
//! entry per distinct slower value. A step inside a coalesced check-in
//! batch has no line of its own and is passed over. Memory is bounded
//! by those chunks per client plus that histogram; a client that runs
//! ahead waits on its channel.
//!
//! The §VI update check costs one MD5 per fetched update; the decoded
//! payload lands in a reused buffer and the receipt is kept as the raw
//! digest, hex-written into the ack's target. The ack frees the
//! receipt's slot for the next fetch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::iter::Peekable;
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::time::Instant;

use glacsweb_fleet::{WakeTrace, KIND_COMMS, KIND_OVERRIDE, KIND_SAMPLE};
use glacsweb_sim::SimTime;
use glacsweb_station::md5::md5;

use crate::http::{
    hex_decode_into, parse_decimal, parse_length, push_hex, push_u64, split_at_byte, Head, ReadBuf,
    CONTENT_LENGTH,
};

/// What one replay step asks the server to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `POST /api/checkin` with the given state of charge (permille).
    CheckIn {
        /// Battery state of charge, permille of full.
        soc: u32,
    },
    /// `POST /api/state` with the given Table II level.
    StateReport {
        /// Power-state level 0..=3.
        level: u8,
    },
    /// `GET /api/override` — read back the pair-minimum decision.
    OverrideQuery,
    /// `GET /api/update` — fetch the staged code update.
    UpdateFetch,
    /// `POST /api/ack` — hex-decode the fetched payload, compute its
    /// MD5 locally, and report the receipt.
    UpdateAck,
}

/// One scheduled request: canonical position, originating station, sim
/// instant, and the action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Position in the canonical script (the order the transcript is folded in).
    pub index: u64,
    /// Fleet-global station id.
    pub station: u64,
    /// Simulation instant the request carries in its `at` parameter.
    pub at: SimTime,
    /// The request to issue.
    pub action: Action,
}

/// The canonical request sequence derived from a wake trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    /// Stations in the generating fleet.
    pub stations: u64,
    /// Steps in canonical order.
    pub steps: Vec<Step>,
}

/// Expands a wake trace into the request script.
///
/// Per wake: a sample wake checks in with a derived state of charge; a
/// comms wake uploads a derived power state then queries the override
/// (and, when `updates` is set, fetches + MD5-acks the staged code
/// update on the station's *first* comms wake); a rotation-override
/// wake queries the override. Pure function of `(trace, updates)`.
pub fn script_from_trace(trace: &WakeTrace, updates: bool) -> Script {
    let mut steps = Vec::new();
    let mut fetched = vec![false; usize::try_from(trace.stations).unwrap_or(0)];
    let mut index = 0u64;
    let mut push = |steps: &mut Vec<Step>, station, at, action| {
        steps.push(Step {
            index,
            station,
            at,
            action,
        });
        index += 1;
    };
    for e in &trace.entries {
        if e.kinds & KIND_SAMPLE != 0 {
            let soc = 50 + u32::try_from(derive(e.station, e.at, 1) % 951).unwrap_or(0);
            push(&mut steps, e.station, e.at, Action::CheckIn { soc });
        }
        if e.kinds & KIND_COMMS != 0 {
            let level = 1 + u8::try_from(derive(e.station, e.at, 2) % 3).unwrap_or(0);
            push(&mut steps, e.station, e.at, Action::StateReport { level });
            push(&mut steps, e.station, e.at, Action::OverrideQuery);
            let first = fetched
                .get_mut(usize::try_from(e.station).unwrap_or(usize::MAX))
                .is_some_and(|f| !std::mem::replace(f, true));
            if updates && first {
                push(&mut steps, e.station, e.at, Action::UpdateFetch);
                push(&mut steps, e.station, e.at, Action::UpdateAck);
            }
        }
        if e.kinds & KIND_OVERRIDE != 0 {
            push(&mut steps, e.station, e.at, Action::OverrideQuery);
        }
    }
    Script {
        stations: trace.stations,
        steps,
    }
}

/// FNV-1a over `(station, at, salt)` — the deterministic pseudo-value
/// source for request parameters.
fn derive(station: u64, at: SimTime, salt: u64) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &station.to_le_bytes());
    h = fnv1a(h, &at.unix().to_le_bytes());
    fnv1a(h, &salt.to_le_bytes())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a round over `bytes`, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Replay tuning.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Concurrent keep-alive connections. Pair `p` is always served by
    /// client `p % clients` — the affinity behind byte-identical
    /// transcripts at any client count. The server needs a worker per
    /// client: the fold reads every client's lines in script order, so
    /// one connection left waiting for a worker stalls them all.
    pub clients: usize,
    /// Requests each client keeps in flight on its connection
    /// (HTTP/1.1 pipelining window; `1` = strict request/response
    /// lockstep). Pipelining changes *when* bytes hit the wire, never
    /// *which* bytes: each client still issues its steps in script
    /// order on one connection, so the transcript stays byte-identical
    /// at any window size.
    pub pipeline: usize,
    /// Coalesce consecutive check-in runs into `POST
    /// /api/checkin-batch` uploads (the §III GPRS batch-upload shape).
    /// Entries apply in script order so all analytics and telemetry
    /// stay byte-identical; the *transcript* necessarily differs from
    /// an unbatched run (fewer, different requests).
    pub batch_checkins: bool,
    /// Keep the transcript bytes in the outcome (the FNV
    /// digest is always computed).
    pub keep_transcript: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            clients: 4,
            pipeline: 1,
            batch_checkins: false,
            keep_transcript: false,
        }
    }
}

/// Latency percentiles over one replay, microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Median request latency.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
}

impl LatencyStats {
    /// Nearest-rank percentiles over the sample `histogram` counts.
    fn from_histogram(histogram: &LatencyHistogram) -> LatencyStats {
        let n: u64 = histogram.counts().map(|(_, count)| count).sum();
        let percentile = |permille: u64| {
            // Nearest rank: the smallest value with at least
            // `ceil(n * permille / 1000)` samples at or below it.
            let rank = (n * permille).div_ceil(1000).max(1);
            let mut seen = 0;
            histogram
                .counts()
                .find(|&(_, count)| {
                    seen += count;
                    seen >= rank
                })
                .map_or(0, |(us, _)| us)
        };
        LatencyStats {
            p50_us: percentile(500),
            p99_us: percentile(990),
            p999_us: percentile(999),
        }
    }
}

/// Latencies below this many microseconds are counted in a flat array;
/// the rare slower ones in a map.
const FLAT_LATENCY_US: usize = 4096;

/// Request latencies, microseconds, as the number of requests that took
/// each value: exact, with an array slot per value up to
/// [`FLAT_LATENCY_US`] and a map entry per distinct value above it.
struct LatencyHistogram {
    flat: Vec<u64>,
    above: BTreeMap<u64, u64>,
}

impl LatencyHistogram {
    fn new() -> LatencyHistogram {
        LatencyHistogram {
            flat: vec![0; FLAT_LATENCY_US],
            above: BTreeMap::new(),
        }
    }

    /// Counts one request that took `us` microseconds.
    fn record(&mut self, us: u64) {
        match usize::try_from(us).ok().and_then(|i| self.flat.get_mut(i)) {
            Some(count) => *count += 1,
            None => *self.above.entry(us).or_default() += 1,
        }
    }

    /// `(microseconds, requests)` for every value taken, in ascending
    /// order.
    fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(self.flat.iter().copied())
            .filter(|&(_, count)| count > 0)
            .chain(self.above.iter().map(|(&us, &count)| (us, count)))
    }
}

/// What one replay measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// HTTP requests issued — equals the script length unless
    /// [`ReplayConfig::batch_checkins`] coalesced check-in runs, in
    /// which case it is smaller (one latency sample per request, not
    /// per step).
    pub requests: u64,
    /// Wall-clock duration of the replay, seconds.
    pub seconds: f64,
    /// Sustained request rate.
    pub requests_per_sec: f64,
    /// Latency percentiles, microseconds.
    pub latency: LatencyStats,
    /// FNV-1a digest of the canonical-order transcript.
    pub transcript_fnv: u64,
    /// The transcript itself when [`ReplayConfig::keep_transcript`].
    pub transcript: Option<Vec<u8>>,
}

/// Transcript lines a client collects before handing its chunk to the
/// fold: few enough to keep a chunk small, enough that the hand-off
/// costs nothing per request.
const CHUNK_LINES: usize = 64;

/// Full chunks a client may have waiting for the fold before it blocks.
/// The slack lets a client run ahead through a scheduler time slice or
/// two; with much less, clients stall each other on a busy host.
const CHUNK_DEPTH: usize = 256;

/// Emptied chunks waiting to go back to their client; the fold drops
/// any beyond these.
const SPARE_CHUNKS: usize = 2;

/// Finished windows on their way from a client to the fold: transcript
/// lines back to back in `text`, with a mark per line. The fold hands
/// the emptied chunk back, so warm chunks are reused, not reallocated.
#[derive(Default)]
struct Chunk {
    text: String,
    marks: Vec<Mark>,
}

/// One transcript line of a [`Chunk`]: it runs from the previous
/// mark's end (or the chunk's start) to `end`.
#[derive(Clone, Copy)]
struct Mark {
    /// Script index of the line's step (the first step of a batch).
    index: u64,
    end: usize,
    latency_us: u64,
}

/// The client that owns a station: pair `p` rides client `p % clients`.
fn owner(station: u64, clients: usize) -> usize {
    usize::try_from(station / 2 % clients as u64).unwrap_or(0)
}

/// The fold's end of one client's channels, with the chunk being read.
struct Feed {
    full: Receiver<Chunk>,
    empty: SyncSender<Chunk>,
    chunk: Chunk,
    /// The next mark to read, and where its line starts.
    at: usize,
    start: usize,
    /// The client has sent its last chunk.
    done: bool,
}

impl Feed {
    /// The client's next line and its mark, fetching the client's next
    /// chunk (and handing the read one back) when this one is read;
    /// `None` once the client has sent everything.
    fn peek(&mut self) -> Option<(Mark, &[u8])> {
        while !self.done && self.at >= self.chunk.marks.len() {
            let mut read = std::mem::take(&mut self.chunk);
            read.text.clear();
            read.marks.clear();
            // The client may have finished and gone; its chunk is then
            // simply dropped.
            let _ = self.empty.try_send(read);
            match self.full.recv() {
                Ok(next) => {
                    self.chunk = next;
                    self.at = 0;
                    self.start = 0;
                }
                Err(_) => self.done = true,
            }
        }
        let mark = *self.chunk.marks.get(self.at)?;
        let line = self.chunk.text.as_bytes().get(self.start..mark.end)?;
        Some((mark, line))
    }

    /// Moves past the line [`Feed::peek`] returned.
    fn advance(&mut self, mark: Mark) {
        self.at += 1;
        self.start = mark.end;
    }
}

/// What the fold makes of the clients' lines.
struct Folded {
    requests: u64,
    transcript_fnv: u64,
    transcript: Option<Vec<u8>>,
    latencies: LatencyHistogram,
}

/// Folds the clients' transcript lines in script order: each step's
/// line comes from the client that owns the step, and a step with no
/// line of its own (inside a check-in batch) is passed over.
fn fold(script: &Script, feeds: &mut [Feed], keep_transcript: bool) -> Folded {
    let mut out = Folded {
        requests: 0,
        transcript_fnv: FNV_OFFSET,
        transcript: keep_transcript.then(Vec::new),
        latencies: LatencyHistogram::new(),
    };
    for step in &script.steps {
        let Some(feed) = feeds.get_mut(owner(step.station, feeds.len())) else {
            continue;
        };
        let Some((mark, line)) = feed.peek() else {
            continue;
        };
        if mark.index != step.index {
            continue;
        }
        out.transcript_fnv = fnv1a(out.transcript_fnv, line);
        if let Some(t) = out.transcript.as_mut() {
            t.extend_from_slice(line);
        }
        out.latencies.record(mark.latency_us);
        out.requests += 1;
        feed.advance(mark);
    }
    out
}

/// Replays `script` against the server at `addr` and measures it.
///
/// Each client drives one keep-alive connection through the steps its
/// pairs own, and the calling thread folds their transcript lines into
/// the digest in canonical index order as they arrive.
pub fn replay(
    addr: std::net::SocketAddr,
    script: &Script,
    config: &ReplayConfig,
) -> io::Result<ReplayOutcome> {
    let clients = config.clients.max(1);
    let started = Instant::now();
    let folded = std::thread::scope(|s| {
        let mut feeds = Vec::with_capacity(clients);
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let (full_tx, full) = sync_channel(CHUNK_DEPTH);
            let (empty, empty_rx) = sync_channel(SPARE_CHUNKS);
            handles.push(s.spawn(move || {
                run_client(addr, script, client, clients, config, &full_tx, &empty_rx)
            }));
            feeds.push(Feed {
                full,
                empty,
                chunk: Chunk::default(),
                at: 0,
                start: 0,
                done: false,
            });
        }
        let folded = fold(script, &mut feeds, config.keep_transcript);
        // A client still sending now has lines no step claimed; closing
        // its channel ends it instead of leaving it blocked.
        drop(feeds);
        for handle in handles {
            handle
                .join()
                .map_err(|_| io::Error::other("replay client panicked"))??;
        }
        Ok::<_, io::Error>(folded)
    })?;
    let seconds = started.elapsed().as_secs_f64();
    let requests = folded.requests;
    Ok(ReplayOutcome {
        requests,
        seconds,
        requests_per_sec: if seconds > 0.0 {
            requests as f64 / seconds
        } else {
            0.0
        },
        latency: LatencyStats::from_histogram(&folded.latencies),
        transcript_fnv: folded.transcript_fnv,
        transcript: folded.transcript,
    })
}

/// Check-in runs longer than this split into multiple batch uploads —
/// mirrors the bounded upload size a real GPRS session would use.
const MAX_BATCH: usize = 64;

/// One request written into a pipeline window, awaiting its response.
struct Pending {
    index: u64,
    method: &'static str,
    /// The request target's `(start, end)` byte range in the window
    /// buffer, valid until the next window is written.
    target: (usize, usize),
    is_fetch: bool,
    station: u64,
}

/// An update a client fetched and has not yet acked: the station, the
/// file name and the MD5 of the payload as received — the receipt a
/// correct station reports back. The ack frees the slot (`station`
/// becomes `None`) for the next fetch to reuse.
#[derive(Default)]
struct Receipt {
    station: Option<u64>,
    file: String,
    md5: [u8; 16],
}

/// The slot for `station`'s next receipt: the one it already holds (a
/// second fetch before the ack replaces the first), else a freed one,
/// else a new one.
fn receipt_slot(receipts: &mut Vec<Receipt>, station: u64) -> Option<&mut Receipt> {
    let held = receipts.iter().position(|r| r.station == Some(station));
    let at = held
        .or_else(|| receipts.iter().position(|r| r.station.is_none()))
        .unwrap_or_else(|| {
            receipts.push(Receipt::default());
            receipts.len() - 1
        });
    receipts.get_mut(at)
}

/// Takes the next unit off a client's steps into `unit`: a run of
/// consecutive check-ins (batch mode only, capped at [`MAX_BATCH`]),
/// coalesced into one upload, or else a single step. `false` once the
/// steps are spent.
fn next_unit<'a>(
    steps: &mut Peekable<impl Iterator<Item = &'a Step>>,
    batch: bool,
    unit: &mut Vec<&'a Step>,
) -> bool {
    unit.clear();
    let is_checkin = |step: &&Step| matches!(step.action, Action::CheckIn { .. });
    let Some(first) = steps.next() else {
        return false;
    };
    unit.push(first);
    if batch && is_checkin(&first) {
        while unit.len() < MAX_BATCH {
            let Some(step) = steps.next_if(is_checkin) else {
                break;
            };
            unit.push(step);
        }
    }
    true
}

/// Serialises one unit's request into `wbuf` and returns its pending
/// record. Batched units carry an NDJSON body, built in `body`;
/// singletons reproduce the exact request bytes of the sequential
/// harness. An ack frees its receipt.
fn append_unit(
    wbuf: &mut String,
    body: &mut String,
    unit: &[&Step],
    receipts: &mut [Receipt],
) -> io::Result<Pending> {
    let first = unit
        .first()
        .copied()
        .ok_or_else(|| io::Error::other("empty replay unit"))?;
    let pending = |method, target| Pending {
        index: first.index,
        method,
        target,
        is_fetch: matches!(first.action, Action::UpdateFetch),
        station: first.station,
    };
    if unit.len() >= 2 {
        body.clear();
        for step in unit {
            if let Action::CheckIn { soc } = step.action {
                body.push_str("{\"station\":");
                push_u64(body, step.station);
                body.push_str(",\"at\":");
                push_u64(body, step.at.unix());
                body.push_str(",\"soc\":");
                push_u64(body, u64::from(soc));
                body.push_str("}\n");
            }
        }
        wbuf.push_str("POST ");
        let target_start = wbuf.len();
        wbuf.push_str("/api/checkin-batch");
        let target = (target_start, wbuf.len());
        wbuf.push_str(" HTTP/1.1\r\nHost: glacsweb\r\nContent-Length: ");
        push_u64(wbuf, u64::try_from(body.len()).unwrap_or(u64::MAX));
        wbuf.push_str("\r\n\r\n");
        wbuf.push_str(body);
        return Ok(pending("POST", target));
    }
    let receipt = match first.action {
        Action::UpdateAck => Some(
            receipts
                .iter_mut()
                .find(|r| r.station == Some(first.station))
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        // glacsweb: allow(perf-hygiene, reason = "error path: the replay stops here")
                        format!("station {} acks before fetching", first.station),
                    )
                })?,
        ),
        _ => None,
    };
    let (method, path) = match first.action {
        Action::CheckIn { .. } => ("POST", "/api/checkin"),
        Action::StateReport { .. } => ("POST", "/api/state"),
        Action::OverrideQuery => ("GET", "/api/override"),
        Action::UpdateFetch => ("GET", "/api/update"),
        Action::UpdateAck => ("POST", "/api/ack"),
    };
    wbuf.push_str(method);
    wbuf.push(' ');
    let target_start = wbuf.len();
    wbuf.push_str(path);
    wbuf.push_str("?station=");
    push_u64(wbuf, first.station);
    wbuf.push_str("&at=");
    push_u64(wbuf, first.at.unix());
    match first.action {
        Action::CheckIn { soc } => {
            wbuf.push_str("&soc=");
            push_u64(wbuf, u64::from(soc));
        }
        Action::StateReport { level } => {
            wbuf.push_str("&level=");
            push_u64(wbuf, u64::from(level));
        }
        _ => {}
    }
    if let Some(receipt) = receipt {
        wbuf.push_str("&file=");
        wbuf.push_str(&receipt.file);
        wbuf.push_str("&md5=");
        push_hex(wbuf, &receipt.md5);
        receipt.station = None;
    }
    let target = (target_start, wbuf.len());
    wbuf.push_str(" HTTP/1.1\r\nHost: glacsweb\r\n");
    if method == "POST" {
        wbuf.push_str("Content-Length: 0\r\n");
    }
    wbuf.push_str("\r\n");
    Ok(pending(method, target))
}

/// Drives one keep-alive connection through the steps of the pairs
/// client `client` owns, in script order, pipelining up to
/// `config.pipeline` requests per write, and hands its transcript lines
/// to the fold in chunks over `full` (emptied chunks come back on
/// `empty`).
///
/// A window's requests are serialised into one buffer and hit the wire
/// in a single `write`; responses are then read back in order (HTTP/1.1
/// guarantees response order on a connection). Each response's latency
/// is measured from the window's write — the client-observed latency
/// under pipelining. Two ordering rules keep update staging correct:
/// an `UpdateFetch` closes its window (its response carries the payload
/// the following ack hashes), and an `UpdateAck` only opens a window
/// (its target needs the staged digest).
fn run_client(
    addr: std::net::SocketAddr,
    script: &Script,
    client: usize,
    clients: usize,
    config: &ReplayConfig,
    full: &SyncSender<Chunk>,
    empty: &Receiver<Chunk>,
) -> io::Result<()> {
    let mut steps = script
        .steps
        .iter()
        .filter(|step| owner(step.station, clients) == client)
        .peekable();
    if steps.peek().is_none() {
        return Ok(());
    }
    let pipeline = config.pipeline.max(1);
    let mut conn = Conn::open(addr)?;
    let mut receipts: Vec<Receipt> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut wbuf = String::new();
    let mut body = String::new();
    let mut unit: Vec<&Step> = Vec::new();
    let mut window: Vec<Pending> = Vec::new();
    let mut chunk = Chunk::default();
    loop {
        wbuf.clear();
        window.clear();
        while window.len() < pipeline {
            let Some(next) = steps.peek() else {
                break;
            };
            if matches!(next.action, Action::UpdateAck) && !window.is_empty() {
                break;
            }
            next_unit(&mut steps, config.batch_checkins, &mut unit);
            let pending = append_unit(&mut wbuf, &mut body, &unit, &mut receipts)?;
            let closes = pending.is_fetch;
            window.push(pending);
            if closes {
                break;
            }
        }
        if window.is_empty() {
            break;
        }
        let issued = Instant::now();
        conn.stream.write_all(wbuf.as_bytes())?;
        for pending in &window {
            let (status, range) = conn.read_response()?;
            let latency_us = u64::try_from(issued.elapsed().as_micros()).unwrap_or(u64::MAX);
            let response = conn.text(range)?;
            let target = wbuf
                .get(pending.target.0..pending.target.1)
                .unwrap_or_default();
            if status != 200 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    // glacsweb: allow(perf-hygiene, reason = "error path: the replay stops here")
                    format!("{} {target} -> {status}: {response}", pending.method),
                ));
            }
            if pending.is_fetch {
                let (file, md5_digest) = parse_update(response, &mut payload)?;
                if let Some(receipt) = receipt_slot(&mut receipts, pending.station) {
                    receipt.station = Some(pending.station);
                    receipt.file.clear();
                    receipt.file.push_str(file);
                    receipt.md5 = md5_digest;
                }
            }
            let text = &mut chunk.text;
            push_u64(text, pending.index);
            text.push(' ');
            text.push_str(pending.method);
            text.push(' ');
            text.push_str(target);
            text.push(' ');
            push_u64(text, u64::from(status));
            text.push('\n');
            text.push_str(response);
            chunk.marks.push(Mark {
                index: pending.index,
                end: text.len(),
                latency_us,
            });
        }
        if chunk.marks.len() >= CHUNK_LINES {
            let next = empty.try_recv().unwrap_or_default();
            hand_over(full, std::mem::replace(&mut chunk, next))?;
        }
    }
    if chunk.marks.is_empty() {
        Ok(())
    } else {
        hand_over(full, chunk)
    }
}

/// Sends a full chunk to the fold, waiting while [`CHUNK_DEPTH`] others
/// are queued.
fn hand_over(full: &SyncSender<Chunk>, chunk: Chunk) -> io::Result<()> {
    full.send(chunk)
        .map_err(|_| io::Error::other("the transcript fold ended before this client's last line"))
}

/// Parses an `/api/update` body and computes the payload's MD5 locally,
/// decoding the payload into the reused `payload` buffer; returns the
/// file name and the digest a correct station reports back.
fn parse_update<'a>(body: &'a str, payload: &mut Vec<u8>) -> io::Result<(&'a str, [u8; 16])> {
    let mut file = None;
    let mut decoded = false;
    for line in body.lines() {
        match line.split_once('=') {
            Some(("update", v)) => file = Some(v),
            Some(("payload", v)) => decoded = hex_decode_into(v, payload),
            _ => {}
        }
    }
    match file {
        Some(file) if decoded && file != "none" => Ok((file, md5(payload))),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "update fetch returned no decodable payload",
        )),
    }
}

/// The client side of one keep-alive connection. Responses are read
/// into the same kind of receive buffer the server uses and framed by
/// the same head scanner; a consumed body's range stays readable until
/// the next response is read.
struct Conn {
    stream: TcpStream,
    /// Received bytes and the cursors around the unread ones.
    rx: ReadBuf,
}

impl Conn {
    /// Connects with Nagle off: requests are single small writes.
    fn open(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            rx: ReadBuf::default(),
        })
    }

    /// Blocks for more bytes, growing the buffer toward `want` unread
    /// ones; `eof` names where a close would cut the response.
    fn fill(&mut self, want: usize, eof: &'static str) -> io::Result<()> {
        if self.rx.fill(&mut self.stream, want)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, eof));
        }
        Ok(())
    }

    /// Reads one full response and consumes it; returns the status and
    /// the body's range for [`Conn::text`].
    fn read_response(&mut self) -> io::Result<(u16, (usize, usize))> {
        let head_len = loop {
            if let Some(len) = self.rx.head_len() {
                break len;
            }
            self.fill(0, "server closed mid-response")?;
        };
        let (status, length) = parse_head(self.rx.unread().get(..head_len).unwrap_or_default())?;
        let end = (head_len + 4).saturating_add(length);
        while self.rx.unread().len() < end {
            self.fill(end, "server closed mid-body")?;
        }
        self.rx.consume(head_len + 4);
        Ok((status, self.rx.consume(length)))
    }

    /// A consumed body's text.
    fn text(&self, body: (usize, usize)) -> io::Result<&str> {
        std::str::from_utf8(self.rx.bytes(body)).map_err(invalid_data)
    }
}

/// Status code and `Content-Length` (0 when absent, the last one when
/// repeated) of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = Head::new(head).map_err(invalid_data)?;
    let status = split_at_byte(head.start_line, b' ')
        .map(|(_, rest)| split_at_byte(rest, b' ').map_or(rest, |(code, _)| code))
        .and_then(parse_decimal)
        .and_then(|code| u16::try_from(code).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    for (name, value) in head.fields().flatten() {
        if name.eq_ignore_ascii_case(CONTENT_LENGTH) {
            length = parse_length(value).ok_or_else(|| bad_length(value))?;
        }
    }
    Ok((status, length))
}

/// The error for a `Content-Length` value [`parse_length`] refused,
/// naming the reason `str::parse` gives.
fn bad_length(value: &[u8]) -> io::Error {
    match std::str::from_utf8(value).map(|v| v.trim().parse::<usize>()) {
        // glacsweb: allow(perf-hygiene, reason = "error path: the replay stops here")
        Ok(Err(e)) => io::Error::new(io::ErrorKind::InvalidData, format!("bad length: {e}")),
        _ => io::Error::new(io::ErrorKind::InvalidData, "bad length"),
    }
}

/// Wraps a decoding error as `InvalidData`.
fn invalid_data(e: std::str::Utf8Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// One-shot GET against the server (test and tooling convenience; opens
/// a fresh connection per call).
pub fn http_get(addr: std::net::SocketAddr, target: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::open(addr)?;
    let mut request = String::with_capacity(target.len() + 32);
    request.push_str("GET ");
    request.push_str(target);
    request.push_str(" HTTP/1.1\r\nHost: glacsweb\r\n\r\n");
    conn.stream.write_all(request.as_bytes())?;
    let (status, body) = conn.read_response()?;
    Ok((status, String::from(conn.text(body)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_fleet::FleetConfig;

    fn trace() -> WakeTrace {
        WakeTrace::derive(&FleetConfig::new(2, 8).seed(41), 2).expect("valid config")
    }

    #[test]
    fn script_is_deterministic_and_indexed() {
        let a = script_from_trace(&trace(), true);
        let b = script_from_trace(&trace(), true);
        assert_eq!(a, b);
        for (i, step) in a.steps.iter().enumerate() {
            assert_eq!(step.index, i as u64, "indices are canonical positions");
        }
    }

    #[test]
    fn update_steps_come_once_per_station_and_in_fetch_ack_order() {
        let script = script_from_trace(&trace(), true);
        let mut fetches = vec![0u32; script.stations as usize];
        let mut acks = vec![0u32; script.stations as usize];
        for step in &script.steps {
            match step.action {
                Action::UpdateFetch => fetches[step.station as usize] += 1,
                Action::UpdateAck => {
                    acks[step.station as usize] += 1;
                    assert_eq!(
                        fetches[step.station as usize], 1,
                        "ack always follows its fetch"
                    );
                }
                _ => {}
            }
        }
        assert!(fetches.iter().all(|&f| f <= 1));
        assert_eq!(fetches, acks);
        let without = script_from_trace(&trace(), false);
        assert!(without
            .steps
            .iter()
            .all(|s| !matches!(s.action, Action::UpdateFetch | Action::UpdateAck)));
    }

    #[test]
    fn derived_parameters_are_in_range() {
        let script = script_from_trace(&trace(), false);
        for step in &script.steps {
            match step.action {
                Action::CheckIn { soc } => assert!((50..=1000).contains(&soc)),
                Action::StateReport { level } => assert!((1..=3).contains(&level)),
                _ => {}
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let stats = |sample: &[u64]| {
            let mut histogram = LatencyHistogram::new();
            for &us in sample {
                histogram.record(us);
            }
            let s = LatencyStats::from_histogram(&histogram);
            (s.p50_us, s.p99_us, s.p999_us)
        };
        let sample: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(stats(&sample), (500, 990, 999));
        assert_eq!(stats(&[]), (0, 0, 0));
        assert_eq!(stats(&[7]), (7, 7, 7));
        // Repeated values: rank 2 of [3, 3, 9] (p50) is 3, rank 3 is 9.
        assert_eq!(stats(&[9, 3, 3]), (3, 9, 9));
        let mut tail = vec![10; 995];
        tail.extend([50; 5]);
        assert_eq!(
            stats(&tail),
            (10, 10, 50),
            "rank 999 of 1000 lands in the tail"
        );
        // Values on both sides of the flat array's bound rank as one
        // sample.
        let bound = FLAT_LATENCY_US as u64;
        let mut wide: Vec<u64> = (0..1000).map(|i| bound - 500 + i).collect();
        wide.push(u64::MAX);
        assert_eq!(
            stats(&wide),
            (bound - 500 + 500, bound - 500 + 990, bound - 500 + 999),
            "ranks cross from the array into the map"
        );
        assert_eq!(stats(&[u64::MAX, 3]), (3, u64::MAX, u64::MAX));
    }

    #[test]
    fn batching_coalesces_consecutive_checkin_runs_only() {
        let at = SimTime::from_unix(100);
        let step = |index, action| Step {
            index,
            station: index,
            at,
            action,
        };
        let units = |steps: &[Step], batch: bool| {
            let mut steps = steps.iter().peekable();
            let (mut unit, mut out) = (Vec::new(), Vec::new());
            while next_unit(&mut steps, batch, &mut unit) {
                let first = unit[0].index;
                out.push((first, first + unit.len() as u64));
            }
            out
        };
        let steps = [
            step(0, Action::CheckIn { soc: 500 }),
            step(1, Action::CheckIn { soc: 501 }),
            step(2, Action::StateReport { level: 1 }),
            step(3, Action::CheckIn { soc: 502 }),
            step(4, Action::OverrideQuery),
        ];
        assert_eq!(
            units(&steps, true),
            vec![(0, 2), (2, 3), (3, 4), (4, 5)],
            "only runs of two or more check-ins coalesce"
        );
        assert_eq!(
            units(&steps, false),
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            "batching off means all singletons"
        );
        let long: Vec<Step> = (0..150)
            .map(|i| step(i, Action::CheckIn { soc: 500 }))
            .collect();
        assert_eq!(
            units(&long, true),
            vec![(0, 64), (64, 128), (128, 150)],
            "runs split at MAX_BATCH"
        );
    }

    #[test]
    fn a_refetch_reuses_its_receipt_and_an_ack_frees_it() {
        fn file(receipts: &mut Vec<Receipt>, station: u64) {
            let slot = receipt_slot(receipts, station).expect("a slot");
            slot.station = Some(station);
        }
        let mut receipts = Vec::new();
        file(&mut receipts, 4);
        file(&mut receipts, 6);
        receipts[0].station = None; // station 4 acked
        file(&mut receipts, 6); // a second fetch before the ack keeps its slot
        assert_eq!(receipts.len(), 2);
        assert_eq!(receipts[0].station, None);
        file(&mut receipts, 8); // takes the freed slot
        assert_eq!(receipts.len(), 2);
        assert_eq!(receipts[0].station, Some(8));
    }

    /// The response-head parser before the shared head scanner, kept
    /// as the oracle the scanner-based [`parse_head`] must agree with.
    fn parse_head_oracle(head: &str) -> io::Result<(u16, usize)> {
        let mut lines = head.split("\r\n");
        let status_line = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|e| {
                        io::Error::new(io::ErrorKind::InvalidData, format!("bad length: {e}"))
                    })?;
                }
            }
        }
        Ok((status, length))
    }

    /// Status lines the generated heads start with.
    const STATUS_LINES: &[&str] = &[
        "HTTP/1.1 200 OK",
        "HTTP/1.1 404 Not Found",
        "HTTP/1.1 431 Request Header Fields Too Large",
        "HTTP/1.1  200 OK",
        "HTTP/1.1 +200 OK",
        "HTTP/1.1 70000 Big",
        "HTTP/1.1 2x0 OK",
        "HTTP/1.1 200",
        "HTTP/1.1",
        "",
        " 200 OK",
        "HTTP/1.1 200 OK:",
    ];

    /// Field lines the generated heads draw from: `Content-Length` with
    /// case, whitespace and value variants, malformed lines and other
    /// headers.
    const FIELD_LINES: &[&str] = &[
        "Content-Type: text/plain",
        "Content-Length: 12",
        "content-length: 3",
        "CONTENT-LENGTH:0",
        " Content-Length : 7 ",
        "\tContent-length:\t9\t",
        "Content-Length: \u{a0}5",
        "Content-Length:\u{b}5\u{3000}",
        "Content-Length: +4",
        "Content-Length: -1",
        "Content-Length: ",
        "Content-Length: 5x",
        "Content-Length: 99999999999999999999999",
        "Content-Length 5",
        "Content-Lengths: 5",
        "Connection: keep-alive",
        "X-Note: a:b",
        "no colon at all",
        ":",
        "Content-Length: 6\rContent-Length: 8",
        "Content-Length: 2\nX: y",
    ];

    /// A generated response head: a status line, field lines, and
    /// byte overwrites (any byte, so CR, LF and non-UTF-8 bytes too).
    fn generated_head(status: usize, fields: &[usize], flips: &[(usize, u8)]) -> Vec<u8> {
        let mut head = STATUS_LINES[status].as_bytes().to_vec();
        for &field in fields {
            head.extend_from_slice(b"\r\n");
            head.extend_from_slice(FIELD_LINES[field].as_bytes());
        }
        for &(at, byte) in flips {
            if !head.is_empty() {
                let at = at % head.len();
                head[at] = byte;
            }
        }
        head
    }

    /// What a parse gave, comparable across the two parsers.
    fn outcome(result: io::Result<(u16, usize)>) -> Result<(u16, usize), (io::ErrorKind, String)> {
        result.map_err(|e| (e.kind(), e.to_string()))
    }

    #[test]
    fn head_parser_agrees_with_the_oracle_on_fixed_heads() {
        for status in 0..STATUS_LINES.len() {
            for field in 0..FIELD_LINES.len() {
                let head = generated_head(status, &[0, field], &[]);
                let text = std::str::from_utf8(&head).expect("fixed heads are UTF-8");
                assert_eq!(
                    outcome(parse_head(&head)),
                    outcome(parse_head_oracle(text)),
                    "{text:?}"
                );
            }
        }
        assert_eq!(
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 9").ok(),
            Some((200, 9)),
            "the last Content-Length wins"
        );
        assert_eq!(
            parse_head(b"HTTP/1.1 200 \xff").map_err(|e| e.kind()).err(),
            Some(io::ErrorKind::InvalidData)
        );
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// On any generated head, the scanner-based parser and the
            /// oracle agree on the status, the length and every error
            /// (kind and message); a non-UTF-8 head is `InvalidData`
            /// for both.
            #[test]
            fn head_parser_agrees_with_the_oracle(
                status in 0usize..STATUS_LINES.len(),
                fields in proptest::collection::vec(0usize..FIELD_LINES.len(), 0..7),
                flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..3),
            ) {
                let head = generated_head(status, &fields, &flips);
                let got = outcome(parse_head(&head));
                match std::str::from_utf8(&head) {
                    Ok(text) => prop_assert_eq!(got, outcome(parse_head_oracle(text))),
                    Err(e) => prop_assert_eq!(
                        got,
                        Err((io::ErrorKind::InvalidData, e.to_string()))
                    ),
                }
            }
        }
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so transcript digests are comparable across builds.
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"glacsweb"), 0x6e0c_ebe9_7223_a303);
    }
}
