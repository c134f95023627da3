//! Crash-safe snapshot persistence for the Glacsweb reproduction.
//!
//! A snapshot file is a self-describing binary envelope:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GLACSNAP"
//! 8       4     schema version, u32 LE
//! 12      8     payload length, u64 LE
//! 20      4     CRC-32 (IEEE) of the payload, u32 LE
//! 24      n     payload: binary-encoded serde::Value tree
//! ```
//!
//! The payload is the wire [`Value`] tree of whatever implements
//! [`Serialize`]; floats travel as their IEEE-754 bit pattern so a
//! round-trip is bit-identical, which is what lets a restored deployment
//! replay the exact golden-hash trajectory of an uninterrupted run.
//!
//! Durability rules:
//!
//! * [`save`] writes to a `.tmp` sibling, syncs it, then renames over the
//!   final path — a crash mid-write leaves the previous snapshot intact
//!   and at worst a stale temp file, never a torn snapshot;
//! * [`load`] verifies magic, schema version, length and checksum before
//!   decoding a single payload byte, and refuses files written by a
//!   *newer* schema ([`SnapshotError::FutureSchema`]) rather than
//!   guessing at fields it does not know;
//! * every failure is a typed [`SnapshotError`] — corrupted, truncated or
//!   crafted input must never panic the loader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};

/// File magic: identifies a Glacsweb snapshot regardless of extension.
pub const MAGIC: [u8; 8] = *b"GLACSNAP";

/// Schema version this build writes and the newest it can read.
///
/// Bump on any change to the payload layout. Readers accept any version
/// `<= SCHEMA_VERSION` (older payloads decode through the `Value` tree,
/// whose missing-field errors are typed, not panics) and reject newer
/// ones outright.
///
/// v2: a station's log is a byte meter (`min_level`, `bytes`); v1 also
/// stored the retained log lines, their counts and the capacity, which
/// v2 readers skip.
pub const SCHEMA_VERSION: u32 = 2;

/// Suffix of the temporary sibling used by the atomic write.
pub const TMP_SUFFIX: &str = ".tmp";

/// Envelope header length in bytes (magic + version + length + CRC).
pub const HEADER_LEN: usize = 24;

/// Maximum nesting depth [`load`] will decode — far above any real
/// deployment tree, low enough that a crafted file cannot blow the stack.
const MAX_DEPTH: u32 = 128;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file ends before the envelope says it should.
    Truncated {
        /// Bytes the envelope requires.
        needed: u64,
        /// Bytes actually present.
        have: u64,
    },
    /// The payload bytes do not hash to the stored CRC-32.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum of the bytes on disk.
        computed: u32,
    },
    /// The file was written by a newer schema than this build understands.
    FutureSchema {
        /// Version found in the file.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The payload checksummed correctly but is not a well-formed value
    /// tree (bad type tag, length overrun, invalid UTF-8, over-deep).
    Malformed(String),
    /// The value tree decoded but describes an impossible state (schema
    /// field mismatch or a violated domain invariant).
    Invalid(String),
}

impl SnapshotError {
    /// A semantic-validation failure with the given message.
    pub fn invalid(msg: impl Into<String>) -> Self {
        SnapshotError::Invalid(msg.into())
    }

    /// A structural-decode failure with the given message.
    pub fn malformed(msg: impl Into<String>) -> Self {
        SnapshotError::Malformed(msg.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a Glacsweb snapshot (bad magic)"),
            SnapshotError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: need {needed} bytes, have {have}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header says {stored:#010x}, payload hashes to {computed:#010x}"
            ),
            SnapshotError::FutureSchema { found, supported } => write!(
                f,
                "snapshot schema v{found} is newer than the supported v{supported}; upgrade before loading"
            ),
            SnapshotError::Malformed(msg) => write!(f, "snapshot payload malformed: {msg}"),
            SnapshotError::Invalid(msg) => write!(f, "snapshot state invalid: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<serde::de::Error> for SnapshotError {
    fn from(e: serde::de::Error) -> Self {
        SnapshotError::Invalid(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven; the polynomial everyone's `cksum`
// agrees on, so a snapshot can be sanity-checked outside this crate.

/// CRC-32 (IEEE) of `bytes`.
// Indexing and casts below are bounded by construction (i < 256, masked
// idx) and the table initializer runs at compile time; see the inline
// ledger entries.
#[allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
fn crc32(bytes: &[u8]) -> u32 {
    // const-evaluated once; no runtime table-build cost per call site.
    const TABLE: [u32; 256] = {
        // `crc32_table` is not const-callable on this toolchain floor, so
        // inline the same loop in const context.
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            // glacsweb: allow(panic-freedom, reason = "i < 256 by the loop bound; evaluated at compile time, so an out-of-range index is a build error, not a runtime panic")
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = u32::MAX;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        // glacsweb: allow(panic-freedom, reason = "idx is masked & 0xFF on the line above; TABLE has exactly 256 entries")
        crc = (crc >> 8) ^ TABLE[idx];
    }
    crc ^ u32::MAX
}

// ---------------------------------------------------------------------------
// Binary Value codec. One-byte type tag, little-endian fixed-width
// numbers, u64 lengths. Floats travel as raw bits: encode/decode is a
// bit-identical round trip even for -0.0 and the quiet NaNs the models
// never produce but a corrupted file might.

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::I64(x) => {
            out.push(TAG_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::U64(x) => {
            out.push(TAG_U64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(TAG_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (k, val) in entries {
                encode_value(k, out);
                encode_value(val, out);
            }
        }
    }
}

/// A bounds-checked cursor over the payload bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| {
            SnapshotError::malformed(format!("length overflow at offset {}", self.pos))
        })?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| {
            SnapshotError::malformed(format!(
                "payload ends at {} but a value at {} needs {} more bytes",
                self.buf.len(),
                self.pos,
                n
            ))
        })?;
        self.pos = end;
        Ok(slice)
    }

    fn take_byte(&mut self) -> Result<u8, SnapshotError> {
        match *self.take(1)? {
            [b] => Ok(b),
            // take(1) yields exactly one byte or errors; keep the decoder
            // total anyway rather than trusting that invariant.
            _ => Err(SnapshotError::malformed("internal: take(1) length")),
        }
    }

    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// A collection length, validated against the bytes that remain: every
    /// element costs at least one tag byte, so a count beyond the residue
    /// is corrupt — reject it *before* allocating.
    fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return Err(SnapshotError::malformed(format!(
                "collection claims {n} elements but only {remaining} payload bytes remain"
            )));
        }
        usize::try_from(n).map_err(|_| {
            SnapshotError::malformed(format!("collection length {n} exceeds the address space"))
        })
    }
}

fn decode_value(c: &mut Cursor<'_>, depth: u32) -> Result<Value, SnapshotError> {
    if depth > MAX_DEPTH {
        return Err(SnapshotError::malformed(format!(
            "value tree deeper than {MAX_DEPTH} levels"
        )));
    }
    let tag = c.take_byte()?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_I64 => Ok(Value::I64(i64::from_le_bytes({
            let mut a = [0u8; 8];
            a.copy_from_slice(c.take(8)?);
            a
        }))),
        TAG_U64 => Ok(Value::U64(c.take_u64()?)),
        TAG_F64 => Ok(Value::F64(f64::from_bits(c.take_u64()?))),
        TAG_STR => {
            let len = c.take_len()?;
            let bytes = c.take(len)?;
            let s = std::str::from_utf8(bytes)
                .map_err(|e| SnapshotError::malformed(format!("string is not UTF-8: {e}")))?;
            Ok(Value::Str(s.to_string()))
        }
        TAG_SEQ => {
            let len = c.take_len()?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(decode_value(c, depth + 1)?);
            }
            Ok(Value::Seq(items))
        }
        TAG_MAP => {
            let len = c.take_len()?;
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                let k = decode_value(c, depth + 1)?;
                let v = decode_value(c, depth + 1)?;
                entries.push((k, v));
            }
            Ok(Value::Map(entries))
        }
        other => Err(SnapshotError::malformed(format!(
            "unknown value tag {other} at offset {}",
            c.pos - 1
        ))),
    }
}

// ---------------------------------------------------------------------------
// Envelope.

/// Serializes `value` into a complete snapshot byte stream (header +
/// checksummed payload).
pub fn to_bytes<T: Serialize>(value: &T) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_value(&value.to_value(), &mut payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a complete snapshot byte stream back into a `T`.
///
/// Verification order: length → magic → schema version → payload length →
/// checksum → structural decode → typed deserialization. The first layer
/// that fails names the failure; nothing panics.
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, SnapshotError> {
    let value = payload_value(bytes)?;
    Ok(T::from_value(&value)?)
}

/// Decodes the envelope down to the raw `Value` tree (shared by
/// [`from_bytes`] and diagnostics).
fn payload_value(bytes: &[u8]) -> Result<Value, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        // Too short to even hold a header — but if what *is* there does
        // not look like our magic, say "not a snapshot", which is the more
        // useful message for a wrong-file mistake.
        let prefix_ok = bytes.get(..MAGIC.len()).is_some_and(|p| p == MAGIC);
        if bytes.len() < MAGIC.len() || prefix_ok {
            return Err(SnapshotError::Truncated {
                needed: HEADER_LEN as u64,
                have: bytes.len() as u64,
            });
        }
        return Err(SnapshotError::BadMagic);
    }
    let (magic, rest) = bytes.split_at(MAGIC.len());
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut version_bytes = [0u8; 4];
    let mut len_bytes = [0u8; 8];
    let mut crc_bytes = [0u8; 4];
    let Some(version_src) = rest.get(..4) else {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    };
    version_bytes.copy_from_slice(version_src);
    let version = u32::from_le_bytes(version_bytes);
    if version > SCHEMA_VERSION {
        return Err(SnapshotError::FutureSchema {
            found: version,
            supported: SCHEMA_VERSION,
        });
    }
    let (Some(len_src), Some(crc_src)) = (rest.get(4..12), rest.get(12..16)) else {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64,
            have: bytes.len() as u64,
        });
    };
    len_bytes.copy_from_slice(len_src);
    crc_bytes.copy_from_slice(crc_src);
    let payload_len = u64::from_le_bytes(len_bytes);
    let stored_crc = u32::from_le_bytes(crc_bytes);
    // The first check guarantees `bytes.len() >= HEADER_LEN`; stay total.
    let payload = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    if (payload.len() as u64) < payload_len {
        return Err(SnapshotError::Truncated {
            needed: HEADER_LEN as u64 + payload_len,
            have: bytes.len() as u64,
        });
    }
    if (payload.len() as u64) > payload_len {
        return Err(SnapshotError::malformed(format!(
            "{} trailing bytes after the declared payload",
            payload.len() as u64 - payload_len
        )));
    }
    let computed = crc32(payload);
    if computed != stored_crc {
        return Err(SnapshotError::ChecksumMismatch {
            stored: stored_crc,
            computed,
        });
    }
    let mut cursor = Cursor {
        buf: payload,
        pos: 0,
    };
    let value = decode_value(&mut cursor, 0)?;
    if cursor.pos != payload.len() {
        return Err(SnapshotError::malformed(format!(
            "{} payload bytes left over after the root value",
            payload.len() - cursor.pos
        )));
    }
    Ok(value)
}

/// The temp-sibling path [`save`] stages through: `<path><TMP_SUFFIX>`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Atomically writes `value` as a snapshot at `path`.
///
/// The bytes go to a `.tmp` sibling first, are fsynced, and the sibling is
/// renamed over `path`. A crash at any point leaves either the old file or
/// the new one — never a torn mixture. A stale `.tmp` from an interrupted
/// earlier save is silently replaced.
pub fn save<T: Serialize>(value: &T, path: &Path) -> Result<(), SnapshotError> {
    let bytes = to_bytes(value);
    let tmp = tmp_path(path);
    let result = (|| -> Result<(), SnapshotError> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is the one that matters.
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Loads and verifies the snapshot at `path`.
pub fn load<T: Deserialize>(path: &Path) -> Result<T, SnapshotError> {
    let bytes = fs::read(path)?;
    from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de;

    /// Reference CRC table builder; documents the `TABLE` initializer in
    /// [`crc32`] and must stay in sync with it.
    fn crc32_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Demo {
        label: String,
        counters: Vec<u64>,
        bias: f64,
        armed: bool,
    }

    fn demo() -> Demo {
        Demo {
            label: "glacier".to_string(),
            counters: vec![1, 2, 3],
            bias: -0.0,
            armed: true,
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let bytes = to_bytes(&demo());
        let back: Demo = from_bytes(&bytes).expect("round trip");
        assert_eq!(back, demo());
        assert_eq!(
            back.bias.to_bits(),
            (-0.0f64).to_bits(),
            "float bits survive"
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn bad_magic_detected() {
        let mut bytes = to_bytes(&demo());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = to_bytes(&demo());
        for cut in 0..bytes.len() {
            let err = from_bytes::<Demo>(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let mut bytes = to_bytes(&demo());
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn future_schema_refused() {
        let mut bytes = to_bytes(&demo());
        bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        match from_bytes::<Demo>(&bytes) {
            Err(SnapshotError::FutureSchema { found, supported }) => {
                assert_eq!(found, SCHEMA_VERSION + 1);
                assert_eq!(supported, SCHEMA_VERSION);
            }
            other => panic!("expected FutureSchema, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&demo());
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_collection_length_rejected_before_allocation() {
        // Payload: a Seq claiming u64::MAX elements.
        let mut payload = vec![TAG_SEQ];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn over_deep_nesting_rejected() {
        // 200 nested single-element Seqs around a Null.
        let mut payload = Vec::new();
        for _ in 0..200 {
            payload.push(TAG_SEQ);
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        payload.push(TAG_NULL);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = from_bytes::<Value>(&bytes).expect_err("over-deep must fail");
        assert!(err.to_string().contains("deeper"), "got: {err}");
    }

    #[test]
    fn schema_mismatch_is_invalid_not_panic() {
        // A well-formed envelope whose payload is a map missing Demo's
        // fields: decodes structurally, fails typed deserialization.
        let wrong = vec![(Value::Str("nope".to_string()), Value::U64(1))];
        let bytes = to_bytes(&Value::Map(wrong));
        assert!(matches!(
            from_bytes::<Demo>(&bytes),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn save_is_atomic_and_load_verifies() {
        let dir = std::env::temp_dir().join("glacsweb-snapshot-test-save");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("demo.snap");
        save(&demo(), &path).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp sibling renamed away");
        let back: Demo = load(&path).expect("load");
        assert_eq!(back, demo());
        // Overwrite with new content: still atomic, still loads.
        let mut second = demo();
        second.counters.push(99);
        save(&second, &path).expect("second save");
        let back: Demo = load(&path).expect("second load");
        assert_eq!(back, second);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load::<Demo>(Path::new("/nonexistent/glacsweb.snap")).expect_err("no file");
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn de_error_converts_to_invalid() {
        let e: SnapshotError = de::Error::custom("bad field").into();
        assert!(matches!(e, SnapshotError::Invalid(_)));
        assert!(e.to_string().contains("bad field"));
    }

    #[test]
    fn dead_table_builder_matches_const_table() {
        // `crc32_table` documents the TABLE initializer; keep them in sync.
        let table = crc32_table();
        let mut probe = Vec::new();
        for i in 0..=255u8 {
            probe.push(i);
        }
        let mut crc = u32::MAX;
        for &b in &probe {
            let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
            crc = (crc >> 8) ^ table[idx];
        }
        assert_eq!(crc ^ u32::MAX, crc32(&probe));
    }
}
