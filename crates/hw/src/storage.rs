//! The compact-flash data store.
//!
//! §II: "The system also has a 4GB compact flash card for data storage."
//! §VII records that a card "had become corrupted … it proved possible to
//! recover the data", prompting the file-system investigation — so the
//! model includes a corruption fault and a (lossy) recovery operation.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use glacsweb_sim::{Bytes, SimRng, SimTime};
use serde::{de, Deserialize, Serialize, Value};

/// What kind of file a station writes. Each kind lives in its own card
/// directory under one extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileKind {
    /// dGPS observation file.
    Gps,
    /// Probe readings batch.
    Probe,
    /// Sensor/housekeeping data.
    Sensor,
    /// System log.
    Log,
}

impl FileKind {
    /// Every kind, in declaration order.
    const ALL: [FileKind; 4] = [
        FileKind::Gps,
        FileKind::Probe,
        FileKind::Sensor,
        FileKind::Log,
    ];

    /// The card directory the kind's files live in.
    pub fn dir(self) -> &'static str {
        match self {
            FileKind::Gps => "gps",
            FileKind::Probe => "probes",
            FileKind::Sensor => "sensors",
            FileKind::Log => "log",
        }
    }

    /// The extension of the kind's files.
    fn ext(self) -> &'static str {
        match self {
            FileKind::Gps => "obs",
            FileKind::Probe | FileKind::Sensor => "dat",
            FileKind::Log => "log",
        }
    }
}

/// A card file name, `dir/NNNNNN.ext`: the kind (which fixes the
/// directory and extension) and a station-wide file sequence number,
/// zero-padded to six digits. It is stored as those two parts and only
/// formatted when displayed or written to a snapshot, where it is the
/// name's text.
///
/// Names order as their text does, so a map keyed by them iterates (and
/// serializes) exactly as one keyed by the formatted strings.
///
/// # Example
///
/// ```
/// use glacsweb_hw::{FileKind, FileName};
///
/// let name = FileName::new(FileKind::Gps, 42);
/// assert_eq!(name.to_string(), "gps/000042.obs");
/// assert!(FileName::new(FileKind::Log, 9) < FileName::new(FileKind::Probe, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileName {
    kind: FileKind,
    seq: u64,
}

impl FileName {
    /// The name of file number `seq` of the given kind.
    pub fn new(kind: FileKind, seq: u64) -> Self {
        FileName { kind, seq }
    }

    /// The kind of file.
    pub fn kind(self) -> FileKind {
        self.kind
    }

    /// The sequence number's digits as they appear in the name (at least
    /// six, zero-padded), right-aligned in a buffer, with their start.
    fn digits(self) -> ([u8; 20], usize) {
        let mut buf = [b'0'; 20];
        let mut rest = self.seq;
        let mut start = buf.len();
        for slot in buf.iter_mut().rev() {
            *slot = b'0' + (rest % 10) as u8;
            rest /= 10;
            start -= 1;
            if rest == 0 {
                break;
            }
        }
        (buf, start.min(buf.len() - 6))
    }
}

/// Writes the name's text, `dir/NNNNNN.ext`.
fn write_name(kind: FileKind, seq: u64, out: &mut impl fmt::Write) -> fmt::Result {
    write!(out, "{}/{seq:06}.{}", kind.dir(), kind.ext())
}

impl fmt::Display for FileName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_name(self.kind, self.seq, f)
    }
}

impl Ord for FileName {
    /// The byte order of the formatted names: by directory, then by the
    /// digit strings (the extension is the directory's, and `.` sorts
    /// before every digit, so a shorter digit string that is a prefix of
    /// a longer one comes first, as it does here).
    fn cmp(&self, other: &Self) -> Ordering {
        self.kind.dir().cmp(other.kind.dir()).then_with(|| {
            if self.seq.max(other.seq) < 1_000_000 {
                // Both are six digits: the text orders as the numbers.
                return self.seq.cmp(&other.seq);
            }
            let ((a, i), (b, j)) = (self.digits(), other.digits());
            a.get(i..).cmp(&b.get(j..))
        })
    }
}

impl PartialOrd for FileName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A name travels as its text.
impl Serialize for FileName {
    fn to_value(&self) -> Value {
        let mut text = String::with_capacity(24);
        // Writing into a String cannot fail.
        let _ = write_name(self.kind, self.seq, &mut text);
        Value::Str(text)
    }
}

/// Reads exactly the text a name writes, and nothing else, so a restored
/// name writes back the same bytes.
impl Deserialize for FileName {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let malformed = || de::Error::custom("card file name is not `dir/NNNNNN.ext`");
        let text = v.as_str().ok_or_else(malformed)?;
        let (dir, file) = text.split_once('/').ok_or_else(malformed)?;
        let (digits, ext) = file.split_once('.').ok_or_else(malformed)?;
        let kind = FileKind::ALL
            .into_iter()
            .find(|k| k.dir() == dir && k.ext() == ext)
            .ok_or_else(malformed)?;
        let canonical = digits.len() == 6 || (digits.len() > 6 && !digits.starts_with('0'));
        if !canonical || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(malformed());
        }
        let seq = digits.parse().map_err(|_| malformed())?;
        Ok(FileName { kind, seq })
    }
}

/// A file on the card.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredFile {
    /// File name (unique on the card).
    pub name: FileName,
    /// Size on disk.
    pub size: Bytes,
    /// Creation time.
    pub created: SimTime,
    /// `true` if a corruption event damaged this file.
    pub corrupted: bool,
}

/// Errors returned by [`CfCard`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The card is full.
    Full {
        /// Bytes requested.
        requested: Bytes,
        /// Bytes free.
        free: Bytes,
    },
    /// A file with this name already exists.
    Exists(FileName),
    /// No file with this name.
    NotFound(FileName),
    /// The card's filesystem is corrupted and must be recovered first.
    Corrupted,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Full { requested, free } => {
                write!(f, "card full: requested {requested}, free {free}")
            }
            StorageError::Exists(name) => write!(f, "file \"{name}\" already exists"),
            StorageError::NotFound(name) => write!(f, "file \"{name}\" not found"),
            StorageError::Corrupted => write!(f, "filesystem corrupted; recovery required"),
        }
    }
}

impl Error for StorageError {}

/// A 4 GB compact-flash card with a corruption fault model.
///
/// # Example
///
/// ```
/// use glacsweb_hw::{CfCard, FileKind, FileName};
/// use glacsweb_sim::{Bytes, SimTime};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut card = CfCard::new(Bytes::from_mib(4096));
/// let t = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
/// let name = FileName::new(FileKind::Gps, 1);
/// card.write(name, Bytes::from_kib(165), t)?;
/// assert_eq!(card.used(), Bytes::from_kib(165));
/// card.delete(name)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CfCard {
    capacity: Bytes,
    files: FileTable,
    fs_corrupted: bool,
    corruption_events: u64,
}

/// The card's files in name order. A card holds a day or two of files,
/// so a sorted list beats a tree: lookups are a binary search, and the
/// list keeps its storage as files come and go.
///
/// The wire form is the name → file map a `BTreeMap<FileName,
/// StoredFile>` writes, so snapshots are unchanged in both directions.
#[derive(Debug, Clone, Default, PartialEq)]
struct FileTable(Vec<StoredFile>);

impl FileTable {
    /// Where `name` is, or where it would go.
    fn find(&self, name: FileName) -> Result<usize, usize> {
        self.0.binary_search_by(|f| f.name.cmp(&name))
    }
}

impl Serialize for FileTable {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|f| (f.name.to_value(), f.to_value()))
                .collect(),
        )
    }
}

/// Reads the map form back, failing if a key is not its file's name.
impl Deserialize for FileTable {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let map = BTreeMap::<FileName, StoredFile>::from_value(v)?;
        if map.iter().any(|(name, file)| *name != file.name) {
            return Err(de::Error::custom("card file stored under another name"));
        }
        Ok(FileTable(map.into_values().collect()))
    }
}

impl CfCard {
    /// Creates an empty, healthy card.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity: Bytes) -> Self {
        assert!(capacity.value() > 0, "capacity must be non-zero");
        CfCard {
            capacity,
            files: FileTable::default(),
            fs_corrupted: false,
            corruption_events: 0,
        }
    }

    /// Card capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes in use.
    pub fn used(&self) -> Bytes {
        self.files.0.iter().map(|f| f.size).sum()
    }

    /// Bytes free.
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used())
    }

    /// `true` if the filesystem is currently corrupted.
    pub fn is_corrupted(&self) -> bool {
        self.fs_corrupted
    }

    /// Number of corruption events over the card's life.
    pub fn corruption_events(&self) -> u64 {
        self.corruption_events
    }

    /// Writes a new file.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupted`] if the filesystem needs recovery,
    /// [`StorageError::Exists`] on a name collision, or
    /// [`StorageError::Full`] if the card lacks space.
    pub fn write(&mut self, name: FileName, size: Bytes, now: SimTime) -> Result<(), StorageError> {
        if self.fs_corrupted {
            return Err(StorageError::Corrupted);
        }
        let at = match self.files.find(name) {
            Ok(_) => return Err(StorageError::Exists(name)),
            Err(at) => at,
        };
        let free = self.free();
        if size > free {
            return Err(StorageError::Full {
                requested: size,
                free,
            });
        }
        self.files.0.insert(
            at,
            StoredFile {
                name,
                size,
                created: now,
                corrupted: false,
            },
        );
        Ok(())
    }

    /// Reads a file's metadata.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupted`] or [`StorageError::NotFound`].
    pub fn read(&self, name: FileName) -> Result<&StoredFile, StorageError> {
        if self.fs_corrupted {
            return Err(StorageError::Corrupted);
        }
        self.files
            .find(name)
            .ok()
            .and_then(|at| self.files.0.get(at))
            .ok_or(StorageError::NotFound(name))
    }

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupted`] or [`StorageError::NotFound`].
    pub fn delete(&mut self, name: FileName) -> Result<(), StorageError> {
        if self.fs_corrupted {
            return Err(StorageError::Corrupted);
        }
        let at = self
            .files
            .find(name)
            .map_err(|_| StorageError::NotFound(name))?;
        self.files.0.remove(at);
        Ok(())
    }

    /// Lists file names in name order (empty while corrupted).
    pub fn list(&self) -> Vec<FileName> {
        if self.fs_corrupted {
            return Vec::new();
        }
        self.files.0.iter().map(|f| f.name).collect()
    }

    /// Fault injection: corrupts the filesystem and marks a random subset
    /// of files damaged (the §VII field failure).
    pub fn inject_corruption(&mut self, rng: &mut SimRng) {
        self.fs_corrupted = true;
        self.corruption_events += 1;
        for f in &mut self.files.0 {
            if rng.bernoulli(0.15) {
                f.corrupted = true;
            }
        }
    }

    /// Attempts recovery (the paper: "it proved possible to recover the
    /// data from the card"). Files marked damaged are lost; the rest
    /// become readable again. Returns how many files were recovered and
    /// how many were lost.
    pub fn recover(&mut self) -> (usize, usize) {
        let before = self.files.0.len();
        self.files.0.retain(|f| !f.corrupted);
        self.fs_corrupted = false;
        let kept = self.files.0.len();
        (kept, before - kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0)
    }

    fn gps(seq: u64) -> FileName {
        FileName::new(FileKind::Gps, seq)
    }

    #[test]
    fn write_read_delete_round_trip() {
        let mut c = CfCard::new(Bytes::from_mib(10));
        c.write(gps(1), Bytes::from_kib(165), t0()).expect("write");
        let f = c.read(gps(1)).expect("read");
        assert_eq!(f.size, Bytes::from_kib(165));
        assert_eq!(c.list(), vec![gps(1)]);
        c.delete(gps(1)).expect("delete");
        assert_eq!(c.used(), Bytes::ZERO);
        assert!(matches!(c.read(gps(1)), Err(StorageError::NotFound(_))));
    }

    #[test]
    fn card_fills_up() {
        let mut c = CfCard::new(Bytes::from_kib(300));
        c.write(gps(1), Bytes::from_kib(165), t0())
            .expect("first fits");
        let err = c
            .write(gps(2), Bytes::from_kib(165), t0())
            .expect_err("second does not");
        assert!(matches!(err, StorageError::Full { .. }));
        assert_eq!(c.free(), Bytes::from_kib(300) - Bytes::from_kib(165));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = CfCard::new(Bytes::from_mib(1));
        c.write(gps(1), Bytes(10), t0()).expect("write");
        assert!(matches!(
            c.write(gps(1), Bytes(10), t0()),
            Err(StorageError::Exists(_))
        ));
    }

    #[test]
    fn corruption_blocks_io_until_recovery() {
        let mut c = CfCard::new(Bytes::from_mib(10));
        for i in 0..50 {
            c.write(gps(i), Bytes::from_kib(10), t0()).expect("write");
        }
        let mut rng = SimRng::seed_from(13);
        c.inject_corruption(&mut rng);
        assert!(c.is_corrupted());
        assert!(matches!(c.read(gps(0)), Err(StorageError::Corrupted)));
        assert!(matches!(
            c.write(gps(99), Bytes(1), t0()),
            Err(StorageError::Corrupted)
        ));
        assert!(c.list().is_empty());

        let (kept, lost) = c.recover();
        assert!(!c.is_corrupted());
        assert_eq!(kept + lost, 50);
        assert!(
            kept > 30,
            "most data recovers, as in the field: kept {kept}"
        );
        assert!(lost > 0, "recovery is lossy with this seed: lost {lost}");
        assert_eq!(c.corruption_events(), 1);
    }

    #[test]
    fn error_display_messages() {
        let full = StorageError::Full {
            requested: Bytes::from_kib(165),
            free: Bytes(0),
        };
        assert!(full.to_string().contains("card full"));
        assert_eq!(
            StorageError::NotFound(FileName::new(FileKind::Log, 7)).to_string(),
            "file \"log/000007.log\" not found"
        );
        assert!(StorageError::Corrupted.to_string().contains("recovery"));
        assert_eq!(
            StorageError::Exists(gps(42)).to_string(),
            format!("file {:?} already exists", "gps/000042.obs")
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = CfCard::new(Bytes::ZERO);
    }

    #[test]
    fn file_table_writes_the_name_keyed_map() {
        let mut c = CfCard::new(Bytes::from_mib(10));
        let names = [
            FileName::new(FileKind::Sensor, 3),
            gps(2_000_000),
            FileName::new(FileKind::Log, 4),
            gps(7),
            FileName::new(FileKind::Probe, 5),
        ];
        let mut map = BTreeMap::new();
        for name in names {
            c.write(name, Bytes(10), t0()).expect("write");
            map.insert(name.to_string(), c.read(name).expect("read").clone());
        }
        assert_eq!(c.files.to_value(), map.to_value());
        let back = FileTable::from_value(&map.to_value()).expect("decodes");
        assert_eq!(back, c.files);
        let listed: Vec<String> = c.list().iter().map(ToString::to_string).collect();
        assert_eq!(listed, map.keys().cloned().collect::<Vec<_>>());

        let mut renamed = map;
        let stray = renamed.remove("gps/000007.obs").expect("held");
        renamed.insert("gps/000008.obs".to_string(), stray);
        assert!(FileTable::from_value(&renamed.to_value()).is_err());
    }

    #[test]
    fn names_format_and_parse_back() {
        for (kind, text) in [
            (FileKind::Gps, "gps/000001.obs"),
            (FileKind::Probe, "probes/000001.dat"),
            (FileKind::Sensor, "sensors/000001.dat"),
            (FileKind::Log, "log/000001.log"),
        ] {
            let name = FileName::new(kind, 1);
            assert_eq!(name.to_string(), text);
            assert_eq!(name.to_value(), Value::Str(text.to_string()));
            assert_eq!(
                FileName::from_value(&name.to_value()).expect("decodes"),
                name
            );
        }
        assert_eq!(gps(1_234_567).to_string(), "gps/1234567.obs");
        for bad in [
            "gps/000001.dat",
            "gps/00001.obs",
            "gps/0000001.obs",
            "gps/00000x.obs",
            "gps/+00001.obs",
            "gps/000001",
            "gps000001.obs",
            "misc/000001.obs",
            "gps/99999999999999999999.obs",
            "",
        ] {
            let bad = Value::Str(bad.to_string());
            assert!(
                FileName::from_value(&bad).is_err(),
                "{bad:?} must not decode"
            );
        }
        assert!(FileName::from_value(&Value::U64(1)).is_err());
    }

    proptest! {
        /// Names order exactly as their formatted text does — across
        /// kinds and across the six-digit padding boundary — so a map
        /// keyed by names iterates and serializes as one keyed by text.
        #[test]
        fn names_order_as_their_text(
            a in (0usize..4, 0u64..3_000_000),
            b in (0usize..4, 0u64..3_000_000),
            wide in 0u64..u64::MAX,
        ) {
            let name = |(k, seq): (usize, u64)| FileName::new(FileKind::ALL[k], seq);
            let (x, y, z) = (name(a), name(b), name((a.0, wide)));
            prop_assert_eq!(x.cmp(&y), x.to_string().cmp(&y.to_string()));
            prop_assert_eq!(x.cmp(&z), x.to_string().cmp(&z.to_string()));
            for name in [x, z] {
                prop_assert_eq!(name.to_value(), Value::Str(name.to_string()));
                prop_assert_eq!(FileName::from_value(&name.to_value()).expect("decodes"), name);
            }
        }
    }
}
