//! Crash-safety of the checkpoint path, attacked end to end: every way a
//! snapshot file can go wrong on a flaky CF card — truncation, bit rot,
//! a future schema, an interrupted write — must surface as a typed
//! [`SnapshotError`], never a panic, and must never resurrect a partial
//! deployment.

use std::path::PathBuf;

use glacsweb::{Deployment, Scenario, SnapshotError};
use glacsweb_snapshot::{tmp_path, HEADER_LEN, MAGIC, SCHEMA_VERSION, TMP_SUFFIX};

/// A per-test scratch file under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("glacsweb-snapshot-corruption");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{name}-{}.snap", std::process::id()))
}

/// A real checkpoint to corrupt: two simulated days of the lab scenario.
fn checkpoint_at(path: &PathBuf) -> Vec<u8> {
    let mut d = Scenario::lab_bringup().seed(7).build();
    d.run_days(2);
    d.checkpoint(path).expect("write checkpoint");
    std::fs::read(path).expect("read checkpoint back")
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let path = scratch("truncate");
    let bytes = checkpoint_at(&path);
    // Every prefix, from the empty file up to one byte short of intact:
    // header-level cuts report Truncated; payload-level cuts may decode
    // far enough to fail the checksum instead. Either way: typed, no
    // panic, no deployment.
    for cut in [
        0,
        1,
        MAGIC.len(),
        HEADER_LEN - 1,
        HEADER_LEN,
        HEADER_LEN + 1,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated file");
        match Deployment::resume(&path) {
            Err(SnapshotError::Truncated { needed, have }) => {
                assert!(
                    have < needed,
                    "cut at {cut}: have {have} >= needed {needed}"
                );
            }
            Err(SnapshotError::ChecksumMismatch { .. }) | Err(SnapshotError::BadMagic) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other}"),
            Ok(_) => panic!("cut at {cut}: resumed from a truncated snapshot"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn every_single_flipped_bit_is_caught() {
    let path = scratch("bitrot");
    let bytes = checkpoint_at(&path);
    // Stride through the file flipping one bit at a time; the CRC (or a
    // header check, for bytes in the envelope) must reject every one.
    for pos in (0..bytes.len()).step_by(bytes.len() / 64 + 1) {
        let mut dirty = bytes.clone();
        dirty[pos] ^= 0x10;
        std::fs::write(&path, &dirty).expect("write corrupted file");
        match Deployment::resume(&path) {
            Err(
                SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::BadMagic
                | SnapshotError::Truncated { .. }
                | SnapshotError::FutureSchema { .. },
            ) => {}
            Err(other) => panic!("bit flip at {pos}: unexpected error {other}"),
            Ok(_) => panic!("bit flip at {pos}: resumed from a corrupt snapshot"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshots_from_the_future_are_refused() {
    let path = scratch("future");
    let mut bytes = checkpoint_at(&path);
    // The schema version lives right after the magic, little-endian.
    let next = SCHEMA_VERSION + 1;
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&next.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write future-schema file");
    match Deployment::resume(&path) {
        Err(SnapshotError::FutureSchema { found, supported }) => {
            assert_eq!(found, next);
            assert_eq!(supported, SCHEMA_VERSION);
        }
        Err(other) => panic!("unexpected error {other}"),
        Ok(_) => panic!("resumed from a snapshot written by a newer build"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interrupted_write_leaves_the_previous_checkpoint_usable() {
    let path = scratch("interrupted");
    let good = checkpoint_at(&path);

    // Model a crash mid-save: the writer died after filling the temp
    // file but before the rename. The durable checkpoint must be
    // untouched, and loading it must ignore the stale temp entirely.
    let tmp = tmp_path(&path);
    assert!(tmp.to_string_lossy().ends_with(TMP_SUFFIX));
    std::fs::write(&tmp, &good[..good.len() / 2]).expect("leave a stale half-written temp");

    let mut resumed = Deployment::resume(&path).expect("previous checkpoint still loads");
    resumed.run_days(1);

    // The next successful checkpoint replaces both the stale temp and
    // the old file atomically.
    resumed
        .checkpoint(&path)
        .expect("re-checkpoint over the stale temp");
    assert!(
        !tmp.exists(),
        "a successful save must not leave a temp file"
    );
    let reread = std::fs::read(&path).expect("new checkpoint readable");
    assert_ne!(
        reread, good,
        "the new checkpoint must have replaced the old"
    );
    Deployment::resume(&path).expect("replacement checkpoint loads");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn crash_before_any_rename_means_no_checkpoint_at_all() {
    let path = scratch("first-write-crash");
    // First-ever save dies before the rename: only the temp exists.
    let mut d = Scenario::lab_bringup().seed(9).build();
    d.run_days(1);
    let tmp = tmp_path(&path);
    std::fs::write(&tmp, b"GLACSNAP half-written garbage").expect("stale temp");

    // The contract: the final path never exists in a half-written state,
    // so a resume attempt reports a clean not-found I/O error.
    match Deployment::resume(&path) {
        Err(SnapshotError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound);
        }
        Err(other) => panic!("unexpected error {other}"),
        Ok(_) => panic!("resumed a deployment from a file that was never committed"),
    }

    // A retry of the save goes through and cleans up after itself.
    d.checkpoint(&path).expect("retried save succeeds");
    assert!(!tmp.exists(), "retry must clobber the stale temp");
    Deployment::resume(&path).expect("committed checkpoint loads");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_and_foreign_files_are_rejected_politely() {
    let path = scratch("garbage");
    for contents in [
        &b""[..],
        b"not a snapshot at all",
        b"{\"json\": \"file\"}",
        &[0u8; 64][..],
    ] {
        std::fs::write(&path, contents).expect("write garbage");
        match Deployment::resume(&path) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("resumed from garbage"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// CRC-32 (IEEE), to re-seal a payload after editing it.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(u32::MAX, |crc, &b| {
        (0..8).fold(crc ^ u32::from(b), |c, _| {
            if c & 1 == 0 {
                c >> 1
            } else {
                (c >> 1) ^ 0xEDB8_8320
            }
        })
    })
}

/// A day-2 lab snapshot's bytes, built once for every case.
fn lab_day_two() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let mut d = Scenario::lab_bringup().seed(7).build();
        d.run_days(2);
        glacsweb_snapshot::to_bytes(&d.snapshot())
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

    /// A payload byte changed under a re-sealed checksum reaches the
    /// decoder and `Deployment::restore`, which must refuse it with a
    /// typed error or restore it, never panic.
    #[test]
    fn a_resealed_payload_byte_flip_restores_or_is_a_typed_error(
        offset in 0usize..usize::MAX,
        mask in 1u8..=255,
    ) {
        let mut bytes = lab_day_two().to_vec();
        let pos = HEADER_LEN + offset % (bytes.len() - HEADER_LEN);
        bytes[pos] ^= mask;
        let crc = crc32(&bytes[HEADER_LEN..]);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        match glacsweb_snapshot::from_bytes(&bytes).and_then(Deployment::restore) {
            Ok(_)
            | Err(SnapshotError::Malformed(_) | SnapshotError::Invalid(_)) => {}
            Err(other) => proptest::prop_assert!(false, "byte {pos}: {other}"),
        }
    }
}
