//! The station data store and upload queue.
//!
//! §I: "The data gathered from the probes and dGPS is buffered locally
//! until the scheduled communications window… If for any reason the
//! communications fail the data is stored locally until it can be sent
//! onwards." §VI adds the backlog behaviour: "the data will be processed
//! file by file, and so over the course of a few days the backlog will be
//! cleared."

use std::collections::VecDeque;

pub use glacsweb_hw::FileKind;
use glacsweb_hw::FileName;
use glacsweb_link::{DataCostMeter, Wan};
use glacsweb_sim::{Bytes, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::uplink::{StationId, Uplink, UploadItem};

/// The typed payload delivered to the server when a file completes.
pub type FilePayload = UploadItem;

/// One queued file with partial-upload resume state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingFile {
    /// File name on the CF card.
    pub name: FileName,
    /// Kind, for reporting (the name's kind).
    pub kind: FileKind,
    /// Total size.
    pub size: Bytes,
    /// Bytes already transferred in previous windows ("file by file"
    /// resume is per-file: a partially sent file restarts, but completed
    /// files never re-send — matching scp-style file transfer).
    pub sent: Bytes,
    /// Payload handed to the server on completion.
    pub payload: FilePayload,
    /// When the file was queued.
    pub queued_at: SimTime,
}

/// Outcome of one window's upload work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UploadReport {
    /// Files fully delivered this window.
    pub files_completed: usize,
    /// Bytes moved this window (including partial progress).
    pub bytes_sent: Bytes,
    /// Time spent transferring.
    pub elapsed: SimDuration,
    /// `true` if the queue drained completely.
    pub drained: bool,
    /// GPRS session drops encountered.
    pub session_drops: u32,
}

/// The upload queue.
///
/// # Example
///
/// ```
/// use glacsweb_hw::FileName;
/// use glacsweb_station::{DataStore, FileKind, UploadItem};
/// use glacsweb_sim::{Bytes, SimTime};
///
/// let mut store = DataStore::new();
/// let t = SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0);
/// store.queue(
///     FileName::new(FileKind::Sensor, 265),
///     Bytes::from_kib(4),
///     UploadItem::SensorData { samples: 48, size: Bytes::from_kib(4) },
///     t,
/// );
/// assert_eq!(store.backlog_bytes(), Bytes::from_kib(4));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataStore {
    queue: VecDeque<PendingFile>,
    total_uploaded: Bytes,
    total_files: u64,
    recently_completed: Vec<FileName>,
}

impl DataStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DataStore {
            queue: VecDeque::new(),
            total_uploaded: Bytes::ZERO,
            total_files: 0,
            recently_completed: Vec::new(),
        }
    }

    /// Queues a file for upload.
    pub fn queue(&mut self, name: FileName, size: Bytes, payload: FilePayload, now: SimTime) {
        self.queue.push_back(PendingFile {
            name,
            kind: name.kind(),
            size,
            sent: Bytes::ZERO,
            payload,
            queued_at: now,
        });
    }

    /// Files waiting.
    pub fn backlog_files(&self) -> usize {
        self.queue.len()
    }

    /// Bytes waiting (net of partial progress).
    pub fn backlog_bytes(&self) -> Bytes {
        self.queue
            .iter()
            .map(|f| f.size.saturating_sub(f.sent))
            .sum()
    }

    /// Lifetime bytes delivered.
    pub fn total_uploaded(&self) -> Bytes {
        self.total_uploaded
    }

    /// Names of files fully delivered since the last drain — the caller
    /// uses this to free the corresponding CF-card copies.
    pub fn drain_completed(&mut self) -> impl Iterator<Item = FileName> + '_ {
        self.recently_completed.drain(..)
    }

    /// Pushes queued files through an established WAN session until the
    /// budget, the queue, or the session is exhausted.
    ///
    /// Completed files are handed to `uplink`; a partially transferred
    /// file keeps its progress for the next window. Returns what happened.
    pub fn upload(
        &mut self,
        from: StationId,
        link: &mut Wan,
        uplink: &mut dyn Uplink,
        cost: &mut DataCostMeter,
        budget: SimDuration,
        rng: &mut SimRng,
    ) -> UploadReport {
        let mut report = UploadReport::default();
        let mut remaining = budget;
        while let Some(file) = self.queue.front_mut() {
            if remaining == SimDuration::ZERO || !link.is_connected() {
                break;
            }
            let want = file.size.saturating_sub(file.sent);
            let outcome = link.transfer(want, remaining, rng);
            file.sent += outcome.sent;
            report.bytes_sent += outcome.sent;
            cost.charge(outcome.sent);
            remaining = remaining.saturating_sub(outcome.elapsed);
            report.elapsed += outcome.elapsed;
            if outcome.dropped {
                report.session_drops += 1;
                break; // caller decides whether to reconnect
            }
            if file.sent >= file.size {
                let Some(done) = self.queue.pop_front() else {
                    // Unreachable: front_mut() above just yielded this entry.
                    break;
                };
                self.total_uploaded += done.size;
                self.total_files += 1;
                report.files_completed += 1;
                self.recently_completed.push(done.name);
                uplink.upload_item(from, done.payload);
            } else {
                break; // budget exhausted mid-file
            }
        }
        report.drained = self.queue.is_empty();
        report
    }
}

impl Default for DataStore {
    fn default() -> Self {
        DataStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_link::{GprsConfig, GprsLink};
    use glacsweb_sim::CivilDate;

    use crate::power_state::PowerState;
    use crate::uplink::{CodeUpdate, SpecialCommand};

    /// A minimal recording uplink for tests.
    #[derive(Default)]
    struct FakeUplink {
        items: Vec<(StationId, UploadItem)>,
    }

    impl Uplink for FakeUplink {
        fn upload_power_state(&mut self, _: StationId, _: CivilDate, _: PowerState) {}
        fn upload_item(&mut self, from: StationId, item: UploadItem) {
            self.items.push((from, item));
        }
        fn fetch_override(&mut self, _: StationId) -> Option<PowerState> {
            None
        }
        fn fetch_special(&mut self, _: StationId) -> Option<SpecialCommand> {
            None
        }
        fn fetch_update(&mut self, _: StationId) -> Option<CodeUpdate> {
            None
        }
        fn report_checksum(&mut self, _: StationId, _: &str, _: &str) {}
    }

    fn noon() -> SimTime {
        SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0)
    }

    fn sensor_file(seq: u64, kib: u64) -> (FileName, Bytes, FilePayload) {
        (
            FileName::new(FileKind::Sensor, seq),
            Bytes::from_kib(kib),
            UploadItem::SensorData {
                samples: 48,
                size: Bytes::from_kib(kib),
            },
        )
    }

    #[test]
    fn uploads_everything_on_an_ideal_link() {
        let mut store = DataStore::new();
        for i in 0..5 {
            let (n, s, p) = sensor_file(i, 40);
            store.queue(n, s, p, noon());
        }
        let mut link = Wan::Gprs(GprsLink::try_new(GprsConfig::ideal()).unwrap());
        let mut rng = SimRng::seed_from(1);
        link.connect_weathered(1.0, &mut rng).expect("attach");
        let mut uplink = FakeUplink::default();
        let mut cost = DataCostMeter::per_megabyte(4.0);
        let report = store.upload(
            StationId::Base,
            &mut link,
            &mut uplink,
            &mut cost,
            SimDuration::from_hours(2),
            &mut rng,
        );
        assert!(report.drained);
        assert_eq!(report.files_completed, 5);
        assert_eq!(uplink.items.len(), 5);
        assert_eq!(store.backlog_bytes(), Bytes::ZERO);
        assert_eq!(store.total_files, 5);
        assert!(cost.total_cost() > 0.0);
    }

    #[test]
    fn budget_exhaustion_keeps_partial_progress() {
        let mut store = DataStore::new();
        let (n, s, p) = sensor_file(1, 400); // 400 KiB ≈ 655 s at 625 B/s
        store.queue(n, s, p, noon());
        let mut link = Wan::Gprs(GprsLink::try_new(GprsConfig::ideal()).unwrap());
        let mut rng = SimRng::seed_from(2);
        link.connect_weathered(1.0, &mut rng).expect("attach");
        let mut uplink = FakeUplink::default();
        let mut cost = DataCostMeter::per_megabyte(4.0);
        let report = store.upload(
            StationId::Base,
            &mut link,
            &mut uplink,
            &mut cost,
            SimDuration::from_mins(5),
            &mut rng,
        );
        assert_eq!(report.files_completed, 0);
        assert!(!report.drained);
        assert!(report.bytes_sent > Bytes::from_kib(100));
        // Tomorrow finishes it.
        let report2 = store.upload(
            StationId::Base,
            &mut link,
            &mut uplink,
            &mut cost,
            SimDuration::from_hours(1),
            &mut rng,
        );
        assert_eq!(report2.files_completed, 1);
        assert!(report2.drained);
        assert_eq!(uplink.items.len(), 1);
    }

    #[test]
    fn session_drop_stops_the_window() {
        let config = GprsConfig {
            mean_time_to_drop: SimDuration::from_secs(30),
            setup_failure_p: 0.0,
            ..GprsConfig::field()
        };
        let mut store = DataStore::new();
        for i in 0..3 {
            let (n, s, p) = sensor_file(i, 200);
            store.queue(n, s, p, noon());
        }
        let mut link = Wan::Gprs(GprsLink::try_new(config).unwrap());
        let mut rng = SimRng::seed_from(3);
        link.connect_weathered(1.0, &mut rng).expect("attach");
        let mut uplink = FakeUplink::default();
        let mut cost = DataCostMeter::per_megabyte(4.0);
        let report = store.upload(
            StationId::Base,
            &mut link,
            &mut uplink,
            &mut cost,
            SimDuration::from_hours(2),
            &mut rng,
        );
        assert!(report.session_drops >= 1);
        assert!(!report.drained);
        assert!(!link.is_connected());
    }

    #[test]
    fn backlog_clears_over_multiple_days() {
        // The §VI story: days of GPRS failure build a backlog bigger than
        // one window; daily windows clear it file by file.
        let mut store = DataStore::new();
        for i in 0..12 {
            let (n, s, p) = sensor_file(i, 165);
            store.queue(n, s, p, noon());
        }
        // 12 × 165 KiB ≈ 1.93 MiB needs ≈ 54 min on an ideal link; give
        // 20-minute windows so several days are needed.
        let mut link = Wan::Gprs(GprsLink::try_new(GprsConfig::ideal()).unwrap());
        let mut rng = SimRng::seed_from(4);
        let mut uplink = FakeUplink::default();
        let mut cost = DataCostMeter::per_megabyte(4.0);
        let mut days = 0;
        while store.backlog_files() > 0 && days < 10 {
            if !link.is_connected() {
                link.connect_weathered(1.0, &mut rng).expect("attach");
            }
            store.upload(
                StationId::Base,
                &mut link,
                &mut uplink,
                &mut cost,
                SimDuration::from_mins(20),
                &mut rng,
            );
            link.disconnect();
            days += 1;
        }
        assert!(store.backlog_files() == 0, "cleared");
        assert!(days >= 3, "took {days} windows");
        assert_eq!(uplink.items.len(), 12);
    }
}
