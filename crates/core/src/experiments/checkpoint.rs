//! E17 — checkpointed recovery: the snapshot-equivalence demonstration.
//!
//! ROADMAP item 4 and the PAPERS.md intermittent-computing line both ask
//! for more than the paper's §IV restart-from-zero: a node (or a
//! simulation campaign) should be able to *resume* from persisted state
//! with nothing lost. This experiment runs the standard field deployment
//! straight through, then replays it as run–checkpoint–restore–run using
//! the in-memory snapshot codec, and verifies the two trajectories are
//! bit-identical — same summary, same voltage samples down to the f64
//! bit pattern. It also reports what the checkpoint costs in bytes, the
//! honest price of durable progress.

use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::SimTime;
use glacsweb_station::{StationConfig, StationId};
use serde::{Deserialize, Serialize};

use crate::deployment::{Deployment, DeploymentBuilder};

/// The E17 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Total simulated days in both trajectories.
    pub days: u64,
    /// Day the split run checkpointed and resumed at.
    pub checkpoint_day: u64,
    /// Encoded snapshot size (envelope + payload), bytes.
    pub snapshot_bytes: u64,
    /// Events pending in the world queue at the checkpoint instant.
    pub queued_events: usize,
    /// Snapshot schema version stamped on the envelope.
    pub schema_version: u32,
    /// Straight and resumed summaries are equal.
    pub summaries_match: bool,
    /// Straight and resumed base-station voltage series are bit-equal.
    pub voltage_bits_match: bool,
    /// Windows run over the full span (both trajectories).
    pub windows_run: u64,
}

/// The standard field deployment (Fig 5 configuration, field GPRS).
fn field_deployment(seed: u64) -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .build()
}

/// Runs the straight and the split trajectory and compares them.
pub fn run(seed: u64) -> Checkpoint {
    const DAYS: u64 = 40;
    const CHECKPOINT_DAY: u64 = 20;

    let mut straight = field_deployment(seed);
    straight.run_days(DAYS);

    let mut first = field_deployment(seed);
    first.run_days(CHECKPOINT_DAY);
    let queued_events = first.pending_events();
    let bytes = glacsweb_snapshot::to_bytes(&first.snapshot());
    drop(first); // Only the encoded bytes cross the "power loss".
    let mut resumed =
        Deployment::restore(glacsweb_snapshot::from_bytes(&bytes).expect("snapshot round trip"))
            .expect("restore");
    resumed.run_days(DAYS - CHECKPOINT_DAY);

    let bits = |d: &Deployment| {
        d.metrics()
            .voltage_series(StationId::Base)
            .map(|s| s.iter().map(|(t, v)| (t, v.to_bits())).collect::<Vec<_>>())
            .unwrap_or_default()
    };
    Checkpoint {
        days: DAYS,
        checkpoint_day: CHECKPOINT_DAY,
        snapshot_bytes: bytes.len() as u64,
        queued_events,
        schema_version: glacsweb_snapshot::SCHEMA_VERSION,
        summaries_match: straight.summary() == resumed.summary(),
        voltage_bits_match: bits(&straight) == bits(&resumed),
        windows_run: resumed.summary().windows_run,
    }
}

impl Checkpoint {
    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "E17: CHECKPOINTED RECOVERY (snapshot-equivalence, {} days split at day {})\n\
             snapshot: {} bytes, schema v{}, {} events queued at capture\n\
             straight == checkpoint+resume:\n\
             summary fields:         {}\n\
             voltage series (bits):  {}\n\
             windows run: {}\n",
            self.days,
            self.checkpoint_day,
            self.snapshot_bytes,
            self.schema_version,
            self.queued_events,
            if self.summaries_match {
                "IDENTICAL"
            } else {
                "DIVERGED"
            },
            if self.voltage_bits_match {
                "IDENTICAL"
            } else {
                "DIVERGED"
            },
            self.windows_run,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_run_is_bit_identical() {
        let r = run(2009);
        assert!(r.summaries_match, "{r:?}");
        assert!(r.voltage_bits_match, "{r:?}");
        assert!(r.snapshot_bytes > 0);
        assert!(r.queued_events > 0, "ticks and windows are always pending");
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn render_reports_identical() {
        let text = run(3).render();
        assert!(text.contains("IDENTICAL"));
        assert!(!text.contains("DIVERGED"));
    }
}
