//! Checkpoint anywhere: a deployment captured with `snapshot()` at any
//! second of its run and rebuilt with `restore()` finishes exactly as
//! the run that was never interrupted — same trajectory digest, same
//! summary, byte-identical telemetry. `snapshot_equivalence.rs` pins
//! fixed split points; this draws the split second at random.

use std::sync::OnceLock;

use glacsweb::{Deployment, DeploymentSummary, Scenario};
use glacsweb_sim::SimDuration;
use proptest::prelude::*;

mod common;

const SEED: u64 = 2008;
const HORIZON_DAYS: u64 = 20;

fn observed() -> Deployment {
    Scenario::iceland_2008().seed(SEED).observe().build()
}

/// Runs `d` to the end of the horizon and reduces it to what must match.
fn finish(mut d: Deployment) -> (String, DeploymentSummary, String) {
    d.run_until(d.start() + SimDuration::from_days(HORIZON_DAYS));
    let telemetry = d.telemetry().expect("observed").to_json();
    (common::trajectory_digest(&d), d.summary(), telemetry)
}

/// The uninterrupted run, computed once for every case.
fn straight() -> &'static (String, DeploymentSummary, String) {
    static STRAIGHT: OnceLock<(String, DeploymentSummary, String)> = OnceLock::new();
    STRAIGHT.get_or_init(|| finish(observed()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn restore_at_any_second_equals_a_straight_run(split in 1u64..HORIZON_DAYS * 86_400) {
        let mut first = observed();
        first.run_until(first.start() + SimDuration::from_secs(split));
        let resumed = Deployment::restore(first.snapshot()).expect("restore");
        drop(first);
        let (digest, summary, telemetry) = finish(resumed);
        let (want_digest, want_summary, want_telemetry) = straight();
        prop_assert_eq!(&digest, want_digest, "trajectory diverged after a split at {}s", split);
        prop_assert_eq!(&summary, want_summary, "summary diverged after a split at {}s", split);
        prop_assert!(
            telemetry == *want_telemetry,
            "telemetry bytes diverged after a split at {}s",
            split
        );
    }
}
