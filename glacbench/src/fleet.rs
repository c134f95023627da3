//! `fleet`: 100 sites × 1,000 stations for 30 days with leaping on.
//! The first repetition runs straight through; every other one takes a
//! crash-safe checkpoint at day 15, resumes from it and finishes on the
//! resumed fleet. Every run makes at least two repetitions, and every
//! final state digest must equal the pinned one, or the straight one for
//! a seed without a pin.

use std::time::Instant;

use glacsweb_fleet::{Fleet, FleetConfig};
use glacsweb_sim::SimDuration;

use crate::{add_percentiles, percentile, pinned, repeat, secs, Measured, Options, Samples, Size};

/// The repetition that runs straight through; every other one
/// checkpoints and resumes. The first, so that `peak_rss_mb` is the
/// kernel's own peak: the snapshot encoder's transient peak came out at
/// either about 335 or about 395 MiB from one run to the next, as the
/// threaded kernel left the allocator in one state or another.
const STRAIGHT: usize = 0;

/// `(sites, stations per site, days, checkpoint day)`.
fn scale(size: Size) -> (u32, u32, u64, u64) {
    match size {
        Size::Full => (100, 1_000, 30, 15),
        Size::Smoke => (4, 50, 4, 2),
    }
}

/// The fleet workload.
pub fn run(opts: &Options) -> Measured {
    let (sites, per_site, days, checkpoint_day) = scale(opts.size);
    let config = FleetConfig::new(sites, per_site)
        .seed(opts.seed)
        .leaping(true);
    let stations = u64::from(sites) * u64::from(per_site);
    let want = opts.expect_digest.or(match opts.size {
        Size::Full => pinned::fleet(opts.seed),
        Size::Smoke => None,
    });
    let path = opts.scratch.join("fleet-day15.snap");
    let mut m = Measured {
        pipeline: "-",
        ..Measured::default()
    };
    // (repetition, ran straight through, final state digest)
    let mut digests: Vec<(usize, bool, u64)> = Vec::new();
    // Fleet-day latencies pooled over the run's plain and traced
    // repetitions.
    let (mut plain_days, mut traced_days) = (Vec::new(), Vec::new());

    let rss = repeat(opts, 2, |index, traced| {
        let samples = if traced { &mut m.traced } else { &mut m.plain };
        let t = Instant::now();
        let mut fleet = Fleet::new(config.clone()).expect("valid fleet config");
        fleet.set_threads(opts.threads);
        let build_s = secs(t);
        if traced {
            samples.add("fleet.build_ms", build_s * 1e3);
        } else {
            samples.add("setup_s", build_s);
        }

        let start = fleet.now();
        let mut day_s = Vec::with_capacity(days as usize);
        for day in 1..=days {
            let t = Instant::now();
            fleet.run_until(start + SimDuration::from_days(day));
            day_s.push(secs(t));
            if index != STRAIGHT && day == checkpoint_day {
                match checkpoint_resume(&fleet, &path, traced, samples) {
                    Ok(resumed) => {
                        fleet = resumed;
                        fleet.set_threads(opts.threads);
                    }
                    Err(e) => {
                        m.checks.fail(
                            1,
                            format!("fleet repetition {index} checkpoint/resume: {e}"),
                        );
                        return;
                    }
                }
            }
        }
        let kernel_s: f64 = day_s.iter().sum();
        samples.add("throughput_per_s", (stations * days) as f64 / kernel_s);
        let day_us = day_s.iter().map(|s| s * 1e6);
        if traced {
            traced_days.extend(day_us);
            trace_rep(samples, &fleet, kernel_s);
        } else {
            plain_days.extend(day_us);
        }

        digests.push((index, index == STRAIGHT, fleet.state_digest()));
    });
    m.plain.add("peak_rss_mb", rss);
    let _ = std::fs::remove_file(&path);
    check_digests(&mut m, &digests, want, checkpoint_day);
    add_percentiles(&mut m.plain, &plain_days, "op_p50_us", "op_p99_us");
    let n = traced_days.len() as u64;
    if n > 0 {
        m.traced
            .add_n("fleet.day_ms.p50", percentile(&traced_days, 50.0) / 1e3, n);
    }
    m
}

/// Checks every repetition's final digest against the pinned (or
/// expected) value. A seed without one is checked against the straight
/// repetition, which is then the reference and not itself counted.
fn check_digests(
    m: &mut Measured,
    digests: &[(usize, bool, u64)],
    want: Option<u64>,
    checkpoint_day: u64,
) {
    let straight = digests.iter().find(|d| d.1).map(|d| d.2);
    if let Some(&(_, _, first)) = digests.first() {
        m.digests
            .push(("fleet.state_digest", straight.unwrap_or(first)));
    }
    let Some(reference) = want.or(straight) else {
        m.checks.fail(
            digests.len() as u64,
            "fleet: no pinned digest and no straight repetition to compare with".to_string(),
        );
        return;
    };
    for &(index, is_straight, digest) in digests {
        if is_straight && want.is_none() {
            continue;
        }
        let what = if is_straight {
            format!("fleet repetition {index} (straight) state digest")
        } else {
            format!("fleet repetition {index} (checkpointed at day {checkpoint_day}) state digest")
        };
        m.checks.expect(1, &what, digest, reference);
    }
}

/// The day-15 checkpoint and resume: plain `checkpoint` / `resume`
/// calls, or their snapshot phases timed one by one when traced.
fn checkpoint_resume(
    fleet: &Fleet,
    path: &std::path::Path,
    traced: bool,
    samples: &mut Samples,
) -> Result<Fleet, glacsweb_snapshot::SnapshotError> {
    if traced {
        let bytes = crate::traced_checkpoint(samples, path, || fleet.snapshot())?;
        samples.add("snapshot.bytes", bytes as f64);
        crate::traced_resume(samples, path, Fleet::restore)
    } else {
        let t = Instant::now();
        fleet.checkpoint(path)?;
        samples.add("snapshot.checkpoint_ms", secs(t) * 1e3);
        let t = Instant::now();
        let resumed = Fleet::resume(path)?;
        samples.add("snapshot.resume_ms", secs(t) * 1e3);
        Ok(resumed)
    }
}

/// Per-layer samples of one traced repetition.
fn trace_rep(samples: &mut Samples, fleet: &Fleet, kernel_s: f64) {
    let exec = fleet.exec_stats();
    samples.add(
        "fleet.ns_per_wake",
        kernel_s * 1e9 / exec.wakes.max(1) as f64,
    );
    let ticks = exec.ticks_leapt + exec.ticks_stepped;
    samples.add(
        "fleet.leap_frac",
        exec.ticks_leapt as f64 / ticks.max(1) as f64,
    );
    samples.add("fleet.wakes", exec.wakes as f64);
    samples.add("fleet.events", exec.events as f64);
    samples.add("fleet.leaps", exec.leaps as f64);
    let t = Instant::now();
    let telemetry = fleet.telemetry();
    let json = telemetry.to_json();
    samples.add("obs.export_ms", secs(t) * 1e3);
    samples.add("obs.events", telemetry.events().len() as f64);
    std::hint::black_box(json);
}
