//! `campaign`: K seeded one-year Iceland deployments through
//! `glacsweb_sweep::run_cells_observed`, each cell's `summary()`, and the
//! merged telemetry exported to JSON. Cell 0's year-end state is then
//! checkpointed and resumed once.

use std::thread::ThreadId;
use std::time::Instant;

use glacsweb::{Deployment, DeploymentBuilder};
use glacsweb_env::EnvConfig;
use glacsweb_link::GprsConfig;
use glacsweb_sim::{SimDuration, SimTime};
use glacsweb_station::StationConfig;

use crate::{add_percentiles, fnv, pinned, repeat, secs, Checks, Measured, Options, Samples, Size};

/// Cells per repetition and simulated days per cell.
fn scale(size: Size) -> (u64, u64) {
    match size {
        Size::Full => (16, 365),
        Size::Smoke => (2, 3),
    }
}

/// Seed of cell `i` under workload seed `seed`.
fn cell_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

/// The `perf` standard deployment (base_2008 with field GPRS,
/// reference_2008, 4 probes) with telemetry on, unstarted.
pub fn standard_deployment(seed: u64) -> Deployment {
    let mut base = StationConfig::base_2008();
    base.gprs = GprsConfig::field();
    DeploymentBuilder::new(EnvConfig::vatnajokull())
        .seed(seed)
        .start(SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0))
        .base(base)
        .reference(StationConfig::reference_2008())
        .probes(4)
        .observe()
        .build()
}

/// `(windows_run, data_uploaded, dgps_fixes)` of a cell's summary.
type Fingerprint = (u64, u64, u64);

fn fingerprint(d: &Deployment) -> Fingerprint {
    let s = d.summary();
    (s.windows_run, s.data_uploaded.value(), s.dgps_fixes as u64)
}

/// FNV over every cell fingerprint, in cell order.
fn cells_digest(cells: &[Fingerprint]) -> u64 {
    let mut bytes = Vec::with_capacity(cells.len() * 24);
    for &(a, b, c) in cells {
        for v in [a, b, c] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    fnv(&bytes)
}

/// What one cell hands back from the fan-out.
struct CellOut {
    fingerprint: Fingerprint,
    /// Each sim-day's `run_until`, microseconds.
    day_us: Vec<f64>,
    /// Traced only: `run_until` over the 21 quiet hours and over
    /// 11:00-14:00, summed over the year, microseconds.
    quiet_us: f64,
    window_us: f64,
    summary_s: f64,
    /// Traced only: which worker ran the cell, and when.
    worker: ThreadId,
    span: (Instant, Instant),
    /// The deployment itself, kept for cell 0 only.
    deployment: Option<Deployment>,
}

/// Runs one cell for `days` sim-days, one `run_until` per day (traced:
/// three, split at 11:00 and 14:00 UTC).
fn run_cell(
    index: u64,
    mut d: Deployment,
    days: u64,
    traced: bool,
) -> (CellOut, glacsweb_obs::MemoryRecorder) {
    let began = Instant::now();
    let start = d.start();
    let mut day_us = Vec::with_capacity(days as usize);
    let (mut quiet_us, mut window_us) = (0.0, 0.0);
    for day in 0..days {
        let midnight = start + SimDuration::from_days(day);
        let t = Instant::now();
        if traced {
            d.run_until(midnight + SimDuration::from_hours(11));
            let q1 = secs(t);
            let t2 = Instant::now();
            d.run_until(midnight + SimDuration::from_hours(14));
            let w = secs(t2);
            let t3 = Instant::now();
            d.run_until(midnight + SimDuration::from_days(1));
            quiet_us += (q1 + secs(t3)) * 1e6;
            window_us += w * 1e6;
        } else {
            d.run_until(midnight + SimDuration::from_days(1));
        }
        day_us.push(secs(t) * 1e6);
    }
    let t = Instant::now();
    let fingerprint = fingerprint(&d);
    let summary_s = secs(t);
    let recorder = d.telemetry().expect("campaign deployments are observed");
    let out = CellOut {
        fingerprint,
        day_us,
        quiet_us,
        window_us,
        summary_s,
        worker: std::thread::current().id(),
        span: (began, Instant::now()),
        deployment: (index == 0).then_some(d),
    };
    (out, recorder)
}

/// The campaign workload.
pub fn run(opts: &Options) -> Measured {
    let (cells, days) = scale(opts.size);
    let pins = match opts.size {
        Size::Full => pinned::campaign(opts.seed),
        Size::Smoke => None,
    };
    let want_telemetry = opts.expect_digest.or(pins.map(|p| p.1));
    let mut m = Measured {
        pipeline: "-",
        ..Measured::default()
    };
    let mut reference: Option<(Vec<Fingerprint>, u64)> = None;
    let mut cell0: Option<Deployment> = None;
    // Cell-day latencies pooled over the run's plain and traced
    // repetitions.
    let (mut plain_days, mut traced_days) = (Vec::new(), Vec::new());

    let rss = repeat(opts, 1, |index, traced| {
        // The one build whose deployments the repetition runs; `setup_s`
        // is the median of these over the run's repetitions.
        let t = Instant::now();
        let deployments = (0..cells)
            .map(|i| (i, standard_deployment(cell_seed(opts.seed, i))))
            .collect::<Vec<(u64, Deployment)>>();
        let setup_s = secs(t);

        let t = Instant::now();
        let (outs, merged) =
            glacsweb_sweep::run_cells_observed(deployments, opts.threads, |(i, d)| {
                run_cell(i, d, days, traced)
            });
        let fanout_s = secs(t);
        let te = Instant::now();
        let json = merged.to_json();
        let export_s = secs(te);
        let work_s = secs(t);
        let telemetry = fnv(json.as_bytes());

        let mut outs = outs;
        let fingerprints: Vec<Fingerprint> = outs.iter().map(|o| o.fingerprint).collect();
        let day_us = outs.iter().flat_map(|o| o.day_us.iter().copied());
        let samples = if traced { &mut m.traced } else { &mut m.plain };
        samples.add("throughput_per_s", (cells * days) as f64 / work_s);
        if traced {
            traced_days.extend(day_us);
            trace_rep(samples, &outs, opts.threads, fanout_s);
            samples.add("obs.export_ms", export_s * 1e3);
            samples.add("obs.events", merged.events().len() as f64);
        } else {
            plain_days.extend(day_us);
            samples.add("setup_s", setup_s);
        }

        check_rep(
            &mut m.checks,
            index,
            &fingerprints,
            telemetry,
            &mut reference,
            pins,
            want_telemetry,
        );
        if index == 0 {
            m.digests
                .push(("campaign.cells_fnv", cells_digest(&fingerprints)));
            m.digests.push(("campaign.telemetry_fnv", telemetry));
        }
        cell0 = outs.get_mut(0).and_then(|o| o.deployment.take());
    });
    m.plain.add("peak_rss_mb", rss);

    add_percentiles(&mut m.plain, &plain_days, "op_p50_us", "op_p99_us");
    add_percentiles(
        &mut m.traced,
        &traced_days,
        "core.day_us.p50",
        "core.day_us.p99",
    );
    let d = cell0.expect("at least one repetition ran cell 0");
    checkpoint_resume(opts, &mut m, &d);
    m
}

/// Per-layer samples of one traced repetition.
fn trace_rep(samples: &mut Samples, outs: &[CellOut], threads: usize, fanout_s: f64) {
    let busy: f64 = outs
        .iter()
        .map(|o| o.span.1.duration_since(o.span.0).as_secs_f64())
        .sum();
    samples.add(
        "sweep.busy_frac",
        busy / (threads.min(outs.len()).max(1) as f64 * fanout_s),
    );
    // Each worker goes idle after its last cell; the tail runs from the
    // first worker going idle to the last cell finishing.
    let mut last_finish: Vec<(ThreadId, Instant)> = Vec::new();
    for o in outs {
        match last_finish.iter_mut().find(|(w, _)| *w == o.worker) {
            Some((_, at)) => *at = (*at).max(o.span.1),
            None => last_finish.push((o.worker, o.span.1)),
        }
    }
    let first_idle = last_finish.iter().map(|&(_, at)| at).min();
    let last_done = last_finish.iter().map(|&(_, at)| at).max();
    if let (Some(first), Some(last)) = (first_idle, last_done) {
        samples.add(
            "sweep.tail_ms",
            last.duration_since(first).as_secs_f64() * 1e3,
        );
    }
    let days = outs.iter().map(|o| o.day_us.len()).sum::<usize>().max(1) as f64;
    samples.add(
        "core.quiet_us_per_day",
        outs.iter().map(|o| o.quiet_us).sum::<f64>() / days,
    );
    samples.add(
        "core.window_us_per_day",
        outs.iter().map(|o| o.window_us).sum::<f64>() / days,
    );
    let summary_ms = outs.iter().map(|o| o.summary_s).sum::<f64>() * 1e3 / outs.len().max(1) as f64;
    samples.add("core.summary_ms", summary_ms);
    let sum = |f: fn(&CellOut) -> u64| outs.iter().map(f).sum::<u64>() as f64;
    samples.add("core.windows", sum(|o| o.fingerprint.0));
    samples.add("core.uploaded_bytes", sum(|o| o.fingerprint.1));
    samples.add("core.dgps_fixes", sum(|o| o.fingerprint.2));
}

/// Checks one repetition's outputs: against the pinned values on the
/// first repetition, against the first repetition after that. Without
/// pinned values the first repetition is only the reference, and is not
/// counted as checked.
fn check_rep(
    checks: &mut Checks,
    index: usize,
    fingerprints: &[Fingerprint],
    telemetry: u64,
    reference: &mut Option<(Vec<Fingerprint>, u64)>,
    pins: Option<(u64, u64)>,
    want_telemetry: Option<u64>,
) {
    match reference {
        None => {
            if let Some((cells, _)) = pins {
                checks.expect(
                    fingerprints.len() as u64,
                    "campaign cell fingerprints digest",
                    cells_digest(fingerprints),
                    cells,
                );
            }
            if let Some(want) = want_telemetry {
                checks.expect(1, "campaign telemetry FNV", telemetry, want);
            }
            *reference = Some((fingerprints.to_vec(), telemetry));
        }
        Some((cells, want)) => {
            for (i, (got, want)) in fingerprints.iter().zip(cells.iter()).enumerate() {
                checks.expect(
                    1,
                    &format!("campaign repetition {index} cell {i} fingerprint"),
                    got,
                    want,
                );
            }
            checks.expect(
                1,
                &format!("campaign repetition {index} telemetry FNV"),
                telemetry,
                *want,
            );
        }
    }
}

/// Checkpoints cell 0's year-end state and resumes it; the resumed
/// deployment must match the original field for field.
fn checkpoint_resume(opts: &Options, m: &mut Measured, d: &Deployment) {
    let path = opts.scratch.join("campaign-cell0.snap");
    let samples = if opts.trace {
        &mut m.traced
    } else {
        &mut m.plain
    };
    let resumed = if opts.trace {
        crate::traced_checkpoint(samples, &path, || d.snapshot()).and_then(|bytes| {
            samples.add("snapshot.bytes", bytes as f64);
            crate::traced_resume(samples, &path, Deployment::restore)
        })
    } else {
        let t = Instant::now();
        let saved = d.checkpoint(&path);
        samples.add("snapshot.checkpoint_ms", secs(t) * 1e3);
        let t = Instant::now();
        let resumed = saved.and_then(|()| Deployment::resume(&path));
        samples.add("snapshot.resume_ms", secs(t) * 1e3);
        resumed
    };
    match resumed {
        Ok(r) => {
            let same = fingerprint(&r) == fingerprint(d)
                && glacsweb_snapshot::to_bytes(&r.snapshot())
                    == glacsweb_snapshot::to_bytes(&d.snapshot());
            m.checks.expect(
                1,
                "campaign cell 0 resumed from its checkpoint equals the original",
                same,
                true,
            );
        }
        Err(e) => m
            .checks
            .fail(1, format!("campaign cell 0 checkpoint/resume: {e}")),
    }
    let _ = std::fs::remove_file(&path);
}
