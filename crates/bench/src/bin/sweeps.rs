//! Parameter sweeps around the paper's design points.
//!
//! The paper picks specific operating points (12/1/0 dGPS readings per
//! day, a 36 Ah bank, the 12.5/12.0/11.5 V thresholds); these sweeps show
//! the curves those points sit on:
//!
//! 1. battery lifetime vs dGPS readings per day (the Table II column);
//! 2. winter survival vs battery capacity (the §III sizing question);
//! 3. day-1 missed packets vs ice wetness (the §V seasonal link).
//!
//! ```text
//! cargo run -p glacsweb-bench --bin sweeps --release -- [SEED] [--threads N]
//! ```
//!
//! Sweep cells run on the parallel engine (`--threads N`, or the
//! `GLACSWEB_THREADS` environment variable, defaulting to the machine's
//! parallelism); every cell is self-seeded, so the printed output is
//! byte-identical for any thread count.

use glacsweb_bench::{exit_with_usage, flag_value, CliError};
use glacsweb_env::EnvConfig;
use glacsweb_link::{GprsConfig, ProbeRadioLink};
use glacsweb_power::budget;
use glacsweb_probe::{FetchSession, ProtocolConfig};
use glacsweb_sim::{plot, AmpHours, SimDuration, SimRng, SimTime, Volts, Watts};
use glacsweb_station::StationConfig;

fn lifetime_vs_duty() {
    println!("== dGPS readings/day vs unassisted battery lifetime (36 Ah @ 12 V) ==");
    let session = SimDuration::from_secs(glacsweb_hw::table1::DGPS_SESSION_SECS);
    let mut rows = Vec::new();
    for readings in [1u64, 2, 4, 6, 8, 12, 16, 24, 48] {
        let days = budget::time_to_deplete_duty(
            AmpHours(36.0),
            Volts(12.0),
            Watts(3.6),
            session * readings,
        )
        .as_days_f64();
        rows.push((readings, days));
    }
    for &(readings, days) in &rows {
        let marker = if readings == 12 {
            "  <- state 3 (117 d in the paper)"
        } else {
            ""
        };
        println!("{readings:>3}/day: {days:>7.0} days{marker}");
    }
    println!();
}

fn survival_vs_capacity(seed: u64, threads: usize) {
    println!("== winter survival vs battery capacity (no wind generator, Nov-Mar) ==");
    println!("capacity  deaths  final SoC  GPS readings");
    // Each capacity is an independent winter run keyed only on (seed,
    // capacity), so the cells parallelise without changing any number.
    let capacities = vec![2.0f64, 4.0, 8.0, 16.0, 36.0, 72.0];
    let cells = glacsweb_sweep::run_cells(capacities, threads, |capacity| {
        let start = SimTime::from_ymd_hms(2008, 11, 1, 0, 0, 0);
        let mut base = StationConfig::base_2008();
        base.gprs = GprsConfig::field();
        base.wind = None;
        base.battery = AmpHours(capacity);
        let mut d = glacsweb::DeploymentBuilder::new(EnvConfig::vatnajokull())
            .seed(seed)
            .start(start)
            .base(base)
            .build();
        d.run_until(SimTime::from_ymd_hms(2009, 3, 1, 0, 0, 0));
        let station = d.base().expect("base");
        (
            capacity,
            station.power_losses(),
            station.rail().battery().state_of_charge(),
            station.dgps().readings_taken(),
        )
    });
    let mut labels = Vec::new();
    let mut socs = Vec::new();
    for &(capacity, losses, soc, readings) in &cells {
        println!("{capacity:>5.0} Ah {losses:>7} {soc:>10.2} {readings:>13}");
        labels.push(format!("{capacity:.0} Ah"));
        socs.push(soc);
    }
    let rows: Vec<(&str, f64)> = labels.iter().map(String::as_str).zip(socs).collect();
    println!("\nfinal state of charge:\n{}", plot::bar_chart(&rows, 30));
}

fn misses_vs_wetness(seed: u64, threads: usize) {
    println!("== day-1 missed packets (of 3000) vs per-packet loss ==");
    // Each loss level builds its own probe from its own (seed + level)
    // stream — fully independent cells.
    let levels = vec![1u32, 3, 5, 8, 11, 13, 16, 20, 30];
    let rows = glacsweb_sweep::run_cells(levels, threads, |loss_pct| {
        let link = ProbeRadioLink::new();
        let loss = f64::from(loss_pct) / 100.0;
        // Build a 3000-reading probe and run one bulk day.
        let mut rng = SimRng::seed_from(seed + u64::from(loss_pct));
        let mut env = glacsweb_env::Environment::new(EnvConfig::lab(), seed);
        let mut t = SimTime::from_ymd_hms(2009, 3, 1, 0, 0, 0);
        env.advance_to(t);
        let mut probe = glacsweb_probe::ProbeFirmware::deploy(21, t, &mut rng);
        for _ in 0..3000 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let out = session.run(
            &mut probe,
            &link,
            loss,
            SimDuration::from_hours(4),
            &mut rng,
        );
        (loss_pct, out.missing_after_bulk)
    });
    for &(loss, missed) in &rows {
        let marker = if loss == 13 {
            "  <- the paper's wet summer (~400)"
        } else {
            ""
        };
        println!("{loss:>3}% loss: {missed:>5} missed{marker}");
    }
    let values: Vec<f64> = rows.iter().map(|&(_, m)| m as f64).collect();
    println!("{}", plot::sparkline(&values, rows.len()));
}

const USAGE: &str = "usage: sweeps [SEED] [--threads N]";

/// Parses `[SEED] [--threads N]` into `(seed, threads)`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(u64, Option<usize>), CliError> {
    let mut seed = 2009u64;
    let mut threads = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => threads = Some(flag_value(&mut args, "--threads")?),
            "--help" | "-h" => return Err(CliError::Help),
            other if other.starts_with('-') => {
                return Err(CliError::Bad(format!("unknown argument {other:?}")))
            }
            other => {
                seed = other
                    .parse()
                    .map_err(|e| CliError::Bad(format!("bad seed {other:?}: {e}")))?;
            }
        }
    }
    Ok((seed, threads))
}

fn main() {
    let (seed, threads_arg) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| exit_with_usage(e, USAGE));
    let threads = glacsweb_sweep::resolve_threads(threads_arg);
    lifetime_vs_duty();
    survival_vs_capacity(seed, threads);
    misses_vs_wetness(seed, threads);
}
