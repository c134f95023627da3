//! Kernel microbenches — the three primitives the O(events) rewrite
//! optimised, each timed in isolation so a regression localises to one
//! component instead of hiding inside whole-run throughput:
//!
//! * `env_advance_day` — one simulated day of `Environment::advance_to`
//!   at the deployment's half-hour tick grid.
//! * `battery_step_day` — 48 half-hour substeps integrated one at a
//!   time.
//! * `event_wheel_day` — a day of two-station tick scheduling through the
//!   indexed `EventWheel`.

use criterion::{criterion_group, criterion_main, Criterion};
use glacsweb_env::{EnvConfig, Environment};
use glacsweb_power::LeadAcidBattery;
use glacsweb_sim::{AmpHours, Amps, Celsius, EventWheel, SimDuration, SimTime};

const T0: SimTime = SimTime::from_unix(1_243_814_400); // 2009-06-01 00:00:00
const TICK: SimDuration = SimDuration::from_mins(30);
const TICKS_PER_DAY: u32 = 48;

fn bench_env(c: &mut Criterion) {
    c.bench_function("env_advance_day", |b| {
        let mut env = Environment::new(EnvConfig::vatnajokull(), 7);
        let mut t = T0;
        env.advance_to(t);
        b.iter(|| {
            // Keep marching forward: advance_to is lazy and monotone, so
            // each iteration pays for exactly one fresh day.
            for _ in 0..TICKS_PER_DAY {
                t += TICK;
                env.advance_to(t);
            }
            env.temperature_c(t)
        })
    });
}

fn bench_battery(c: &mut Criterion) {
    let current = Amps(0.4);
    let temp = Celsius(2.0);
    c.bench_function("battery_step_day", |b| {
        b.iter(|| {
            let mut batt = LeadAcidBattery::with_state(AmpHours(36.0), 0.5);
            let mut accepted = Amps(0.0);
            for _ in 0..TICKS_PER_DAY {
                accepted = batt.step(TICK, current, temp);
            }
            (batt.state_of_charge(), accepted)
        })
    });
}

fn bench_scheduling(c: &mut Criterion) {
    c.bench_function("event_wheel_day", |b| {
        let mut w = EventWheel::new();
        b.iter(|| {
            let mut t = T0;
            for i in 0u32..TICKS_PER_DAY {
                w.push_batch(t, [(i, 0u8), (i, 1u8)]);
                let _ = w.pop();
                let _ = w.pop();
                t += TICK;
            }
            assert!(w.is_empty());
        })
    });
}

criterion_group!(benches, bench_env, bench_battery, bench_scheduling);
criterion_main!(benches);
