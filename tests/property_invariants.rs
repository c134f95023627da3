//! Cross-crate property-based invariants.
//!
//! These complement the per-crate proptests with whole-subsystem
//! properties: exactly-once probe delivery under arbitrary loss, upload
//! byte conservation under arbitrary budgets and drops, policy safety
//! under arbitrary override sequences, and power-rail energy accounting.

use proptest::prelude::*;

use glacsweb_env::{EnvConfig, Environment};
use glacsweb_link::{GprsConfig, GprsLink, ProbeRadioLink};
use glacsweb_probe::{FetchSession, ProbeFirmware, ProtocolConfig};
use glacsweb_sim::{Bytes, SimDuration, SimRng, SimTime, Volts};
use glacsweb_station::{PolicyTable, PowerState};

fn probe_with(n: u64, seed: u64) -> (ProbeFirmware, SimRng) {
    let mut rng = SimRng::seed_from(seed);
    let mut env = Environment::new(EnvConfig::lab(), seed);
    let mut t = SimTime::from_ymd_hms(2009, 3, 1, 0, 0, 0);
    env.advance_to(t);
    let mut probe = ProbeFirmware::deploy(21, t, &mut rng);
    for _ in 0..n {
        t += SimDuration::from_hours(1);
        env.advance_to(t);
        probe.sample(&env, t, &mut rng);
    }
    (probe, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the loss rate (up to 60 %), repeated daily sessions
    /// deliver every reading exactly once and eventually complete.
    #[test]
    fn probe_protocol_is_exactly_once(
        loss in 0.0f64..0.6,
        n in 50u64..600,
        seed in 0u64..1000,
    ) {
        let (mut probe, mut rng) = probe_with(n, seed);
        let link = ProbeRadioLink::new();
        let mut session = FetchSession::new(21, ProtocolConfig::fixed());
        let mut complete = false;
        for _ in 0..60 {
            let out = session.run(
                &mut probe,
                &link,
                loss,
                SimDuration::from_hours(4),
                &mut rng,
            );
            if out.complete {
                complete = true;
                break;
            }
        }
        prop_assert!(complete, "never completed at loss {loss}");
        let delivered = session.drain_delivered();
        prop_assert_eq!(delivered.len() as u64, n);
        let mut seqs: Vec<u64> = delivered.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        prop_assert_eq!(seqs.len() as u64, n, "duplicates detected");
    }

    /// GPRS transfers conserve bytes across arbitrary budget splits and
    /// session drops: the sum of partial sends equals the payload.
    #[test]
    fn gprs_resume_conserves_bytes(
        size_kib in 1u64..2048,
        budget_mins in 1u64..90,
        mean_drop_mins in 1u64..60,
        seed in 0u64..1000,
    ) {
        let config = GprsConfig {
            setup_failure_p: 0.0,
            mean_time_to_drop: SimDuration::from_mins(mean_drop_mins),
            ..GprsConfig::field()
        };
        let mut link = GprsLink::try_new(config).unwrap();
        let mut rng = SimRng::seed_from(seed);
        let total = Bytes::from_kib(size_kib);
        let mut remaining = total;
        let mut sent_sum = Bytes::ZERO;
        let mut guard = 0;
        while remaining.value() > 0 {
            guard += 1;
            prop_assert!(guard < 10_000, "no progress");
            if !link.is_connected() && link.connect(&mut rng).is_err() {
                continue;
            }
            let out = link.transfer(remaining, SimDuration::from_mins(budget_mins), &mut rng);
            prop_assert!(out.sent <= remaining);
            remaining = remaining.saturating_sub(out.sent);
            sent_sum += out.sent;
            if !out.dropped {
                link.disconnect();
            }
        }
        prop_assert_eq!(sent_sum, total);
        prop_assert_eq!(link.total_sent(), total);
    }

    /// The policy + override pipeline never produces an unsafe state:
    /// never above what the voltage allows, never a remotely-forced zero.
    #[test]
    fn policy_pipeline_is_safe(
        volts in 9.0f64..15.0,
        override_level in proptest::option::of(0u8..4),
    ) {
        let policy = PolicyTable::paper();
        let local = policy.state_for(Volts(volts));
        let remote = override_level.map(PowerState::from_level);
        let applied = policy.apply_override(local, remote);
        prop_assert!(applied <= local);
        if applied == PowerState::S0 {
            prop_assert_eq!(local, PowerState::S0);
        }
        // GPRS gating follows the table.
        prop_assert_eq!(applied.gprs_enabled(), applied != PowerState::S0);
    }

    /// Power-rail bookkeeping: load energy consumed never exceeds what the
    /// battery delivered plus what was harvested (allowing charge
    /// inefficiency), and SoC stays in bounds through arbitrary schedules.
    #[test]
    fn rail_energy_accounting(
        seed in 0u64..500,
        days in 1u64..20,
        gps_hours in 0u64..6,
    ) {
        use glacsweb_power::{Charger, LeadAcidBattery, PowerRail, SolarPanel};
        use glacsweb_sim::{AmpHours, Watts};
        let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::vatnajokull(), seed);
        env.advance_to(start);
        let mut rail = PowerRail::new(LeadAcidBattery::with_state(AmpHours(36.0), 0.7), start);
        rail.add_charger(Charger::Solar(SolarPanel::new(Watts(10.0))));
        rail.loads_mut().add("gps", Watts(3.6));
        let mut t = start;
        for _ in 0..days {
            // GPS on for the first `gps_hours` of each day.
            rail.loads_mut().set_on("gps", true);
            let on_until = t + SimDuration::from_hours(gps_hours);
            env.advance_to(on_until);
            rail.advance(&env, on_until);
            rail.loads_mut().set_on("gps", false);
            t += SimDuration::from_days(1);
            env.advance_to(t);
            rail.advance(&env, t);
            let soc = rail.battery().state_of_charge();
            prop_assert!((0.0..=1.0).contains(&soc));
        }
        let consumed = rail.loads().total_energy().value();
        let delivered = rail.battery().total_discharged().value();
        let harvested = rail.total_harvested().value();
        // Loads are fed by battery discharge + direct harvest; the battery
        // model's charge path loses ~12 %, so allow that headroom.
        prop_assert!(
            consumed <= delivered + harvested + 1.0,
            "consumed {consumed} > delivered {delivered} + harvested {harvested}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Short whole-deployment runs never violate core invariants,
    /// whatever the seed.
    #[test]
    fn deployment_invariants_hold_for_any_seed(seed in 0u64..200) {
        let mut d = glacsweb::Scenario::iceland_2008().seed(seed).build();
        d.run_days(10);
        let s = d.summary();
        prop_assert!(s.windows_run <= 2 * 10 + 2);
        prop_assert!(s.dgps_pairing_yield <= 1.0);
        prop_assert!((0.0..=1.0).contains(
            &d.base().expect("base").rail().battery().state_of_charge()
        ));
        // Warehouse readings never exceed what probes produced.
        let produced: usize = d.probes().iter().map(|p| p.next_seq() as usize).sum();
        prop_assert!(s.probe_readings_received <= produced);
    }
}
