//! The fleet event kernel: per-site event loop, the naive per-tick
//! reference path, and the quiescent-station leap dispatch.
//!
//! # Determinism boundary
//!
//! Tick mode and leap mode must be **bit-identical**. Earlier kernels
//! got that by *replaying* the stepped recurrence inside the leap —
//! bit-exact, but O(elided ticks), which caps the speedup near the
//! ratio of per-tick costs. This kernel instead *defines* the sleeping
//! recurrence as anchor-based closed forms, so both modes evaluate the
//! **same expressions** and the leap is O(storm segments) per window:
//!
//! * **Battery**: a [`SleepGlide`](glacsweb_power::SleepGlide) anchors
//!   the bank at the segment start; the state after `k` ticks is
//!   `clamp(soc₀ + k·δ)`. The per-tick path commits the glide at
//!   `k = 1, 2, …`; the leap commits once at `k = n`. Commits re-derive
//!   from the anchor, so any split of the window lands on the same bits.
//! * **Microclimate**: the OU anomaly decays noiselessly while asleep,
//!   `ou(k) = ou₀ · decayᵏ` via
//!   [`OuStepCache::decay_pow`](glacsweb_env::OuStepCache::decay_pow)
//!   — again one expression, evaluated at whichever `k` a mode needs.
//! * **RNG**: a sleeping station draws nothing. Every wake retires
//!   exactly [`RAW_DRAWS_PER_WAKE`] raw draws — the handler's branches
//!   use what they need and
//!   [`SimRng::skip_raw`](glacsweb_sim::SimRng::skip_raw) skips the
//!   rest — so stream positions are a pure function of wake count,
//!   independent of attach outcomes or tier branches.
//! * Everything *observable* — counters, draws with consequences,
//!   schedule decisions — happens only inside the shared wake handler,
//!   which both modes call at identical instants.
//!
//! # Leap eligibility
//!
//! A station leaps from its cursor to its next event when that event is
//! its own scheduled wake-up. Pending server overrides and restart
//! checks bound the wake time itself (they are folded into
//! `next_wake_for`), and a storm boundary inside the span re-anchors
//! the glide at exactly the tick the stepped path would have switched
//! current on. Anything that cannot be expressed that way simply
//! schedules an earlier wake — the leap never crosses an observation.

use glacsweb_sim::{Amps, Celsius, SimDuration, SimTime};

use crate::site::{
    classify_tier, Site, SiteEvent, Tier, DEAD_SOC, DT_HOURS, KIND_COMMS, KIND_OVERRIDE,
    KIND_SAMPLE, RAW_DRAWS_PER_WAKE, RESTART_SOC, TICK,
};

/// Whole ticks between two grid-aligned instants.
fn ticks(from: SimTime, to: SimTime) -> u32 {
    u32::try_from(to.saturating_since(from).as_secs() / TICK.as_secs()).unwrap_or(u32::MAX)
}

/// What a wake at instant `t` reads that depends only on `t`, derived
/// once per instant and shared by every station waking then.
#[derive(Debug, Clone, Copy)]
struct InstantCtx {
    /// The instant.
    t: SimTime,
    /// Storm active over the wake slot `[t, t+TICK)`.
    storm: bool,
    /// Storm active over the first sleeping slot `[t+TICK, t+2·TICK)`.
    storm_next: bool,
    /// Site air temperature at `t`, °C.
    temp_c: f64,
    /// Clear-sky panel current over the wake slot, amps.
    wake_harvest: f64,
    /// Clear-sky harvest credit for the sleep span that follows, amps.
    sleep_harvest: f64,
    /// The wake-schedule terms at `t`.
    grid: WakeGrid,
}

/// The terms of the wake schedule after `t` that depend only on `t`.
#[derive(Debug, Clone, Copy)]
struct WakeGrid {
    t: SimTime,
    /// Today's comms slot for role 0: `start_of_day(t) + slot_hour`.
    comms_base: SimTime,
    /// The next server role-rotation instant strictly after `t`.
    override_at: Option<SimTime>,
}

impl WakeGrid {
    /// The next wake instant after `t` for a station in `tier` with
    /// comms role `role`, and the wake kinds due then.
    ///
    /// Server overrides and restart checks are folded in here: anything
    /// that would interrupt a sleep span *bounds* it instead, which is
    /// what keeps every inter-event stretch exactly leapable.
    fn next_wake(&self, tier: Tier, role: u32) -> (SimTime, u8) {
        let t = self.t;
        let mut best = t + TICK * tier.sample_cadence_ticks();
        let mut kinds = KIND_SAMPLE;
        if tier != Tier::Dead {
            let slot = self.comms_base + SimDuration::from_secs(u64::from(role % 8) * 1_800);
            let comms = if slot > t {
                slot
            } else {
                slot + SimDuration::from_days(1)
            };
            if comms < best {
                best = comms;
                kinds = KIND_COMMS;
            } else if comms == best {
                kinds |= KIND_COMMS;
            }
            if let Some(ovr) = self.override_at {
                if ovr < best {
                    best = ovr;
                    kinds = KIND_OVERRIDE;
                } else if ovr == best {
                    kinds |= KIND_OVERRIDE;
                }
            }
        }
        (best, kinds)
    }
}

impl Site {
    /// Advances the site to horizon `h` (tick-grid aligned), processing
    /// every event strictly before `h` one whole instant at a time and
    /// bringing every station's cursor up to `h`.
    pub fn advance_to(&mut self, h: SimTime) {
        while let Some((t, batch)) = self.wheel.take_before(h) {
            // Derived at the instant's first wake. A tick-mode instant
            // may have none: its sleeping ticks keep their own storm
            // reach, which the state digest sees.
            let mut ctx = None;
            for &(_, event) in &batch {
                self.exec.events += 1;
                match event {
                    SiteEvent::Tick(s) => {
                        let su = s as usize;
                        if t == self.st.next_wake[su] {
                            let ctx = ctx.get_or_insert_with(|| self.instant_ctx(t));
                            self.wake(su, ctx);
                        } else {
                            self.sleep_tick(su, t);
                        }
                        self.wheel.push(t + TICK, SiteEvent::Tick(s));
                    }
                    SiteEvent::Wake(s) => {
                        let su = s as usize;
                        let ctx = ctx.get_or_insert_with(|| self.instant_ctx(t));
                        self.leap_sleep(su, t);
                        self.wake(su, ctx);
                        self.wheel.push(self.st.next_wake[su], SiteEvent::Wake(s));
                    }
                }
            }
            self.wheel.recycle(batch);
        }
        // Flush the quiescent tail: stations whose next wake lies beyond
        // the horizon still owe the ticks up to it. (In tick mode every
        // cursor already sits at `h`, so this is a no-op.)
        for s in 0..self.st.len() {
            if self.st.cursor[s] < h {
                self.leap_sleep(s, h);
            }
        }
        self.now = h;
    }

    /// Derives the context of the wakes at `t`. Its storm reach,
    /// `t + 2·TICK`, is the one every wake's first sleeping slot needs.
    fn instant_ctx(&mut self, t: SimTime) -> InstantCtx {
        self.storms.ensure(t + TICK * 2);
        InstantCtx {
            t,
            storm: self.storms.active_at(t),
            storm_next: self.storms.active_at(t + TICK),
            temp_c: self.params.temp_c(t),
            wake_harvest: self.params.wake_harvest_amps(t),
            sleep_harvest: self.params.sleep_harvest_amps(t),
            grid: self.wake_grid(t),
        }
    }

    /// One naive sleeping tick for station `s` over the slot
    /// `[t, t+TICK)`: check the storm phase, re-anchor on a boundary,
    /// and commit the glide at this slot's tick index.
    fn sleep_tick(&mut self, s: usize, t: SimTime) {
        self.storms.ensure(t + TICK);
        let storm = self.storms.active_at(t);
        if storm != self.st.glide_storm[s] {
            self.reanchor(s, t, storm);
        }
        let k = ticks(self.st.glide_start[s], t + TICK);
        self.st.glide[s].commit(&mut self.st.battery[s], k);
        self.st.cursor[s] = t + TICK;
        self.exec.ticks_stepped += 1;
    }

    /// Leaps station `s` from its cursor to `until`: one glide commit
    /// per constant-current storm segment, evaluating exactly the
    /// closed forms the per-tick path evaluates at `k = 1, 2, …` —
    /// once, at the segment's final tick index.
    fn leap_sleep(&mut self, s: usize, until: SimTime) {
        let from = self.st.cursor[s];
        if from >= until {
            return;
        }
        self.storms.ensure(until);
        let mut at = from;
        loop {
            let (storm, end) = self.storms.segment_end(at, until);
            if storm != self.st.glide_storm[s] {
                self.reanchor(s, at, storm);
            }
            let k = ticks(self.st.glide_start[s], end);
            self.st.glide[s].commit(&mut self.st.battery[s], k);
            self.exec.segments += 1;
            at = end;
            if at >= until {
                break;
            }
        }
        self.st.cursor[s] = until;
        self.exec.ticks_leapt += u64::from(ticks(from, until));
        self.exec.leaps += 1;
    }

    /// Re-anchors station `s`'s sleep recurrences at instant `t` (a
    /// storm boundary): settle the outgoing glide at `t`, fold the OU
    /// decay accrued since the old anchor, and open a new glide in the
    /// new storm phase. Both modes hit this at identical instants with
    /// identical state, so the re-anchored coefficients agree bitwise.
    fn reanchor(&mut self, s: usize, t: SimTime, storm: bool) {
        let k = ticks(self.st.glide_start[s], t);
        self.st.glide[s].commit(&mut self.st.battery[s], k);
        let decay_k = self
            .ou_cache
            .decay_pow(k, DT_HOURS, self.params.ou_theta, self.params.ou_sd);
        self.st.ou[s] *= decay_k;
        let i = if storm {
            -self.st.sleep_load[s]
        } else {
            self.st.sleep_harvest[s] - self.st.sleep_load[s]
        };
        self.st.glide[s] = self.st.battery[s].glide(TICK, Amps(i), Celsius(self.st.sleep_temp[s]));
        self.st.glide_start[s] = t;
        self.st.glide_storm[s] = storm;
    }

    /// The shared wake handler — the only place a station's state is
    /// observed or branches on randomness, so tick and leap mode call
    /// it with identical inputs at identical instants.
    ///
    /// glacsweb: draw-budget(4)
    fn wake(&mut self, s: usize, ctx: &InstantCtx) {
        self.exec.wakes += 1;
        let (t, storm) = (ctx.t, ctx.storm);
        let kinds = self.st.wake_kinds[s];
        let theta = self.params.ou_theta;
        let sd = self.params.ou_sd;
        // Materialise the OU anomaly at the wake instant from its
        // anchor, then advance it across the wake slot itself — noisily
        // when this wake samples (sensing), noiselessly otherwise.
        let k = ticks(self.st.glide_start[s], t);
        let at_wake = self.st.ou[s] * self.ou_cache.decay_pow(k, DT_HOURS, theta, sd);
        let pos0 = self.st.rng[s].position();
        let entry = self.st.tier[s];
        let tier = if entry == Tier::Dead {
            self.wake_dead(s, ctx, at_wake)
        } else {
            let (decay, step_sd) = self.ou_cache.coeffs(DT_HOURS, theta, sd);
            let ou = if kinds & KIND_SAMPLE != 0 {
                at_wake * decay + self.st.rng[s].normal(0.0, step_sd)
            } else {
                at_wake * decay
            };
            self.st.ou[s] = ou;
            let temp = ctx.temp_c + ou;
            let soc = self.st.battery[s].state_of_charge();
            let volts = self.st.battery[s]
                .terminal_voltage(Amps(-entry.wake_draw_amps()))
                .value();
            let tier = if soc < DEAD_SOC {
                Tier::Dead
            } else {
                classify_tier(volts)
            };
            let mut comms = false;
            if tier == Tier::Dead {
                self.counters.deaths += 1;
            } else {
                if kinds & KIND_COMMS != 0 {
                    comms = true;
                    self.comms_window(s, tier, storm);
                }
                if kinds & KIND_OVERRIDE != 0 {
                    self.st.role[s] = self.st.role[s].wrapping_add(1);
                    self.counters.overrides += 1;
                }
                if kinds & KIND_SAMPLE != 0 {
                    self.counters.sample_wakes += 1;
                }
            }
            let harvest = if storm { 0.0 } else { ctx.wake_harvest };
            let gprs = if comms { 1.1 } else { 0.0 };
            let draw = tier.wake_draw_amps() + gprs;
            self.st.battery[s].step(TICK, Amps(harvest - draw), Celsius(temp));
            tier
        };
        // Retire the wake's full raw-draw budget: stream position is a
        // pure function of wake count, whatever branches ran above.
        let used = self.st.rng[s].position() - pos0;
        debug_assert!(used <= RAW_DRAWS_PER_WAKE, "wake overdrew its budget");
        self.st.rng[s].skip_raw(RAW_DRAWS_PER_WAKE - used);
        self.st.tier[s] = tier;
        self.finish_wake(s, ctx, tier);
    }

    /// Wake path for a station that entered the slot dead: a restart
    /// check on the recharging battery, no sensing, no comms, no draws.
    fn wake_dead(&mut self, s: usize, ctx: &InstantCtx, at_wake: f64) -> Tier {
        self.counters.sample_wakes += 1;
        let (decay, _) = self
            .ou_cache
            .coeffs(DT_HOURS, self.params.ou_theta, self.params.ou_sd);
        let ou = at_wake * decay;
        self.st.ou[s] = ou;
        let soc = self.st.battery[s].state_of_charge();
        let temp = ctx.temp_c + ou;
        let tier = if soc >= RESTART_SOC {
            self.counters.restarts += 1;
            Tier::S1
        } else {
            Tier::Dead
        };
        let harvest = if ctx.storm { 0.0 } else { ctx.wake_harvest };
        let draw = Tier::Dead.wake_draw_amps();
        self.st.battery[s].step(TICK, Amps(harvest - draw), Celsius(temp));
        tier
    }

    /// One daily communications window: GPRS attach with one retry,
    /// classified healthy / degraded / lost.
    fn comms_window(&mut self, s: usize, tier: Tier, storm: bool) {
        if storm {
            self.counters.storm_wakes += 1;
        }
        let storm_f = if storm { 0.55 } else { 1.0 };
        let ou_f = 1.0 - 0.012 * self.st.ou[s].abs();
        let p = (tier.attach_p() * storm_f * ou_f).clamp(0.01, 0.995);
        let rng = &mut self.st.rng[s];
        if rng.f64() < p {
            self.counters.windows_healthy += 1;
        } else if rng.f64() < p {
            self.counters.windows_degraded += 1;
        } else {
            self.counters.windows_lost += 1;
        }
    }

    /// Reschedules station `s` after a wake, freezes the sleep
    /// parameters the next span will run on, and anchors a fresh glide
    /// at the first sleeping tick.
    fn finish_wake(&mut self, s: usize, ctx: &InstantCtx, tier: Tier) {
        let (next, kinds) = ctx.grid.next_wake(tier, self.st.role[s]);
        self.st.next_wake[s] = next;
        self.st.wake_kinds[s] = kinds;
        self.st.sleep_load[s] = tier.sleep_draw_amps();
        self.st.sleep_harvest[s] = ctx.sleep_harvest;
        self.st.sleep_temp[s] = ctx.temp_c + self.st.ou[s];
        let anchor = ctx.t + TICK;
        let storm = ctx.storm_next;
        let i = if storm {
            -self.st.sleep_load[s]
        } else {
            self.st.sleep_harvest[s] - self.st.sleep_load[s]
        };
        self.st.glide[s] = self.st.battery[s].glide(TICK, Amps(i), Celsius(self.st.sleep_temp[s]));
        self.st.glide_start[s] = anchor;
        self.st.glide_storm[s] = storm;
        self.st.cursor[s] = anchor;
    }

    /// The next wake instant after a wake at `t` for a station in
    /// `tier` with comms role `role`, and the wake kinds due then.
    pub(crate) fn next_wake_for(&self, t: SimTime, tier: Tier, role: u32) -> (SimTime, u8) {
        self.wake_grid(t).next_wake(tier, role)
    }

    /// The wake-schedule terms at `t`.
    fn wake_grid(&self, t: SimTime) -> WakeGrid {
        WakeGrid {
            t,
            comms_base: t.start_of_day()
                + SimDuration::from_secs(u64::from(self.params.slot_hour) * 3_600),
            override_at: self.next_override_after(t),
        }
    }

    /// The next server role-rotation instant strictly after `t`.
    fn next_override_after(&self, t: SimTime) -> Option<SimTime> {
        if self.rotation_days == 0 {
            return None;
        }
        let period = u64::from(self.rotation_days) * 86_400;
        let first = self.start.start_of_day() + SimDuration::from_secs(3 * 3_600 + period);
        if t < first {
            return Some(first);
        }
        let k = (t.unix() - first.unix()) / period + 1;
        Some(first + SimDuration::from_secs(k * period))
    }
}
