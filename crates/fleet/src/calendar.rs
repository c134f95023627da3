//! The site calendar: a fleet site's pending events, indexed by tick.
//!
//! Every fleet instant lies on the five-minute [`TICK`] grid, and the
//! kernel never schedules further ahead of the instant it is processing
//! than [`MAX_AHEAD_TICKS`]. So the pending events of a site always fit
//! a window of `MAX_AHEAD_TICKS + 1` consecutive ticks, and a ring of
//! `RING` slots — one per tick number modulo the ring length — indexes
//! them with no search: the slot of instant `t` is `t / TICK mod RING`.
//!
//! Each slot holds one instant's `(tag, event)` list in arrival order.
//! The kernel takes a whole instant at a time
//! (`SiteCalendar::take_before`) and hands the emptied buffer back
//! (`SiteCalendar::recycle`) to a spare pool of at most
//! `SPARE_SLOTS` buffers of at most `SPARE_CAPACITY` events each,
//! which the next newly opened instants reuse. Slot storage is therefore
//! the live events plus that bounded pool.
//!
//! On the wire the calendar is the pending-event form of
//! [`glacsweb_sim::encode_pending`], the one the deployment's
//! [`EventQueue`](glacsweb_sim::EventQueue) writes too:
//! `{seq, entries: [[instant, tag, event], …]}` in firing order, with
//! `seq` the monotone arrival counter the tags are drawn from.

use glacsweb_sim::{decode_pending, encode_pending, SimTime};
use serde::{de, Deserialize, Serialize, Value};

use crate::site::{SiteEvent, Tier, TICK};

/// Ticks in one day: the comms slot of a station is never further away.
const TICKS_PER_DAY: u64 = 86_400 / TICK.as_secs();

/// The furthest ahead of the instant being processed that the kernel
/// schedules, in ticks: a wake is bounded by the station's sampling
/// cadence, the survival tier's daily one the longest, and by its next
/// daily comms slot.
pub const MAX_AHEAD_TICKS: u64 = Tier::S1.sample_cadence_ticks();

/// Ring length: the least power of two that holds the whole pending
/// window, so a slot index is a mask and no two pending instants share
/// a slot.
const RING: usize = (MAX_AHEAD_TICKS + 1).next_power_of_two() as usize;

const _: () = assert!(
    Tier::S3.sample_cadence_ticks() <= MAX_AHEAD_TICKS
        && Tier::S2.sample_cadence_ticks() <= MAX_AHEAD_TICKS
        && Tier::Dead.sample_cadence_ticks() <= MAX_AHEAD_TICKS
        && TICKS_PER_DAY <= MAX_AHEAD_TICKS
        && RING as u64 > MAX_AHEAD_TICKS
);

/// Emptied slot buffers kept for reuse. A site opens a handful of new
/// instants per instant it processes, so a few buffers cover the reuse.
const SPARE_SLOTS: usize = 4;

/// The most events a pooled buffer may have room for. A spare goes to
/// whichever instant opens next, however few events it gets; pooling the
/// buffers of a site's largest instants (a comms slot wakes hundreds of
/// stations) would pin that capacity in slots that hold a few events.
const SPARE_CAPACITY: usize = 64;

const MASK: u64 = RING as u64 - 1;

/// One pending event with its arrival tag.
type Entry = (u64, SiteEvent);

fn tick_of(t: SimTime) -> u64 {
    t.unix() / TICK.as_secs()
}

fn instant(tick: u64) -> SimTime {
    SimTime::from_unix(tick * TICK.as_secs())
}

/// A site's pending events on a tick-indexed ring.
///
/// Events leave in non-decreasing instant order with FIFO tie-breaking,
/// exactly as from an [`EventQueue`](glacsweb_sim::EventQueue) fed the
/// same pushes, provided every push lands inside the horizon: on the
/// tick grid, no earlier than the next instant still to be taken, and
/// less than `RING` = 512 ticks past it. The kernel's schedule keeps that
/// invariant by construction; a restored calendar is held to it by
/// [`Fleet::restore`](crate::Fleet::restore).
#[derive(Debug, Clone)]
pub struct SiteCalendar {
    /// `RING` slots; slot `k mod RING` holds the events of tick `k`.
    slots: Box<[Vec<Entry>]>,
    /// Tick number of the earliest instant that may still hold events.
    cursor: u64,
    /// Arrival counter (never reused, monotone).
    seq: u64,
    /// Events pending across all slots.
    len: usize,
    /// Emptied slot buffers kept for reuse (at most `SPARE_SLOTS`).
    /// Derived state: a snapshot never carries it.
    // glacsweb: derived-state
    spare: Vec<Vec<Entry>>,
}

impl SiteCalendar {
    /// An empty calendar whose first instant is `origin`.
    pub(crate) fn new(origin: SimTime) -> Self {
        SiteCalendar {
            slots: vec![Vec::new(); RING].into_boxed_slice(),
            cursor: tick_of(origin),
            seq: 0,
            len: 0,
            spare: Vec::new(),
        }
    }

    /// Schedules `event` at `t`, which must lie inside the horizon (see
    /// the type docs).
    pub fn push(&mut self, t: SimTime, event: SiteEvent) {
        let tick = tick_of(t);
        // A push outside the window would file the event under another
        // instant's slot and pop it out of order.
        assert!(
            t.unix().is_multiple_of(TICK.as_secs())
                && tick >= self.cursor
                && tick - self.cursor < RING as u64,
            "push at {t:?} outside the calendar horizon"
        );
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let spare = &mut self.spare;
        let slot = &mut self.slots[(tick & MASK) as usize];
        if slot.capacity() == 0 {
            if let Some(buf) = spare.pop() {
                *slot = buf;
            }
        }
        slot.push((seq, event));
    }

    /// Takes every event of the earliest pending instant before `h`, in
    /// arrival order, or `None` once no instant before `h` holds events.
    /// The instant is then closed: later pushes must lie after it. Hand
    /// the buffer back with [`recycle`](Self::recycle).
    pub(crate) fn take_before(&mut self, h: SimTime) -> Option<(SimTime, Vec<Entry>)> {
        let end = h.unix().div_ceil(TICK.as_secs());
        // Every pending event lies less than `RING` ticks past the
        // cursor, so the scan meets the earliest one within one turn.
        while self.len > 0 && self.cursor < end {
            let tick = self.cursor;
            self.cursor += 1;
            let slot = &mut self.slots[(tick & MASK) as usize];
            if !slot.is_empty() {
                let batch = std::mem::take(slot);
                self.len -= batch.len();
                return Some((instant(tick), batch));
            }
        }
        self.cursor = self.cursor.max(end);
        None
    }

    /// Returns a buffer from [`take_before`](Self::take_before) to the
    /// spare pool, or frees it if the pool is full or the buffer large.
    pub(crate) fn recycle(&mut self, mut batch: Vec<Entry>) {
        if self.spare.len() < SPARE_SLOTS && batch.capacity() <= SPARE_CAPACITY {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Visits every pending `(instant, tag, event)` in firing order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SimTime, u64, SiteEvent)> + '_ {
        pending(&self.slots, self.cursor)
    }

    /// Re-bases a decoded calendar on the site clock `now`: every
    /// pending instant must lie in `[now, now + MAX_AHEAD_TICKS]`, the
    /// window a running site's calendar always occupies. On success the
    /// calendar's next instant is `now`.
    pub(crate) fn rebase(&mut self, now: SimTime) -> Result<(), String> {
        let base = tick_of(now);
        if let Some((t, ..)) = self.iter().next() {
            if tick_of(t) < base {
                return Err(format!("an event at {t:?} precedes the site clock {now:?}"));
            }
        }
        if let Some((t, ..)) = self.iter().last() {
            if tick_of(t) - base > MAX_AHEAD_TICKS {
                return Err(format!(
                    "an event at {t:?} lies more than {MAX_AHEAD_TICKS} ticks past the site clock {now:?}"
                ));
            }
        }
        self.cursor = base;
        Ok(())
    }
}

/// Every pending `(instant, tag, event)` of the ring `slots` whose
/// earliest instant is tick `cursor`, in firing order.
fn pending(
    slots: &[Vec<Entry>],
    cursor: u64,
) -> impl Iterator<Item = (SimTime, u64, SiteEvent)> + '_ {
    (cursor..cursor + RING as u64).flat_map(move |tick| {
        slots[(tick & MASK) as usize]
            .iter()
            .map(move |&(tag, event)| (instant(tick), tag, event))
    })
}

impl Serialize for SiteCalendar {
    fn to_value(&self) -> Value {
        encode_pending(self.seq, self.len, pending(&self.slots, self.cursor))
    }
}

impl Deserialize for SiteCalendar {
    /// Decodes the pending-event form (see [`decode_pending`] for the
    /// checks every pending set gets, firing order among them), rejecting
    /// what no calendar holds: an instant off the tick grid, or entries
    /// spread over more instants than the ring indexes. The decoded
    /// calendar starts at its first entry; `SiteCalendar::rebase` then
    /// checks the window against the site clock.
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let mut slots = vec![Vec::new(); RING].into_boxed_slice();
        let mut span: Option<(u64, u64)> = None;
        let mut len = 0;
        let seq = decode_pending(v, |t, tag, event| {
            if !t.unix().is_multiple_of(TICK.as_secs()) {
                return Err(de::Error::custom(format!(
                    "site calendar entry at {t:?} is off the tick grid"
                )));
            }
            let tick = tick_of(t);
            span = Some((span.map_or(tick, |(first, _)| first), tick));
            slots[(tick & MASK) as usize].push((tag, event));
            len += 1;
            Ok(())
        })?;
        let (cursor, last) = span.unwrap_or_default();
        if last - cursor >= RING as u64 {
            return Err(de::Error::custom(format!(
                "site calendar entries span more than {RING} ticks"
            )));
        }
        Ok(SiteCalendar {
            slots,
            cursor,
            seq,
            len,
            spare: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_sim::EventQueue;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn origin() -> SimTime {
        SimTime::from_ymd_hms(2008, 9, 1, 0, 0, 0)
    }

    /// `(is_pop, ticks ahead of the next open instant, is_tick_event)`.
    fn ops() -> impl Strategy<Value = Vec<(bool, u64, bool)>> {
        proptest::collection::vec((any::<bool>(), 0..=MAX_AHEAD_TICKS, any::<bool>()), 1..400)
    }

    /// Drives a calendar and an [`EventQueue`] with the same pushes — on
    /// the tick grid, inside the horizon — interleaved with pops of one
    /// whole instant. Both must give the same `(instant, tag, event)`
    /// sequence, and carry the same wire bytes throughout.
    fn calendar_matches_the_queue(ops: &[(bool, u64, bool)]) -> Result<(), TestCaseError> {
        let mut calendar = SiteCalendar::new(origin());
        let mut queue = EventQueue::new();
        let mut pushed = 0u32;
        let pop_instant = |calendar: &mut SiteCalendar,
                           queue: &mut EventQueue<SiteEvent>|
         -> Result<bool, TestCaseError> {
            let far = instant(calendar.cursor + RING as u64);
            let Some((t, batch)) = calendar.take_before(far) else {
                prop_assert_eq!(queue.pop(), None);
                return Ok(false);
            };
            for &(tag, event) in &batch {
                // Each push's event carries its push index, which is the
                // queue's arrival tag for it.
                let (SiteEvent::Tick(i) | SiteEvent::Wake(i)) = event;
                prop_assert_eq!(tag, u64::from(i));
                prop_assert_eq!(queue.pop(), Some((t, event)));
            }
            prop_assert_ne!(queue.peek_time(), Some(t));
            calendar.recycle(batch);
            Ok(true)
        };
        for &(is_pop, ahead, is_tick) in ops {
            if is_pop {
                pop_instant(&mut calendar, &mut queue)?;
            } else {
                let t = instant(calendar.cursor + ahead);
                let event = if is_tick {
                    SiteEvent::Tick(pushed)
                } else {
                    SiteEvent::Wake(pushed)
                };
                calendar.push(t, event);
                queue.push(t, event);
                pushed += 1;
            }
            prop_assert_eq!(calendar.len, queue.len());
            prop_assert_eq!(
                glacsweb_snapshot::to_bytes(&calendar),
                glacsweb_snapshot::to_bytes(&queue)
            );
        }
        let bytes = glacsweb_snapshot::to_bytes(&calendar);
        let mut decoded: SiteCalendar = glacsweb_snapshot::from_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        decoded
            .rebase(instant(calendar.cursor))
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(glacsweb_snapshot::to_bytes(&decoded), bytes);
        while pop_instant(&mut calendar, &mut queue)? {}
        prop_assert!(calendar.len == 0 && queue.is_empty());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn pops_in_event_queue_order(ops in ops()) {
            calendar_matches_the_queue(&ops)?;
        }
    }

    /// Opt-in stress variant of `pops_in_event_queue_order`: 20,000
    /// randomized cases. Run with
    /// `cargo test -p glacsweb-fleet --release -- --ignored`.
    #[test]
    #[ignore = "stress: 20k randomized cases, run explicitly"]
    fn pops_in_event_queue_order_stress() {
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config::with_cases(20_000));
        runner
            .run(&ops(), |ops| calendar_matches_the_queue(&ops))
            .expect("the calendar must pop in event queue order");
    }

    #[test]
    fn pooled_buffers_are_bounded() {
        let mut calendar = SiteCalendar::new(origin());
        for ahead in 0..16u64 {
            let n = if ahead == 3 { SPARE_CAPACITY + 1 } else { 2 };
            for s in 0..n as u32 {
                calendar.push(instant(calendar.cursor + ahead), SiteEvent::Wake(s));
            }
        }
        let far = instant(calendar.cursor + RING as u64);
        while let Some((_, batch)) = calendar.take_before(far) {
            calendar.recycle(batch);
        }
        assert_eq!(calendar.spare.len(), SPARE_SLOTS);
        assert!(calendar
            .spare
            .iter()
            .all(|b| b.capacity() <= SPARE_CAPACITY));
    }

    fn wire(entries: Vec<Value>, seq: u64) -> Value {
        Value::Map(vec![
            (Value::Str("seq".to_string()), seq.to_value()),
            (Value::Str("entries".to_string()), Value::Seq(entries)),
        ])
    }

    fn entry(t: SimTime, tag: u64) -> Value {
        Value::Seq(vec![
            t.to_value(),
            tag.to_value(),
            SiteEvent::Wake(0).to_value(),
        ])
    }

    #[test]
    fn decode_rejects_what_no_calendar_holds() {
        let t = origin();
        let cases = [
            (
                vec![entry(t + glacsweb_sim::SimDuration::from_secs(60), 0)],
                1,
                "off the tick grid",
            ),
            (vec![entry(t, 1)], 1, "not below arrival counter"),
            (vec![entry(t, 1), entry(t, 0)], 2, "FIFO"),
            (
                vec![entry(t, 1), entry(t + TICK, 2), entry(t, 0)],
                3,
                "FIFO",
            ),
            (
                vec![entry(t, 0), entry(t + TICK * RING as u64, 1)],
                2,
                "span more than",
            ),
        ];
        for (entries, seq, want) in cases {
            let err = SiteCalendar::from_value(&wire(entries, seq)).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn rebase_holds_the_window_to_the_site_clock() {
        let t = origin() + TICK * 10;
        let decode = |at: SimTime| SiteCalendar::from_value(&wire(vec![entry(at, 0)], 1)).unwrap();
        assert!(decode(t).rebase(t).is_ok());
        assert!(decode(t + TICK * MAX_AHEAD_TICKS).rebase(t).is_ok());
        let err = decode(t - TICK).rebase(t).unwrap_err();
        assert!(err.contains("precedes the site clock"), "{err}");
        let err = decode(t + TICK * (MAX_AHEAD_TICKS + 1))
            .rebase(t)
            .unwrap_err();
        assert!(err.contains("ticks past the site clock"), "{err}");
    }
}
