//! Probe firmware: sampling, buffering and the probe-side protocol state.

use std::collections::{BTreeMap, VecDeque};

use glacsweb_env::Environment;
use glacsweb_sim::{SimRng, SimTime};
use serde::{de, Deserialize, Serialize, Value};

use crate::reading::ProbeReading;
use crate::sensing::ProbeSensing;

/// Identifier of a probe (the paper numbers them 21, 24, 25…).
pub type ProbeId = u32;

/// The firmware state of one subglacial probe.
///
/// Readings are buffered in a bounded store of consecutive sequence
/// numbers, oldest first. Delivered readings are only discarded when the
/// base station explicitly confirms the fetch task complete — the §V
/// behaviour that saved the 3000-reading fetch: "Fortunately the task was
/// not marked as complete in the probes; so many missing readings were
/// obtained in subsequent days."
///
/// # Example
///
/// ```
/// use glacsweb_env::{EnvConfig, Environment};
/// use glacsweb_probe::ProbeFirmware;
/// use glacsweb_sim::{SimRng, SimTime};
///
/// let mut rng = SimRng::seed_from(1);
/// let mut env = Environment::new(EnvConfig::vatnajokull(), 1);
/// let t = SimTime::from_ymd_hms(2009, 2, 1, 0, 0, 0);
/// env.advance_to(t);
///
/// let mut probe = ProbeFirmware::deploy(21, t, &mut rng);
/// probe.sample(&env, t, &mut rng);
/// assert_eq!(probe.stored_readings(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeFirmware {
    id: ProbeId,
    sensing: ProbeSensing,
    buffer: ReadingBuffer,
    next_seq: u64,
    deployed_at: SimTime,
    dead_at: Option<SimTime>,
    buffer_capacity: usize,
    overwritten: u64,
    /// Radio health: `false` while a fault-injected blackout silences the
    /// probe (it keeps sampling, it just cannot answer the base).
    radio_ok: bool,
}

impl ProbeFirmware {
    /// Deploys a probe at `t` with a freshly randomised sensing
    /// personality.
    pub fn deploy(id: ProbeId, t: SimTime, rng: &mut SimRng) -> Self {
        ProbeFirmware {
            id,
            sensing: ProbeSensing::deploy(id, rng),
            buffer: ReadingBuffer::default(),
            next_seq: 0,
            deployed_at: t,
            dead_at: None,
            // ~8 months of hourly readings fit in the probe's flash.
            buffer_capacity: 6000,
            overwritten: 0,
            radio_ok: true,
        }
    }

    /// Probe identifier.
    pub fn id(&self) -> ProbeId {
        self.id
    }

    /// When the probe was lowered down the borehole.
    pub fn deployed_at(&self) -> SimTime {
        self.deployed_at
    }

    /// `true` if the probe has failed ("vanished offline").
    pub fn is_dead(&self) -> bool {
        self.dead_at.is_some()
    }

    /// Marks the probe failed at `t` (driven by
    /// [`MortalityModel`](crate::MortalityModel)).
    pub fn kill(&mut self, t: SimTime) {
        if self.dead_at.is_none() {
            self.dead_at = Some(t);
        }
    }

    /// `true` while the radio can answer the base.
    pub fn radio_ok(&self) -> bool {
        self.radio_ok
    }

    /// Silences (or restores) the probe radio — the blackout fault. A
    /// silenced probe keeps sampling into its buffer but never answers a
    /// manifest query, so the base sees it exactly like a dead probe
    /// until the fault clears.
    pub fn set_radio_ok(&mut self, ok: bool) {
        self.radio_ok = ok;
    }

    /// Number of readings currently buffered.
    pub fn stored_readings(&self) -> usize {
        self.buffer.readings.len()
    }

    /// Readings lost to ring-buffer overwrite (base fell too far behind).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Takes one scheduled sample (no-op when dead).
    pub fn sample(&mut self, env: &Environment, t: SimTime, rng: &mut SimRng) {
        if self.is_dead() {
            return;
        }
        let reading = self.sensing.sample(env, t, self.next_seq, rng);
        if self.buffer.readings.len() == self.buffer_capacity {
            // Oldest reading is overwritten — data loss the protocol
            // cannot recover.
            self.buffer.drop_front(1);
            self.overwritten += 1;
        }
        self.buffer.push(reading);
        self.next_seq += 1;
    }

    /// Responds to the base's MANIFEST query: the inclusive seq range
    /// currently held, or `None` if empty (or dead — a dead probe never
    /// answers).
    pub fn manifest(&self) -> Option<(u64, u64)> {
        if self.is_dead() || !self.radio_ok {
            return None;
        }
        let held = u64::try_from(self.buffer.readings.len()).ok()?;
        let last = self.buffer.first_seq.checked_add(held.checked_sub(1)?)?;
        Some((self.buffer.first_seq, last))
    }

    /// Sends one requested reading: `None` if it was overwritten, or if
    /// the probe is dead or silenced. The radio decides whether it
    /// survives the trip.
    pub fn reading(&self, seq: u64) -> Option<ProbeReading> {
        if self.is_dead() || !self.radio_ok {
            return None;
        }
        self.buffer.get(seq)
    }

    /// The base confirms every reading up to and including `seq` is safely
    /// stored; the probe frees that storage (task complete).
    pub fn confirm_complete_up_to(&mut self, seq: u64) {
        let through = seq.saturating_add(1).saturating_sub(self.buffer.first_seq);
        self.buffer
            .drop_front(usize::try_from(through).unwrap_or(usize::MAX));
    }
}

/// The probe's flash store: readings with consecutive sequence numbers
/// from `first_seq`, oldest first. New readings join at the back; the
/// ring-buffer overwrite and the base's confirmation free from the front,
/// so the numbers never have a gap.
///
/// The wire form is the `seq → reading` map a `BTreeMap<u64,
/// ProbeReading>` writes, so snapshots are unchanged in both directions.
#[derive(Debug, Clone, Default, PartialEq)]
struct ReadingBuffer {
    /// Sequence number of the front reading; while the store is empty,
    /// the next reading to arrive sets it.
    first_seq: u64,
    readings: VecDeque<ProbeReading>,
}

impl ReadingBuffer {
    fn push(&mut self, reading: ProbeReading) {
        if self.readings.is_empty() {
            self.first_seq = reading.seq;
        }
        self.readings.push_back(reading);
    }

    /// Frees the `n` oldest readings.
    fn drop_front(&mut self, n: usize) {
        let n = n.min(self.readings.len());
        self.readings.drain(..n);
        self.first_seq += u64::try_from(n).unwrap_or(u64::MAX);
    }

    fn get(&self, seq: u64) -> Option<ProbeReading> {
        let index = usize::try_from(seq.checked_sub(self.first_seq)?).ok()?;
        self.readings.get(index).copied()
    }
}

impl Serialize for ReadingBuffer {
    fn to_value(&self) -> Value {
        Value::Map(
            (self.first_seq..)
                .zip(&self.readings)
                .map(|(seq, reading)| (seq.to_value(), reading.to_value()))
                .collect(),
        )
    }
}

/// Reads the map form back, failing unless its keys are consecutive and
/// each names its own reading's sequence number.
impl Deserialize for ReadingBuffer {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let map = BTreeMap::<u64, ProbeReading>::from_value(v)?;
        let first_seq = map.keys().next().copied().unwrap_or(0);
        let mut buffer = ReadingBuffer {
            first_seq,
            readings: VecDeque::with_capacity(map.len()),
        };
        for ((seq, reading), want) in map.into_iter().zip(first_seq..) {
            if seq != want || reading.seq != seq {
                return Err(de::Error::custom(
                    "probe buffer sequence numbers must be consecutive and match their readings",
                ));
            }
            buffer.readings.push_back(reading);
        }
        Ok(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glacsweb_env::EnvConfig;
    use glacsweb_sim::SimDuration;

    fn setup() -> (Environment, ProbeFirmware, SimRng, SimTime) {
        let mut rng = SimRng::seed_from(20);
        let t = SimTime::from_ymd_hms(2008, 8, 15, 0, 0, 0);
        let mut env = Environment::new(EnvConfig::vatnajokull(), 2);
        env.advance_to(t);
        let probe = ProbeFirmware::deploy(21, t, &mut rng);
        (env, probe, rng, t)
    }

    #[test]
    fn hourly_sampling_builds_a_backlog() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        // §V: ~3000 readings accumulate over months offline (hourly × 125
        // days).
        for _ in 0..3000 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        assert_eq!(probe.stored_readings(), 3000);
        assert_eq!(probe.manifest(), Some((0, 2999)));
        assert_eq!(probe.overwritten(), 0);
    }

    #[test]
    fn ring_buffer_overwrites_oldest() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        probe.buffer_capacity = 100;
        for _ in 0..150 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        assert_eq!(probe.stored_readings(), 100);
        assert_eq!(probe.overwritten(), 50);
        assert_eq!(probe.manifest(), Some((50, 149)));
    }

    #[test]
    fn stream_skips_overwritten_seqs() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        probe.buffer_capacity = 10;
        for _ in 0..20 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let got: Vec<ProbeReading> = (5..15).filter_map(|s| probe.reading(s)).collect();
        // Seqs 5..10 were overwritten; only 10..15 exist.
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|r| r.seq >= 10));
    }

    #[test]
    fn confirmation_frees_storage_but_not_newer_readings() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        for _ in 0..100 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        probe.confirm_complete_up_to(59);
        assert_eq!(probe.stored_readings(), 40);
        assert_eq!(probe.manifest(), Some((60, 99)));
    }

    #[test]
    fn unconfirmed_readings_survive_for_subsequent_days() {
        // The §V save: a failed fetch leaves everything in place.
        let (mut env, mut probe, mut rng, mut t) = setup();
        for _ in 0..500 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        let before = probe.stored_readings();
        // A fetch happens, readings stream out, but no confirmation
        // arrives…
        assert_eq!((0..500).filter_map(|s| probe.reading(s)).count(), 500);
        assert_eq!(
            probe.stored_readings(),
            before,
            "nothing freed without confirm"
        );
    }

    #[test]
    fn dead_probe_goes_silent() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        for _ in 0..10 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        probe.kill(t);
        assert!(probe.is_dead());
        assert_eq!(probe.manifest(), None, "dead probes vanish offline");
        assert!((0..10).all(|s| probe.reading(s).is_none()));
        let count = probe.stored_readings();
        probe.sample(&env, t + SimDuration::from_hours(1), &mut rng);
        assert_eq!(probe.stored_readings(), count, "no sampling after death");
    }

    #[test]
    fn radio_blackout_silences_but_keeps_sampling() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        for _ in 0..5 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        probe.set_radio_ok(false);
        assert_eq!(probe.manifest(), None, "blackout looks like death");
        assert!((0..5).all(|s| probe.reading(s).is_none()));
        t += SimDuration::from_hours(1);
        env.advance_to(t);
        probe.sample(&env, t, &mut rng);
        assert_eq!(probe.stored_readings(), 6, "sampling continues");
        probe.set_radio_ok(true);
        assert_eq!(probe.manifest(), Some((0, 5)), "back online with backlog");
        assert!(!probe.is_dead());
    }

    #[test]
    fn buffer_wire_form_is_the_seq_keyed_map() {
        let (mut env, mut probe, mut rng, mut t) = setup();
        probe.buffer_capacity = 40;
        for _ in 0..60 {
            t += SimDuration::from_hours(1);
            env.advance_to(t);
            probe.sample(&env, t, &mut rng);
        }
        probe.confirm_complete_up_to(29);
        let map: BTreeMap<u64, ProbeReading> = (30..60)
            .map(|s| (s, probe.reading(s).expect("held")))
            .collect();
        assert_eq!(probe.buffer.to_value(), map.to_value());
        let back = ReadingBuffer::from_value(&map.to_value()).expect("decodes");
        assert_eq!(back, probe.buffer);
        let empty = ReadingBuffer::from_value(&BTreeMap::<u64, ProbeReading>::new().to_value());
        assert_eq!(empty.expect("decodes").readings.len(), 0);

        // A gap, or a key that is not its reading's seq, is refused.
        let mut gap = map.clone();
        gap.remove(&45);
        assert!(ReadingBuffer::from_value(&gap.to_value()).is_err());
        let mut renamed = map;
        let stray = renamed.remove(&59).expect("held");
        renamed.insert(58, stray);
        assert!(ReadingBuffer::from_value(&renamed.to_value()).is_err());
    }

    #[test]
    fn empty_probe_has_no_manifest() {
        let (_, probe, _, _) = setup();
        assert_eq!(probe.manifest(), None);
    }
}
