//! Named electrical loads with per-device energy metering.

use std::cell::Cell;
use std::collections::BTreeMap;

use glacsweb_sim::{SimDuration, WattHours, Watts};
use serde::{Deserialize, Serialize};

/// Memo of the total switched-on draw, invalidated by every mutation of
/// the on/off pattern. A hit returns the exact `Watts` the last full
/// re-sum produced — the sum is always recomputed whole (same values,
/// same `BTreeMap` order), never adjusted incrementally, so the cached
/// bits equal a fresh evaluation's. Derived state: invisible to
/// equality and skipped by serde.
#[derive(Debug, Clone, Default)]
struct TotalCache(Cell<Option<Watts>>);

impl PartialEq for TotalCache {
    fn eq(&self, _: &Self) -> bool {
        true // derived state
    }
}

/// The set of switchable loads hanging off a station's power rail.
///
/// The Gumsense board's defining feature (§II) is *software-controlled
/// powering of peripherals*: the MSP430 switches the Gumstix, dGPS, and
/// modem rails on and off. `LoadSet` models those switches and meters each
/// device's lifetime energy, which is what the architecture-comparison
/// experiment (E9) reports.
///
/// # Example
///
/// ```
/// use glacsweb_power::LoadSet;
/// use glacsweb_sim::{SimDuration, Watts};
///
/// let mut loads = LoadSet::new();
/// loads.add("gumstix", Watts::from_milliwatts(900.0));
/// loads.add("gprs", Watts::from_milliwatts(2640.0));
/// loads.set_on("gumstix", true);
/// assert_eq!(loads.total_power(), Watts(0.9));
///
/// loads.meter(SimDuration::from_hours(2));
/// assert!((loads.energy("gumstix").unwrap().value() - 1.8).abs() < 1e-9);
/// assert_eq!(loads.energy("gprs").unwrap().value(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadSet {
    /// Devices sorted by name, so the rail's per-span `meter_span` and
    /// `total_power` walk a flat slice.
    loads: Vec<(String, Load)>,
    total: TotalCache,
}

// Hand-written (de)serialization: the total-power memo is derived state
// and must not appear on the wire, and the vendored serde derive has no
// `#[serde(skip)]`. The wire form is a map with the single `loads` field,
// itself a name → load map in name order — the shape of a
// `BTreeMap<String, Load>`.
impl Serialize for LoadSet {
    fn to_value(&self) -> serde::Value {
        let loads = self
            .loads
            .iter()
            .map(|(name, load)| (name.to_value(), load.to_value()))
            .collect();
        serde::Value::Map(vec![(
            serde::Value::Str(String::from("loads")),
            serde::Value::Map(loads),
        )])
    }
}

impl Deserialize for LoadSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        // Read through the map type so a snapshot's keys come back sorted
        // and unique whatever order they were written in.
        let loads: BTreeMap<String, Load> = serde::de::field(v, "loads")?;
        Ok(LoadSet {
            loads: loads.into_iter().collect(),
            total: TotalCache::default(),
        })
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Load {
    power: Watts,
    on: bool,
    energy: WattHours,
}

/// A point-in-time view of one load, as returned by [`LoadSet::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadSnapshot {
    /// Device name.
    pub name: String,
    /// Rated draw when on.
    pub power: Watts,
    /// Whether the device rail is currently switched on.
    pub on: bool,
    /// Lifetime energy consumed.
    pub energy: WattHours,
}

impl LoadSet {
    /// Creates an empty load set.
    pub fn new() -> Self {
        LoadSet::default()
    }

    /// Registers a device (initially off).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered or the power is negative.
    pub fn add(&mut self, name: impl Into<String>, power: Watts) {
        let name = name.into();
        assert!(power.value() >= 0.0, "load power must be non-negative");
        let found = self.position(&name);
        assert!(found.is_err(), "duplicate load {name:?}");
        let (Ok(slot) | Err(slot)) = found;
        let load = Load {
            power,
            on: false,
            energy: WattHours::ZERO,
        };
        self.loads.insert(slot, (name, load));
        self.total.0.set(None);
    }

    /// Where `name` sits in the sorted list: `Ok(index)` if registered,
    /// else `Err(insertion point)`.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.loads.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    fn get(&self, name: &str) -> Option<&Load> {
        let i = self.position(name).ok()?;
        self.loads.get(i).map(|(_, load)| load)
    }

    fn values(&self) -> impl Iterator<Item = &Load> {
        self.loads.iter().map(|(_, load)| load)
    }

    /// Switches a device rail on or off.
    ///
    /// # Panics
    ///
    /// Panics if the device is unknown — switching a rail that does not
    /// exist is a wiring bug, not a runtime condition.
    pub fn set_on(&mut self, name: &str, on: bool) {
        let load = self
            .position(name)
            .ok()
            .and_then(|i| self.loads.get_mut(i))
            .map(|(_, load)| load)
            // glacsweb: allow(panic-freedom, reason = "load names are compile-time constants (station::loads); switching an unregistered rail is a wiring bug the simulation must not paper over")
            .unwrap_or_else(|| panic!("unknown load {name:?}"));
        if load.on != on {
            load.on = on;
            self.total.0.set(None);
        }
    }

    /// Total instantaneous draw of all switched-on devices.
    ///
    /// Cached between switching events: the power rail reads this once
    /// per span and the MSP430 model at every half-hourly voltage sample,
    /// while the on/off pattern changes only a few times a day.
    pub fn total_power(&self) -> Watts {
        if let Some(total) = self.total.0.get() {
            return total;
        }
        let total = self.values().filter(|l| l.on).map(|l| l.power).sum();
        self.total.0.set(Some(total));
        total
    }

    /// Accumulates per-device energy for a period during which the on/off
    /// pattern did not change.
    pub fn meter(&mut self, dt: SimDuration) {
        for (_, load) in &mut self.loads {
            if load.on {
                load.energy += load.power.over(dt);
            }
        }
    }

    /// Meters a span of `steps` substeps of `dt` followed by a `last`
    /// partial one, over which the on/off pattern did not change.
    ///
    /// Each load's energy takes the additions [`LoadSet::meter`] once per
    /// substep would give it, in the same order, so the result is
    /// bit-identical; the per-substep energy is computed once per load.
    pub(crate) fn meter_span(&mut self, steps: u64, dt: SimDuration, last: Option<SimDuration>) {
        for (_, load) in &mut self.loads {
            if load.on {
                let per_step = load.power.over(dt);
                for _ in 0..steps {
                    load.energy += per_step;
                }
                if let Some(last) = last {
                    load.energy += load.power.over(last);
                }
            }
        }
    }

    /// Lifetime energy of one device, or `None` if unknown.
    pub fn energy(&self, name: &str) -> Option<WattHours> {
        self.get(name).map(|l| l.energy)
    }

    /// Lifetime energy of every device combined.
    pub fn total_energy(&self) -> WattHours {
        self.values().map(|l| l.energy).sum()
    }

    /// Snapshot of every registered device, sorted by name.
    pub fn snapshot(&self) -> Vec<LoadSnapshot> {
        self.loads
            .iter()
            .map(|(name, l)| LoadSnapshot {
                // glacsweb: allow(perf-hygiene, reason = "snapshot() is a reporting API for summaries and serialization, not the advance loop")
                name: name.clone(),
                power: l.power,
                on: l.on,
                energy: l.energy,
            })
            .collect()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// `true` if no devices are registered.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Switches every device off (the watchdog's end-of-window action).
    pub fn all_off(&mut self) {
        for (_, load) in &mut self.loads {
            load.on = false;
        }
        self.total.0.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_loads() -> LoadSet {
        let mut l = LoadSet::new();
        l.add("gumstix", Watts::from_milliwatts(900.0));
        l.add("gprs", Watts::from_milliwatts(2640.0));
        l.add("radio_modem", Watts::from_milliwatts(3960.0));
        l.add("gps", Watts::from_milliwatts(3600.0));
        l
    }

    #[test]
    fn total_power_sums_only_on_devices() {
        let mut l = table1_loads();
        assert_eq!(l.total_power(), Watts::ZERO);
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        assert!((l.total_power().value() - 4.5).abs() < 1e-12);
        l.set_on("gps", false);
        assert!((l.total_power().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn metering_accumulates_per_device() {
        let mut l = table1_loads();
        l.set_on("gprs", true);
        l.meter(SimDuration::from_mins(30));
        l.set_on("gprs", false);
        l.set_on("gumstix", true);
        l.meter(SimDuration::from_hours(1));
        assert!((l.energy("gprs").unwrap().value() - 1.32).abs() < 1e-9);
        assert!((l.energy("gumstix").unwrap().value() - 0.9).abs() < 1e-9);
        assert!((l.total_energy().value() - 2.22).abs() < 1e-9);
    }

    #[test]
    fn all_off_kills_every_rail() {
        let mut l = table1_loads();
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        l.all_off();
        assert_eq!(l.total_power(), Watts::ZERO);
        assert!(!l.get("gumstix").expect("registered").on);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let l = table1_loads();
        let snap = l.snapshot();
        assert_eq!(snap.len(), 4);
        let names: Vec<_> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["gprs", "gps", "gumstix", "radio_modem"]);
        assert_eq!(l.len(), 4);
        assert!(!l.is_empty());
    }

    #[test]
    fn cached_total_matches_fresh_sum_bitwise() {
        let mut l = table1_loads();
        l.set_on("gumstix", true);
        l.set_on("gps", true);
        let fresh: Watts = [
            Watts::from_milliwatts(3600.0),
            Watts::from_milliwatts(900.0),
        ]
        .into_iter()
        .sum();
        // Name order: gps before gumstix.
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        // Hit path returns the same bits.
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        // Redundant switch does not clear the cache; real switch does.
        l.set_on("gps", true);
        assert_eq!(l.total_power().value().to_bits(), fresh.value().to_bits());
        l.set_on("gps", false);
        assert!((l.total_power().value() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cache_is_invisible_to_equality_and_serde() {
        let a = table1_loads();
        let b = table1_loads();
        let _ = a.total_power();
        assert_eq!(a, b, "cache fill must not affect equality");
        let json = serde_json::to_string(&a).expect("serialize");
        assert!(!json.contains("total"), "cache must not serialize: {json}");
        let back: LoadSet = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, a);
    }

    #[test]
    fn wire_form_is_the_name_sorted_map() {
        // Registered out of name order; the bytes are those the set wrote
        // when it was a `BTreeMap<String, Load>` field.
        let mut l = LoadSet::new();
        l.add("radio_modem", Watts::from_milliwatts(3960.0));
        l.add("gps", Watts::from_milliwatts(3600.0));
        l.add("gumstix", Watts::from_milliwatts(900.0));
        l.set_on("gps", true);
        l.meter(SimDuration::from_mins(30));
        let _ = l.total_power();
        let json = serde_json::to_string(&l).expect("serialize");
        assert_eq!(
            json,
            "{\"loads\":{\"gps\":{\"power\":3.6,\"on\":true,\"energy\":1.8},\
             \"gumstix\":{\"power\":0.9,\"on\":false,\"energy\":0.0},\
             \"radio_modem\":{\"power\":3.96,\"on\":false,\"energy\":0.0}}}"
        );
        let back: LoadSet = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, l);
        // A wire map in any key order restores sorted, so lookups work.
        let shuffled = "{\"loads\":{\"gumstix\":{\"power\":0.9,\"on\":true,\"energy\":0.0},\
                        \"gps\":{\"power\":3.6,\"on\":false,\"energy\":0.0}}}";
        let back: LoadSet = serde_json::from_str(shuffled).expect("deserialize");
        let on = |name| back.get(name).expect("registered").on;
        assert!(on("gumstix") && !on("gps"));
        let names: Vec<String> = back.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["gps", "gumstix"]);
    }

    #[test]
    fn unknown_energy_is_none() {
        let l = table1_loads();
        assert!(l.energy("toaster").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate load")]
    fn rejects_duplicate_names() {
        let mut l = table1_loads();
        l.add("gps", Watts(1.0));
    }

    #[test]
    #[should_panic(expected = "unknown load")]
    fn rejects_unknown_switch() {
        let mut l = table1_loads();
        l.set_on("toaster", true);
    }
}
