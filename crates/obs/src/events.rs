//! The retained-event store: every kept [`Event`] in one compact arena.
//!
//! # Layout
//!
//! An [`Event`] is built for the call site: three `&'static str` labels
//! and a `Vec` of `(key, Value)` fields, about 290 heap bytes for a
//! campaign-shaped event. The store keeps the same content in two
//! columns and re-creates it on read:
//!
//! * one 16-byte `Head` per event: the instant, the id of its
//!   `(origin, name)` kind, and the byte length of its fields;
//! * one byte arena holding the fields of every event back to back: a
//!   varint field count, then per field a varint `key id << 3 | tag`
//!   and the payload. A `U64` is a varint, an `I64` a zigzag varint, an
//!   `F64` its 8 bits little-endian, a `Bool` nothing (the tag holds
//!   it), and a `Str` a varint length and its UTF-8 bytes, inline.
//!
//! Kinds and field keys are numbered per store, in first-seen order,
//! by two small label tables. The ids never leave the store: every
//! reader decodes back to the labels, and equality compares decoded
//! content, so two stores holding the same events are equal and export
//! the same bytes however their tables were numbered.

use std::fmt;

use glacsweb_sim::SimTime;

use crate::{Event, Origin, Value};

/// A borrowed [`Value`]: what the arena decodes to without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

impl Value {
    /// This value, borrowed.
    pub(crate) fn view(&self) -> ValueRef<'_> {
        match self {
            Value::U64(v) => ValueRef::U64(*v),
            Value::I64(v) => ValueRef::I64(*v),
            Value::F64(v) => ValueRef::F64(*v),
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

/// Floats compare by bit pattern, as the arena stores them, so equality
/// is reflexive with a NaN field and agrees with the exported bytes.
impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ValueRef::F64(a), ValueRef::F64(b)) => a.to_bits() == b.to_bits(),
            (ValueRef::U64(a), ValueRef::U64(b)) => a == b,
            (ValueRef::I64(a), ValueRef::I64(b)) => a == b,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a == b,
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl ValueRef<'_> {
    fn owned(self) -> Value {
        match self {
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::I64(v) => Value::I64(v),
            ValueRef::F64(v) => Value::F64(v),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Str(s) => Value::Str(s.to_string()),
        }
    }
}

/// Field tags, the low three bits of a field's first varint.
const TAG_U64: u64 = 0;
const TAG_I64: u64 = 1;
const TAG_F64: u64 = 2;
const TAG_FALSE: u64 = 3;
const TAG_TRUE: u64 = 4;
const TAG_STR: u64 = 5;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        let [low, ..] = v.to_le_bytes();
        out.push(low | 0x80);
        v >>= 7;
    }
    let [low, ..] = v.to_le_bytes();
    out.push(low);
}

fn take_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

fn take_bytes<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (taken, rest) = bytes.split_at_checked(n)?;
    *bytes = rest;
    Some(taken)
}

/// Appends one field: its key id and tag, then the payload.
fn put_field(out: &mut Vec<u8>, key: u32, value: ValueRef<'_>) {
    let tagged = |tag: u64| (u64::from(key) << 3) | tag;
    match value {
        ValueRef::U64(v) => {
            put_varint(out, tagged(TAG_U64));
            put_varint(out, v);
        }
        ValueRef::I64(v) => {
            put_varint(out, tagged(TAG_I64));
            put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
        }
        ValueRef::F64(v) => {
            put_varint(out, tagged(TAG_F64));
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        ValueRef::Bool(v) => put_varint(out, tagged(if v { TAG_TRUE } else { TAG_FALSE })),
        ValueRef::Str(s) => {
            put_varint(out, tagged(TAG_STR));
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Reads one field back: its key id and value.
fn take_field<'a>(bytes: &mut &'a [u8]) -> Option<(usize, ValueRef<'a>)> {
    let tagged = take_varint(bytes)?;
    let key = usize::try_from(tagged >> 3).ok()?;
    let value = match tagged & 7 {
        TAG_U64 => ValueRef::U64(take_varint(bytes)?),
        TAG_I64 => {
            let z = take_varint(bytes)?;
            ValueRef::I64(((z >> 1) as i64) ^ -((z & 1) as i64))
        }
        TAG_F64 => {
            let raw = take_bytes(bytes, 8)?.try_into().ok()?;
            ValueRef::F64(f64::from_bits(u64::from_le_bytes(raw)))
        }
        TAG_FALSE => ValueRef::Bool(false),
        TAG_TRUE => ValueRef::Bool(true),
        TAG_STR => {
            let len = usize::try_from(take_varint(bytes)?).ok()?;
            ValueRef::Str(std::str::from_utf8(take_bytes(bytes, len)?).ok()?)
        }
        _ => return None,
    };
    Some((key, value))
}

/// Labels numbered in first-seen order, with an index by address in
/// front for the encoder. Labels are `&'static str` and never move, so
/// equal addresses mean equal content; equal content at two addresses
/// (a literal and its interned copy) gets two ids, which costs one
/// table entry and changes no decoded byte.
#[derive(Debug, Clone)]
struct Table<T> {
    items: Vec<T>,
    /// `(address, id)`, sorted by address.
    // glacsweb: derived-state
    by_address: Vec<([usize; 6], u32)>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Table {
            items: Vec::new(),
            by_address: Vec::new(),
        }
    }
}

impl<T> Table<T> {
    /// The id of `item`, whose labels sit at `address`, numbering it if
    /// it is new; `None` only once `u32` ids run out.
    fn id(&mut self, item: T, address: [usize; 6]) -> Option<u32> {
        let probe = self.by_address.binary_search_by(|(a, _)| a.cmp(&address));
        match probe {
            Ok(at) => self.by_address.get(at).map(|&(_, id)| id),
            Err(at) => {
                let id = u32::try_from(self.items.len()).ok()?;
                self.items.push(item);
                self.by_address.insert(at, (address, id));
                Some(id)
            }
        }
    }
}

fn label_address(s: &str) -> [usize; 2] {
    [s.as_ptr().addr(), s.len()]
}

fn kind_address(origin: Origin, name: &str) -> [usize; 6] {
    let [a, b] = label_address(name);
    let [c, d] = label_address(origin.component);
    let [e, f] = label_address(origin.station);
    [a, b, c, d, e, f]
}

fn key_address(key: &str) -> [usize; 6] {
    let [a, b] = label_address(key);
    [a, b, 0, 0, 0, 0]
}

/// One event's fixed part; its fields follow the previous event's in
/// the arena.
#[derive(Debug, Clone, Copy)]
struct Head {
    at: SimTime,
    kind: u32,
    /// Byte length of the event's fields in the arena.
    len: u32,
}

/// The retained events of one recorder, in record order (see the
/// module docs for the layout). It holds no cap: the recorder decides
/// what to keep.
#[derive(Clone, Default)]
pub(crate) struct EventLog {
    heads: Vec<Head>,
    arena: Vec<u8>,
    kinds: Table<(Origin, &'static str)>,
    keys: Table<&'static str>,
}

impl EventLog {
    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Appends `event`; `false` (and nothing stored) only if its labels
    /// cannot be numbered or its fields exceed 4 GiB.
    pub(crate) fn push(&mut self, event: &Event) -> bool {
        let fields = event.fields.iter().map(|(key, value)| (*key, value.view()));
        self.push_parts(event.at, event.origin, event.name, fields)
    }

    /// Appends the first `n` events of `other`, relabelled into this
    /// log's tables; returns how many did not fit.
    pub(crate) fn extend_from(&mut self, other: &EventLog, n: usize) -> usize {
        let mut refused = 0;
        for event in other.iter().take(n) {
            if !self.push_parts(event.at, event.origin, event.name, event.raw_fields()) {
                refused += 1;
            }
        }
        refused
    }

    /// Appends one event given by its parts; see [`EventLog::push`].
    fn push_parts<'v>(
        &mut self,
        at: SimTime,
        origin: Origin,
        name: &'static str,
        fields: impl ExactSizeIterator<Item = (&'static str, ValueRef<'v>)>,
    ) -> bool {
        let Some(kind) = self.kinds.id((origin, name), kind_address(origin, name)) else {
            return false;
        };
        let start = self.arena.len();
        put_varint(&mut self.arena, fields.len() as u64);
        for (key, value) in fields {
            let Some(key) = self.keys.id(key, key_address(key)) else {
                self.arena.truncate(start);
                return false;
            };
            put_field(&mut self.arena, key, value);
        }
        let Ok(len) = u32::try_from(self.arena.len() - start) else {
            self.arena.truncate(start);
            return false;
        };
        self.heads.push(Head { at, kind, len });
        true
    }

    pub(crate) fn iter(&self) -> Events<'_> {
        Events {
            heads: self.heads.iter(),
            arena: &self.arena,
            kinds: &self.kinds.items,
            keys: &self.keys.items,
        }
    }
}

/// Equality is over decoded content, never over ids or bytes.
impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The retained events of a [`MemoryRecorder`](crate::MemoryRecorder),
/// in record order, decoded one at a time from its arena.
#[derive(Clone)]
pub struct Events<'a> {
    heads: std::slice::Iter<'a, Head>,
    arena: &'a [u8],
    kinds: &'a [(Origin, &'static str)],
    keys: &'a [&'static str],
}

impl<'a> Iterator for Events<'a> {
    type Item = EventRef<'a>;

    fn next(&mut self) -> Option<EventRef<'a>> {
        let head = self.heads.next()?;
        let mut bytes = take_bytes(&mut self.arena, usize::try_from(head.len).ok()?)?;
        let left = take_varint(&mut bytes)?;
        let &(origin, name) = self.kinds.get(usize::try_from(head.kind).ok()?)?;
        Some(EventRef {
            at: head.at,
            origin,
            name,
            fields: Fields {
                bytes,
                keys: self.keys,
                left: usize::try_from(left).ok()?,
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.heads.size_hint()
    }
}

impl ExactSizeIterator for Events<'_> {}

impl fmt::Debug for Events<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Events")
            .field("left", &self.heads.len())
            .finish_non_exhaustive()
    }
}

/// One retained event, decoded from the arena: the instant, origin and
/// name as stored, and its fields read on demand.
#[derive(Debug, Clone)]
pub struct EventRef<'a> {
    /// When the event happened, in simulated time.
    pub at: SimTime,
    /// Which component/station emitted it.
    pub origin: Origin,
    /// Event name.
    pub name: &'static str,
    fields: Fields<'a>,
}

impl<'a> EventRef<'a> {
    /// The fields in insertion order, each value copied out.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&'static str, Value)> + 'a {
        self.raw_fields().map(|(key, value)| (key, value.owned()))
    }

    /// The fields in insertion order, borrowed from the arena.
    pub(crate) fn raw_fields(&self) -> Fields<'a> {
        self.fields.clone()
    }

    /// This event as an owned [`Event`].
    pub fn to_event(&self) -> Event {
        Event {
            at: self.at,
            origin: self.origin,
            name: self.name,
            fields: self.fields().collect(),
        }
    }
}

impl PartialEq for EventRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
            && self.origin == other.origin
            && self.name == other.name
            && self.fields.clone().eq(other.fields.clone())
    }
}

/// An event's fields, decoded from the arena as they are read.
#[derive(Clone)]
pub(crate) struct Fields<'a> {
    bytes: &'a [u8],
    keys: &'a [&'static str],
    left: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'static str, ValueRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let (key, value) = take_field(&mut self.bytes)?;
        Some((*self.keys.get(key)?, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Fields<'_> {}

/// Shows the decoded `(key, value)` pairs, not the arena bytes.
impl fmt::Debug for Fields<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::reference::BTreeRecorder;
    use crate::{MemoryRecorder, Recorder};

    /// `(kind, label bits, day, hour, fields)`. Kinds: 0–4 an event into
    /// the open chunk, 5 a counter into the open chunk, 6 the end of a
    /// chunk merged by value, 7 by reference. Fields are `(key bits,
    /// tag, raw)`.
    type Op = (u8, u8, u8, u8, Vec<(u8, u8, u64)>);

    /// Strings a JSON writer must escape, and some it must not.
    const TEXTS: [&str; 8] = [
        "",
        "healthy",
        "quote\"inside",
        "back\\slash",
        "line\nbreak\r\ttab",
        "bell\u{7}nul\u{0}",
        "Fåskrúðsfjörður ❄",
        "none",
    ];

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                0u8..8,
                any::<u8>(),
                0u8..3,
                0u8..24,
                proptest::collection::vec((any::<u8>(), 0u8..7, any::<u64>()), 0..8),
            ),
            0..48,
        )
    }

    /// Each label as a literal or as an interned copy: the same text at
    /// another address, so one store numbers it twice.
    fn label(text: &'static str, interned: bool) -> &'static str {
        if interned {
            crate::intern(text)
        } else {
            text
        }
    }

    fn origin_and_name(bits: u8) -> (Origin, &'static str) {
        let interned = bits & 16 != 0;
        let component = if bits & 1 == 0 { "station" } else { "gprs" };
        let station = if bits & 2 == 0 { "base" } else { "reference" };
        let name = ["state_transition", "wan_attach", "odd\"name", "retry_wait"]
            .get(usize::from(bits >> 2) % 4)
            .copied()
            .unwrap_or("x");
        (
            Origin::new(label(component, interned), label(station, interned)),
            label(name, interned),
        )
    }

    fn field(&(bits, tag, raw): &(u8, u8, u64)) -> (&'static str, Value) {
        let key = ["v", "op", "key\"q", "tab\tkey"]
            .get(usize::from(bits) % 4)
            .copied()
            .unwrap_or("v");
        let text = TEXTS.get((raw % 8) as usize).copied().unwrap_or("");
        let value = match tag {
            0 => Value::U64(raw),
            1 => Value::U64(raw % 300),
            2 => Value::I64(raw as i64),
            3 => Value::F64(f64::from_bits(raw)),
            4 => Value::Bool(raw & 1 == 1),
            5 => Value::Str(text.to_string()),
            _ => Value::Str(text.repeat((raw >> 8) as usize % 40)),
        };
        (label(key, bits & 16 != 0), value)
    }

    fn event(op: &Op) -> Event {
        let (_, bits, day, hour, fields) = op;
        let (origin, name) = origin_and_name(*bits);
        let at = SimTime::from_ymd_hms(2009, 12, 30 + u32::from(*day % 2), u32::from(*hour), 0, 0);
        let mut event = Event::new(at, origin, name);
        event.fields = fields.iter().map(field).collect();
        event
    }

    /// Debug text of a serde value: exact for every float, NaN included.
    fn serde_text(v: &impl serde::Serialize) -> String {
        format!("{:?}", v.to_value())
    }

    fn agree(store: &MemoryRecorder, reference: &BTreeRecorder) -> Result<(), TestCaseError> {
        prop_assert_eq!(store.to_json(), reference.to_json());
        prop_assert_eq!(store.to_ndjson(), reference.to_ndjson());
        prop_assert_eq!(serde_text(store), serde_text(reference));
        prop_assert_eq!(
            glacsweb_snapshot::to_bytes(store),
            glacsweb_snapshot::to_bytes(reference)
        );
        prop_assert_eq!(store.events_dropped(), reference.events_dropped());
        prop_assert_eq!(store.events().len(), reference.events().len());
        for (mine, theirs) in store.events().zip(reference.events()) {
            prop_assert_eq!(format!("{:?}", mine.to_event()), format!("{theirs:?}"));
        }
        Ok(())
    }

    /// Random events (every value type, JSON-escaped strings, keys and
    /// names at two addresses) recorded into chunks that merge by value
    /// or by reference under a small cap: the arena store and the
    /// `Vec<Event>` reference agree in every export, and a snapshot
    /// round trip gives back an equal recorder.
    fn arena_matches_the_reference(cap: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let pair = || {
            (
                MemoryRecorder::with_capacity(cap),
                BTreeRecorder::with_capacity(cap),
            )
        };
        let mut acc = pair();
        let mut chunk = pair();
        for op in ops {
            match op.0 {
                0..=4 => {
                    chunk.0.event(event(op));
                    chunk.1.event(event(op));
                }
                5 => {
                    let (origin, name) = origin_and_name(op.1);
                    let at = event(op).at;
                    chunk.0.counter(at, origin, name, u64::from(op.3));
                    chunk.1.counter(at, origin, name, u64::from(op.3));
                }
                by_value => {
                    let done = std::mem::replace(&mut chunk, pair());
                    agree(&done.0, &done.1)?;
                    if by_value == 6 {
                        acc.0.merge_from(done.0);
                        acc.1.merge_from(done.1);
                    } else {
                        acc.0.merge_ref(&done.0);
                        acc.1.merge_ref(&done.1);
                    }
                }
            }
        }
        acc.0.merge_ref(&chunk.0);
        acc.1.merge_ref(&chunk.1);
        agree(&acc.0, &acc.1)?;

        prop_assert!(acc.0 == acc.0.clone());

        let bytes = glacsweb_snapshot::to_bytes(&acc.0);
        let restored: MemoryRecorder = glacsweb_snapshot::from_bytes(&bytes).expect("round trip");
        prop_assert!(restored == acc.0);
        prop_assert_eq!(restored.to_json(), acc.0.to_json());
        prop_assert_eq!(glacsweb_snapshot::to_bytes(&restored), bytes);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn event_arena_matches_the_vec_reference(cap in 0usize..24, ops in ops()) {
            arena_matches_the_reference(cap, &ops)?;
        }
    }

    /// Opt-in stress variant of `event_arena_matches_the_vec_reference`:
    /// 20,000 randomized cases. Run with
    /// `cargo test -p glacsweb-obs --release -- --ignored`.
    #[test]
    #[ignore = "stress: 20k randomized cases, run explicitly"]
    fn event_arena_matches_the_vec_reference_stress() {
        use proptest::test_runner::{Config, TestRunner};
        let mut runner = TestRunner::new(Config::with_cases(20_000));
        runner
            .run(&(0usize..24, ops()), |(cap, ops)| {
                arena_matches_the_reference(cap, &ops)
            })
            .expect("the arena store must match the Vec<Event> reference");
    }

    #[test]
    fn varints_round_trip_at_their_edges() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut bytes = out.as_slice();
            assert_eq!(take_varint(&mut bytes), Some(v));
            assert!(bytes.is_empty());
        }
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_field(&mut out, 3, ValueRef::I64(v));
            let mut bytes = out.as_slice();
            assert_eq!(take_field(&mut bytes), Some((3, ValueRef::I64(v))));
        }
    }

    #[test]
    fn equal_content_at_two_addresses_is_equal() {
        let at = SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0);
        let literal = Event::new(at, Origin::new("station", "base"), "e").with("k", "v");
        let interned = Event::new(
            at,
            Origin::new(crate::intern("station"), crate::intern("base")),
            crate::intern("e"),
        )
        .with(crate::intern("k"), "v");
        let mut one = EventLog::default();
        one.push(&literal);
        one.push(&interned);
        let mut other = EventLog::default();
        other.push(&interned);
        other.push(&literal);
        assert_eq!(one, other);
        assert_eq!(one.kinds.items.len(), 2, "one id per address");
    }
}
