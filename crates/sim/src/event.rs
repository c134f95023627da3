//! The timed event queue, and the wire form of pending events.
//!
//! [`EventQueue`] is a binary heap keyed on `(time, arrival order)`. A
//! deployment's pending set is a handful of events — one tick and one
//! window per station, the probe sweep and any pending fault
//! transitions — so a heap of that size is all the indexing it needs.
//!
//! [`encode_pending`] and [`decode_pending`] are the one codec for every
//! pending-event container: this queue and the fleet's tick-indexed site
//! calendar. On the wire a pending set is `{seq, entries: [[instant, tag,
//! event], …]}`, entries in firing order, with `seq` the monotone arrival
//! counter the tags are drawn from.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{de, Deserialize, Serialize, Value};

use crate::time::SimTime;

/// A priority queue of `(time, event)` pairs that pops events in
/// non-decreasing time order, breaking ties by insertion order (FIFO).
///
/// The FIFO tie-break is load-bearing for reproducibility: two stations
/// scheduled for the same midday window always run in the order they
/// were registered, and a snapshot carries every arrival tag plus the
/// arrival counter, so a restored queue pops in exactly the order the
/// saved one would have.
///
/// # Example
///
/// ```
/// use glacsweb_sim::{EventQueue, SimTime};
///
/// let t = SimTime::from_unix(100);
/// let mut q = EventQueue::new();
/// q.push(t, "base station");
/// q.push(t, "reference station");
/// assert_eq!(q.pop(), Some((t, "base station")));
/// assert_eq!(q.pop(), Some((t, "reference station")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Arrival counter (never reused, monotone).
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest (time, seq) wins.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest scheduled event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all scheduled events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Visits every scheduled event in firing order (time, then arrival)
    /// without disturbing the queue. It sorts a view of the heap, so it
    /// suits a snapshot or a restore check, not the event loop.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        in_firing_order(&self.heap)
            .into_iter()
            .map(|e| (e.time, &e.event))
    }
}

/// The heap's entries sorted by `(time, seq)`.
fn in_firing_order<E>(heap: &BinaryHeap<Entry<E>>) -> Vec<&Entry<E>> {
    let mut entries: Vec<&Entry<E>> = heap.iter().collect();
    entries.sort_unstable_by_key(|e| (e.time, e.seq));
    entries
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.push(t, e);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

// Hand-written (de)serialization: the queue is generic, which the
// vendored derive does not support.
impl<E: Serialize> Serialize for EventQueue<E> {
    fn to_value(&self) -> Value {
        let entries = in_firing_order(&self.heap);
        encode_pending(
            self.seq,
            entries.len(),
            entries.into_iter().map(|e| (e.time, e.seq, &e.event)),
        )
    }
}

impl<E: Deserialize> Deserialize for EventQueue<E> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let mut entries = Vec::new();
        let seq = decode_pending(v, |time, seq, event| {
            entries.push(Entry { time, seq, event });
            Ok(())
        })?;
        Ok(EventQueue {
            heap: BinaryHeap::from(entries),
            seq,
        })
    }
}

/// Writes `len` pending events in their wire form, `{seq, entries:
/// [[instant, tag, event], …]}`. `entries` must come in firing order: by
/// instant, then by arrival tag.
pub fn encode_pending<T: Serialize>(
    seq: u64,
    len: usize,
    entries: impl Iterator<Item = (SimTime, u64, T)>,
) -> Value {
    let mut wire = Vec::with_capacity(len);
    for (t, tag, event) in entries {
        wire.push(Value::Seq(vec![
            t.to_value(),
            tag.to_value(),
            event.to_value(),
        ]));
    }
    Value::Map(vec![
        // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
        (Value::Str("seq".to_string()), seq.to_value()),
        // glacsweb: allow(perf-hygiene, reason = "snapshot-export keys; runs once per checkpoint save, never per substep")
        (Value::Str("entries".to_string()), Value::Seq(wire)),
    ])
}

/// Reads pending events from the wire form [`encode_pending`] writes,
/// hands each `(instant, tag, event)` to `file` in file order, and
/// returns the arrival counter `seq`.
///
/// Rejects what no pending set holds: an entry that is not `[instant,
/// tag, event]`, a tag at or above `seq` (a later push would reuse it),
/// or an entry that does not come strictly after the one before it by
/// `(instant, tag)`. Encoders write firing order, so the last check
/// leaves no two entries with one `(instant, tag)` and no instant whose
/// events would replay in an order the saved run never took. `file`
/// adds the container's own checks.
pub fn decode_pending<E: Deserialize>(
    v: &Value,
    mut file: impl FnMut(SimTime, u64, E) -> Result<(), de::Error>,
) -> Result<u64, de::Error> {
    let seq: u64 = de::field(v, "seq")?;
    let entries = v
        .get("entries")
        .and_then(Value::as_seq)
        .ok_or_else(|| de::Error::custom("pending events: missing `entries` sequence"))?;
    let mut last: Option<(SimTime, u64)> = None;
    for entry in entries {
        let Some([t, tag, event]) = entry.as_seq() else {
            return Err(de::Error::custom(
                "pending event entry must be [instant, tag, event]",
            ));
        };
        let t = SimTime::from_value(t)?;
        let tag = u64::from_value(tag)?;
        if tag >= seq {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
            return Err(de::Error::custom(format!(
                "pending event tag {tag} not below arrival counter {seq}"
            )));
        }
        if last.is_some_and(|last| last >= (t, tag)) {
            // glacsweb: allow(perf-hygiene, reason = "restore-time error path; runs once per snapshot load, never per substep")
            return Err(de::Error::custom(format!(
                "pending event at {t:?} (tag {tag}) out of firing order: instants rise, tags FIFO"
            )));
        }
        last = Some((t, tag));
        file(t, tag, E::from_value(event)?)?;
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_unix(30), "c");
        q.push(SimTime::from_unix(10), "a");
        q.push(SimTime::from_unix(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_unix(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo() {
        // Re-scheduling after pops (the deployment loop's shape: pop a
        // tick, push the next one) must keep FIFO across instants.
        let mut q = EventQueue::new();
        q.push(SimTime::from_unix(10), "tick-a");
        q.push(SimTime::from_unix(10), "tick-b");
        assert_eq!(q.pop(), Some((SimTime::from_unix(10), "tick-a")));
        q.push(SimTime::from_unix(10), "tick-a2");
        assert_eq!(q.pop(), Some((SimTime::from_unix(10), "tick-b")));
        assert_eq!(q.pop(), Some((SimTime::from_unix(10), "tick-a2")));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_unix(7), ());
        q.push(SimTime::from_unix(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_unix(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u32> = (0..5u32)
            .map(|i| (SimTime::from_unix(u64::from(10 - i)), i))
            .collect();
        assert_eq!(q.len(), 5);
    }

    fn wire(entries: &[(u64, u64)], seq: u64) -> Value {
        Value::Map(vec![
            (Value::Str("seq".to_string()), seq.to_value()),
            (
                Value::Str("entries".to_string()),
                Value::Seq(
                    entries
                        .iter()
                        .map(|&(t, tag)| {
                            Value::Seq(vec![
                                SimTime::from_unix(t).to_value(),
                                tag.to_value(),
                                0u32.to_value(),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn decode_rejects_what_no_queue_holds() {
        let cases = [
            (wire(&[(5, 1)], 1), "not below arrival counter"),
            (wire(&[(5, 1), (5, 0)], 2), "FIFO"),
            (wire(&[(5, 0), (5, 0)], 2), "FIFO"),
            // One `(instant, tag)` twice, split around another instant.
            (wire(&[(5, 0), (9, 1), (5, 0)], 2), "FIFO"),
            (wire(&[(9, 0), (5, 1), (5, 2)], 3), "firing order"),
            (
                Value::Map(vec![
                    (Value::Str("seq".to_string()), 1u64.to_value()),
                    (
                        Value::Str("entries".to_string()),
                        Value::Seq(vec![Value::Seq(vec![5u64.to_value()])]),
                    ),
                ]),
                "[instant, tag, event]",
            ),
        ];
        for (v, want) in cases {
            let err = EventQueue::<u32>::from_value(&v).unwrap_err();
            assert!(err.to_string().contains(want), "want {want:?}: {err}");
        }
        // Tags rise only within one instant.
        let q = EventQueue::<u32>::from_value(&wire(&[(5, 1), (5, 2), (9, 0)], 3)).unwrap();
        assert_eq!(q.peek_time(), Some(SimTime::from_unix(5)));
    }

    proptest! {
        /// Popping yields non-decreasing times regardless of insert order,
        /// and FIFO order within equal times.
        #[test]
        fn ordering_invariant(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.push(SimTime::from_unix(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "FIFO violated at equal time");
                    }
                }
                last = Some((t, i));
            }
        }
    }
}
