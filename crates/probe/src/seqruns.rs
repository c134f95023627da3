//! The set of reading sequence numbers a fetch session has received.

use serde::{de, Deserialize, Serialize, Value};

/// A set of `u64` sequence numbers stored as runs.
///
/// A probe numbers its readings consecutively and the base mostly
/// receives them in order, so a probe-year of ~8,760 received readings
/// is a handful of runs. The runs are sorted, disjoint, inclusive
/// `(first, last)` pairs with a gap of at least one between neighbours;
/// that form is unique for a given set, so the derived equality is set
/// equality.
///
/// The wire form is the ascending sequence of every member — the bytes a
/// `BTreeSet<u64>` writes — so snapshots are unchanged in both directions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SeqRuns {
    runs: Vec<(u64, u64)>,
    len: usize,
}

impl SeqRuns {
    /// An empty set.
    pub(crate) fn new() -> Self {
        SeqRuns::default()
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Index of the first run that ends at or after `seq`.
    fn run_at_or_after(&self, seq: u64) -> usize {
        // Readings mostly arrive in order, past the last run: answer that
        // without the search.
        match self.runs.last() {
            Some(&(_, last)) if last < seq => self.runs.len(),
            _ => self.runs.partition_point(|&(_, last)| last < seq),
        }
    }

    /// `true` if `seq` is a member.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        self.runs
            .get(self.run_at_or_after(seq))
            .is_some_and(|&(first, _)| first <= seq)
    }

    /// Adds `seq`; `false` if it was already a member.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let i = self.run_at_or_after(seq);
        let next = self.runs.get(i).copied();
        if next.is_some_and(|(first, _)| first <= seq) {
            return false;
        }
        self.len += 1;
        // The run before `i` joins if it ends at seq − 1, the run at `i`
        // if it starts at seq + 1.
        let prev = i.checked_sub(1);
        let joins_prev = prev
            .and_then(|p| self.runs.get(p))
            .is_some_and(|&(_, last)| last.checked_add(1) == Some(seq));
        let joins_next = next.is_some_and(|(first, _)| seq.checked_add(1) == Some(first));
        match (joins_prev, joins_next) {
            (false, false) => self.runs.insert(i, (seq, seq)),
            (false, true) => {
                if let Some(run) = self.runs.get_mut(i) {
                    run.0 = seq;
                }
            }
            (true, joins_next) => {
                let last = if joins_next {
                    self.runs.remove(i).1
                } else {
                    seq
                };
                if let Some(run) = prev.and_then(|p| self.runs.get_mut(p)) {
                    run.1 = last;
                }
            }
        }
        true
    }
}

impl Serialize for SeqRuns {
    fn to_value(&self) -> Value {
        let mut seqs = Vec::with_capacity(self.len);
        for &(first, last) in &self.runs {
            seqs.extend((first..=last).map(|seq| seq.to_value()));
        }
        Value::Seq(seqs)
    }
}

/// Reads any sequence of `u64`s, sorted or not and with repeats, into the
/// set a `BTreeSet<u64>` would have collected from it, failing on the
/// first element that is not a `u64`.
impl Deserialize for SeqRuns {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let items = v
            .as_seq()
            .ok_or_else(|| de::Error::custom("expected sequence"))?;
        let mut set = SeqRuns {
            runs: Vec::new(),
            len: 0,
        };
        for item in items {
            set.insert(u64::from_value(item)?);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;

    #[test]
    fn adjacent_runs_merge() {
        let mut set = SeqRuns::new();
        for seq in [5, 7, 9] {
            assert!(set.insert(seq));
        }
        assert_eq!(set.runs, [(5, 5), (7, 7), (9, 9)]);
        assert!(set.insert(6));
        assert_eq!(set.runs, [(5, 7), (9, 9)]);
        assert!(set.insert(8));
        assert_eq!(set.runs, [(5, 9)]);
        assert!(!set.insert(7), "already a member");
        assert!(set.insert(4) && set.insert(10));
        assert_eq!((set.runs.as_slice(), set.len()), (&[(4, 10)][..], 7));
    }

    #[test]
    fn the_ends_of_the_u64_range_do_not_overflow() {
        let mut set = SeqRuns::new();
        assert!(set.insert(u64::MAX) && set.insert(0));
        assert!(set.insert(u64::MAX - 1) && set.insert(1));
        assert_eq!(set.runs, [(0, 1), (u64::MAX - 1, u64::MAX)]);
        assert!(set.contains(u64::MAX) && !set.contains(2));
    }

    #[test]
    fn wire_form_is_the_btreeset_sequence() {
        let seqs = [9u64, 3, 4, 5, 12, 3];
        let mut set = SeqRuns::new();
        let mut oracle = BTreeSet::new();
        for seq in seqs {
            set.insert(seq);
            oracle.insert(seq);
        }
        assert_eq!(set.to_value(), oracle.to_value());
        let json = serde_json::to_string(&set).expect("serialize");
        assert_eq!(json, "[3,4,5,9,12]");
    }

    #[test]
    fn decode_matches_the_btreeset_decoder() {
        // Unsorted, with repeats: both decoders sort and deduplicate.
        let wire = Value::Seq([8u64, 2, 3, 8, 1, 2].iter().map(|s| s.to_value()).collect());
        let set = SeqRuns::from_value(&wire).expect("decode");
        let oracle = BTreeSet::<u64>::from_value(&wire).expect("decode");
        assert_eq!(set.to_value(), oracle.to_value());
        assert_eq!(set.len(), oracle.len());
        // A malformed element, or no sequence at all, is a typed error
        // from both.
        let bad = Value::Seq(vec![1u64.to_value(), Value::Str("x".into())]);
        assert!(SeqRuns::from_value(&bad).is_err());
        assert!(BTreeSet::<u64>::from_value(&bad).is_err());
        assert!(SeqRuns::from_value(&Value::Bool(true)).is_err());
        assert!(BTreeSet::<u64>::from_value(&Value::Bool(true)).is_err());
    }

    proptest! {
        /// Against a `BTreeSet<u64>` oracle: inserts drawn from a narrow
        /// window (so runs touch, merge and repeat) or anywhere (gaps),
        /// in any order. Every insert answers the same, and afterwards
        /// membership across the window, `len` and the wire form agree,
        /// as does a decode of the members in insert order.
        #[test]
        fn runs_match_a_btreeset(
            narrow in proptest::collection::vec(0u64..64, 0..200),
            wide in proptest::collection::vec(any::<u64>(), 0..8),
        ) {
            let mut set = SeqRuns::new();
            let mut oracle = BTreeSet::new();
            for &seq in narrow.iter().chain(&wide) {
                prop_assert_eq!(set.insert(seq), oracle.insert(seq), "insert {}", seq);
            }
            for seq in (0u64..66).chain(wide.iter().copied()) {
                prop_assert_eq!(set.contains(seq), oracle.contains(&seq), "contains {}", seq);
            }
            prop_assert_eq!(set.len(), oracle.len());
            prop_assert_eq!(set.to_value(), oracle.to_value());
            let unsorted = Value::Seq(narrow.iter().chain(&wide).map(|s| s.to_value()).collect());
            let decoded = SeqRuns::from_value(&unsorted).expect("decode");
            prop_assert_eq!(decoded.to_value(), oracle.to_value());
            // The runs are canonical: built in any order, equal sets
            // compare equal.
            let sorted = SeqRuns::from_value(&oracle.to_value()).expect("decode");
            prop_assert_eq!(&sorted, &set);
        }
    }
}
