//! The vendored derive's one field attribute, `#[serde(skip)]`: as in
//! real serde, a skipped field is left out on write and set to
//! `Default` on read, whatever the payload holds for it.

use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meter {
    reading: u64,
    /// A memo the wire never carries.
    #[serde(skip)]
    memo: Vec<u64>,
    label: String,
}

fn meter() -> Meter {
    Meter {
        reading: 7,
        memo: vec![1, 2, 3],
        label: "gprs".to_string(),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_map()
        .expect("a struct writes a map")
        .iter()
        .filter_map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn a_skipped_field_is_absent_from_the_value_map() {
    assert_eq!(keys(&meter().to_value()), ["reading", "label"]);
}

#[test]
fn decoding_gives_the_skipped_field_its_default() {
    let bytes = glacsweb_snapshot::to_bytes(&meter());
    let decoded: Meter = glacsweb_snapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(
        decoded,
        Meter {
            memo: Vec::new(),
            ..meter()
        }
    );
}

#[test]
fn a_payload_that_still_carries_the_key_decodes() {
    let Value::Map(mut fields) = meter().to_value() else {
        panic!("a struct writes a map")
    };
    fields.push((
        Value::Str("memo".to_string()),
        Value::Seq(vec![Value::U64(9)]),
    ));
    let decoded = Meter::from_value(&Value::Map(fields)).expect("decodes");
    assert!(decoded.memo.is_empty(), "the key is ignored: {decoded:?}");
    assert_eq!(decoded.reading, 7);
}
