//! Pins what the §VI code-update flow answers through `FleetCore`:
//! how many fetches a staging serves, which acks verify, and the
//! telemetry the flow leaves behind. A verdict is a lookup by file name
//! among the updates staged for the station's pair, so a pair-mate's
//! file and digest verify too, and another pair's do not.

use glacsweb_service::core::{update_md5_hex, update_name, update_payload};
use glacsweb_service::FleetCore;
use glacsweb_sim::SimTime;
use glacsweb_station::md5::md5;

fn at(hour: u32) -> SimTime {
    SimTime::from_ymd_hms(2009, 9, 22, hour, 0, 0)
}

/// The `(file, md5 hex)` a correct station acks for `station`'s update.
fn receipt(station: u64) -> (String, String) {
    (
        update_name(station),
        update_md5_hex(&update_payload(station)),
    )
}

/// The telemetry the flow in [`update_flow_answers_are_pinned`] leaves.
const TELEMETRY: &str = r#"{"kind":"schema","schema":"glacsweb-obs/ndjson-1","events_dropped":0}
{"kind":"counter_total","component":"service","station":"fleet","name":"update_acks","value":11}
{"kind":"counter_total","component":"service","station":"fleet","name":"update_acks_verified","value":5}
{"kind":"counter_total","component":"service","station":"fleet","name":"update_fetches","value":6}
{"kind":"counter_total","component":"service","station":"fleet","name":"update_served","value":3}
{"kind":"daily","date":"2009-09-22","component":"service","station":"fleet","name":"update_acks","value":11}
{"kind":"daily","date":"2009-09-22","component":"service","station":"fleet","name":"update_acks_verified","value":5}
{"kind":"daily","date":"2009-09-22","component":"service","station":"fleet","name":"update_fetches","value":6}
{"kind":"daily","date":"2009-09-22","component":"service","station":"fleet","name":"update_served","value":3}
"#;

#[test]
fn update_flow_answers_are_pinned() {
    let core = FleetCore::new(8, 2).expect("valid core");
    let (file0, md5_0) = receipt(0);
    let (file1, md5_1) = receipt(1);
    let (file2, md5_2) = receipt(2);

    // Before staging: nothing to fetch, nothing verifies.
    assert_eq!(core.update_for(0, at(8)).expect("ok"), None);
    assert!(!core.ack_update(0, at(8), &file0, &md5_0).expect("ok"));

    // Two stagings queue two copies of each station's update.
    core.stage_updates();
    core.stage_updates();
    for hour in [9, 10] {
        let update = core
            .update_for(0, at(hour))
            .expect("ok")
            .expect("a staged update");
        assert_eq!(update.name, file0);
        assert_eq!(update.payload, update_payload(0));
        assert_eq!(update.expected_md5, md5(&update_payload(0)));
    }
    assert_eq!(core.update_for(0, at(11)).expect("ok"), None, "drained");
    assert_eq!(core.update_for(0, at(11)).expect("ok"), None);
    let mate = core.update_for(1, at(11)).expect("ok").expect("staged");
    assert_eq!(
        (mate.name.as_str(), mate.payload),
        (file1.as_str(), update_payload(1))
    );

    // A station's own receipt verifies, before and after it drains.
    assert!(core.ack_update(0, at(12), &file0, &md5_0).expect("ok"));
    assert!(core
        .ack_update(3, at(12), &receipt(3).0, &receipt(3).1)
        .expect("ok"));
    // So does its pair-mate's: the pair's desk verifies by file name.
    assert!(core.ack_update(0, at(12), &file1, &md5_1).expect("ok"));
    assert!(core.ack_update(1, at(12), &file0, &md5_0).expect("ok"));
    // A wrong digest, a digest of another file, another pair's file, a
    // file nobody staged, and upper-case hex do not.
    assert!(!core.ack_update(0, at(13), &file0, "deadbeef").expect("ok"));
    assert!(!core.ack_update(0, at(13), &file0, &md5_1).expect("ok"));
    assert!(!core.ack_update(0, at(13), &file2, &md5_2).expect("ok"));
    assert!(!core
        .ack_update(0, at(13), "control-00.py", &md5_0)
        .expect("ok"));
    assert!(!core
        .ack_update(0, at(13), &file0, &md5_0.to_uppercase())
        .expect("ok"));
    // The last pair verifies its mates too; a station out of range errs.
    assert!(core
        .ack_update(7, at(13), &receipt(6).0, &receipt(6).1)
        .expect("ok"));
    assert!(core.ack_update(8, at(13), &file0, &md5_0).is_err());
    assert!(core.update_for(8, at(13)).is_err());

    assert_eq!(core.telemetry_ndjson(), TELEMETRY);
}
