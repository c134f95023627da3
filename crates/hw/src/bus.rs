//! The Gumsense inter-processor bus (Fig 2).
//!
//! Fig 2 of the paper shows the division of I/O between the two
//! processors and "the communication between the two processors" — an
//! I²C link over which the Gumstix, once booted, reads the MSP430's
//! buffered voltage samples and real-time clock and writes back the next
//! wake schedule.
//!
//! This module implements that link as a small framed message protocol
//! with a checksum, because the §VI lesson about verifying transfers
//! applies on-board too: an I²C glitch must not silently corrupt the
//! schedule that decides when the system wakes up for the next year.

use std::error::Error;
use std::fmt;

use glacsweb_sim::{SimTime, Volts};
use serde::{Deserialize, Serialize};

/// A request from the Gumstix to the MSP430.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusRequest {
    /// Read the buffered half-hourly voltage samples.
    ReadVoltageLog,
    /// Read the supervisor's real-time clock.
    ReadRtc,
    /// Set the real-time clock (after a GPS fix).
    SetRtc(SimTime),
    /// Write the wake schedule: window hour UTC, dGPS readings per day.
    WriteSchedule {
        /// Hour (UTC) of the daily communications window.
        window_hour: u8,
        /// dGPS readings per day (0, 1 or 12).
        gps_per_day: u8,
    },
    /// Switch a peripheral power rail.
    SetRail {
        /// Rail index (0 = Gumstix, 1 = GPS, 2 = GPRS, 3 = probe radio).
        rail: u8,
        /// On or off.
        on: bool,
    },
}

/// The MSP430's reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BusResponse {
    /// Voltage samples as `(unix seconds, millivolts)` pairs.
    VoltageLog(Vec<(u64, u16)>),
    /// The RTC reading.
    Rtc(SimTime),
    /// Positive acknowledgement of a write.
    Ack,
}

/// Bus framing/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// The frame was shorter than a header + checksum.
    Truncated,
    /// The checksum did not match the payload.
    Checksum {
        /// Checksum carried in the frame.
        expected: u16,
        /// Checksum computed over the payload.
        computed: u16,
    },
    /// The opcode byte was not recognised.
    UnknownOpcode(u8),
    /// The payload length did not match the opcode's format.
    Malformed,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::Truncated => write!(f, "frame truncated"),
            BusError::Checksum { expected, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame {expected:#06x}, computed {computed:#06x}"
                )
            }
            BusError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            BusError::Malformed => write!(f, "malformed payload"),
        }
    }
}

impl Error for BusError {}

/// Fletcher-16 checksum — cheap enough for an MSP430 interrupt handler.
///
/// Both sums are reduced mod 255 once per block instead of once per
/// byte: the reduced result is the same, and over a 4,096-byte block
/// from sums below 255, `b` stays below 2³¹.
fn fletcher16(data: &[u8]) -> u16 {
    let (mut a, mut b) = (0u32, 0u32);
    for block in data.chunks(4096) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 255;
        b %= 255;
    }
    ((b << 8) | a) as u16
}

#[cfg(test)]
fn frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 3);
    out.push(opcode);
    out.extend_from_slice(payload);
    let sum = fletcher16(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn unframe(bytes: &[u8]) -> Result<(u8, &[u8]), BusError> {
    if bytes.len() < 3 {
        return Err(BusError::Truncated);
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 2);
    let expected = u16::from_le_bytes([sum_bytes[0], sum_bytes[1]]);
    let computed = fletcher16(body);
    if expected != computed {
        return Err(BusError::Checksum { expected, computed });
    }
    Ok((body[0], &body[1..]))
}

/// The whole-message codec: the tests' reference for the in-place
/// voltage-log path the daily window runs.
#[cfg(test)]
impl BusRequest {
    /// Encodes the request as an on-wire frame.
    fn encode(&self) -> Vec<u8> {
        match self {
            BusRequest::ReadVoltageLog => frame(0x01, &[]),
            BusRequest::ReadRtc => frame(0x02, &[]),
            BusRequest::SetRtc(t) => frame(0x03, &t.unix().to_le_bytes()),
            BusRequest::WriteSchedule {
                window_hour,
                gps_per_day,
            } => frame(0x04, &[*window_hour, *gps_per_day]),
            BusRequest::SetRail { rail, on } => frame(0x05, &[*rail, u8::from(*on)]),
        }
    }

    /// Decodes a frame back into a request.
    ///
    /// # Errors
    ///
    /// Returns a [`BusError`] for truncated frames, checksum mismatches,
    /// unknown opcodes or malformed payloads.
    fn decode(bytes: &[u8]) -> Result<BusRequest, BusError> {
        let (opcode, payload) = unframe(bytes)?;
        match opcode {
            0x01 if payload.is_empty() => Ok(BusRequest::ReadVoltageLog),
            0x02 if payload.is_empty() => Ok(BusRequest::ReadRtc),
            0x03 => {
                let raw: [u8; 8] = payload.try_into().map_err(|_| BusError::Malformed)?;
                Ok(BusRequest::SetRtc(SimTime::from_unix(u64::from_le_bytes(
                    raw,
                ))))
            }
            0x04 => match payload {
                [window_hour, gps_per_day] => Ok(BusRequest::WriteSchedule {
                    window_hour: *window_hour,
                    gps_per_day: *gps_per_day,
                }),
                _ => Err(BusError::Malformed),
            },
            0x05 => match payload {
                [rail, on @ (0 | 1)] => Ok(BusRequest::SetRail {
                    rail: *rail,
                    on: *on == 1,
                }),
                _ => Err(BusError::Malformed),
            },
            0x01 | 0x02 => Err(BusError::Malformed),
            other => Err(BusError::UnknownOpcode(other)),
        }
    }
}

/// The millivolt reading the supervisor's ADC reports for `v` (a
/// 10-bit-ADC-plus-divider supervisor measures to the millivolt).
fn millivolts(v: Volts) -> u16 {
    (v.value() * 1000.0).round().clamp(0.0, 65_535.0) as u16
}

/// Writes a voltage-log response frame into `out` (cleared first): the
/// opcode, ten bytes per `(unix seconds, millivolts)` sample, then the
/// checksum — the bytes `frame` would build around the same payload.
fn write_voltage_frame(samples: impl Iterator<Item = (u64, u16)>, out: &mut Vec<u8>) {
    out.clear();
    out.push(0x81);
    for (t, mv) in samples {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&mv.to_le_bytes());
    }
    let sum = fletcher16(out);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// The `(unix seconds, millivolts)` samples of a voltage-log payload.
fn voltage_samples(
    payload: &[u8],
) -> Result<impl Iterator<Item = (u64, u16)> + Clone + '_, BusError> {
    if !payload.len().is_multiple_of(10) {
        return Err(BusError::Malformed);
    }
    Ok(payload.chunks_exact(10).map(|c| {
        let t = u64::from_le_bytes(c[..8].try_into().expect("8 bytes"));
        let mv = u16::from_le_bytes([c[8], c[9]]);
        (t, mv)
    }))
}

/// Frames the MSP430's voltage log straight into `out` (cleared first):
/// the [`BusResponse::VoltageLog`] frame of the samples at millivolt
/// precision, built without an intermediate vector. The daily window
/// reuses one buffer for this transfer.
pub fn encode_voltage_log(samples: &[(SimTime, Volts)], out: &mut Vec<u8>) {
    write_voltage_frame(samples.iter().map(|&(t, v)| (t.unix(), millivolts(v))), out);
}

/// Checks a voltage-log response frame and walks its `(unix seconds,
/// millivolts)` samples in place, without copying them out.
///
/// # Errors
///
/// Returns a [`BusError`] for a truncated frame, a checksum mismatch,
/// an unknown opcode or a malformed payload, and
/// [`BusError::Malformed`] for a valid frame that is not a voltage log.
pub fn decode_voltage_log(
    bytes: &[u8],
) -> Result<impl Iterator<Item = (u64, u16)> + Clone + '_, BusError> {
    match unframe(bytes)? {
        (0x81, payload) => voltage_samples(payload),
        (0x80 | 0x82, _) => Err(BusError::Malformed),
        (other, _) => Err(BusError::UnknownOpcode(other)),
    }
}

#[cfg(test)]
impl BusResponse {
    /// Encodes the response as an on-wire frame.
    fn encode(&self) -> Vec<u8> {
        match self {
            BusResponse::VoltageLog(samples) => {
                let mut out = Vec::with_capacity(samples.len() * 10 + 3);
                write_voltage_frame(samples.iter().copied(), &mut out);
                out
            }
            BusResponse::Rtc(t) => frame(0x82, &t.unix().to_le_bytes()),
            BusResponse::Ack => frame(0x80, &[]),
        }
    }

    /// Decodes a frame back into a response.
    ///
    /// # Errors
    ///
    /// Returns a [`BusError`] for truncated frames, checksum mismatches,
    /// unknown opcodes or malformed payloads.
    fn decode(bytes: &[u8]) -> Result<BusResponse, BusError> {
        let (opcode, payload) = unframe(bytes)?;
        match opcode {
            0x80 if payload.is_empty() => Ok(BusResponse::Ack),
            0x81 => Ok(BusResponse::VoltageLog(voltage_samples(payload)?.collect())),
            0x82 => {
                let raw: [u8; 8] = payload.try_into().map_err(|_| BusError::Malformed)?;
                Ok(BusResponse::Rtc(SimTime::from_unix(u64::from_le_bytes(
                    raw,
                ))))
            }
            0x80 => Err(BusError::Malformed),
            other => Err(BusError::UnknownOpcode(other)),
        }
    }

    /// Convenience: packs the MSP430's `(time, volts)` samples into the
    /// wire representation (millivolt precision, as a 10-bit-ADC-plus-
    /// divider supervisor actually measures).
    fn from_voltage_samples(samples: &[(SimTime, Volts)]) -> BusResponse {
        BusResponse::VoltageLog(
            samples
                .iter()
                .map(|&(t, v)| (t.unix(), millivolts(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            BusRequest::ReadVoltageLog,
            BusRequest::ReadRtc,
            BusRequest::SetRtc(SimTime::from_ymd_hms(2009, 9, 22, 12, 0, 0)),
            BusRequest::WriteSchedule {
                window_hour: 12,
                gps_per_day: 12,
            },
            BusRequest::SetRail { rail: 1, on: true },
            BusRequest::SetRail { rail: 3, on: false },
        ];
        for req in cases {
            let wire = req.encode();
            assert_eq!(BusRequest::decode(&wire).expect("decodes"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let t = SimTime::from_ymd_hms(2009, 9, 22, 0, 30, 0);
        let cases = [
            BusResponse::Ack,
            BusResponse::Rtc(t),
            BusResponse::VoltageLog(vec![(t.unix(), 12_500), (t.unix() + 1800, 12_480)]),
            BusResponse::VoltageLog(vec![]),
        ];
        for resp in cases {
            let wire = resp.encode();
            assert_eq!(BusResponse::decode(&wire).expect("decodes"), resp);
        }
    }

    #[test]
    fn voltage_sample_packing_keeps_millivolt_precision() {
        let t = SimTime::from_ymd_hms(2009, 9, 22, 0, 0, 0);
        let resp = BusResponse::from_voltage_samples(&[(t, Volts(12.4876))]);
        match resp {
            BusResponse::VoltageLog(v) => {
                assert_eq!(v, vec![(t.unix(), 12_488)]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        let wire = BusRequest::WriteSchedule {
            window_hour: 12,
            gps_per_day: 12,
        }
        .encode();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0xFF;
            let result = BusRequest::decode(&bad);
            assert!(
                result.is_err(),
                "flipping byte {i} must not decode cleanly: {result:?}"
            );
        }
    }

    #[test]
    fn truncation_and_unknown_opcodes() {
        assert_eq!(BusRequest::decode(&[]), Err(BusError::Truncated));
        assert_eq!(BusRequest::decode(&[0x01]), Err(BusError::Truncated));
        let bogus = frame(0x77, &[]);
        assert_eq!(
            BusRequest::decode(&bogus),
            Err(BusError::UnknownOpcode(0x77))
        );
        // Valid checksum but wrong payload size for the opcode.
        let malformed = frame(0x03, &[1, 2, 3]);
        assert_eq!(BusRequest::decode(&malformed), Err(BusError::Malformed));
    }

    #[test]
    fn error_messages_render() {
        let e = BusError::Checksum {
            expected: 0x1234,
            computed: 0x5678,
        };
        assert!(e.to_string().contains("checksum mismatch"));
        assert!(BusError::Truncated.to_string().contains("truncated"));
    }

    /// The checksum reduced once per byte, as the MSP430 computes it.
    fn fletcher16_per_byte(data: &[u8]) -> u16 {
        let mut a: u16 = 0;
        let mut b: u16 = 0;
        for &byte in data {
            a = (a + u16::from(byte)) % 255;
            b = (b + a) % 255;
        }
        (b << 8) | a
    }

    #[test]
    fn block_reduced_checksum_matches_per_byte_at_the_block_edges() {
        for len in [0, 1, 4095, 4096, 4097, 8192, 20_000] {
            for fill in [0u8, 1, 254, 255] {
                let data = vec![fill; len];
                assert_eq!(
                    fletcher16(&data),
                    fletcher16_per_byte(&data),
                    "{len} x {fill}"
                );
            }
        }
    }

    proptest! {
        /// Reducing the sums once per block gives the per-byte checksum.
        #[test]
        fn block_reduced_checksum_matches_per_byte(
            data in proptest::collection::vec(0u8..=255, 0..9000),
        ) {
            prop_assert_eq!(fletcher16(&data), fletcher16_per_byte(&data));
        }

        /// Any single-byte corruption of any request frame is caught by
        /// the checksum (or fails to parse) — it never decodes into a
        /// *different* valid request.
        #[test]
        fn no_silent_corruption(
            hour in 0u8..24,
            gps in 0u8..13,
            byte in 0usize..16,
            mask in 1u8..=255,
        ) {
            let req = BusRequest::WriteSchedule { window_hour: hour, gps_per_day: gps };
            let mut wire = req.encode();
            let i = byte % wire.len();
            wire[i] ^= mask;
            if let Ok(decoded) = BusRequest::decode(&wire) {
                prop_assert_eq!(decoded, req, "corruption slipped through");
            }
        }

        /// The buffer-writing encoder and the in-place decoder carry the
        /// same bytes and samples as the `BusResponse` round trip, and a
        /// corrupted frame fails both the same way.
        #[test]
        fn in_place_voltage_log_matches_bus_response(
            raw in proptest::collection::vec((0u64..4_000_000_000, -1.0f64..70.0), 0..100),
            flip in 0usize..2000,
        ) {
            let samples: Vec<(SimTime, Volts)> = raw
                .iter()
                .map(|&(t, v)| (SimTime::from_unix(t), Volts(v)))
                .collect();
            let response = BusResponse::from_voltage_samples(&samples);
            let wire = response.encode();
            let mut out = vec![0xAA; 7];
            encode_voltage_log(&samples, &mut out);
            prop_assert_eq!(&out, &wire);
            let walked: Vec<(u64, u16)> = decode_voltage_log(&out).expect("decodes").collect();
            prop_assert_eq!(BusResponse::VoltageLog(walked), response);
            let i = flip % out.len();
            out[i] ^= 0x5A;
            prop_assert_eq!(
                decode_voltage_log(&out).err(),
                BusResponse::decode(&out).err()
            );
        }

        /// Voltage logs of arbitrary size round-trip.
        #[test]
        fn voltage_logs_round_trip(samples in proptest::collection::vec((0u64..4_000_000_000, 0u16..16_000), 0..100)) {
            let resp = BusResponse::VoltageLog(samples.clone());
            let wire = resp.encode();
            prop_assert_eq!(BusResponse::decode(&wire).expect("decodes"), BusResponse::VoltageLog(samples));
        }
    }
}
