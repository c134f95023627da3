//! MD5, implemented from scratch (RFC 1321).
//!
//! §VI: "In order to make sure that the code has arrived at the station
//! without corruption the code then has to have a checksum calculated …
//! scripts on the system … automatically download the program, calculate
//! a checksum and if it is correct replace the old file with the new one",
//! with the computed MD5 reported back over an HTTP GET. MD5 is used here
//! exactly as the paper used it — an integrity check against transfer
//! corruption, not a security boundary.

/// Per-round left-rotate amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants, `K[i] = floor(|sin(i + 1)| · 2³²)`, as
/// tabulated in RFC 1321 §3.4 (the unit tests re-derive every entry).
#[rustfmt::skip]
const K: [u32; 64] = [
    0xd76a_a478, 0xe8c7_b756, 0x2420_70db, 0xc1bd_ceee,
    0xf57c_0faf, 0x4787_c62a, 0xa830_4613, 0xfd46_9501,
    0x6980_98d8, 0x8b44_f7af, 0xffff_5bb1, 0x895c_d7be,
    0x6b90_1122, 0xfd98_7193, 0xa679_438e, 0x49b4_0821,
    0xf61e_2562, 0xc040_b340, 0x265e_5a51, 0xe9b6_c7aa,
    0xd62f_105d, 0x0244_1453, 0xd8a1_e681, 0xe7d3_fbc8,
    0x21e1_cde6, 0xc337_07d6, 0xf4d5_0d87, 0x455a_14ed,
    0xa9e3_e905, 0xfcef_a3f8, 0x676f_02d9, 0x8d2a_4c8a,
    0xfffa_3942, 0x8771_f681, 0x6d9d_6122, 0xfde5_380c,
    0xa4be_ea44, 0x4bde_cfa9, 0xf6bb_4b60, 0xbebf_bc70,
    0x289b_7ec6, 0xeaa1_27fa, 0xd4ef_3085, 0x0488_1d05,
    0xd9d4_d039, 0xe6db_99e5, 0x1fa2_7cf8, 0xc4ac_5665,
    0xf429_2244, 0x432a_ff97, 0xab94_23a7, 0xfc93_a039,
    0x655b_59c3, 0x8f0c_cc92, 0xffef_f47d, 0x8584_5dd1,
    0x6fa8_7e4f, 0xfe2c_e6e0, 0xa301_4314, 0x4e08_11a1,
    0xf753_7e82, 0xbd3a_f235, 0x2ad7_d2bb, 0xeb86_d391,
];

/// Computes the MD5 digest of `data`.
///
/// Whole 64-byte blocks are hashed where they lie; only the tail is
/// copied, into a stack buffer that takes the padding.
///
/// # Example
///
/// ```
/// use glacsweb_station::md5::{md5, to_hex};
///
/// let digest = md5(b"");
/// assert_eq!(to_hex(&digest), "d41d8cd98f00b204e9800998ecf8427e");
/// ```
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut state, block);
    }

    // Padding: 0x80, zeros, then the original bit length as little-endian
    // u64, to a multiple of 64 bytes — one block, or two when the tail
    // leaves no room for the length.
    let tail = blocks.remainder();
    let mut pad = [0u8; 128];
    let padded = if tail.len() < 56 { 64 } else { 128 };
    if let Some(head) = pad.get_mut(..tail.len()) {
        head.copy_from_slice(tail);
    }
    if let Some(marker) = pad.get_mut(tail.len()) {
        *marker = 0x80;
    }
    let bit_len = (data.len() as u64).wrapping_mul(8);
    if let Some(length) = pad.get_mut(padded - 8..padded) {
        length.copy_from_slice(&bit_len.to_le_bytes());
    }
    for block in pad.get(..padded).unwrap_or_default().chunks_exact(64) {
        compress(&mut state, block);
    }

    let mut out = [0u8; 16];
    for (slot, word) in out.chunks_exact_mut(4).zip(state) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The MD5 compression function: folds one 64-byte block into `state`.
fn compress(state: &mut [u32; 4], block: &[u8]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = bytes
            .iter()
            .rev()
            .fold(0u32, |acc, &b| (acc << 8) | u32::from(b));
    }
    let [mut a, mut b, mut c, mut d] = *state;
    for (i, (&ki, &si)) in K.iter().zip(S.iter()).enumerate() {
        let (f, g) = match i {
            0..=15 => ((b & c) | (!b & d), i),
            16..=31 => ((d & b) | (!d & c), (5 * i + 1) % 16),
            32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let tmp = d;
        d = c;
        c = b;
        #[allow(clippy::indexing_slicing)]
        // glacsweb: allow(panic-freedom, reason = "g is produced by the match above, every arm of which reduces mod 16; m has exactly 16 words")
        let sum = a.wrapping_add(f).wrapping_add(ki).wrapping_add(m[g]);
        b = b.wrapping_add(sum.rotate_left(si));
        a = tmp;
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d]) {
        *word = word.wrapping_add(add);
    }
}

/// Renders a digest as the conventional lowercase hex string (what the
/// verification script puts in its HTTP GET query).
pub fn to_hex(digest: &[u8; 16]) -> String {
    let mut out = String::with_capacity(32);
    for &b in digest {
        out.extend(char::from_digit(u32::from(b >> 4), 16));
        out.extend(char::from_digit(u32::from(b & 0xf), 16));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The literal table is exactly RFC 1321's definition,
    /// `floor(|sin(i + 1)| · 2³²)`.
    // The truncating cast *is* the definition: the integer part of
    // |sin(i+1)|·2³², which is below 2³².
    #[allow(clippy::cast_possible_truncation)]
    #[test]
    fn k_table_is_the_sine_derivation() {
        for (i, &k) in K.iter().enumerate() {
            let derived = ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32;
            assert_eq!(k, derived, "K[{i}]");
        }
    }

    /// RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(to_hex(&md5(input)), expected, "input {input:?}");
        }
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            to_hex(&md5(b"The quick brown fox jumps over the lazy dog")),
            "9e107d9d372bb6826bd81d3542a419d6"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Exercise messages straddling the 55/56/64-byte padding edges.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5Au8; len];
            let d1 = md5(&data);
            let d2 = md5(&data);
            assert_eq!(d1, d2, "len {len} deterministic");
            // Flip one byte → different digest.
            let mut flipped = data.clone();
            flipped[len / 2] ^= 0xFF;
            assert_ne!(md5(&flipped), d1, "len {len} sensitive to corruption");
        }
    }

    /// The in-place tail padding matches padding a full copy of the
    /// message, at every tail length and across the block edges.
    #[test]
    fn in_place_padding_matches_padding_a_copy() {
        for len in 0..=200usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let mut msg = data.clone();
            msg.push(0x80);
            while msg.len() % 64 != 56 {
                msg.push(0);
            }
            msg.extend_from_slice(&((len as u64) * 8).to_le_bytes());
            let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
            for block in msg.chunks_exact(64) {
                compress(&mut state, block);
            }
            let mut expected = [0u8; 16];
            for (slot, word) in expected.chunks_exact_mut(4).zip(state) {
                slot.copy_from_slice(&word.to_le_bytes());
            }
            assert_eq!(md5(&data), expected, "len {len}");
        }
    }

    proptest! {
        /// Any single-bit corruption changes the digest — the property the
        /// paper's update-verification script relies on.
        #[test]
        fn detects_single_bit_corruption(
            data in proptest::collection::vec(any::<u8>(), 1..512),
            bit in 0usize..4096,
        ) {
            let byte = (bit / 8) % data.len();
            let mask = 1u8 << (bit % 8);
            let mut corrupted = data.clone();
            corrupted[byte] ^= mask;
            prop_assert_ne!(md5(&corrupted), md5(&data));
        }

        /// Hex rendering is 32 lowercase hex chars.
        #[test]
        fn hex_format(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let h = to_hex(&md5(&data));
            prop_assert_eq!(h.len(), 32);
            prop_assert!(h.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        }
    }
}
