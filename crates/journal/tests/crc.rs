//! CRC32 and in-place framing equivalence properties.
//!
//! PR 9 swapped the frame checksum to a slicing-by-8 CRC32 and the
//! frame writers to an in-place `begin_frame`/`end_frame` pair. Neither
//! is allowed to be a *format* change: every byte already on disk and
//! on the wire was produced by the one-table bytewise CRC and the
//! buffer-then-copy `write_frame`, so the fast paths must be proven
//! bit-identical to the slow ones, not just plausible.

use proptest::prelude::*;
use wsrep_journal::frame::{
    begin_frame, crc32, end_frame, split_frame, write_frame, FrameSplit, FRAME_HEADER_LEN,
};

/// The reference CRC-32: IEEE, reflected polynomial 0xEDB88320, one bit
/// at a time. The format contract is defined by this loop; `crc32` is the
/// fast path proven equal to it.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// The published check value for CRC-32/ISO-HDLC ("123456789"), plus
/// fixed vectors produced by the pre-slicing implementation. These pin
/// the *polynomial and conventions*; the property below pins the
/// implementation against the reference loop on everything else.
#[test]
fn golden_vectors_are_unchanged() {
    for (input, expected) in [
        (&b""[..], 0x0000_0000u32),
        (&b"123456789"[..], 0xCBF4_3926),
        (&b"hello"[..], 0x3610_A686),
        (
            &b"The quick brown fox jumps over the lazy dog"[..],
            0x414F_A339,
        ),
    ] {
        assert_eq!(crc32(input), expected, "crc32({input:?})");
        assert_eq!(crc32_bytewise(input), expected, "crc32_bytewise({input:?})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slicing-by-8 is an optimization, not a definition: on arbitrary
    /// input (lengths straddling the 8-byte step and its remainders) it
    /// must agree with the one-byte-at-a-time reference.
    #[test]
    fn sliced_crc_matches_the_bytewise_reference(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    /// `begin_frame` + payload + `end_frame` must emit exactly the bytes
    /// `write_frame` emits for that payload — including when the
    /// destination buffer already holds earlier frames, which is how the
    /// batch append loop uses it.
    #[test]
    fn in_place_framing_equals_write_frame(
        prefix in proptest::collection::vec(0u8..=255, 0..32),
        payload in proptest::collection::vec(0u8..=255, 0..96),
    ) {
        let mut two_step = prefix.clone();
        write_frame(&mut two_step, &payload);

        let mut in_place = prefix.clone();
        let start = begin_frame(&mut in_place);
        in_place.extend_from_slice(&payload);
        end_frame(&mut in_place, start);

        prop_assert_eq!(&in_place, &two_step);

        // And the result must round-trip through the decoder.
        match split_frame(&in_place[prefix.len()..]) {
            FrameSplit::Frame { frame_len } => {
                prop_assert_eq!(frame_len, FRAME_HEADER_LEN + payload.len());
                prop_assert_eq!(&in_place[prefix.len() + FRAME_HEADER_LEN..], &payload[..]);
            }
            other => prop_assert!(false, "expected a complete frame, got {:?}", other),
        }
    }
}
