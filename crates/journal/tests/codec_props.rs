//! Properties of the compact feedback record (segment format 4) and of
//! `JournalRecord::decode` as a total function.
//!
//! The compact pair must be the identity on every `Feedback` — ids over
//! the whole `u64` range, every subject kind, any score *bits* — and must
//! agree with the fixed-width pair on everything that pair can yield, or
//! a log upgraded from format 3 would recover to different reports than
//! it held. The decoder sits behind a CRC and still reads bytes this
//! build did not write (a newer primary's, a damaged disk's): it answers
//! every input with a record or a typed `CodecError`, never a panic.
//!
//! This is the first of ROADMAP item 2's "every total decoder fuzzed"
//! corpora; the frame splitter, the segment scanner and the wire decoders
//! are the others.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::codec::{get_varint, put_feedback, put_varint, CodecError, Cursor};
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;

/// Where a varint changes length, and both ends of the range.
const EDGES: [u64; 6] = [0, 127, 128, 16_383, 16_384, u64::MAX];

/// Ids over the whole `u64` range: a varint edge one draw in three,
/// otherwise a value of any width.
fn id() -> impl Strategy<Value = u64> {
    (0usize..18, 0u32..64, 0u64..=u64::MAX)
        .prop_map(|(pick, shift, any)| EDGES.get(pick).copied().unwrap_or(any >> shift))
}

fn metric() -> impl Strategy<Value = Metric> {
    (0usize..Metric::ALL_STANDARD.len() + 4, 0u8..=255).prop_map(|(i, k)| {
        Metric::ALL_STANDARD
            .get(i)
            .copied()
            .unwrap_or(Metric::AppSpecific(k))
    })
}

/// Up to three `(metric, value bits)` pairs, empty one draw in four.
fn pairs() -> impl Strategy<Value = BTreeMap<Metric, f64>> {
    collection::vec((metric(), 0u64..=u64::MAX), 0..4).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(metric, bits)| (metric, f64::from_bits(bits)))
            .collect()
    })
}

/// Any `Feedback` the type can hold, not only what its constructors
/// clamp into range: the fields are public and the journal stores what
/// it is given.
fn feedback() -> impl Strategy<Value = Feedback> {
    (id(), 0u8..3, id(), 0u64..=u64::MAX, id(), pairs(), pairs()).prop_map(
        |(rater, kind, subject, score, at, observed, facet_ratings)| Feedback {
            rater: AgentId::new(rater),
            subject: match kind {
                0 => AgentId::new(subject).into(),
                1 => ServiceId::new(subject).into(),
                _ => ProviderId::new(subject).into(),
            },
            score: f64::from_bits(score),
            observed: QosVector::from_pairs(observed),
            facet_ratings,
            at: Time::new(at),
        },
    )
}

type Bits = (
    AgentId,
    SubjectId,
    u64,
    Time,
    Vec<(Metric, u64)>,
    Vec<(Metric, u64)>,
);

/// A report with every float as its bit pattern: `==` on `Feedback`
/// calls a NaN unequal to itself, and the codec must keep NaN payloads.
fn bits(feedback: &Feedback) -> Bits {
    let pair_bits = |(metric, value): (Metric, f64)| (metric, value.to_bits());
    (
        feedback.rater,
        feedback.subject,
        feedback.score.to_bits(),
        feedback.at,
        feedback.observed.iter().map(pair_bits).collect(),
        feedback
            .facet_ratings
            .iter()
            .map(|(&m, &r)| pair_bits((m, r)))
            .collect(),
    )
}

fn compact_bytes(feedback: &Feedback) -> Vec<u8> {
    JournalRecord::Feedback(feedback.clone()).to_bytes()
}

fn decode_feedback(bytes: &[u8]) -> Feedback {
    match JournalRecord::decode(bytes) {
        Ok(JournalRecord::Feedback(feedback)) => feedback,
        other => panic!("not a feedback record: {other:?}"),
    }
}

/// The record builds up to format 3 wrote: tag 1, fixed-width body.
fn fixed_bytes(feedback: &Feedback) -> Vec<u8> {
    let mut bytes = vec![1];
    put_feedback(&mut bytes, feedback);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compact_decode_after_encode_is_the_identity(original in feedback()) {
        let bytes = compact_bytes(&original);
        prop_assert!(bytes[0] & 0x80 != 0, "head byte {:#04x}", bytes[0]);
        let decoded = decode_feedback(&bytes);
        prop_assert_eq!(bits(&decoded), bits(&original));
        prop_assert_eq!(compact_bytes(&decoded), bytes);
    }

    /// The fixed-width decoder rebuilds a report through the constructors,
    /// which clamp; on whatever it yields the two encodings must agree,
    /// through `JournalRecord::decode` as recovery calls it.
    #[test]
    fn compact_agrees_with_the_fixed_width_pair(original in feedback()) {
        let fixed = decode_feedback(&fixed_bytes(&original));
        prop_assert_eq!(bits(&decode_feedback(&fixed_bytes(&fixed))), bits(&fixed));
        prop_assert_eq!(bits(&decode_feedback(&compact_bytes(&fixed))), bits(&fixed));
        prop_assert!(compact_bytes(&fixed).len() < fixed_bytes(&fixed).len());
    }

    #[test]
    fn every_strict_prefix_is_an_eof(original in feedback()) {
        let bytes = compact_bytes(&original);
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                JournalRecord::decode(&bytes[..cut]),
                Err(CodecError::UnexpectedEof),
                "cut at {} of {}", cut, bytes.len()
            );
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        mut bytes in collection::vec(0u8..=255, 0..96),
        compact in 0u8..2,
    ) {
        // Half the draws are steered past the tag match into the compact
        // decoder, which random first bytes reach one time in two anyway.
        if let (1, Some(first)) = (compact, bytes.first_mut()) {
            *first |= 0x80;
        }
        let _ = JournalRecord::decode(&bytes);
    }

    /// Damage that lands *inside* a well-formed record reaches branches
    /// random bytes rarely do: counts, metric tags, the tenth varint byte.
    #[test]
    fn a_damaged_encoding_never_panics_the_decoder(
        original in feedback(),
        at in 0usize..256,
        with in 0u8..=255,
        fixed in 0u8..2,
    ) {
        let mut bytes = if fixed == 1 { fixed_bytes(&original) } else { compact_bytes(&original) };
        let at = at % bytes.len();
        bytes[at] = with;
        let _ = JournalRecord::decode(&bytes);
    }

    #[test]
    fn varints_round_trip_in_the_shortest_form(v in id()) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, v);
        let expected_len = (u64::BITS - v.leading_zeros()).div_ceil(7).max(1);
        prop_assert_eq!(bytes.len() as u32, expected_len);
        let mut cur = Cursor::new(&bytes);
        prop_assert_eq!(get_varint(&mut cur), Ok(v));
        prop_assert_eq!(cur.remaining(), 0);
    }
}

/// A plain service-subject report whose rater varint is `rater`, spelled
/// out by hand: head, rater, subject 1, score 0.5, round 0.
fn record_with_rater(rater: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x81];
    bytes.extend_from_slice(rater);
    bytes.push(1);
    bytes.extend_from_slice(&0.5f64.to_le_bytes());
    bytes.push(0);
    bytes
}

fn rejected_varint(varint: &[u8]) {
    assert_eq!(
        get_varint(&mut Cursor::new(varint)),
        Err(CodecError::BadVarint),
        "{varint:02x?}"
    );
    assert_eq!(
        JournalRecord::decode(&record_with_rater(varint)),
        Err(CodecError::BadVarint),
        "{varint:02x?} as a rater"
    );
}

#[test]
fn the_hand_spelled_record_decodes() {
    // The splice the rejection cases below damage is itself well formed.
    let expected = Feedback::scored(AgentId::new(300), ServiceId::new(1), 0.5, Time::ZERO);
    assert_eq!(decode_feedback(&record_with_rater(&[0xAC, 0x02])), expected);
    let widest = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
    assert_eq!(get_varint(&mut Cursor::new(&widest)), Ok(u64::MAX));
}

#[test]
fn a_non_canonical_varint_is_rejected() {
    rejected_varint(&[0x80, 0x00]); // zero, in two bytes
    rejected_varint(&[0xAC, 0x82, 0x00]); // 300, with a zero group on top
}

#[test]
fn an_eleven_byte_varint_is_rejected() {
    let mut varint = [0x80u8; 11];
    varint[10] = 0x01;
    rejected_varint(&varint);
}

#[test]
fn a_varint_past_bit_64_is_rejected() {
    let mut varint = [0xFFu8; 10];
    varint[9] = 0x02; // bit 64
    rejected_varint(&varint);
    varint[9] = 0x7F;
    rejected_varint(&varint);
}

fn rejected_head(bytes: &[u8]) {
    match JournalRecord::decode(bytes) {
        Err(CodecError::BadTag { tag, .. }) => assert_eq!(tag, bytes[0]),
        other => panic!("head {:#04x} was not refused: {other:?}", bytes[0]),
    }
}

#[test]
fn reserved_head_bits_and_subject_kind_3_are_rejected() {
    let mut bytes = record_with_rater(&[7]);
    for reserved in [0x10, 0x20, 0x40, 0x70] {
        bytes[0] = 0x81 | reserved;
        rejected_head(&bytes);
    }
    bytes[0] = 0x83;
    rejected_head(&bytes);
}

#[test]
fn a_presence_bit_over_a_zero_count_is_rejected() {
    // An empty collection has one spelling: its bit clear.
    for presence in [0x04, 0x08] {
        let mut bytes = record_with_rater(&[7]);
        bytes[0] |= presence;
        bytes.push(0);
        rejected_head(&bytes);
    }
}
