//! Properties of the compact feedback record (segment formats 4 and up),
//! of the commit payload that carries it everywhere today, and of
//! `decode_payload` as a total function.
//!
//! The compact pair must be the identity on every `Feedback` — ids over
//! the whole `u64` range, every subject kind, any score *bits* — and must
//! agree with the fixed-width pair on everything that pair can yield, or
//! a log upgraded from format 3 would recover to different reports than
//! it held. A payload of any records must decode to them and re-encode to
//! its bytes. The decoder sits behind a CRC and still reads bytes this
//! build did not write (a newer primary's, a damaged disk's): it answers
//! every input with records or a typed `CodecError`, never a panic.
//!
//! The segment header and the snapshot file get the same treatment:
//! every truncation, every single-byte flip and arbitrary bytes.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::codec::{
    get_feedback, get_varint, put_feedback, put_varint, CodecError, CompactRules, Cursor,
};
use wsrep_journal::frame::crc32;
use wsrep_journal::record::{decode_payload, put_payload};
use wsrep_journal::segment::{
    segment_header_versioned, LsnWalk, FORMAT_VERSION, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
};
use wsrep_journal::snapshot::{read_snapshot, write_snapshot, Snapshot};
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_sim::registry::Listing;

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

/// `records` as one commit payload.
fn payload<R: wsrep_journal::record::PayloadRecord>(records: &[R]) -> Vec<u8> {
    let mut out = Vec::new();
    put_payload(&mut out, &mut records.iter(), usize::MAX);
    out
}

fn compact_bytes(feedback: &Feedback) -> Vec<u8> {
    payload(std::slice::from_ref(feedback))
}

/// The records of a payload read under `rules`.
fn decoded_under(bytes: &[u8], rules: CompactRules) -> Result<Vec<JournalRecord>, CodecError> {
    let mut records = Vec::new();
    decode_payload(&mut Cursor::new(bytes), rules, |record| {
        records.push(record);
        Ok(())
    })?;
    Ok(records)
}

/// The records of a payload as written today.
fn decoded(bytes: &[u8]) -> Result<Vec<JournalRecord>, CodecError> {
    decoded_under(bytes, CompactRules::Format6(None))
}

/// A payload's one record: none is an EOF, two a bad count.
fn decode(bytes: &[u8]) -> Result<JournalRecord, CodecError> {
    match decoded(bytes)?.as_slice() {
        [] => Err(CodecError::UnexpectedEof),
        [record] => Ok(record.clone()),
        _ => Err(CodecError::BadCount),
    }
}

fn decode_feedback(bytes: &[u8]) -> Feedback {
    match decode(bytes) {
        Ok(JournalRecord::Feedback(feedback)) => feedback,
        other => panic!("not a feedback record: {other:?}"),
    }
}

/// The fixed-width body builds up to format 3 wrote behind tag 1, and
/// snapshots up to version 3 hold.
fn fixed_bytes(feedback: &Feedback) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_feedback(&mut bytes, feedback);
    bytes
}

fn decode_fixed(bytes: &[u8]) -> Feedback {
    let mut cur = Cursor::new(bytes);
    let feedback = get_feedback(&mut cur).expect("a fixed-width report");
    assert_eq!(cur.remaining(), 0);
    feedback
}

/// Any record: a report, a listing or a withdrawal.
fn any_record() -> impl Strategy<Value = JournalRecord> {
    (0u8..6, feedback(), listing(), id()).prop_map(|(kind, report, listing, service)| match kind {
        0 => JournalRecord::Publish(listing),
        1 => JournalRecord::Deregister(ServiceId::new(service)),
        _ => JournalRecord::Feedback(report),
    })
}

/// Records by their bits (see [`bits`]).
fn record_bits(records: &[JournalRecord]) -> Vec<Result<Bits, JournalRecord>> {
    let bits_of = |r: &JournalRecord| r.as_feedback().map(bits).ok_or_else(|| r.clone());
    records.iter().map(bits_of).collect()
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
    /// which clamp; on whatever it yields the two encodings must agree.
    #[test]
    fn compact_agrees_with_the_fixed_width_pair(original in feedback()) {
        let fixed = decode_fixed(&fixed_bytes(&original));
        prop_assert_eq!(bits(&decode_fixed(&fixed_bytes(&fixed))), bits(&fixed));
        prop_assert_eq!(bits(&decode_feedback(&compact_bytes(&fixed))), bits(&fixed));
        prop_assert!(compact_bytes(&fixed).len() < fixed_bytes(&fixed).len());
    }

    #[test]
    fn every_strict_prefix_is_an_eof(original in feedback()) {
        let bytes = compact_bytes(&original);
        for cut in 0..bytes.len() {
            prop_assert_eq!(
                decode(&bytes[..cut]),
                Err(CodecError::UnexpectedEof),
                "cut at {} of {}", cut, bytes.len()
            );
        }
    }

    /// Any records, rounds carried from report to report, decode to
    /// themselves and re-encode to the payload's bytes; no strict prefix
    /// decodes to all of them.
    #[test]
    fn payload_decode_after_encode_is_the_identity(
        records in collection::vec(any_record(), 0..8),
        same_round in 0u8..2,
    ) {
        let mut records = records;
        if same_round == 1 {
            // One round for every report: each after the first leaves it out.
            for record in &mut records {
                if let JournalRecord::Feedback(report) = record {
                    report.at = Time::new(7);
                }
            }
        }
        let bytes = payload(&records);
        let back = decoded(&bytes).unwrap();
        prop_assert_eq!(record_bits(&back), record_bits(&records));
        prop_assert_eq!(payload(&back), bytes.clone());
        for cut in 0..bytes.len() {
            if let Ok(some) = decoded(&bytes[..cut]) {
                prop_assert!(some.len() < records.len(), "cut at {}", cut);
            }
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
        let _ = decoded(&bytes);
        let _ = decoded_under(&bytes, CompactRules::Format5);
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
        let mut bytes = if fixed == 1 {
            [&[1], &fixed_bytes(&original)[..]].concat()
        } else {
            compact_bytes(&original)
        };
        let at = at % bytes.len();
        bytes[at] = with;
        let _ = decoded(&bytes);
        let _ = decoded_under(&bytes, CompactRules::Format5);
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
/// out by hand: head (bit 4: a short score), rater, subject 1, score 0.5
/// in seven bytes, round 0.
fn record_with_rater(rater: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0x91];
    bytes.extend_from_slice(rater);
    bytes.push(1);
    bytes.extend_from_slice(&0.5f64.to_le_bytes()[..7]);
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
        decode(&record_with_rater(varint)),
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
    match decode(bytes) {
        Err(CodecError::BadTag { tag, .. }) => assert_eq!(tag, bytes[0]),
        other => panic!("head {:#04x} was not refused: {other:?}", bytes[0]),
    }
}

#[test]
fn reserved_head_bits_and_subject_kind_3_are_rejected() {
    // Bit 6 is the one reserved bit left; bits 4 and 5 are format 6's.
    let mut bytes = record_with_rater(&[7]);
    bytes[0] |= 0x40;
    rejected_head(&bytes);
    bytes[0] = 0x93;
    rejected_head(&bytes);
}

/// A payload has one spelling of a report: the score 0.5 in all eight
/// bytes, its `0x3F` top byte included (what a format-5 log holds, and
/// what a `ReplBatch` entry of PROTO 3 could carry), is refused, and so
/// is a round the report before it already stored.
#[test]
fn a_payload_refuses_what_its_reports_leave_out() {
    let mut eight = vec![0x81, 7, 1];
    eight.extend_from_slice(&0.5f64.to_le_bytes());
    eight.push(0);
    rejected_head(&eight);
    let expected = Feedback::scored(AgentId::new(7), ServiceId::new(1), 0.5, Time::ZERO);
    assert_eq!(
        decoded_under(&eight, CompactRules::Format5),
        Ok(vec![JournalRecord::Feedback(expected)]),
        "a format-5 frame holds it"
    );
    let two = [record_with_rater(&[7]), record_with_rater(&[8])].concat();
    let second = record_with_rater(&[7]).len();
    assert!(matches!(
        decoded(&two),
        Err(CodecError::BadTag { tag: 0x91, .. })
    ));
    assert_eq!(two[second], 0x91, "the second stores round 0 again");
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

/// What `LsnWalk::from_header` may say of any bytes: no header, a version
/// this build cannot read, or the version and start LSN the bytes state.
fn header_verdict(bytes: &[u8]) -> Result<(), TestCaseError> {
    match LsnWalk::from_header(bytes, Path::new("fuzz")) {
        Ok(None) => prop_assert!(bytes.len() < SEGMENT_HEADER_LEN || bytes[..4] != SEGMENT_MAGIC),
        Err(_) => prop_assert!(!(1..=FORMAT_VERSION).contains(&bytes[4])),
        Ok(Some(walk)) => {
            let start = u64::from_le_bytes(bytes[5..SEGMENT_HEADER_LEN].try_into().unwrap());
            prop_assert_eq!((walk.version(), walk.next_lsn()), (bytes[4], start));
        }
    }
    Ok(())
}

fn listing() -> impl Strategy<Value = Listing> {
    (id(), 0u32..5, 0u32..1000).prop_map(|(service, category, price)| Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service % 7),
        category,
        advertised: QosVector::from_pairs([(Metric::Price, f64::from(price))]),
    })
}

/// A snapshot with every report as its bit pattern (see [`bits`]).
fn snapshot_bits(snapshot: Option<Snapshot>) -> Option<(u64, Vec<Listing>, Vec<Bits>)> {
    snapshot.map(|s| (s.lsn, s.listings, s.feedback.iter().map(bits).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The segment header decoder is total over every truncation and
    /// single-byte flip of a header, and arbitrary bytes (half magic-led).
    #[test]
    fn the_segment_header_decoder_is_total(
        start in id(),
        version in 1u8..=FORMAT_VERSION,
        masks in collection::vec(1u8..=255, SEGMENT_HEADER_LEN),
        mut noise in collection::vec(0u8..=255, 0..32),
        magic in 0u8..2,
    ) {
        let header = segment_header_versioned(start, version);
        for cut in 0..=SEGMENT_HEADER_LEN {
            header_verdict(&header[..cut])?;
        }
        for (at, mask) in masks.iter().enumerate() {
            let mut flipped = header;
            flipped[at] ^= mask;
            header_verdict(&flipped)?;
        }
        if magic == 1 {
            noise.splice(..0, SEGMENT_MAGIC);
        }
        header_verdict(&noise)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A snapshot file cut anywhere, with any one byte flipped, or with a
    /// checked body holding bytes past its last report reads as none or as
    /// exactly the one written; a checked body of noise cannot panic it.
    #[test]
    fn the_snapshot_reader_returns_nothing_or_what_was_written(
        lsn in id(),
        listings in collection::vec(listing(), 0..4),
        feedback in collection::vec(feedback(), 0..6),
        masks in collection::vec(1u8..=255, 1..8),
        noise in collection::vec(0u8..=255, 1..48),
    ) {
        let dir = std::env::temp_dir().join(format!("wsrep-codec-snapshot-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = write_snapshot(&dir, lsn, &listings, &feedback).unwrap();
        let written = snapshot_bits(Some(Snapshot { lsn, listings, feedback }));
        let bytes = fs::read(&path).unwrap();
        let read = |bytes: &[u8]| {
            fs::write(&path, bytes).unwrap();
            snapshot_bits(read_snapshot(&path).unwrap())
        };
        prop_assert_eq!(&read(&bytes), &written);
        for cut in 0..bytes.len() {
            prop_assert_eq!(read(&bytes[..cut]), None, "cut at {}", cut);
        }
        for (at, mask) in masks.iter().cycle().take(bytes.len()).enumerate() {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            let got = read(&flipped);
            prop_assert!(got.is_none() || got == written, "flip at {}", at);
        }
        // The header as written, over a body whose length and checksum hold.
        let sealed = |body: &[u8]| {
            let (len, crc) = ((body.len() as u64).to_le_bytes(), crc32(body).to_le_bytes());
            [&bytes[..13], &len, &crc, body].concat()
        };
        prop_assert_eq!(read(&sealed(&[&bytes[25..], &noise].concat())), None);
        let _ = read(&sealed(&noise));
        fs::remove_dir_all(&dir).unwrap();
    }
}
