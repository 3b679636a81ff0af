//! Protocol property tests: every request/response variant survives an
//! encode→frame→split→decode round trip, and arbitrary byte garbage
//! never panics a decoder — it errors.
//!
//! The `ReplBatch` body gets the corpus treatment of the journal's own
//! decoders: every truncation, every single-byte flip and arbitrary bytes
//! of an encoded batch decode to an error or to a batch that re-encodes to
//! the same bytes.
//!
//! PROTO 4 carries records as a WAL commit does, and the bytes are
//! pinned: an `Ingest` of benchmark-shaped reports costs what the log
//! does, a `ReplBatch` of one commit carries that commit's frame payload,
//! and `tests/data/proto_v4.hex` holds both bodies (append-only).

use proptest::prelude::*;
use std::fmt::Write as _;
use std::fs;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::codec::CodecError;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::record::put_payload;
use wsrep_journal::segment::{group_dir_name, list_segments, SEGMENT_HEADER_LEN};
use wsrep_journal::{GroupSet, JournalConfig, JournalRecord};
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_server::proto::DecodeError;
use wsrep_server::{ErrorCode, IngestKey, ReplBatch, Request, Response, WireRanked};
use wsrep_sim::registry::{Listing, PublishStatus};

/// Deterministically build a metric from an index (covers every standard
/// metric plus app-specific ones).
fn metric(index: u8) -> Metric {
    let standard = Metric::ALL_STANDARD;
    if (index as usize) < standard.len() {
        standard[index as usize]
    } else {
        Metric::AppSpecific(index)
    }
}

fn subject(kind: u8, raw: u64) -> SubjectId {
    match kind % 3 {
        0 => AgentId::new(raw).into(),
        1 => ServiceId::new(raw).into(),
        _ => ProviderId::new(raw).into(),
    }
}

fn qos_vector(pairs: &[(u8, f64)]) -> QosVector {
    QosVector::from_pairs(pairs.iter().map(|&(m, v)| (metric(m), v)))
}

fn feedback(seed: (u64, u8, u64, f64, u64), pairs: &[(u8, f64)]) -> Feedback {
    let (rater, kind, raw, score, at) = seed;
    let mut fb = Feedback::scored(
        AgentId::new(rater),
        subject(kind, raw),
        score,
        Time::new(at),
    )
    .with_observed(qos_vector(pairs));
    for &(m, v) in pairs {
        fb = fb.with_facet(metric(m), v);
    }
    fb
}

fn listing(seed: (u64, u64, u32), pairs: &[(u8, f64)]) -> Listing {
    Listing {
        service: ServiceId::new(seed.0),
        provider: ProviderId::new(seed.1),
        category: seed.2,
        advertised: qos_vector(pairs),
    }
}

fn roundtrip_request(request: &Request) -> Request {
    let mut buf = Vec::new();
    request.encode_frame(&mut buf);
    let FrameSplit::Frame { frame_len } = split_frame(&buf) else {
        panic!("encoded request frame must split cleanly");
    };
    assert_eq!(frame_len, buf.len(), "one request, one frame");
    Request::decode(&buf[FRAME_HEADER_LEN..frame_len]).expect("round trip decodes")
}

fn roundtrip_response(response: &Response) -> Response {
    let mut buf = Vec::new();
    response.encode_frame(&mut buf);
    let FrameSplit::Frame { frame_len } = split_frame(&buf) else {
        panic!("encoded response frame must split cleanly");
    };
    Response::decode(&buf[FRAME_HEADER_LEN..frame_len]).expect("round trip decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_ingest_batch_round_trips(
        seeds in proptest::collection::vec(
            (0u64..1_000, 0u8..3, 0u64..1_000, 0.0f64..1.0, 0u64..10_000),
            0..20,
        ),
        pairs in proptest::collection::vec((0u8..30, 0.0f64..100.0), 0..6),
    ) {
        let batch: Vec<Feedback> = seeds.iter().map(|&s| feedback(s, &pairs)).collect();
        // Roughly half the cases carry an idempotency key, so both the
        // keyed and keyless encodings are exercised.
        let key = seeds.first().filter(|s| s.0 % 2 == 1).map(|s| IngestKey {
            producer: s.0.wrapping_mul(0x9E37),
            seq: s.2,
        });
        let request = Request::Ingest { batch, key };
        prop_assert_eq!(roundtrip_request(&request), request);
    }

    #[test]
    fn publish_deregister_score_round_trip(
        listing_seed in (0u64..1_000, 0u64..100, 0u32..16),
        pairs in proptest::collection::vec((0u8..30, 0.0f64..100.0), 0..6),
        kind in 0u8..3,
        raw in 0u64..1_000_000,
    ) {
        let publish = Request::Publish(listing(listing_seed, &pairs));
        prop_assert_eq!(roundtrip_request(&publish), publish);
        let deregister = Request::Deregister(ServiceId::new(raw));
        prop_assert_eq!(roundtrip_request(&deregister), deregister);
        let score = Request::Score(subject(kind, raw));
        prop_assert_eq!(roundtrip_request(&score), score);
    }

    #[test]
    fn top_k_round_trips_with_arbitrary_preferences(
        category in 0u32..64,
        k in 0u32..1_000,
        weights in proptest::collection::vec((0u8..30, 0.01f64..10.0), 0..8),
    ) {
        // Dedupe metrics first: `from_weights` keeps the last duplicate but
        // sums all of them into the normalizer, so duplicate inputs yield
        // weights that don't sum to 1 — the wire codec faithfully carries
        // the normalized form either way.
        let deduped: std::collections::BTreeMap<Metric, f64> =
            weights.iter().map(|&(m, w)| (metric(m), w)).collect();
        let prefs = Preferences::from_weights(deduped);
        let request = Request::TopK { category, prefs: prefs.clone(), k };
        let Request::TopK { category: c2, prefs: p2, k: k2 } = roundtrip_request(&request)
        else {
            return Err(TestCaseError::fail("variant changed".to_string()));
        };
        prop_assert_eq!(c2, category);
        prop_assert_eq!(k2, k);
        // from_weights renormalizes; compare weights numerically.
        let metrics: Vec<Metric> = prefs.metrics().collect();
        let metrics2: Vec<Metric> = p2.metrics().collect();
        prop_assert_eq!(metrics.clone(), metrics2);
        for m in metrics {
            prop_assert!((prefs.weight(m) - p2.weight(m)).abs() < 1e-12);
        }
    }

    #[test]
    fn scored_and_ranked_responses_round_trip(
        value in 0.0f64..1.0,
        confidence in 0.0f64..1.0,
        ranked_seeds in proptest::collection::vec(
            (0u64..1_000, 0u64..100, 0.0f64..1.0, 0.0f64..1.0, 0u8..2),
            0..12,
        ),
    ) {
        let scored = Response::Scored(Some(TrustEstimate::new(value, confidence)));
        prop_assert_eq!(roundtrip_response(&scored), scored);
        prop_assert_eq!(
            roundtrip_response(&Response::Scored(None)),
            Response::Scored(None)
        );
        let ranked: Vec<WireRanked> = ranked_seeds
            .iter()
            .map(|&(service, provider, qos_score, score, with_rep)| WireRanked {
                service,
                provider,
                qos_score,
                reputation: (with_rep == 1)
                    .then(|| TrustEstimate::new(score, qos_score)),
                score,
            })
            .collect();
        let response = Response::TopKResult(ranked);
        prop_assert_eq!(roundtrip_response(&response), response);
    }

    #[test]
    fn scalar_messages_round_trip(count in 0u64..1_000_000, found in 0u8..2) {
        for request in [Request::Ping, Request::Stats, Request::Flush, Request::Shutdown] {
            prop_assert_eq!(roundtrip_request(&request), request);
        }
        for response in [
            Response::Pong,
            Response::Flushed,
            Response::ShuttingDown,
            Response::Published(PublishStatus::Created),
            Response::Published(PublishStatus::Updated),
            Response::Deregistered(found == 1),
            Response::Ingested(count),
            Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("fuzz {count}"),
            },
        ] {
            prop_assert_eq!(roundtrip_response(&response), response);
        }
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoders(
        bytes in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        // Any byte soup: decoding may fail, must never panic.
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = split_frame(&bytes);
    }

    #[test]
    fn truncated_valid_frames_never_decode_as_complete(
        seeds in proptest::collection::vec(
            (0u64..1_000, 0u8..3, 0u64..1_000, 0.0f64..1.0, 0u64..10_000),
            1..5,
        ),
        cut_fraction in 0.0f64..1.0,
    ) {
        let batch: Vec<Feedback> = seeds.iter().map(|&s| feedback(s, &[])).collect();
        let mut buf = Vec::new();
        Request::Ingest { batch, key: None }.encode_frame(&mut buf);
        let cut = ((buf.len() - 1) as f64 * cut_fraction) as usize;
        // A strict prefix either waits for more bytes or (if the cut
        // mangles nothing yet) still refuses to produce a frame.
        prop_assert_eq!(split_frame(&buf[..cut]), FrameSplit::Incomplete);
    }
}

/// A shipped record: mostly reports, scored in [0, 1] (0 is the one score
/// a record keeps in eight bytes), the odd one with a QoS pair, rounds
/// often shared with the report before.
fn shipped_record() -> impl Strategy<Value = JournalRecord> {
    (0u8..8, 0u64..5_000, 0u32..=100, 0u64..1 << 20).prop_map(|(kind, id, score, round)| {
        let round = if round % 2 == 0 { 7 } else { round };
        let report = Feedback::scored(
            AgentId::new(id),
            ServiceId::new(id % 7),
            f64::from(score) / 100.0,
            Time::new(round),
        );
        match kind {
            0 => JournalRecord::Publish(listing((id, id % 3, score), &[(0, 1.5)])),
            1 => JournalRecord::Deregister(ServiceId::new(id)),
            2 => JournalRecord::Feedback(report.with_facet(Metric::Accuracy, 0.25)),
            _ => JournalRecord::Feedback(report),
        }
    })
}

/// A `ReplBatch` response's payload.
fn batch_payload(first_lsn: u64, records: Vec<JournalRecord>) -> Vec<u8> {
    let durable_lsn = first_lsn + records.len() as u64;
    let mut buf = Vec::new();
    Response::ReplBatch(ReplBatch {
        first_lsn,
        records,
        durable_lsn,
    })
    .encode_frame(&mut buf);
    buf.split_off(FRAME_HEADER_LEN)
}

/// `payload` decodes to an error, or to a response that re-encodes to it.
fn err_or_same_bytes(payload: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(response) = Response::decode(payload) {
        let mut again = Vec::new();
        response.encode_frame(&mut again);
        prop_assert_eq!(&again[FRAME_HEADER_LEN..], payload);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_repl_batch_decoder_is_total(
        first_lsn in 0u64..1 << 40,
        records in proptest::collection::vec(shipped_record(), 0..6),
        masks in proptest::collection::vec(1u8..=255, 1..8),
        noise in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let payload = batch_payload(first_lsn, records);
        err_or_same_bytes(&payload)?;
        prop_assert!(Response::decode(&payload).is_ok());
        for cut in 0..payload.len() {
            err_or_same_bytes(&payload[..cut])?;
        }
        for (at, mask) in masks.iter().cycle().take(payload.len()).enumerate() {
            let mut flipped = payload.clone();
            flipped[at] ^= mask;
            err_or_same_bytes(&flipped)?;
        }
        // Noise behind a batch head that promises a record or more.
        let head = batch_payload(first_lsn, Vec::new());
        let mut soup = head[..head.len() - 4].to_vec();
        soup.extend_from_slice(&(noise.len() as u32 % 3 + 1).to_le_bytes());
        soup.extend_from_slice(&noise);
        err_or_same_bytes(&soup)?;
        err_or_same_bytes(&noise)?;
    }
}

/// A batch of one record spelled by hand: the batch head, a count of
/// one, then `record`.
fn one_record(record: &[u8]) -> Vec<u8> {
    let mut payload = batch_payload(7, Vec::new());
    payload.truncate(payload.len() - 4);
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(record);
    payload
}

fn shipped(payload: &[u8]) -> Result<Vec<JournalRecord>, DecodeError> {
    match Response::decode(payload)? {
        Response::ReplBatch(batch) => Ok(batch.records),
        other => panic!("not a batch: {other:?}"),
    }
}

/// `records` as one commit payload.
fn payload_of(records: &[JournalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    put_payload(&mut out, &mut records.iter(), usize::MAX);
    out
}

/// A batch's first report stores its round: there is none before it to
/// leave out.
#[test]
fn a_first_report_that_leaves_out_its_round_is_refused() {
    let report = Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.0, Time::new(3));
    let mut record = payload_of(&[JournalRecord::Feedback(report)]);
    assert_eq!(record.pop(), Some(3), "the round closes the record");
    record[0] |= 0x20;
    assert_eq!(
        shipped(&one_record(&record)),
        Err(DecodeError::Codec(CodecError::BadTag {
            what: "feedback head",
            tag: record[0],
        }))
    );
}

/// A batch carries one spelling of a report, the one the WAL writes. A
/// PROTO 3 entry could hold a score's `0x3F` top byte in all eight
/// bytes, as a format-5 primary sent it; a PROTO 4 payload refuses it.
#[test]
fn an_eight_byte_score_with_a_0x3f_top_byte_is_refused() {
    let mut record = vec![0x81, 1, 2];
    record.extend_from_slice(&0.5f64.to_le_bytes());
    record.push(3);
    assert_eq!(
        shipped(&one_record(&record)),
        Err(DecodeError::Codec(CodecError::BadTag {
            what: "feedback head",
            tag: 0x81,
        }))
    );
    // Seven bytes and bit 4 is how it goes.
    let report = JournalRecord::Feedback(Feedback::scored(
        AgentId::new(1),
        ServiceId::new(2),
        0.5,
        Time::new(3),
    ));
    let short = payload_of(std::slice::from_ref(&report));
    assert_eq!((short[0], short.len()), (0x91, record.len() - 1));
    assert_eq!(shipped(&one_record(&short)), Ok(vec![report]));
}

/// A short score restores the top byte it left out, every other bit as
/// sent.
#[test]
fn a_record_with_a_short_score_decodes_to_the_same_bits() {
    let score = f64::from_bits(0x3FAB_CDEF_0123_4567);
    let report = Feedback::scored(AgentId::new(1), ServiceId::new(2), score, Time::new(3));
    let record = payload_of(&[JournalRecord::Feedback(report.clone())]);
    assert_ne!(record[0] & 0x10, 0, "bit 4 is set");
    let records = shipped(&one_record(&record)).unwrap();
    let decoded = records[0].as_feedback().unwrap();
    assert_eq!(decoded.score.to_bits(), score.to_bits());
    assert_eq!(decoded, &report);
}

/// A count promising more records than the bytes behind it can hold is
/// refused before anything is sized by it, and a payload holding another
/// number of records than its count is refused too.
#[test]
fn a_count_the_payload_cannot_hold_is_refused() {
    let report = JournalRecord::Feedback(Feedback::scored(
        AgentId::new(1),
        ServiceId::new(2),
        0.5,
        Time::new(3),
    ));
    let record = payload_of(std::slice::from_ref(&report));
    for count in [u32::MAX, 2, 0] {
        let mut payload = one_record(&record);
        let at = payload.len() - record.len() - 4;
        payload[at..at + 4].copy_from_slice(&count.to_le_bytes());
        assert_eq!(
            shipped(&payload),
            Err(DecodeError::Codec(CodecError::BadCount)),
            "count {count}"
        );
    }
    let mut ingest = Vec::new();
    Request::Ingest {
        batch: vec![report.as_feedback().unwrap().clone()],
        key: None,
    }
    .encode_frame(&mut ingest);
    let mut ingest = ingest.split_off(FRAME_HEADER_LEN);
    ingest[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        Request::decode(&ingest),
        Err(DecodeError::Codec(CodecError::BadCount))
    );
}

/// An `Ingest` carries reports: a listing in its payload does not decode
/// (the server answers it `BadRequest`, see `tests/wire.rs`).
#[test]
fn an_ingest_payload_holding_a_publish_record_does_not_decode() {
    let listing = listing((4, 5, 6), &[(0, 1.5)]);
    let mut payload = vec![wsrep_server::proto::PROTO_VERSION, 0x04, 0];
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&payload_of(&[JournalRecord::Publish(listing)]));
    assert!(matches!(
        Request::decode(&payload),
        Err(DecodeError::Codec(CodecError::BadTag { .. }))
    ));
}

/// A report as the benchmark sends them: raters and services in the low
/// thousands, scores in [0, 1), one round for the batch.
fn benchmark_report(i: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(16_383 - i % 2_000),
        ServiceId::new(16_383 - i % 4_000),
        (i * 7_919 % 10_000) as f64 / 10_000.0,
        Time::new(3),
    )
}

/// An `Ingest` frame of 64 benchmark-shaped reports costs what the WAL
/// spends on them: at most 16 B a report, frame header, version, opcode,
/// key and count included. The fixed-width body of PROTO 3 cost ~41.
#[test]
fn an_ingest_of_benchmark_reports_costs_at_most_16_bytes_a_report() {
    let batch: Vec<Feedback> = (0..64).map(benchmark_report).collect();
    let mut frame = Vec::new();
    let key = Some(IngestKey {
        producer: 1,
        seq: 1,
    });
    Request::Ingest { batch, key }.encode_frame(&mut frame);
    assert!(
        frame.len() <= 16 * 64,
        "{} bytes for 64 reports",
        frame.len()
    );
}

/// Item 7's "bytes on the wire == bytes on disk", one commit at a time: a
/// `ReplBatch` holding exactly one commit's records ends in that commit's
/// WAL frame payload, byte for byte.
#[test]
fn a_repl_batch_of_one_commit_carries_its_frame_payload() {
    let dir = std::env::temp_dir().join(format!("wsrep-proto-one-commit-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let set = GroupSet::open(&dir, 1, JournalConfig::default(), 0).unwrap();
    let mut records: Vec<JournalRecord> = (0..40)
        .map(|i| JournalRecord::Feedback(benchmark_report(i)))
        .collect();
    records.insert(7, JournalRecord::Publish(listing((4, 5, 6), &[(0, 1.5)])));
    records.insert(20, JournalRecord::Deregister(ServiceId::new(4)));
    set.append_batch(0, &records).unwrap();
    drop(set);
    let (_, path) = list_segments(&dir.join(group_dir_name(0)))
        .unwrap()
        .pop()
        .unwrap();
    let segment = fs::read(&path).unwrap();
    let frame = &segment[SEGMENT_HEADER_LEN..];
    assert_eq!(
        split_frame(frame),
        FrameSplit::Frame {
            frame_len: frame.len()
        }
    );
    let on_disk = &frame[FRAME_HEADER_LEN..];

    let on_wire = batch_payload(0, records.clone());
    assert!(
        on_wire.ends_with(on_disk),
        "the commit's payload, byte for byte"
    );
    // What precedes it: version, opcode, two LSNs and the count.
    assert_eq!(on_wire.len(), on_disk.len() + 1 + 1 + 8 + 8 + 4);
    assert_eq!(shipped(&on_wire), Ok(records));
    fs::remove_dir_all(&dir).unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut out, b| {
        write!(out, "{b:02x}").unwrap();
        out
    })
}

/// The golden PROTO 4 bodies: an `Ingest` with its key and an unkeyed
/// one, and a `ReplBatch` of every record kind with the round carried.
fn golden_messages() -> Vec<(&'static str, Vec<u8>)> {
    let report = |rater, round| {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(42),
            0.75,
            Time::new(round),
        )
        .with_observed(QosVector::from_pairs([(Metric::ResponseTime, 250.0)]))
    };
    let batch = vec![report(1, 9), report(300, 9), report(2, 10)];
    let mut records: Vec<JournalRecord> =
        batch.iter().cloned().map(JournalRecord::Feedback).collect();
    records.insert(
        1,
        JournalRecord::Publish(listing((7, 3, 0xDEAD), &[(21, 9.99)])),
    );
    records.push(JournalRecord::Deregister(ServiceId::new(7)));
    let request = |request: Request| {
        let mut frame = Vec::new();
        request.encode_frame(&mut frame);
        frame.split_off(FRAME_HEADER_LEN)
    };
    let keyed = Request::Ingest {
        batch: batch.clone(),
        key: Some(IngestKey {
            producer: 0xFEED,
            seq: 41,
        }),
    };
    vec![
        ("ingest_keyed", request(keyed)),
        ("ingest", request(Request::Ingest { batch, key: None })),
        ("repl_batch", batch_payload(0x1122_3344, records)),
    ]
}

/// The golden file pins the PROTO 4 bodies (frame payloads, version byte
/// first). It is append-only: a later version adds lines and edits none.
/// (Deliberate, version-bumped regeneration:
/// `WSREP_UPDATE_GOLDEN=1 cargo test -p wsrep-server --test proto_roundtrip`.)
#[test]
fn proto_v4_bodies_are_pinned() {
    let mut rendered =
        String::from("# wsrep wire protocol v4 — golden frame payloads, do not edit\n");
    for (name, payload) in golden_messages() {
        writeln!(rendered, "{name} {}", hex(&payload)).unwrap();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/proto_v4.hex");
    if std::env::var_os("WSREP_UPDATE_GOLDEN").is_some() {
        fs::write(path, &rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered,
        include_str!("data/proto_v4.hex"),
        "the v4 wire drifted"
    );
    // The reverse direction: the pinned bytes decode to the messages.
    for (line, (name, payload)) in include_str!("data/proto_v4.hex")
        .lines()
        .skip(1)
        .zip(golden_messages())
    {
        let bytes: Vec<u8> = (0..line.len() - name.len() - 1)
            .step_by(2)
            .map(|j| u8::from_str_radix(&line[name.len() + 1 + j..][..2], 16).unwrap())
            .collect();
        assert_eq!(bytes, payload, "{name}");
        let decoded_again = match name {
            "repl_batch" => {
                let mut frame = Vec::new();
                Response::decode(&bytes).unwrap().encode_frame(&mut frame);
                frame.split_off(FRAME_HEADER_LEN)
            }
            _ => {
                let mut frame = Vec::new();
                Request::decode(&bytes).unwrap().encode_frame(&mut frame);
                frame.split_off(FRAME_HEADER_LEN)
            }
        };
        assert_eq!(decoded_again, bytes, "{name}");
    }
}

/// A PROTO 3 payload is another version, refused as one.
#[test]
fn a_v3_payload_gets_bad_version() {
    for (name, mut payload) in golden_messages() {
        payload[0] = 3;
        let refused = match name {
            "repl_batch" => Response::decode(&payload).err(),
            _ => Request::decode(&payload).err(),
        };
        assert_eq!(refused, Some(DecodeError::BadVersion(3)), "{name}");
    }
}
