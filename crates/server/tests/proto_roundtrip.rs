//! Protocol property tests: every request/response variant survives an
//! encode→frame→split→decode round trip, and arbitrary byte garbage
//! never panics a decoder — it errors.
//!
//! The `ReplBatch` body gets the corpus treatment of the journal's own
//! decoders: every truncation, every single-byte flip and arbitrary bytes
//! of an encoded batch decode to an error or to a batch that re-encodes to
//! the same bytes.

use proptest::prelude::*;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::codec::CodecError;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::JournalRecord;
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
        // keyed and keyless v3 encodings are exercised.
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
/// a record keeps in eight bytes), the odd one with a QoS pair.
fn shipped_record() -> impl Strategy<Value = JournalRecord> {
    (0u8..8, 0u64..5_000, 0u32..=100, 0u64..1 << 20).prop_map(|(kind, id, score, round)| {
        // A cleared bit 4 would read a round of 63's one byte as a 0x3F
        // top byte: the format-5 spelling, which decodes and re-encodes
        // short (`an_eight_byte_entry_decodes`), not to its own bytes.
        let round = if round == 63 { 64 } else { round };
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

/// A batch of one entry spelled by hand: the batch head, then `entry`
/// behind its length.
fn one_entry(entry: &[u8]) -> Vec<u8> {
    let mut payload = batch_payload(7, Vec::new());
    payload.truncate(payload.len() - 4);
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&(entry.len() as u32).to_le_bytes());
    payload.extend_from_slice(entry);
    payload
}

fn shipped(payload: &[u8]) -> Result<Vec<JournalRecord>, DecodeError> {
    match Response::decode(payload)? {
        Response::ReplBatch(batch) => Ok(batch.records),
        other => panic!("not a batch: {other:?}"),
    }
}

/// An entry stands alone: no round of a record before it to leave out.
#[test]
fn an_entry_that_leaves_out_its_round_is_refused() {
    let report = Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.0, Time::new(3));
    let mut entry = JournalRecord::Feedback(report).to_bytes();
    assert_eq!(entry.pop(), Some(3), "the round closes the entry");
    entry[0] |= 0x20;
    assert_eq!(
        shipped(&one_entry(&entry)),
        Err(DecodeError::Codec(CodecError::BadTag {
            what: "feedback head",
            tag: entry[0],
        }))
    );
}

/// What a format-5 primary ships: the score in eight bytes, its top byte
/// `0x3F` included. It decodes, and this build would send it shorter.
#[test]
fn an_eight_byte_entry_decodes() {
    let mut entry = vec![0x81, 1, 2];
    entry.extend_from_slice(&0.5f64.to_le_bytes());
    entry.push(3);
    let report = JournalRecord::Feedback(Feedback::scored(
        AgentId::new(1),
        ServiceId::new(2),
        0.5,
        Time::new(3),
    ));
    assert_eq!(shipped(&one_entry(&entry)), Ok(vec![report.clone()]));
    assert_eq!(report.to_bytes().len(), entry.len() - 1);
}

/// A short score restores the top byte it left out, every other bit as
/// sent.
#[test]
fn an_entry_with_a_short_score_decodes_to_the_same_bits() {
    let score = f64::from_bits(0x3FAB_CDEF_0123_4567);
    let report = Feedback::scored(AgentId::new(1), ServiceId::new(2), score, Time::new(3));
    let entry = JournalRecord::Feedback(report.clone()).to_bytes();
    assert_ne!(entry[0] & 0x10, 0, "bit 4 is set");
    let records = shipped(&one_entry(&entry)).unwrap();
    let decoded = records[0].as_feedback().unwrap();
    assert_eq!(decoded.score.to_bits(), score.to_bits());
    assert_eq!(decoded, &report);
}
