//! In-place frame encoding equivalence.
//!
//! `Request::encode_frame` / `Response::encode_frame` reserve the frame
//! header with `begin_frame`, encode the payload directly into the
//! destination buffer, and backfill length + CRC with `end_frame` —
//! replacing the old encode-to-a-temporary-then-`write_frame` two-step.
//! That is an allocation optimization, not a format change: for every
//! message variant the bytes must be exactly what the two-step
//! produced. These tests prove it by rebuilding each frame the old way
//! (its payload re-framed through `write_frame`) and demanding byte
//! equality — including when the destination already holds earlier
//! frames, which is how the pipelined server uses it.

use proptest::prelude::*;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::frame::{split_frame, write_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::JournalRecord;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::{DurabilityPolicy, JournalHealth, ServiceStats};
use wsrep_server::{
    ErrorCode, IngestKey, ReplBatch, ReplRole, ReplWatermark, ReplicationStats, Request, Response,
    ServerStats, WireRanked, WireStats,
};
use wsrep_sim::registry::{Listing, PublishStatus};

/// Re-frame `frame`'s payload through the pre-PR-9 path (`write_frame`
/// over an already-encoded payload) and demand byte equality, for a
/// frame that was appended after `prefix_len` bytes of earlier traffic.
fn assert_matches_two_step(frame: &[u8], prefix_len: usize, what: &str) {
    let body = &frame[prefix_len..];
    assert!(
        body.len() >= FRAME_HEADER_LEN,
        "{what}: frame shorter than its header"
    );
    let mut rebuilt = frame[..prefix_len].to_vec();
    write_frame(&mut rebuilt, &body[FRAME_HEADER_LEN..]);
    assert_eq!(
        rebuilt, frame,
        "{what}: in-place encode diverged from write_frame"
    );

    // And the frame the in-place path emitted must still split cleanly.
    let FrameSplit::Frame { frame_len } = split_frame(body) else {
        panic!("{what}: in-place frame does not split");
    };
    assert_eq!(frame_len, body.len(), "{what}: one message, one frame");
}

fn check_request(request: &Request) {
    // Fresh buffer, and a buffer already carrying pipelined bytes.
    for prefix in [&b""[..], &b"\xAA\xBB\xCC"[..]] {
        let mut frame = prefix.to_vec();
        request.encode_frame(&mut frame);
        assert_matches_two_step(&frame, prefix.len(), &format!("{request:?}"));
    }
}

fn check_response(response: &Response) {
    for prefix in [&b""[..], &b"\xAA\xBB\xCC"[..]] {
        let mut frame = prefix.to_vec();
        response.encode_frame(&mut frame);
        assert_matches_two_step(&frame, prefix.len(), &format!("{response:?}"));
    }
}

fn sample_listing() -> Listing {
    Listing {
        service: ServiceId::new(4),
        provider: ProviderId::new(5),
        category: 6,
        advertised: QosVector::from_pairs([(Metric::Accuracy, 0.9), (Metric::Price, 12.5)]),
    }
}

fn sample_feedback() -> Vec<Feedback> {
    vec![
        Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.75, Time::new(3))
            .with_observed(QosVector::from_pairs([(Metric::Latency, 40.0)]))
            .with_facet(Metric::Latency, 0.6),
        Feedback::scored(AgentId::new(4), ProviderId::new(5), 0.25, Time::new(6)),
    ]
}

fn sample_stats() -> WireStats {
    WireStats {
        service: ServiceStats {
            shards: 8,
            listings: 64,
            feedback: 1000,
            submitted: 1001,
            topk_plan_hits: 3,
            topk_plan_misses: 4,
            preranked_hits: 5,
            preranked_misses: 6,
            snapshot_swaps: 7,
            scratch_reuse: 8,
            incremental: true,
            journal: Some(JournalHealth {
                segments: 1,
                bytes_appended: 2,
                last_fsync_nanos: 3,
                commits: 4,
                durable_lsn: 99,
                records_recovered: 5,
                writer_groups: 4,
                journal_errors: 6,
                policy: DurabilityPolicy::Degrade,
                degraded: false,
                fenced: false,
            }),
        },
        server: ServerStats {
            connections_opened: 3,
            connections_closed: 1,
            requests: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            reports_ingested: 100,
            malformed_frames: 1,
            protocol_errors: 2,
            slow_client_closes: 3,
            bytes_in: 4,
            bytes_out: 5,
        },
        replication: Some(ReplicationStats {
            role: ReplRole::Primary,
            local_durable_lsn: 99,
            remote_durable_lsn: 90,
            lag: 9,
            replicas: 2,
            connected: true,
        }),
    }
}

/// The exhaustive sweep: every request variant (keyed and keyless
/// ingest included), against the two-step reference.
#[test]
fn every_request_variant_encodes_identically_in_place() {
    let requests = [
        Request::Ping,
        Request::Publish(sample_listing()),
        Request::Deregister(ServiceId::new(7)),
        Request::Ingest {
            batch: sample_feedback(),
            key: None,
        },
        Request::Ingest {
            batch: sample_feedback(),
            key: Some(IngestKey {
                producer: 0xFEED,
                seq: 41,
            }),
        },
        Request::Score(ServiceId::new(9).into()),
        Request::TopK {
            category: 3,
            prefs: Preferences::uniform([Metric::Price, Metric::Accuracy]),
            k: 10,
        },
        Request::Stats,
        Request::Flush,
        Request::Shutdown,
        Request::ReplPull {
            from_lsn: 42,
            max_records: 512,
        },
        Request::ReplHeartbeat {
            replica: 7,
            durable_lsn: 41,
        },
    ];
    for request in &requests {
        check_request(request);
    }
}

/// Every response variant — including the deep stats and replication
/// payloads.
#[test]
fn every_response_variant_encodes_identically_in_place() {
    let responses = [
        Response::Pong,
        Response::Published(PublishStatus::Created),
        Response::Published(PublishStatus::Updated),
        Response::Deregistered(true),
        Response::Ingested(128),
        Response::Scored(None),
        Response::Scored(Some(TrustEstimate::new(0.75, 0.5))),
        Response::TopKResult(vec![
            WireRanked {
                service: 1,
                provider: 2,
                qos_score: 0.5,
                reputation: Some(TrustEstimate::new(0.9, 0.8)),
                score: 0.7,
            },
            WireRanked {
                service: 3,
                provider: 4,
                qos_score: 0.25,
                reputation: None,
                score: 0.25,
            },
        ]),
        Response::StatsResult(Box::new(sample_stats())),
        Response::Flushed,
        Response::ShuttingDown,
        Response::ReplBatch(ReplBatch {
            first_lsn: 17,
            records: vec![
                JournalRecord::Feedback(Feedback::scored(
                    AgentId::new(1),
                    ServiceId::new(2),
                    0.75,
                    Time::new(3),
                )),
                JournalRecord::Publish(sample_listing()),
                JournalRecord::Deregister(ServiceId::new(4)),
            ],
            durable_lsn: 20,
        }),
        Response::ReplBatch(ReplBatch {
            first_lsn: 0,
            records: Vec::new(),
            durable_lsn: 0,
        }),
        Response::ReplWatermark(ReplWatermark {
            durable_lsn: 20,
            replicas: 2,
            min_replica_lsn: 17,
        }),
        Response::Error {
            code: ErrorCode::BadRequest,
            message: "corrupt frame (bad length or checksum)".to_string(),
        },
        Response::Error {
            code: ErrorCode::NotDurable,
            message: "journal fenced".to_string(),
        },
    ];
    for response in &responses {
        check_response(response);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz the data-carrying variants: arbitrary batch shapes, QoS
    /// vectors, and strings push the in-place encoder through every
    /// length-prefix and backfill path.
    #[test]
    fn fuzzed_messages_encode_identically_in_place(
        seeds in proptest::collection::vec(
            (0u64..1_000, 0u64..1_000, 0.0f64..1.0, 0u64..10_000),
            0..12,
        ),
        pairs in proptest::collection::vec((0u8..30, 0.0f64..100.0), 0..6),
        keyed in 0u8..2,
        message_bytes in proptest::collection::vec(32u8..127, 0..40),
    ) {
        let keyed = keyed == 1;
        let message = String::from_utf8(message_bytes).expect("printable ascii");
        let qos = QosVector::from_pairs(
            pairs.iter().map(|&(m, v)| (Metric::AppSpecific(m), v)),
        );
        let batch: Vec<Feedback> = seeds
            .iter()
            .map(|&(rater, raw, score, at)| {
                Feedback::scored(AgentId::new(rater), ServiceId::new(raw), score, Time::new(at))
                    .with_observed(qos.clone())
            })
            .collect();
        let key = keyed.then_some(IngestKey { producer: 7, seq: 9 });
        check_request(&Request::Ingest { batch: batch.clone(), key });

        let ranked: Vec<WireRanked> = seeds
            .iter()
            .map(|&(service, provider, score, _)| WireRanked {
                service,
                provider,
                qos_score: score,
                reputation: keyed.then(|| TrustEstimate::new(score, score)),
                score,
            })
            .collect();
        check_response(&Response::TopKResult(ranked));

        let records: Vec<JournalRecord> = batch.into_iter().map(JournalRecord::Feedback).collect();
        check_response(&Response::ReplBatch(ReplBatch {
            first_lsn: 5,
            records,
            durable_lsn: 40,
        }));

        check_response(&Response::Error {
            code: ErrorCode::ShuttingDown,
            message,
        });
    }
}
