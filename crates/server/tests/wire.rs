//! End-to-end wire tests: a real `Server` on a loopback socket, driven
//! by `Client` connections — publish/ingest/score/top_k round trips,
//! pipelining order, malformed-frame handling, backpressure eviction,
//! and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_journal::frame::write_frame;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_server::{Client, ErrorCode, Request, Response, Server, ServerConfig, PROTO_VERSION};
use wsrep_sim::registry::{Listing, PublishStatus};

fn start_server(config: ServerConfig) -> (Server, Arc<ReputationService>) {
    let service = Arc::new(ReputationService::builder().shards(4).build());
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    (server, service)
}

fn listing(service: u64, category: u32, price: f64) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service),
        category,
        advertised: QosVector::from_pairs([(Metric::Price, price), (Metric::Accuracy, 0.8)]),
    }
}

fn feedback(rater: u64, service: u64, score: f64, at: u64) -> Feedback {
    Feedback::scored(
        AgentId::new(rater),
        ServiceId::new(service),
        score,
        Time::new(at),
    )
}

#[test]
fn full_request_vocabulary_round_trips_over_tcp() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.ping().expect("ping");
    assert_eq!(
        client.publish(listing(1, 0, 2.0)).expect("publish"),
        PublishStatus::Created
    );
    assert_eq!(
        client.publish(listing(1, 0, 3.0)).expect("republish"),
        PublishStatus::Updated
    );
    client.publish(listing(2, 0, 4.0)).expect("publish 2");

    let accepted = client
        .ingest((0..40).map(|i| feedback(i, 1, 0.9, i)).collect())
        .expect("ingest");
    assert_eq!(accepted, 40);
    client.flush().expect("flush");

    let subject: SubjectId = ServiceId::new(1).into();
    let estimate = client.score(subject).expect("score").expect("evidence");
    assert!(estimate.value.get() > 0.5, "40 positive reports");
    assert_eq!(client.score(ServiceId::new(99).into()).unwrap(), None);

    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    let top = client.top_k(0, &prefs, 10).expect("top_k");
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].service, 1, "reputation breaks the tie");
    assert!(top[0].score >= top[1].score);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.service.feedback, 40);
    assert_eq!(stats.service.listings, 2);
    assert!(stats.server.total_requests() >= 8);
    assert_eq!(stats.server.reports_ingested, 40);
    assert_eq!(stats.server.connections_opened, 1);
    assert!(stats.server.bytes_in > 0 && stats.server.bytes_out > 0);

    assert!(client.deregister(ServiceId::new(2)).expect("deregister"));
    assert!(!client.deregister(ServiceId::new(2)).expect("again"));

    server.shutdown();
    server.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut setup = Client::connect(server.local_addr()).expect("connect");
    setup.publish(listing(7, 3, 1.0)).expect("publish");
    setup
        .ingest((0..25).map(|i| feedback(i, 7, 0.8, i)).collect())
        .expect("ingest");
    setup.flush().expect("flush");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Queue a deep, heterogeneous pipeline in one write.
    let n = 200u64;
    for i in 0..n {
        if i % 3 == 0 {
            client.queue(&Request::Ping);
        } else if i % 3 == 1 {
            client.queue(&Request::Score(ServiceId::new(7).into()));
        } else {
            client.queue(&Request::Score(ServiceId::new(1_000 + i).into()));
        }
    }
    client.flush_queued().expect("flush_queued");
    assert_eq!(client.in_flight(), n as usize);
    for i in 0..n {
        let response = client.recv().expect("recv");
        match (i % 3, response) {
            (0, Response::Pong) => {}
            (1, Response::Scored(Some(estimate))) => {
                assert!(estimate.value.get() > 0.5);
            }
            (2, Response::Scored(None)) => {}
            (slot, other) => panic!("request {i} (kind {slot}) got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);
    server.shutdown();
    server.join();
}

#[test]
fn corrupt_frame_gets_an_error_and_a_clean_close_without_hurting_others() {
    let (server, _service) = start_server(ServerConfig::default());
    let addr = server.local_addr();

    // A healthy connection that must survive the vandalism.
    let mut healthy = Client::connect(addr).expect("connect healthy");
    healthy.ping().expect("healthy ping");

    // Hand-craft a frame with a valid length but a wrong checksum.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let mut frame = Vec::new();
    write_frame(&mut frame, &[PROTO_VERSION, 0x01]); // a valid Ping frame…
    let crc_byte = frame.len() - 3; // …then flip a payload byte so the CRC lies
    frame[crc_byte] ^= 0xFF;
    raw.write_all(&frame).expect("write corrupt frame");

    // The server answers one final protocol error, then closes.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until close");
    let split = wsrep_journal::frame::split_frame(&reply);
    let wsrep_journal::frame::FrameSplit::Frame { frame_len } = split else {
        panic!(
            "expected one error frame, got {split:?} ({} bytes)",
            reply.len()
        );
    };
    let response =
        Response::decode(&reply[wsrep_journal::frame::FRAME_HEADER_LEN..frame_len]).unwrap();
    assert!(
        matches!(
            response,
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "got {response:?}"
    );

    // The healthy connection and fresh connections still work.
    healthy.ping().expect("healthy ping after corruption");
    let mut fresh = Client::connect(addr).expect("connect fresh");
    fresh.ping().expect("fresh ping");
    assert_eq!(fresh.stats().expect("stats").server.malformed_frames, 1);

    server.shutdown();
    server.join();
}

#[test]
fn truncated_frame_then_close_is_handled_without_panic() {
    let (server, _service) = start_server(ServerConfig::default());
    let addr = server.local_addr();

    {
        // Write half a frame and hang up.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        let mut frame = Vec::new();
        write_frame(&mut frame, &[PROTO_VERSION, 0x01]);
        raw.write_all(&frame[..frame.len() / 2])
            .expect("write half");
    } // dropped: the peer closed mid-frame

    // The server shrugs it off; new connections serve fine.
    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("ping after truncated peer");

    server.shutdown();
    server.join();
}

#[test]
fn undecodable_payload_keeps_the_connection_alive() {
    let (server, _service) = start_server(ServerConfig::default());

    // A well-framed payload with an unknown opcode: framing is sound, so
    // the server reports the error and keeps serving this connection.
    let mut raw_frame = Vec::new();
    write_frame(&mut raw_frame, &[PROTO_VERSION, 0x6F]);
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_nodelay(true).unwrap();
    raw.write_all(&raw_frame).expect("write unknown opcode");
    // Follow with a valid ping on the SAME connection.
    let mut ping = Vec::new();
    Request::Ping.encode_frame(&mut ping);
    raw.write_all(&ping).expect("write ping");

    // Read two frames: an error, then a pong.
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut frames = Vec::new();
    raw.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    while frames.len() < 2 && std::time::Instant::now() < deadline {
        match raw.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                bytes.extend_from_slice(&chunk[..n]);
                while let wsrep_journal::frame::FrameSplit::Frame { frame_len } =
                    wsrep_journal::frame::split_frame(&bytes)
                {
                    let payload = &bytes[wsrep_journal::frame::FRAME_HEADER_LEN..frame_len];
                    frames.push(Response::decode(payload).expect("decodes"));
                    bytes.drain(..frame_len);
                }
            }
            Err(_) => {}
        }
    }
    assert_eq!(frames.len(), 2, "error then pong");
    assert!(
        matches!(
            &frames[0],
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ),
        "got {:?}",
        frames[0]
    );
    assert_eq!(frames[1], Response::Pong);

    server.shutdown();
    server.join();
}

#[test]
fn wrong_version_is_answered_with_bad_version() {
    let (server, _service) = start_server(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect");
    let mut frame = Vec::new();
    write_frame(&mut frame, &[PROTO_VERSION + 1, 0x01]);
    raw.write_all(&frame).expect("write future-version ping");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    loop {
        let n = raw.read(&mut chunk).expect("read");
        assert!(n > 0, "server closed without answering");
        bytes.extend_from_slice(&chunk[..n]);
        if let wsrep_journal::frame::FrameSplit::Frame { frame_len } =
            wsrep_journal::frame::split_frame(&bytes)
        {
            let response =
                Response::decode(&bytes[wsrep_journal::frame::FRAME_HEADER_LEN..frame_len])
                    .unwrap();
            assert!(
                matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::BadVersion,
                        ..
                    }
                ),
                "got {response:?}"
            );
            break;
        }
    }
    server.shutdown();
    server.join();
}

#[test]
fn slow_client_is_evicted_instead_of_wedging_the_reactor() {
    let config = ServerConfig {
        workers: 1,
        max_pipeline_depth: 64,
        write_buffer_limit: 4 * 1024,
        write_stall_timeout: Duration::from_millis(300),
    };
    let (server, _service) = start_server(config);
    let addr = server.local_addr();

    let mut setup = Client::connect(addr).expect("connect");
    for s in 0..32 {
        setup
            .publish(listing(s, 0, s as f64 + 1.0))
            .expect("publish");
    }

    // A client that pipelines a flood of fat top_k requests and never
    // reads: the server's write buffer fills, reading stops, and after
    // the stall timeout the connection is evicted.
    let mut glutton = Client::connect(addr).expect("connect glutton");
    let prefs = Preferences::uniform([Metric::Price, Metric::Accuracy]);
    for _ in 0..5_000 {
        glutton.queue(&Request::TopK {
            category: 0,
            prefs: prefs.clone(),
            k: 32,
        });
    }
    // The flood may hit a closed socket mid-write once eviction kicks
    // in; both outcomes (written or refused) are fine.
    let _ = glutton.flush_queued();

    // Meanwhile the same single worker keeps serving everyone else.
    let started = std::time::Instant::now();
    while started.elapsed() < Duration::from_secs(5) {
        setup.ping().expect("reactor must stay responsive");
        let stats = setup.stats().expect("stats");
        if stats.server.slow_client_closes >= 1 {
            server.shutdown();
            server.join();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("slow client was never evicted");
}

#[test]
fn graceful_shutdown_drains_and_reports() {
    let (server, service) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .ingest((0..64).map(|i| feedback(i, 5, 0.7, i)).collect())
        .expect("ingest");
    client.shutdown_server().expect("shutdown handshake");
    // After the handshake the server closes this connection.
    let err = client.ping();
    assert!(err.is_err(), "connection must be closed after shutdown");
    server.join();
    // Everything acknowledged before shutdown is applied.
    assert_eq!(service.stats().feedback, 64);
}
