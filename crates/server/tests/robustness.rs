//! Robustness wire tests: exactly-once keyed ingest, the poisoned-
//! client contract after a timeout, durability fences crossing the
//! wire, and the retrying client surviving a flaky link without
//! double-applying anything.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::{Fault, FaultScript, IoOp, IoPolicy};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::exactly_once;
use wsrep_serve::{DurabilityPolicy, ReputationService};
use wsrep_server::{
    ChaosConfig, Client, ClientError, ErrorCode, FlakyProxy, IngestKey, RetryPolicy,
    RetryingClient, Server, ServerConfig,
};
use wsrep_sim::registry::Listing;

fn start_server(config: ServerConfig) -> (Server, Arc<ReputationService>) {
    let service = Arc::new(ReputationService::builder().shards(4).build());
    let server = Server::start(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");
    (server, service)
}

fn listing(service: u64, category: u32) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service),
        category,
        advertised: QosVector::from_pairs([(Metric::Price, 2.0), (Metric::Accuracy, 0.8)]),
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-robustness-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn replayed_ingest_key_applies_exactly_once() {
    let (server, service) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let key = IngestKey {
        producer: 42,
        seq: 7,
    };
    let batch: Vec<Feedback> = (0..16).map(|i| feedback(i, 1, 0.9, i)).collect();
    let first = client
        .ingest_keyed(batch.clone(), key)
        .expect("first keyed ingest");
    assert_eq!(first, 16);
    // The retry path: same key, same batch, resent verbatim.
    let replayed = client.ingest_keyed(batch.clone(), key).expect("replay");
    assert_eq!(replayed, first, "replay must echo the original answer");
    // A fresh seq from the same producer is new work, not a replay.
    let next = client
        .ingest_keyed(
            batch,
            IngestKey {
                producer: 42,
                seq: 8,
            },
        )
        .expect("next seq");
    assert_eq!(next, 16);
    client.flush().expect("flush");
    // Two distinct keys applied, one replay suppressed.
    exactly_once(32, service.store().len()).unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn timed_out_client_is_poisoned_until_reconnect() {
    // A listener that accepts and never answers: the ping below must
    // time out with the response still owed.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hold = std::thread::spawn(move || listener.accept());

    let mut client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    client.send(&wsrep_server::Request::Ping).expect("send");
    assert!(matches!(client.recv(), Err(ClientError::TimedOut)));
    assert!(client.is_poisoned());
    // Every further receive refuses: the stream may be mid-frame, so
    // any byte read now could belong to the timed-out response.
    assert!(matches!(client.recv(), Err(ClientError::Poisoned)));
    assert!(matches!(client.ping(), Err(ClientError::Poisoned)));
    assert!(matches!(
        client.ingest(vec![feedback(0, 1, 0.5, 0)]),
        Err(ClientError::Poisoned)
    ));
    drop(client);
    let _ = hold.join();
}

#[test]
fn retrying_client_reconnects_around_a_poisoned_connection() {
    let (server, service) = start_server(ServerConfig::default());
    let mut client = RetryingClient::new(
        server.local_addr().to_string(),
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            multiplier: 2.0,
            max_attempts: 6,
            deadline: None,
        },
    )
    .with_producer(99);
    client.ping().expect("ping");
    // Simulate a poisoned mid-frame connection: the wrapper must drop
    // it and answer on a fresh one instead of failing.
    client.disconnect();
    client.publish(listing(3, 0)).expect("publish");
    let accepted = client
        .ingest((0..8).map(|i| feedback(i, 3, 0.7, i)).collect())
        .expect("ingest");
    assert_eq!(accepted, 8);
    client.flush().expect("flush");
    assert_eq!(service.store().len(), 8);
    server.shutdown();
    server.join();
}

#[test]
fn retried_batches_through_a_flaky_link_apply_exactly_once() {
    const BATCHES: u64 = 30;
    const BATCH_SIZE: u64 = 8;
    let (server, service) = start_server(ServerConfig::default());
    let mut proxy = FlakyProxy::start(
        server.local_addr(),
        ChaosConfig {
            seed: 3,
            // Sever the link every 7th chunk: acks get lost in flight,
            // forcing the client to retry batches it cannot know landed.
            drop_conn_every: Some(7),
            split_chunks: true,
            ..ChaosConfig::default()
        },
    )
    .expect("proxy");

    let mut client = RetryingClient::new(
        proxy.addr().to_string(),
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            multiplier: 2.0,
            max_attempts: 50,
            deadline: None,
        },
    );
    client.set_read_timeout(Some(Duration::from_secs(2)));

    for b in 0..BATCHES {
        let batch: Vec<Feedback> = (0..BATCH_SIZE)
            .map(|i| feedback(b * BATCH_SIZE + i, 1 + (b % 3), 0.6, b * BATCH_SIZE + i))
            .collect();
        let accepted = client.ingest(batch).expect("keyed ingest with retries");
        assert_eq!(accepted, BATCH_SIZE);
    }
    client.flush().expect("flush");

    // Verify through a clean connection — the proxy stays chaotic.
    let mut direct = Client::connect(server.local_addr()).expect("direct");
    let applied = direct.stats().expect("stats").service.feedback as usize;
    exactly_once((BATCHES * BATCH_SIZE) as usize, applied).unwrap();
    assert_eq!(service.store().len(), applied);
    assert!(
        proxy.counters().dropped_conns > 0,
        "the chaos schedule never fired — this test proved nothing"
    );
    proxy.stop();
    server.shutdown();
    server.join();
}

#[test]
fn read_only_fence_crosses_the_wire_with_counters() {
    let dir = temp_dir("readonly");
    let script = Arc::new(FaultScript::new());
    // The very first journal append fails with ENOSPC.
    script.push(IoOp::Append, Fault::enospc());
    let service = Arc::new(
        ReputationService::builder()
            .shards(2)
            .journal(&dir)
            .durability_policy(DurabilityPolicy::ReadOnly)
            .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
            .build(),
    );
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // The first mutation hits the injected fault and the fence latches.
    let err = client.publish(listing(1, 0)).expect_err("fenced publish");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::NotDurable),
        other => panic!("expected a NotDurable server error, got {other}"),
    }
    // Later mutations are refused without touching the disk again.
    let err = client.publish(listing(2, 0)).expect_err("still fenced");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::NotDurable,
            ..
        }
    ));
    // Reads still serve, and the stats tell the whole story.
    let stats = client.stats().expect("stats");
    let health = stats.service.journal.expect("journaled");
    assert!(health.fenced, "fence must be visible in WireStats");
    assert_eq!(health.policy, DurabilityPolicy::ReadOnly);
    assert!(health.journal_errors >= 1);
    assert_eq!(stats.service.listings, 0, "fenced publish was not applied");
    assert!(
        !server.is_shutting_down(),
        "read-only keeps serving, unlike fail-stop"
    );
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fail_stop_fence_refuses_and_exits() {
    let dir = temp_dir("failstop");
    let script = Arc::new(FaultScript::new());
    script.push(IoOp::Append, Fault::enospc());
    let service = Arc::new(
        ReputationService::builder()
            .shards(2)
            .journal(&dir)
            .durability_policy(DurabilityPolicy::FailStop)
            .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
            .build(),
    );
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let err = client.publish(listing(1, 0)).expect_err("fenced publish");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::NotDurable,
            ..
        }
    ));
    // Fail-stop does not keep serving a non-durable registry: the
    // refusal begins a drain so the host process can exit.
    assert!(server.is_shutting_down());
    assert!(server.durability_fenced());
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degrade_counts_errors_but_keeps_accepting() {
    let dir = temp_dir("degrade");
    let script = Arc::new(FaultScript::new());
    script.push(IoOp::Append, Fault::enospc());
    let service = Arc::new(
        ReputationService::builder()
            .shards(2)
            .journal(&dir)
            .durability_policy(DurabilityPolicy::Degrade)
            .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
            .build(),
    );
    let server =
        Server::start(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // The fault lands, the write is still accepted (availability over
    // durability), and the degradation is visible in the counters.
    client.publish(listing(1, 0)).expect("degraded publish");
    let accepted = client
        .ingest((0..4).map(|i| feedback(i, 1, 0.8, i)).collect())
        .expect("degraded ingest");
    assert_eq!(accepted, 4);
    client.flush().expect("flush");
    let stats = client.stats().expect("stats");
    let health = stats.service.journal.expect("journaled");
    assert!(health.degraded);
    assert!(!health.fenced);
    assert!(health.journal_errors >= 1);
    assert_eq!(health.policy, DurabilityPolicy::Degrade);
    assert_eq!(stats.service.listings, 1);
    assert_eq!(stats.service.feedback, 4);
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
