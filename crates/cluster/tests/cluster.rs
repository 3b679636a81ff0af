//! In-process cluster integration: a primary and two replicas on
//! loopback. Covers catch-up from a cold log, following the live tail,
//! bounded-staleness stats over the wire, the read-only contract, and a
//! replica restart resuming from its own journal.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrep_cluster::{Primary, PrimaryConfig, Replica, ReplicaConfig};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_server::{Client, ClientError, ErrorCode, ReplRole, RetryPolicy};
use wsrep_sim::registry::Listing;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsrep-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn listing(service: u64, category: u32) -> Listing {
    Listing {
        service: ServiceId::new(service),
        provider: ProviderId::new(service),
        category,
        advertised: QosVector::from_pairs([(Metric::Price, 2.0), (Metric::Accuracy, 0.9)]),
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

fn journaled_service(dir: &PathBuf) -> Arc<ReputationService> {
    Arc::new(
        ReputationService::builder()
            .shards(4)
            .journal(dir)
            .try_build()
            .expect("journaled service"),
    )
}

fn replica_config(id: u64) -> ReplicaConfig {
    ReplicaConfig {
        shards: 4,
        replica_id: id,
        poll_interval: Duration::from_millis(5),
        reconnect: RetryPolicy {
            base: Duration::from_millis(20),
            cap: Duration::from_millis(100),
            ..RetryPolicy::unbounded()
        },
        ..ReplicaConfig::default()
    }
}

/// Poll until the replica's applied watermark reaches `lsn` (or panic
/// after `secs` seconds).
fn await_catch_up(replica: &Replica, lsn: u64, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let stats = replica.replication_stats();
        if stats.local_durable_lsn >= lsn {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at LSN {} waiting for {lsn}",
            stats.local_durable_lsn
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn replicas_catch_up_then_follow_the_live_tail() {
    let primary_dir = temp_dir("tail-primary");
    let service = journaled_service(&primary_dir);
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");
    let primary_addr = primary.local_addr().to_string();

    // History written *before* any replica exists: catch-up path.
    service.publish(listing(1, 0)).expect("publish");
    service.publish(listing(2, 0)).expect("publish");
    for i in 0..64u64 {
        service
            .ingest(feedback(i, 1 + (i % 2), 0.3 + (i as f64 % 7.0) / 10.0, i))
            .expect("ingest");
    }
    service.flush();
    let after_history = service.durable_lsn().expect("journaled");

    let dir_a = temp_dir("tail-replica-a");
    let dir_b = temp_dir("tail-replica-b");
    let replica_a = Replica::start(&primary_addr[..], "127.0.0.1:0", &dir_a, replica_config(1))
        .expect("replica a");
    let replica_b = Replica::start(&primary_addr[..], "127.0.0.1:0", &dir_b, replica_config(2))
        .expect("replica b");
    await_catch_up(&replica_a, after_history, 10);
    await_catch_up(&replica_b, after_history, 10);

    // Live tail: records shipped while the replicas are attached.
    for i in 64..96u64 {
        service
            .ingest(feedback(i, 1 + (i % 2), 0.8, i))
            .expect("ingest tail");
    }
    service.flush();
    let after_tail = service.durable_lsn().expect("journaled");
    await_catch_up(&replica_a, after_tail, 10);
    await_catch_up(&replica_b, after_tail, 10);

    // Every replica's read surface answers exactly like the primary.
    let prefs = Preferences::default();
    for replica in [&replica_a, &replica_b] {
        for subject in [ServiceId::new(1), ServiceId::new(2)] {
            let ours = service.score(subject.into()).expect("primary score");
            let theirs = replica
                .service()
                .score(subject.into())
                .expect("replica score");
            assert!(
                (ours.value.get() - theirs.value.get()).abs() < 1e-9,
                "replica diverged on {subject:?}: {} vs {}",
                ours.value.get(),
                theirs.value.get()
            );
        }
        let ours = service.top_k(0, &prefs, 2);
        let theirs = replica.service().top_k(0, &prefs, 2);
        assert_eq!(ours.len(), theirs.len());
        for (a, b) in ours.iter().zip(theirs.iter()) {
            assert_eq!(a.service, b.service, "top-k order diverged");
        }
    }

    // Staleness is visible over the wire: the replica's Stats response
    // carries role, watermarks, and (caught-up) zero lag.
    let mut client = Client::connect(&replica_a.local_addr().to_string()[..]).expect("connect");
    let stats = client.stats().expect("stats");
    let repl = stats.replication.expect("replica advertises replication");
    assert_eq!(repl.role, ReplRole::Replica);
    assert!(repl.connected, "link is up");
    assert_eq!(repl.local_durable_lsn, after_tail);
    assert_eq!(repl.lag, 0, "caught up ⇒ zero staleness");

    // The primary's side counts its followers.
    let mut client = Client::connect(&primary_addr[..]).expect("connect primary");
    let stats = client.stats().expect("primary stats");
    let repl = stats.replication.expect("primary advertises replication");
    assert_eq!(repl.role, ReplRole::Primary);
    assert_eq!(repl.replicas, 2, "both replicas heartbeated recently");

    replica_a.join();
    replica_b.join();
    primary.shutdown();
    primary.join();

    // A replica re-journals what it applied in the format written today:
    // its own log holds every shipped record under this build's header.
    let group = dir_a.join(wsrep_journal::group_dir_name(0));
    let mut rejournaled = 0;
    for (_, path) in wsrep_journal::segment::list_segments(&group).expect("replica log") {
        let scan = wsrep_journal::segment::scan_segment_entries(&path)
            .expect("readable")
            .expect("headed");
        let written = wsrep_journal::segment::FORMAT_VERSION;
        assert_eq!(scan.version, written, "{}", path.display());
        rejournaled += scan.entries.len() as u64;
    }
    assert_eq!(rejournaled, after_tail);

    for dir in [primary_dir, dir_a, dir_b] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_partitioned_primary_ships_a_dense_merged_stream() {
    let primary_dir = temp_dir("part-primary");
    // Four writer groups: the primary's journal is partitioned over
    // group-NNN/ subdirectories and replication reads it through the
    // merged ship cursor. The replica stays single-log and re-journals
    // the shipped stream sequentially, so its LSNs must still equal the
    // primary's.
    let service = Arc::new(
        ReputationService::builder()
            .shards(4)
            .writer_groups(4)
            .journal(&primary_dir)
            .try_build()
            .expect("partitioned journaled service"),
    );
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");
    let primary_addr = primary.local_addr().to_string();

    service.publish(listing(1, 0)).expect("publish");
    service.publish(listing(2, 0)).expect("publish");
    for i in 0..96u64 {
        service
            .ingest(feedback(i, 1 + (i % 2), 0.3 + (i as f64 % 7.0) / 10.0, i))
            .expect("ingest");
    }
    service.flush();
    let after_history = service.durable_lsn().expect("journaled");
    assert_eq!(after_history, 98, "crash-free watermark covers everything");

    let dir = temp_dir("part-replica");
    let replica =
        Replica::start(&primary_addr[..], "127.0.0.1:0", &dir, replica_config(1)).expect("replica");
    await_catch_up(&replica, after_history, 10);

    // Live tail shipped while attached, still merged across groups.
    for i in 96..128u64 {
        service
            .ingest(feedback(i, 1 + (i % 2), 0.8, i))
            .expect("ingest tail");
    }
    service.flush();
    let after_tail = service.durable_lsn().expect("journaled");
    await_catch_up(&replica, after_tail, 10);

    for subject in [ServiceId::new(1), ServiceId::new(2)] {
        let ours = service.score(subject.into()).expect("primary score");
        let theirs = replica
            .service()
            .score(subject.into())
            .expect("replica score");
        assert!(
            (ours.value.get() - theirs.value.get()).abs() < 1e-9,
            "replica diverged on {subject:?}"
        );
    }
    assert_eq!(
        replica.replication_stats().local_durable_lsn,
        after_tail,
        "replica LSNs equal primary LSNs across the merged stream"
    );

    replica.join();
    primary.shutdown();
    primary.join();
    for dir in [primary_dir, dir] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn replicas_reject_writes_with_a_typed_error() {
    let primary_dir = temp_dir("ro-primary");
    let service = journaled_service(&primary_dir);
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");
    let dir = temp_dir("ro-replica");
    let replica = Replica::start(
        primary.local_addr().to_string(),
        "127.0.0.1:0",
        &dir,
        replica_config(1),
    )
    .expect("replica");

    let mut client = Client::connect(&replica.local_addr().to_string()[..]).expect("connect");
    for result in [
        client.publish(listing(9, 0)).map(|_| ()),
        client.ingest(vec![feedback(1, 9, 0.5, 1)]).map(|_| ()),
        client.deregister(ServiceId::new(9)).map(|_| ()),
    ] {
        match result {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ReadOnly),
            other => panic!("write on a replica must fail ReadOnly, got {other:?}"),
        }
    }
    // Reads still work.
    client.ping().expect("ping");
    assert!(client
        .score(ServiceId::new(9).into())
        .expect("score")
        .is_none());

    replica.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restarted_replica_recovers_its_own_journal_before_reconnecting() {
    let primary_dir = temp_dir("restart-primary");
    let service = journaled_service(&primary_dir);
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");
    let primary_addr = primary.local_addr().to_string();

    service.publish(listing(5, 0)).expect("publish");
    for i in 0..32u64 {
        service.ingest(feedback(i, 5, 0.7, i)).expect("ingest");
    }
    service.flush();
    let durable = service.durable_lsn().expect("journaled");

    let dir = temp_dir("restart-replica");
    let replica =
        Replica::start(&primary_addr[..], "127.0.0.1:0", &dir, replica_config(1)).expect("replica");
    await_catch_up(&replica, durable, 10);
    let expected = replica
        .service()
        .score(ServiceId::new(5).into())
        .expect("score before restart");
    drop(replica); // stop pulling, release the journal dir

    // Restart pointed at a dead address: everything it serves now came
    // from its own journal, not from the primary.
    let reborn = Replica::start(
        "127.0.0.1:1", // nothing listens here
        "127.0.0.1:0",
        &dir,
        replica_config(1),
    )
    .expect("reborn replica");
    let stats = reborn.replication_stats();
    assert_eq!(
        stats.local_durable_lsn, durable,
        "own journal carries the applied prefix across restarts"
    );
    let recovered = reborn
        .service()
        .score(ServiceId::new(5).into())
        .expect("score after restart");
    assert!((expected.value.get() - recovered.value.get()).abs() < 1e-9);
    assert!(!stats.connected);

    reborn.join();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
