//! Kill-the-primary failover: SIGKILL the real `wsrep-cluster primary`
//! binary mid-ingest, promote the in-process replica that was trailing
//! it, and prove through `wsrep_serve::check` that its log is a prefix of
//! the dead primary's, that it holds every report the primary ever
//! acknowledged, and that its state equals a sequential replay of its own
//! journal — the twin check.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wsrep_cluster::{Replica, ReplicaConfig};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{acked_survive, log_prefix, twin_equal, Twin};
use wsrep_server::{Client, RetryPolicy};
use wsrep_sim::registry::Listing;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wsrep-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn_primary(dir: &Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wsrep-cluster"))
        .arg("primary")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg(format!("--journal={}", dir.display()))
        .arg("--shards=4")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn wsrep-cluster primary");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("wsrep-cluster primary listening on ")
        .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
        .to_string();
    (child, addr)
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

#[test]
fn sigkilled_primary_fails_over_to_a_promoted_replica_equal_to_its_twin() {
    let primary_dir = temp_dir("primary");
    let (mut child, primary_addr) = spawn_primary(&primary_dir);

    let replica_dir = temp_dir("replica");
    let mut replica = Replica::start(
        &primary_addr[..],
        "127.0.0.1:0",
        &replica_dir,
        ReplicaConfig {
            shards: 4,
            replica_id: 7,
            poll_interval: Duration::from_millis(2),
            reconnect: RetryPolicy {
                base: Duration::from_millis(20),
                cap: Duration::from_millis(100),
                ..RetryPolicy::unbounded()
            },
            read_timeout: Duration::from_millis(500),
            ..ReplicaConfig::default()
        },
    )
    .expect("replica");

    // Ingest waves against the primary, flushing (= acking) after each.
    // The kill lands between waves, so some unflushed records may be in
    // flight — exactly the crash shape the acked-prefix contract covers.
    let mut client = Client::connect(&primary_addr[..]).expect("connect primary");
    client.publish(listing(1, 0)).expect("publish");
    client.publish(listing(2, 0)).expect("publish");
    let mut acked_lsn = 0u64;
    let mut acked = Vec::new();
    for wave in 0..6u64 {
        let batch: Vec<Feedback> = (0..32)
            .map(|i| {
                let n = wave * 32 + i;
                feedback(n, 1 + (n % 2), 0.2 + ((n % 8) as f64) / 10.0, n)
            })
            .collect();
        acked.extend(batch.iter().map(|report| report.rater));
        client.ingest(batch).expect("ingest wave");
        client.flush().expect("flush wave");
        let stats = client.stats().expect("stats");
        acked_lsn = stats
            .service
            .journal
            .expect("primary is journaled")
            .durable_lsn;
    }
    // Replication is asynchronous: a record is only guaranteed on the
    // replica once its watermark passed it. Wait for exactly that —
    // which is what a deployment watching `min_replica_lsn` would do —
    // before considering the acked history safe to fail over.
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.replication_stats().local_durable_lsn < acked_lsn {
        assert!(
            Instant::now() < deadline,
            "replica never reached the acked watermark {acked_lsn}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // One more unflushed wave in flight when the kill lands.
    let _ = client.ingest(
        (0..32)
            .map(|i| feedback(900 + i, 1, 0.5, 900 + i))
            .collect(),
    );

    // A real crash: no drain, no shutdown handshake, no final fsync.
    child.kill().expect("SIGKILL primary");
    child.wait().expect("reap");
    drop(client);

    // The replica notices the dead link, then gets promoted.
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.replication_stats().connected {
        assert!(Instant::now() < deadline, "replica never saw the link drop");
        std::thread::sleep(Duration::from_millis(10));
    }
    let promoted_lsn = replica.promote();

    // Before any post-promotion write: the promoted log is a prefix of
    // the dead primary's, as far as both reach, and holds every report
    // the primary acked. The twin check: promoted state == a sequential
    // replay of the promoted node's own journal.
    log_prefix(&primary_dir, &replica_dir).unwrap();
    let twin = Twin::read(&replica_dir).expect("promoted journal");
    assert_eq!(twin.lsn, promoted_lsn, "twin replays the whole log");
    acked_survive(acked, twin.feedback().map(|report| report.rater)).unwrap();
    twin_equal(replica.service(), &twin).unwrap();

    // The promoted node is a writable primary-role node now.
    let stats = replica.replication_stats();
    assert_eq!(stats.role, wsrep_server::ReplRole::Primary);
    let mut client = Client::connect(&replica.local_addr().to_string()[..]).expect("connect");
    client
        .publish(listing(3, 0))
        .expect("promoted accepts publish");
    client
        .ingest(vec![feedback(5000, 3, 0.9, 5000)])
        .expect("promoted accepts ingest");
    client.flush().expect("promoted flushes");
    assert!(client
        .score(ServiceId::new(3).into())
        .expect("score")
        .is_some());

    replica.join();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
