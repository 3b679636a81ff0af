//! The chaos harness: disk failpoints composed with link faults.
//!
//! These tests drive a real journaled primary through a [`FlakyProxy`]
//! (dropping, splitting and corrupting TCP traffic) while the journal's
//! [`IoPolicy`] seam injects disk faults underneath, and then hold the
//! registry to its durability contracts:
//!
//! - every **acked** (flushed, journal-healthy) write is present after
//!   recovery — retries through the flaky link never double-apply and
//!   never lose an acknowledged report;
//! - a `Degrade` node that hit disk faults says so: nonzero
//!   `journal_errors` and the `degraded` flag in its shipped stats;
//! - `ReadOnly` / `FailStop` nodes refuse (or exit) instead of acking
//!   writes they cannot make durable — nothing non-durable is ever
//!   acked, so there is nothing to lose;
//! - a replica fed corrupted replication frames drops the link,
//!   reconnects, and re-pulls from its watermark without applying any
//!   partial batch.
//!
//! Every test asserts its fault counters are nonzero — a chaos run that
//! injected nothing proved nothing.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrep_cluster::{Primary, PrimaryConfig, Replica, ReplicaConfig};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_journal::{Fault, FaultScript, IoOp, IoPolicy};
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{acked_survive, applied_once, exactly_once, log_prefix, twin_equal, Twin};
use wsrep_serve::{DurabilityPolicy, ReputationService};
use wsrep_server::{
    ChaosConfig, Client, ClientError, ErrorCode, FlakyProxy, RetryPolicy, RetryingClient,
    ServerConfig,
};
use wsrep_sim::registry::Listing;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

fn retry_fast() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(10),
        multiplier: 2.0,
        max_attempts: 60,
        deadline: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Link chaos only, disk healthy: after ingesting through a proxy
    /// that keeps severing and splitting the stream, every acked batch
    /// is applied exactly once — and still all there when the node is
    /// torn down and recovered from its journal.
    #[test]
    fn acked_writes_survive_link_chaos_and_recovery(
        seed in 0u64..1_000,
        drop_every in 5u64..12,
        batches in 6u64..14,
        batch_size in 3u64..9,
    ) {
        let dir = temp_dir(&format!("acked-{seed}-{drop_every}"));
        let service = Arc::new(
            ReputationService::builder()
                .shards(2)
                .journal(&dir)
                .build(),
        );
        let primary = Primary::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            PrimaryConfig::default(),
        )
        .expect("primary");
        let mut proxy = FlakyProxy::start(
            primary.local_addr(),
            ChaosConfig {
                seed,
                drop_conn_every: Some(drop_every),
                split_chunks: true,
                delay_every: Some(9),
                delay: Duration::from_millis(1),
                ..ChaosConfig::default()
            },
        )
        .expect("proxy");

        let mut client = RetryingClient::new(proxy.addr().to_string(), retry_fast())
            .with_producer(seed.wrapping_mul(31).wrapping_add(7));
        client.set_read_timeout(Some(Duration::from_secs(2)));
        client.publish(listing(1, 0)).expect("publish");
        for b in 0..batches {
            let batch: Vec<Feedback> = (0..batch_size)
                .map(|i| feedback(b * batch_size + i, 1, 0.7, b * batch_size + i))
                .collect();
            let accepted = client.ingest(batch).expect("keyed ingest");
            prop_assert_eq!(accepted, batch_size);
        }
        // The ack barrier: after this, every batch above is durable.
        client.flush().expect("flush");

        // Every batch was acked; no retry applied twice, none was lost.
        let acked = (batches * batch_size) as usize;
        exactly_once(acked, service.store().len()).unwrap();
        let counters = proxy.counters();
        prop_assert!(counters.dropped_conns > 0,
            "chaos schedule never dropped a connection — nothing was proved");
        proxy.stop();
        primary.shutdown();
        primary.join();
        drop(service);

        // Recovery: replay snapshot + WAL into a fresh service.
        let recovered = ReputationService::builder()
            .shards(2)
            .recover_from(&dir)
            .try_build()
            .expect("recover");
        recovered.flush();
        exactly_once(acked, recovered.store().len()).unwrap();
        prop_assert!(recovered.listing(ServiceId::new(1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Disk and link chaos on a `Degrade` node: the service keeps
    /// acking (availability over durability), applies exactly once, and
    /// reports the damage through nonzero `journal_errors` + the
    /// `degraded` flag in its shipped stats.
    #[test]
    fn degrade_node_reports_faults_and_applies_exactly_once(
        seed in 0u64..1_000,
        drop_every in 6u64..12,
        fault_after in 0u64..3,
        batches in 5u64..10,
    ) {
        let dir = temp_dir(&format!("degrade-{seed}-{fault_after}"));
        let script = Arc::new(FaultScript::new());
        // One injected append error, `fault_after` commits in: the
        // degrade latch must hold from that point on.
        script.push_after(IoOp::Append, fault_after, Fault::enospc());
        let service = Arc::new(
            ReputationService::builder()
                .shards(2)
                .journal(&dir)
                .durability_policy(DurabilityPolicy::Degrade)
                .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
                .build(),
        );
        let primary = Primary::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            PrimaryConfig::default(),
        )
        .expect("primary");
        let mut proxy = FlakyProxy::start(
            primary.local_addr(),
            ChaosConfig {
                seed,
                drop_conn_every: Some(drop_every),
                split_chunks: true,
                ..ChaosConfig::default()
            },
        )
        .expect("proxy");

        let mut client = RetryingClient::new(proxy.addr().to_string(), retry_fast())
            .with_producer(seed.wrapping_mul(131).wrapping_add(3));
        client.set_read_timeout(Some(Duration::from_secs(2)));
        client.publish(listing(1, 0)).expect("publish");
        const BATCH: u64 = 4;
        for b in 0..batches {
            let batch: Vec<Feedback> = (0..BATCH)
                .map(|i| feedback(b * BATCH + i, 1, 0.6, b * BATCH + i))
                .collect();
            let accepted = client.ingest(batch).expect("keyed ingest");
            prop_assert_eq!(accepted, BATCH);
        }
        client.flush().expect("flush");

        exactly_once((batches * BATCH) as usize, service.store().len()).unwrap();
        prop_assert!(script.counters().total() > 0, "disk fault never fired");
        let health = service.stats().journal.expect("journaled");
        prop_assert!(health.degraded, "degrade latch not set after a fault");
        prop_assert!(health.journal_errors > 0,
            "journal_errors counter must be nonzero on a degraded node");
        prop_assert!(!health.fenced, "degrade must not fence");

        // The degraded signal crosses the wire too (v3 stats block).
        let mut direct = Client::connect(primary.local_addr()).expect("direct");
        let wire = direct.stats().expect("stats");
        let wire_health = wire.service.journal.expect("journaled");
        prop_assert!(wire_health.degraded);
        prop_assert!(wire_health.journal_errors > 0);
        prop_assert_eq!(wire_health.policy, DurabilityPolicy::Degrade);

        proxy.stop();
        primary.shutdown();
        primary.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `ReadOnly` node under the same chaos never acks a non-durable
    /// write: once the disk fault lands, every mutation is refused with
    /// `NotDurable`, nothing is applied past the fence, and recovery
    /// finds exactly the writes that were acked before the fault.
    #[test]
    fn read_only_node_refuses_rather_than_lies(
        seed in 0u64..1_000,
        fault_after in 1u64..4,
    ) {
        let dir = temp_dir(&format!("fence-{seed}-{fault_after}"));
        let script = Arc::new(FaultScript::new());
        script.push_after(IoOp::Append, fault_after, Fault::enospc());
        let service = Arc::new(
            ReputationService::builder()
                .shards(2)
                .journal(&dir)
                .durability_policy(DurabilityPolicy::ReadOnly)
                .io_policy(Arc::clone(&script) as Arc<dyn IoPolicy>)
                .build(),
        );
        let primary = Primary::start(
            Arc::clone(&service),
            "127.0.0.1:0",
            PrimaryConfig::default(),
        )
        .expect("primary");
        let mut proxy = FlakyProxy::start(
            primary.local_addr(),
            ChaosConfig {
                seed,
                split_chunks: true,
                ..ChaosConfig::default()
            },
        )
        .expect("proxy");

        // Mutations one at a time (no retries: a NotDurable refusal is
        // final, not transport noise). The first `fault_after` commits
        // land; everything after the fault must be refused.
        let mut client = Client::connect(proxy.addr()).expect("connect");
        let mut acked = Vec::new();
        let mut refused: u64 = 0;
        for s in 0..6u64 {
            match client.publish(listing(s, 0)) {
                Ok(_) => acked.push(ServiceId::new(s)),
                Err(ClientError::Server { code, .. }) => {
                    prop_assert_eq!(code, ErrorCode::NotDurable);
                    refused += 1;
                }
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
        prop_assert_eq!(acked.len() as u64, fault_after, "exactly the pre-fault writes ack");
        prop_assert_eq!(refused, 6 - fault_after);
        prop_assert!(service.durability_fenced());
        let health = service.stats().journal.expect("journaled");
        prop_assert!(health.fenced);
        prop_assert!(health.journal_errors > 0);

        proxy.stop();
        primary.shutdown();
        primary.join();
        drop(service);

        // Recovery sees every acked write and nothing else: the fence
        // kept the applied state equal to the durable state.
        let recovered = ReputationService::builder()
            .shards(2)
            .recover_from(&dir)
            .try_build()
            .expect("recover");
        let listed: Vec<ServiceId> = (0..6u64)
            .map(ServiceId::new)
            .filter(|&s| recovered.listing(s).is_some())
            .collect();
        acked_survive(&acked, &listed).unwrap();
        applied_once(&acked, &listed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Satellite (d): a replica whose replication link corrupts frames
/// drops the link, reconnects, and re-pulls from its durable watermark
/// — partial or mangled `ReplBatch`es are never applied, and the
/// replica still converges to the primary's durable LSN.
#[test]
fn replica_recovers_from_replication_link_corruption() {
    let primary_dir = temp_dir("repl-corrupt-primary");
    let replica_dir = temp_dir("repl-corrupt-replica");
    let service = Arc::new(
        ReputationService::builder()
            .shards(2)
            .journal(&primary_dir)
            .build(),
    );
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");

    // The replica reaches the primary only through a proxy that flips a
    // byte in every 5th server->client chunk — CRC-broken ReplBatch
    // frames on a schedule.
    let mut proxy = FlakyProxy::start(
        primary.local_addr(),
        ChaosConfig {
            seed: 11,
            corrupt_downstream_every: Some(5),
            ..ChaosConfig::default()
        },
    )
    .expect("proxy");

    service.publish(listing(1, 0)).expect("publish");
    for i in 0..80u64 {
        service
            .ingest(feedback(i, 1, 0.4 + (i % 5) as f64 / 10.0, i))
            .expect("ingest");
    }
    service.flush();
    let durable = service.durable_lsn().expect("journaled");

    let replica = Replica::start(
        proxy.addr().to_string(),
        "127.0.0.1:0",
        &replica_dir,
        ReplicaConfig {
            server: ServerConfig::default(),
            shards: 2,
            replica_id: 9,
            poll_interval: Duration::from_millis(2),
            read_timeout: Duration::from_millis(500),
            reconnect: RetryPolicy {
                base: Duration::from_millis(5),
                cap: Duration::from_millis(40),
                ..RetryPolicy::unbounded()
            },
            max_batch_records: 16,
        },
    )
    .expect("replica");

    // Convergence despite the corruption schedule: the replica keeps
    // dropping poisoned links and re-pulling from its watermark.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = replica.replication_stats();
        if stats.local_durable_lsn >= durable {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never converged through the corrupting link \
             (local {} < primary {durable})",
            stats.local_durable_lsn
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        proxy.counters().corrupted_chunks > 0,
        "the corruption schedule never fired — nothing was proved"
    );

    // The replica's log is the primary's and its state is what that log
    // defines: no partial batch was ever applied.
    assert_eq!(log_prefix(&primary_dir, &replica_dir), Ok(durable));
    twin_equal(replica.service(), &Twin::read(&primary_dir).unwrap()).unwrap();

    replica.join();
    proxy.stop();
    primary.shutdown();
    primary.join();
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// A `FailStop` primary under a disk fault begins its drain instead of
/// serving non-durable acks; a client sees the `NotDurable` refusal and
/// the server exits.
#[test]
fn fail_stop_primary_exits_under_disk_faults() {
    let dir = temp_dir("failstop-cluster");
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
    let primary = Primary::start(
        Arc::clone(&service),
        "127.0.0.1:0",
        PrimaryConfig::default(),
    )
    .expect("primary");

    let mut client = Client::connect(primary.local_addr()).expect("connect");
    let err = client.publish(listing(1, 0)).expect_err("fenced");
    assert!(matches!(
        err,
        ClientError::Server {
            code: ErrorCode::NotDurable,
            ..
        }
    ));
    assert!(
        primary.is_shutting_down(),
        "fail-stop must begin the drain on the first fence"
    );
    primary.join();
    let _ = std::fs::remove_dir_all(&dir);
}
