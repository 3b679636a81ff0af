//! Crash durability over the wire: spawn the real `wsrep-server` binary
//! with a journal attached, acknowledge reports through a `Flush` RPC,
//! then SIGKILL the process — no drain, no final fsync. Every
//! acknowledged report must come back, verified two ways: in-process
//! recovery via `ServiceBuilder::recover_from`, and a second server
//! process started with `--recover` answering `Score` over the wire.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::{twin_equal, Twin};
use wsrep_serve::ReputationService;
use wsrep_server::Client;
use wsrep_sim::registry::Listing;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-server-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spawn the real server binary on an ephemeral port and parse the bound
/// address from its first stdout line.
fn spawn_server(dir: &Path, recover: bool) -> (Child, String) {
    let journal_flag = if recover {
        format!("--recover={}", dir.display())
    } else {
        format!("--journal={}", dir.display())
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_wsrep-server"))
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg(journal_flag)
        .arg("--shards=4")
        .arg("--workers=2")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn wsrep-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("wsrep-server listening on ")
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
fn killing_the_server_mid_ingest_loses_nothing_acknowledged_by_flush() {
    let dir = temp_dir("kill");
    let (mut child, addr) = spawn_server(&dir, false);

    // Publish a listing, ingest two waves of reports, and pin the
    // durability line with a Flush RPC (group-commit fsync) after each.
    let mut client = Client::connect(&addr[..]).expect("connect");
    let wave_1: Vec<Feedback> = (0..48).map(|i| feedback(i, 11, 0.9, i)).collect();
    let wave_2: Vec<Feedback> = (100..116).map(|i| feedback(i, 11, 0.2, i)).collect();
    client.publish(listing(11, 0)).expect("publish");
    let accepted = client.ingest(wave_1.clone()).expect("ingest wave 1");
    assert_eq!(accepted, 48);
    client.flush().expect("flush wave 1");
    client.ingest(wave_2.clone()).expect("ingest wave 2");
    client.flush().expect("flush wave 2");
    let acked = Twin::published(&[listing(11, 0)], wave_1.iter().chain(&wave_2));
    let live_estimate = client
        .score(ServiceId::new(11).into())
        .expect("score")
        .expect("evidence");

    // SIGKILL: a real crash. No drain, no shutdown handshake, no final
    // fsync. The journal on disk is all that survives.
    child.kill().expect("kill");
    child.wait().expect("reap");
    drop(client);

    // Recovery path 1: rebuild in-process from the journal directory.
    let recovered = ReputationService::builder()
        .shards(4)
        .recover_from(&dir)
        .try_build()
        .expect("recover in-process");
    twin_equal(&recovered, &acked).unwrap();
    let estimate = recovered.score(ServiceId::new(11).into());
    assert_eq!(estimate, Some(live_estimate), "the pre-crash score");
    drop(recovered);

    // Recovery path 2: restart the *binary* with --recover and ask over
    // the wire, then shut it down gracefully via the protocol.
    let (mut restarted, addr) = spawn_server(&dir, true);
    let mut client = Client::connect(&addr[..]).expect("reconnect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.service.feedback, 64);
    assert_eq!(stats.service.listings, 1, "the published listing replays");
    let estimate = client
        .score(ServiceId::new(11).into())
        .expect("score over the wire");
    assert_eq!(estimate, Some(live_estimate));
    client.shutdown_server().expect("graceful shutdown RPC");

    let status = restarted.wait().expect("wait for clean exit");
    assert!(status.success(), "graceful shutdown exits 0: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
