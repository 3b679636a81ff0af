//! loadgen — drives running server processes over their sockets: the CI
//! server, chaos and replication smokes. Measurement is
//! `bash benchmark/run.sh`, not this.
//!
//! ```text
//! loadgen --socket ADDR [--replica ADDR]... [--shutdown] [--chaos] [--batch N] \
//!         [ingest_threads] [query_threads] [reports_per_ingester] \
//!         [queries_per_querier] [seed]
//! ```
//!
//! Defaults: 4 ingesters, 4 queriers, 50 000 reports and 50 000 queries
//! per thread, seed 42. Valued flags take `--flag V` or `--flag=V`; a
//! malformed value or a missing `--socket` is a usage error (one stderr
//! line, exit status 2). The last stdout line is a JSON object; the exit
//! status is the gate: every check below panics when it fails.
//!
//! `--socket ADDR` names a running `wsrep-server` (or `wsrep-cluster`
//! node). Every ingester and querier opens its own connection and
//! pipelines requests (batched `Ingest` frames on the write side, a
//! sliding window of `Score`/`TopK` on the read side). The run asserts
//! that every batch was acknowledged and applied and that the final
//! `Stats` RPC counts no malformed frame; `--shutdown` then sends the
//! `Shutdown` request, so one invocation gates a smoke run end to end.
//!
//! `--replica ADDR` (repeatable) fans the query side out across read
//! replicas: querier `q` connects to replica `q mod N` while setup and
//! ingest stay on the primary. After the ingest side finishes and
//! flushes, loadgen polls every replica's `Stats` until its replication
//! watermark reaches the primary's durable LSN, and asserts that all of
//! them caught up within 30 s; the JSON line's `replication` object has
//! each replica's lag.
//!
//! `--chaos` routes every ingester through an in-process flaky TCP proxy
//! and retries keyed batches of `--batch N` reports (see `run_chaos`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::check::exactly_once;
use wsrep_server::{
    flag_number, flag_value, usage_error, ChaosConfig, Client, FlakyProxy, Request, Response,
    RetryPolicy, RetryingClient,
};
use wsrep_sim::registry::Listing;

const SERVICES: u64 = 64;
const CATEGORIES: u32 = 4;
/// One in this many queries is a `top_k` instead of a `score`.
const TOPK_EVERY: u64 = 100;

struct Config {
    ingest_threads: u64,
    query_threads: u64,
    reports_per_ingester: u64,
    queries_per_querier: u64,
    seed: u64,
    batch_size: usize,
    socket: String,
    replicas: Vec<String>,
    shutdown: bool,
    chaos: bool,
}

fn parse_args() -> Config {
    let mut batch_size = 128usize;
    let mut socket = None;
    let mut replicas = Vec::new();
    let mut shutdown = false;
    let mut chaos = false;
    let mut numbers = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| flag_value(&arg, name, &mut args);
        if let Some(addr) = value("--socket") {
            socket = Some(addr);
        } else if let Some(addr) = value("--replica") {
            replicas.push(addr);
        } else if let Some(v) = value("--batch") {
            batch_size = flag_number("--batch", &v);
        } else if arg == "--shutdown" {
            shutdown = true;
        } else if arg == "--chaos" {
            chaos = true;
        } else {
            let positional = "an argument not --socket/--replica/--batch/--shutdown/--chaos";
            numbers.push(flag_number(positional, &arg));
        }
    }
    let get = |i: usize, default: u64| numbers.get(i).copied().unwrap_or(default);
    Config {
        ingest_threads: get(0, 4),
        query_threads: get(1, 4),
        reports_per_ingester: get(2, 50_000),
        queries_per_querier: get(3, 50_000),
        seed: get(4, 42),
        batch_size: batch_size.max(1),
        socket: socket
            .unwrap_or_else(|| usage_error("--socket ADDR is required: the server to drive")),
        replicas,
        shutdown,
        chaos,
    }
}

fn percentile(sorted_nanos: &[u64], p: f64) -> u64 {
    if sorted_nanos.is_empty() {
        return 0;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    sorted_nanos[rank]
}

/// Reports per `Ingest` frame in socket mode.
const SOCKET_INGEST_BATCH: u64 = 128;
/// In-flight `Ingest` frames per ingester connection.
const SOCKET_INGEST_WINDOW: usize = 4;
/// In-flight queries per querier connection (the pipelining window).
const SOCKET_QUERY_WINDOW: usize = 32;

/// Drive a running `wsrep-server` over TCP with a mixed ingest and query
/// load. Latencies are measured enqueue-to-response, so the pipeline
/// window's queueing delay is part of p99 — that is the number a remote
/// caller would see.
fn run_socket(config: Config) {
    let addr = &config.socket;
    let mut setup = Client::connect(&addr[..]).expect("connect to wsrep-server");
    let mut seeder = StdRng::seed_from_u64(config.seed);
    for s in 0..SERVICES {
        setup
            .publish(Listing {
                service: ServiceId::new(s),
                provider: ProviderId::new(s / 4),
                category: (s % CATEGORIES as u64) as u32,
                advertised: QosVector::from_pairs([
                    (Metric::Price, seeder.gen_range(1.0..10.0)),
                    (Metric::ResponseTime, seeder.gen_range(20.0..500.0)),
                    (Metric::Accuracy, seeder.gen_range(0.3..1.0)),
                ]),
            })
            .expect("publish over the wire");
    }
    let prefs = Preferences::uniform([Metric::Price, Metric::ResponseTime, Metric::Accuracy]);

    let started = Instant::now();
    let mut query_latencies: Vec<u64> = Vec::new();
    let mut ingest_elapsed = 0.0f64;
    let mut query_elapsed = 0.0f64;
    let mut accepted_total = 0u64;

    std::thread::scope(|scope| {
        let mut ingest_handles = Vec::new();
        for t in 0..config.ingest_threads {
            let reports = config.reports_per_ingester;
            let seed = config.seed.wrapping_add(t + 1);
            ingest_handles.push(scope.spawn(move || {
                let mut client = Client::connect(&addr[..]).expect("ingester connect");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut accepted = 0u64;
                let drain = |client: &mut Client, floor: usize| {
                    let mut sum = 0u64;
                    while client.in_flight() > floor {
                        match client.recv().expect("ingest response") {
                            Response::Ingested(n) => sum += n,
                            other => panic!("expected Ingested, got {other:?}"),
                        }
                    }
                    sum
                };
                let begun = Instant::now();
                let mut sent = 0u64;
                while sent < reports {
                    let n = (reports - sent).min(SOCKET_INGEST_BATCH);
                    let batch: Vec<Feedback> = (0..n)
                        .map(|i| {
                            Feedback::scored(
                                AgentId::new(t * 1_000 + 1),
                                ServiceId::new(rng.gen_range(0..SERVICES)),
                                rng.gen(),
                                Time::new(sent + i),
                            )
                        })
                        .collect();
                    client.queue(&Request::Ingest { batch, key: None });
                    client.flush_queued().expect("ingest write");
                    sent += n;
                    accepted += drain(&mut client, SOCKET_INGEST_WINDOW - 1);
                }
                accepted += drain(&mut client, 0);
                (accepted, begun.elapsed().as_secs_f64())
            }));
        }

        let mut query_handles = Vec::new();
        for q in 0..config.query_threads {
            // With --replica, reads fan out round-robin across the
            // replicas while writes stay on the primary.
            let addr = if config.replicas.is_empty() {
                addr
            } else {
                &config.replicas[q as usize % config.replicas.len()]
            };
            let prefs = prefs.clone();
            let queries = config.queries_per_querier;
            let seed = config.seed.wrapping_add(1_000 + q);
            query_handles.push(scope.spawn(move || {
                let mut client = Client::connect(&addr[..]).expect("querier connect");
                let mut rng = StdRng::seed_from_u64(seed);
                let mut latencies = Vec::with_capacity(queries as usize);
                let mut sent_at: VecDeque<Instant> = VecDeque::new();
                let drain = |client: &mut Client,
                             sent_at: &mut VecDeque<Instant>,
                             latencies: &mut Vec<u64>,
                             floor: usize| {
                    while client.in_flight() > floor {
                        match client.recv().expect("query response") {
                            Response::Scored(estimate) => {
                                if let Some(estimate) = estimate {
                                    assert!((0.0..=1.0).contains(&estimate.value.get()));
                                }
                            }
                            Response::TopKResult(top) => assert!(top.len() <= 10),
                            other => panic!("expected a query response, got {other:?}"),
                        }
                        let begun = sent_at.pop_front().expect("one timestamp per request");
                        latencies.push(begun.elapsed().as_nanos() as u64);
                    }
                };
                let begun = Instant::now();
                for i in 0..queries {
                    sent_at.push_back(Instant::now());
                    if i % TOPK_EVERY == 0 {
                        let category = rng.gen_range(0..CATEGORIES);
                        client.queue(&Request::TopK {
                            category,
                            prefs: prefs.clone(),
                            k: 10,
                        });
                    } else {
                        let subject: SubjectId = ServiceId::new(rng.gen_range(0..SERVICES)).into();
                        client.queue(&Request::Score(subject));
                    }
                    client.flush_queued().expect("query write");
                    drain(
                        &mut client,
                        &mut sent_at,
                        &mut latencies,
                        SOCKET_QUERY_WINDOW - 1,
                    );
                }
                drain(&mut client, &mut sent_at, &mut latencies, 0);
                (latencies, begun.elapsed().as_secs_f64())
            }));
        }

        for handle in ingest_handles {
            let (accepted, elapsed) = handle.join().expect("ingester panicked");
            accepted_total += accepted;
            ingest_elapsed = ingest_elapsed.max(elapsed);
        }
        for handle in query_handles {
            let (latencies, elapsed) = handle.join().expect("querier panicked");
            query_latencies.extend(latencies);
            query_elapsed = query_elapsed.max(elapsed);
        }
    });

    setup.flush().expect("final flush RPC");
    let wall = started.elapsed().as_secs_f64();
    let stats = setup.stats().expect("final stats RPC");
    let total_reports = config.ingest_threads * config.reports_per_ingester;
    let total_queries = config.query_threads * config.queries_per_querier;
    assert_eq!(accepted_total, total_reports, "every batch acknowledged");
    assert!(
        stats.service.feedback >= total_reports,
        "flushed reports must be applied server-side"
    );

    // Staleness measurement: with replicas attached, wait for each one's
    // watermark to reach the primary's durable LSN (everything flushed is
    // on the log) and record how far behind each was when first polled.
    let mut replication_json = "null".to_string();
    let mut caught_up = true;
    if !config.replicas.is_empty() {
        let primary_durable = stats
            .service
            .journal
            .map(|health| health.durable_lsn)
            .unwrap_or(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut entries = Vec::new();
        let mut first_lags = Vec::new();
        for replica_addr in &config.replicas {
            let mut replica = Client::connect(&replica_addr[..]).expect("connect replica");
            let mut first_lag = None;
            let final_repl = loop {
                let repl = replica
                    .stats()
                    .expect("replica stats")
                    .replication
                    .expect("a replica advertises replication in Stats");
                first_lag.get_or_insert(primary_durable.saturating_sub(repl.local_durable_lsn));
                if repl.local_durable_lsn >= primary_durable {
                    break repl;
                }
                if Instant::now() >= deadline {
                    caught_up = false;
                    break repl;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            let first_lag = first_lag.unwrap_or(0);
            first_lags.push(first_lag);
            entries.push(format!(
                "{{\"addr\":\"{replica_addr}\",\"durable_lsn\":{},\"lag_at_first_poll\":{first_lag},\"final_lag\":{},\"connected\":{}}}",
                final_repl.local_durable_lsn,
                primary_durable.saturating_sub(final_repl.local_durable_lsn),
                final_repl.connected,
            ));
        }
        let max_first_lag = first_lags.iter().copied().max().unwrap_or(0);
        println!(
            "replication        {:>12} replicas, max lag at first poll {} LSNs, caught_up={}",
            config.replicas.len(),
            max_first_lag,
            caught_up
        );
        replication_json = format!(
            "{{\"replicas\":[{}],\"primary_durable_lsn\":{primary_durable},\"max_lag_at_first_poll\":{max_first_lag},\"caught_up\":{caught_up}}}",
            entries.join(",")
        );
    }

    if config.shutdown {
        setup.shutdown_server().expect("shutdown RPC");
    }

    query_latencies.sort_unstable();
    let p50 = percentile(&query_latencies, 0.50);
    let p99 = percentile(&query_latencies, 0.99);
    let ingest_rate = total_reports as f64 / ingest_elapsed;
    let query_rate = total_queries as f64 / query_elapsed;
    let server = &stats.server;

    println!(
        "loadgen --socket {addr}: {}i x {} reports + {}q x {} queries, seed {}{}",
        config.ingest_threads,
        config.reports_per_ingester,
        config.query_threads,
        config.queries_per_querier,
        config.seed,
        if config.shutdown {
            ", shutdown requested"
        } else {
            ""
        },
    );
    println!("wall time          {wall:>12.3} s");
    println!("ingest throughput  {ingest_rate:>12.0} reports/sec");
    println!("query throughput   {query_rate:>12.0} queries/sec");
    println!("query p50          {:>12.2} µs", p50 as f64 / 1_000.0);
    println!("query p99          {:>12.2} µs", p99 as f64 / 1_000.0);
    println!(
        "server             {:>12} requests, {} connections, {} malformed frames",
        server.total_requests(),
        server.connections_opened,
        server.malformed_frames
    );
    println!(
        "wire               {:>12} bytes in / {} bytes out",
        server.bytes_in, server.bytes_out
    );
    println!(
        "{{\"mode\":\"socket\",\"socket\":\"{}\",\"ingest_threads\":{},\"query_threads\":{},\"reports_per_ingester\":{},\"queries_per_querier\":{},\"seed\":{},\"ingest_batch\":{},\"query_window\":{},\"wall_seconds\":{:.3},\"ingest_ops_per_sec\":{:.0},\"query_ops_per_sec\":{:.0},\"query_p50_ns\":{},\"query_p99_ns\":{},\"feedback_applied\":{},\"replication\":{replication_json},\"server\":{{\"requests\":{},\"connections_opened\":{},\"reports_ingested\":{},\"malformed_frames\":{},\"protocol_errors\":{},\"slow_client_closes\":{},\"bytes_in\":{},\"bytes_out\":{}}}}}",
        addr,
        config.ingest_threads,
        config.query_threads,
        config.reports_per_ingester,
        config.queries_per_querier,
        config.seed,
        SOCKET_INGEST_BATCH,
        SOCKET_QUERY_WINDOW,
        wall,
        ingest_rate,
        query_rate,
        p50,
        p99,
        stats.service.feedback,
        server.total_requests(),
        server.connections_opened,
        server.reports_ingested,
        server.malformed_frames,
        server.protocol_errors,
        server.slow_client_closes,
        server.bytes_in,
        server.bytes_out,
    );
    assert!(
        caught_up,
        "a replica never reached the primary's durable LSN"
    );
    assert_eq!(
        server.malformed_frames, 0,
        "the server saw malformed frames"
    );
}

/// `--chaos`: the CI chaos smoke. Every ingester reaches the server
/// only through an in-process [`FlakyProxy`] that keeps dropping,
/// splitting and delaying the stream, and retries each keyed batch
/// until it is acked — then the run verifies over a clean connection
/// that the server applied exactly the acked count (`exactly_once`:
/// `acked_survive`, no losses, then `applied_once`, no double-applies),
/// and reports the injected-fault counters so the CI gate can prove the
/// chaos actually happened. Composes with a server started under
/// `--fault-append-every` for the disk half.
fn run_chaos(config: Config) {
    use std::net::ToSocketAddrs as _;
    let addr = &config.socket;
    let upstream = addr
        .to_socket_addrs()
        .expect("resolve --socket address")
        .next()
        .expect("--socket resolved to nothing");
    let proxy = FlakyProxy::start(
        upstream,
        ChaosConfig {
            seed: config.seed,
            drop_conn_every: Some(101),
            split_chunks: true,
            delay_every: Some(47),
            delay: Duration::from_millis(1),
            ..ChaosConfig::default()
        },
    )
    .expect("chaos proxy");
    let proxy_addr = proxy.addr().to_string();

    let begun = Instant::now();
    let mut handles = Vec::new();
    for t in 0..config.ingest_threads {
        let proxy_addr = proxy_addr.clone();
        let reports = config.reports_per_ingester;
        let batch_size = config.batch_size as u64;
        let seed = config.seed;
        handles.push(std::thread::spawn(move || {
            let mut client = RetryingClient::new(
                proxy_addr,
                RetryPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(50),
                    multiplier: 2.0,
                    max_attempts: 200,
                    deadline: None,
                },
            )
            .with_producer(seed.wrapping_mul(1_000).wrapping_add(t));
            client.set_read_timeout(Some(Duration::from_secs(5)));
            let mut sent = 0u64;
            let mut acked = 0u64;
            while sent < reports {
                let n = batch_size.min(reports - sent);
                let batch: Vec<Feedback> = (0..n)
                    .map(|i| {
                        let at = sent + i;
                        Feedback::scored(
                            AgentId::new(t * 1_000_000 + at),
                            ServiceId::new(at % SERVICES),
                            0.5 + (at % 5) as f64 / 10.0,
                            Time::new(at),
                        )
                    })
                    .collect();
                acked += client.ingest(batch).expect("keyed ingest through chaos");
                sent += n;
            }
            client.flush().expect("flush through chaos");
            acked
        }));
    }
    let acked: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("ingester"))
        .sum();
    let wall = begun.elapsed().as_secs_f64();

    // Verify over a clean, direct connection — the proxy stays chaotic.
    let mut direct = Client::connect(&addr[..]).expect("direct connect");
    let stats = direct.stats().expect("stats");
    let applied = stats.service.feedback;
    let (journal_errors, degraded, fenced) = match stats.service.journal {
        Some(health) => (health.journal_errors, health.degraded, health.fenced),
        None => (0, false, false),
    };
    if config.shutdown {
        direct.shutdown_server().expect("shutdown");
    }
    let counters = proxy.counters();
    // Only counts cross the wire.
    let verdict = exactly_once(acked as usize, applied as usize);
    let violation = verdict
        .as_ref()
        .err()
        .map(|v| format!("{:?}", v.to_string()));

    println!(
        "chaos ingest       {:>12} acked / {} applied",
        acked, applied
    );
    println!(
        "chaos link faults  {:>12} (drops {}, delays {})",
        counters.injected(),
        counters.dropped_conns,
        counters.delayed_chunks
    );
    println!(
        "{{\"mode\":\"chaos\",\"ingest_threads\":{},\"reports_per_ingester\":{},\"batch\":{},\"seed\":{},\"wall_seconds\":{:.3},\"acked\":{},\"applied\":{},\"violation\":{},\"injected_link_faults\":{},\"dropped_conns\":{},\"delayed_chunks\":{},\"proxy_conns\":{},\"journal_errors\":{},\"degraded\":{},\"fenced\":{}}}",
        config.ingest_threads,
        config.reports_per_ingester,
        config.batch_size,
        config.seed,
        wall,
        acked,
        applied,
        violation.as_deref().unwrap_or("null"),
        counters.injected(),
        counters.dropped_conns,
        counters.delayed_chunks,
        counters.accepted_conns,
        journal_errors,
        degraded,
        fenced,
    );
    if let Err(found) = verdict {
        panic!("under chaos: {found}");
    }
    assert!(
        counters.injected() > 0,
        "the chaos schedule never fired; this smoke proved nothing"
    );
}
fn main() {
    let config = parse_args();
    if config.ingest_threads == 0 || config.query_threads == 0 {
        usage_error("ingest_threads and query_threads must be at least 1");
    }
    if config.chaos {
        run_chaos(config);
    } else {
        run_socket(config);
    }
}
