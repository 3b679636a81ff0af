//! loadgen — a multi-threaded load driver for the served registry.
//!
//! Spawns M ingest threads force-feeding the bounded pipeline and K query
//! threads hammering `score` / `top_k` at the same time, then reports
//! throughput (ops/sec per side) and query latency percentiles (p50 /
//! p99). The workload is fully determined by the seed and thread counts,
//! so two runs on the same machine are comparable.
//!
//! ```text
//! loadgen [--journal[=DIR]] [--skew S] [--replay] [ingest_threads] \
//!         [query_threads] [reports_per_ingester] [queries_per_querier] \
//!         [shards] [seed]
//! ```
//!
//! Defaults: 4 ingesters, 4 queriers, 50 000 reports and 50 000 queries
//! per thread, 8 shards, seed 42. The last stdout line is a JSON object
//! (see BENCH_serve.json at the repo root for a checked-in baseline).
//!
//! `--journal` attaches a write-ahead log (to a fresh directory under the
//! system temp dir, or to `DIR` with `--journal=DIR`), so the ingest side
//! pays one group-commit fsync per applied batch. Comparing a run with
//! and without the flag is the durability-cost measurement checked in as
//! BENCH_journal.json.
//!
//! `--skew S` draws the subject of every report and score query from a
//! Zipf(S) distribution over the services instead of uniformly (S = 0 is
//! uniform). Skew concentrates feedback on a few hot subjects, growing
//! their logs — exactly the workload where incremental scoring beats
//! replaying them. `--replay` disables the incremental fold so the
//! before/after cost is measurable on one binary; the comparison is
//! checked in as BENCH_incremental.json.
//!
//! `--socket ADDR` drives a running `wsrep-server` over TCP instead of an
//! in-process service: every ingester and querier opens its own
//! connection and pipelines requests (batched `Ingest` frames on the
//! write side, a sliding window of `Score`/`TopK` on the read side), so
//! the reported q/s and p99 include the wire, the framing, and the
//! server's reactor. The JSON line carries the server-side counters from
//! a final `Stats` RPC; `--shutdown` additionally sends the `Shutdown`
//! request when done, so one loadgen invocation can gate a CI smoke run
//! end to end. All in-process knobs that pick the service build (shards,
//! `--journal`, `--replay`) are ignored in socket mode — the server
//! already chose them.
//!
//! `--replica ADDR` (repeatable, socket mode only) fans the query side
//! out across read replicas: querier `q` connects to replica `q mod N`
//! while setup and ingest stay on the primary (`--socket`), which is the
//! read-scaling deployment `wsrep-cluster` exists for. After the ingest
//! side finishes and flushes, loadgen polls every replica's `Stats`
//! until its replication watermark reaches the primary's durable LSN;
//! the JSON line gains a `replication` object with each replica's final
//! lag and whether everyone caught up (the staleness-bound measurement
//! checked in as BENCH_cluster.json).
//!
//! `--read-heavy` switches to the contention-scaling sweep: preload the
//! registry (`ingest_threads × reports_per_ingester` reports, flushed),
//! then run the pure query mix at 1, 2, 4, … up to `query_threads`
//! threads, injecting a burst of fresh feedback between points so
//! invalidation and re-ranking stay in the measurement. Latency is
//! sampled (1 in 32 ops) to keep `Instant::now` out of the hot loop.
//! The JSON line carries the whole sweep plus flat
//! `query_ops_per_sec_{1,8,max}t` keys for CI gates; the checked-in
//! curve is BENCH_readpath.json.
//!
//! `--write-heavy` is the ingest-side dual: sweep pure ingest load at 1,
//! 2, 4, … up to `ingest_threads` producer threads, each point against a
//! freshly built service (and, with `--journal`, a fresh WAL directory),
//! timed from first submit to `flush()` so every point includes its
//! durability cost. `--writer-groups N` partitions the journal over N
//! writer groups — N private logs, N independent group-commit fsync
//! pipelines — which is the knob the checked-in BENCH_wal.json compares
//! at 1 vs 2 vs 4 groups. Per-point fsync stats (commits, last-fsync
//! latency, bytes) ride along in the JSON line.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ProviderId, ServiceId, SubjectId};
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_server::{
    ChaosConfig, Client, FlakyProxy, Request, Response, RetryPolicy, RetryingClient,
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
    shards: usize,
    seed: u64,
    journal: Option<PathBuf>,
    skew: f64,
    replay: bool,
    read_heavy: bool,
    write_heavy: bool,
    writer_groups: usize,
    batch_size: usize,
    socket: Option<String>,
    replicas: Vec<String>,
    shutdown: bool,
    chaos: bool,
}

fn parse_args() -> Config {
    let mut journal = None;
    let mut skew = 0.0f64;
    let mut replay = false;
    let mut read_heavy = false;
    let mut write_heavy = false;
    let mut writer_groups = 1usize;
    let mut batch_size = 128usize;
    let mut socket = None;
    let mut replicas = Vec::new();
    let mut shutdown = false;
    let mut chaos = false;
    let mut numbers = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--socket" {
            socket = Some(args.next().expect("--socket takes a server address"));
        } else if let Some(addr) = arg.strip_prefix("--socket=") {
            socket = Some(addr.to_string());
        } else if arg == "--replica" {
            replicas.push(args.next().expect("--replica takes a replica address"));
        } else if let Some(addr) = arg.strip_prefix("--replica=") {
            replicas.push(addr.to_string());
        } else if arg == "--shutdown" {
            shutdown = true;
        } else if arg == "--chaos" {
            chaos = true;
        } else if arg == "--journal" {
            journal = Some(
                std::env::temp_dir().join(format!("wsrep-loadgen-journal-{}", std::process::id())),
            );
        } else if let Some(dir) = arg.strip_prefix("--journal=") {
            journal = Some(PathBuf::from(dir));
        } else if arg == "--replay" {
            replay = true;
        } else if arg == "--read-heavy" {
            read_heavy = true;
        } else if arg == "--write-heavy" {
            write_heavy = true;
        } else if arg == "--writer-groups" {
            let value = args.next().expect("--writer-groups takes a count");
            writer_groups = value
                .parse()
                .unwrap_or_else(|_| panic!("--writer-groups expects a number, got {value:?}"));
        } else if let Some(value) = arg.strip_prefix("--writer-groups=") {
            writer_groups = value
                .parse()
                .unwrap_or_else(|_| panic!("--writer-groups expects a number, got {value:?}"));
        } else if arg == "--batch" {
            let value = args.next().expect("--batch takes a batch size");
            batch_size = value
                .parse()
                .unwrap_or_else(|_| panic!("--batch expects a number, got {value:?}"));
        } else if let Some(value) = arg.strip_prefix("--batch=") {
            batch_size = value
                .parse()
                .unwrap_or_else(|_| panic!("--batch expects a number, got {value:?}"));
        } else if arg == "--skew" {
            let value = args.next().expect("--skew takes a Zipf exponent");
            skew = value
                .parse()
                .unwrap_or_else(|_| panic!("--skew expects a number, got {value:?}"));
        } else if let Some(value) = arg.strip_prefix("--skew=") {
            skew = value
                .parse()
                .unwrap_or_else(|_| panic!("--skew expects a number, got {value:?}"));
        } else {
            numbers.push(arg.parse::<u64>().unwrap_or_else(|_| {
                panic!(
                    "expected a number or --journal[=DIR] / --skew S / --replay / --read-heavy / --write-heavy / --writer-groups N / --socket ADDR / --replica ADDR / --shutdown, got {arg:?}"
                )
            }));
        }
    }
    assert!(skew >= 0.0, "Zipf exponent must be non-negative");
    assert!(
        replicas.is_empty() || socket.is_some(),
        "--replica requires --socket (the primary the replicas trail)"
    );
    assert!(
        !chaos || socket.is_some(),
        "--chaos requires --socket (the server to proxy in front of)"
    );
    let get = |i: usize, default: u64| numbers.get(i).copied().unwrap_or(default);
    Config {
        ingest_threads: get(0, 4),
        query_threads: get(1, 4),
        reports_per_ingester: get(2, 50_000),
        queries_per_querier: get(3, 50_000),
        shards: get(4, 8) as usize,
        seed: get(5, 42),
        journal,
        skew,
        replay,
        read_heavy,
        write_heavy,
        writer_groups: writer_groups.max(1),
        batch_size: batch_size.max(1),
        socket,
        replicas,
        shutdown,
        chaos,
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF binary search;
/// `s = 0` degenerates to the uniform distribution.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

fn percentile(sorted_nanos: &[u64], p: f64) -> u64 {
    if sorted_nanos.is_empty() {
        return 0;
    }
    let rank = ((sorted_nanos.len() - 1) as f64 * p).round() as usize;
    sorted_nanos[rank]
}

/// One point of the read-heavy thread sweep.
struct SweepPoint {
    threads: u64,
    ops_per_sec: f64,
    p50_ns: u64,
    p99_ns: u64,
}

/// Sample one query latency in this many ops — keeps two `Instant::now`
/// calls per sample out of the sub-100ns hot loop.
const LATENCY_SAMPLE_EVERY: u64 = 32;

/// The contention-scaling sweep: preload, then pure query load at
/// doubling thread counts with an invalidation burst between points.
fn run_read_heavy(config: Config) {
    let mut builder = ReputationService::builder()
        .shards(config.shards)
        .channel_capacity(4096)
        .batch_size(config.batch_size);
    if let Some(dir) = &config.journal {
        builder = builder.journal(dir);
    }
    if config.replay {
        builder = builder.replay_scoring();
    }
    let service = Arc::new(builder.build());
    let zipf = Arc::new(Zipf::new(SERVICES, config.skew));
    let mut seeder = StdRng::seed_from_u64(config.seed);
    for s in 0..SERVICES {
        service
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
            .expect("publish");
    }
    let prefs = Preferences::uniform([Metric::Price, Metric::ResponseTime, Metric::Accuracy]);

    // Preload: the read path should be measured over a warm registry.
    let preload = config.ingest_threads * config.reports_per_ingester;
    {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(7));
        for i in 0..preload {
            let subject = zipf.sample(&mut rng);
            service
                .ingest(Feedback::scored(
                    AgentId::new(1 + i % 97),
                    ServiceId::new(subject),
                    rng.gen(),
                    Time::new(i),
                ))
                .expect("pipeline open during preload");
        }
        service.flush();
    }

    let started = Instant::now();
    let mut thread_counts = Vec::new();
    let mut t = 1;
    while t < config.query_threads {
        thread_counts.push(t);
        t *= 2;
    }
    thread_counts.push(config.query_threads);

    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut burst_rng = StdRng::seed_from_u64(config.seed.wrapping_add(13));
    for (point, &threads) in thread_counts.iter().enumerate() {
        if point > 0 {
            // Invalidation burst between points: fresh feedback moves
            // subject and category epochs, so every point re-pays the
            // first misses and the sweep measures steady re-cached load.
            for i in 0..1_000u64 {
                let subject = zipf.sample(&mut burst_rng);
                service
                    .ingest(Feedback::scored(
                        AgentId::new(500 + i % 13),
                        ServiceId::new(subject),
                        burst_rng.gen(),
                        Time::new(preload + i),
                    ))
                    .expect("pipeline open between sweep points");
            }
            service.flush();
        }
        let mut latencies: Vec<u64> = Vec::new();
        let mut elapsed = 0.0f64;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for q in 0..threads {
                let service = Arc::clone(&service);
                let zipf = Arc::clone(&zipf);
                let prefs = prefs.clone();
                let queries = config.queries_per_querier;
                let seed = config.seed.wrapping_add(10_000 + threads * 100 + q);
                handles.push(scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut sampled =
                        Vec::with_capacity((queries / LATENCY_SAMPLE_EVERY) as usize + 1);
                    let mut topk_buf = Vec::new();
                    let begun = Instant::now();
                    for i in 0..queries {
                        let sample = i % LATENCY_SAMPLE_EVERY == 0;
                        let op_started = sample.then(Instant::now);
                        if i % TOPK_EVERY == 0 {
                            let category = rng.gen_range(0..CATEGORIES);
                            service.top_k_into(category, &prefs, 10, &mut topk_buf);
                            assert!(topk_buf.len() <= 10);
                        } else {
                            let subject: SubjectId = ServiceId::new(zipf.sample(&mut rng)).into();
                            if let Some(estimate) = service.score(subject) {
                                assert!((0.0..=1.0).contains(&estimate.value.get()));
                            }
                        }
                        if let Some(op_started) = op_started {
                            sampled.push(op_started.elapsed().as_nanos() as u64);
                        }
                    }
                    (sampled, begun.elapsed().as_secs_f64())
                }));
            }
            for handle in handles {
                let (sampled, thread_elapsed) = handle.join().expect("querier panicked");
                latencies.extend(sampled);
                elapsed = elapsed.max(thread_elapsed);
            }
        });
        latencies.sort_unstable();
        let total_ops = threads * config.queries_per_querier;
        sweep.push(SweepPoint {
            threads,
            ops_per_sec: total_ops as f64 / elapsed,
            p50_ns: percentile(&latencies, 0.50),
            p99_ns: percentile(&latencies, 0.99),
        });
    }

    let wall = started.elapsed().as_secs_f64();
    let stats = service.stats();
    let peak = sweep.last().expect("at least one sweep point");
    let single = sweep.first().expect("at least one sweep point");

    println!(
        "loadgen --read-heavy: {} preloaded reports, {} queries/thread, sweep {:?} threads, {} shards, seed {}, skew {}, {} scoring",
        preload,
        config.queries_per_querier,
        thread_counts,
        config.shards,
        config.seed,
        config.skew,
        if stats.incremental { "incremental" } else { "replay" },
    );
    for point in &sweep {
        println!(
            "{:>3} threads  {:>12.0} queries/sec   p50 {:>8.2} µs   p99 {:>8.2} µs",
            point.threads,
            point.ops_per_sec,
            point.p50_ns as f64 / 1_000.0,
            point.p99_ns as f64 / 1_000.0,
        );
    }
    println!(
        "pre-ranked         {:>12} hits / {} misses",
        stats.preranked_hits, stats.preranked_misses
    );
    println!("snapshot swaps     {:>12}", stats.snapshot_swaps);

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\":{},\"query_ops_per_sec\":{:.0},\"query_p50_ns\":{},\"query_p99_ns\":{}}}",
                p.threads, p.ops_per_sec, p.p50_ns, p.p99_ns
            )
        })
        .collect();
    let at_8 = sweep
        .iter()
        .find(|p| p.threads == 8)
        .map(|p| format!("{:.0}", p.ops_per_sec))
        .unwrap_or_else(|| "null".to_string());
    println!(
        "{{\"mode\":\"read_heavy\",\"preload_reports\":{},\"queries_per_querier\":{},\"max_query_threads\":{},\"shards\":{},\"seed\":{},\"skew\":{},\"incremental\":{},\"wall_seconds\":{:.3},\"sweep\":[{}],\"query_ops_per_sec_1t\":{:.0},\"query_ops_per_sec_8t\":{},\"query_ops_per_sec\":{:.0},\"query_p50_ns\":{},\"query_p99_ns\":{},\"preranked_hits\":{},\"preranked_misses\":{},\"snapshot_swaps\":{},\"scratch_reuse\":{}}}",
        preload,
        config.queries_per_querier,
        config.query_threads,
        config.shards,
        config.seed,
        config.skew,
        stats.incremental,
        wall,
        sweep_json.join(","),
        single.ops_per_sec,
        at_8,
        peak.ops_per_sec,
        peak.p50_ns,
        peak.p99_ns,
        stats.preranked_hits,
        stats.preranked_misses,
        stats.snapshot_swaps,
        stats.scratch_reuse,
    );
}

/// One point of the write-heavy ingest sweep.
struct WritePoint {
    threads: u64,
    ops_per_sec: f64,
    commits: u64,
    fsyncs_per_sec: f64,
    last_fsync_ns: u64,
    bytes_appended: u64,
}

/// The write-path sweep: pure ingest load at doubling producer counts,
/// each point on a freshly built service so journal state never bleeds
/// between points. Timed from first submit to `flush()` — with a journal
/// attached every point pays its full group-commit fsync bill before the
/// clock stops.
fn run_write_heavy(config: Config) {
    let mut thread_counts = Vec::new();
    let mut t = 1;
    while t < config.ingest_threads {
        thread_counts.push(t);
        t *= 2;
    }
    thread_counts.push(config.ingest_threads);

    let mut seeder = StdRng::seed_from_u64(config.seed);
    let listings: Vec<Listing> = (0..SERVICES)
        .map(|s| Listing {
            service: ServiceId::new(s),
            provider: ProviderId::new(s / 4),
            category: (s % CATEGORIES as u64) as u32,
            advertised: QosVector::from_pairs([
                (Metric::Price, seeder.gen_range(1.0..10.0)),
                (Metric::ResponseTime, seeder.gen_range(20.0..500.0)),
                (Metric::Accuracy, seeder.gen_range(0.3..1.0)),
            ]),
        })
        .collect();

    let started = Instant::now();
    let mut sweep: Vec<WritePoint> = Vec::new();
    for &threads in &thread_counts {
        let point_dir = config
            .journal
            .as_ref()
            .map(|dir| dir.join(format!("t{threads}")));
        let mut builder = ReputationService::builder()
            .shards(config.shards)
            .channel_capacity(4096)
            .batch_size(config.batch_size)
            .writer_groups(config.writer_groups);
        if let Some(dir) = &point_dir {
            let _ = std::fs::remove_dir_all(dir);
            builder = builder.journal(dir);
        }
        if config.replay {
            builder = builder.replay_scoring();
        }
        let service = Arc::new(builder.build());
        for listing in &listings {
            service.publish(listing.clone()).expect("publish");
        }

        let zipf = Arc::new(Zipf::new(SERVICES, config.skew));
        let begun = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let service = Arc::clone(&service);
                let zipf = Arc::clone(&zipf);
                let reports = config.reports_per_ingester;
                let seed = config.seed.wrapping_add(threads * 100 + t + 1);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for i in 0..reports {
                        let subject = zipf.sample(&mut rng);
                        service
                            .ingest(Feedback::scored(
                                AgentId::new(t * 1_000 + 1),
                                ServiceId::new(subject),
                                rng.gen(),
                                Time::new(i),
                            ))
                            .expect("pipeline open for the whole point");
                    }
                });
            }
        });
        // Durability barrier: the point is not done until everything
        // submitted is applied (and fsynced, with a journal).
        service.flush();
        let elapsed = begun.elapsed().as_secs_f64();

        let stats = service.stats();
        let total = threads * config.reports_per_ingester;
        assert_eq!(stats.feedback, total, "every report applied");
        let (commits, last_fsync_ns, bytes_appended) = match stats.journal {
            Some(health) => {
                assert!(!health.degraded, "journal degraded during the sweep");
                assert_eq!(
                    health.writer_groups, config.writer_groups as u64,
                    "the journal must run the requested writer groups"
                );
                (
                    health.commits,
                    health.last_fsync_nanos,
                    health.bytes_appended,
                )
            }
            None => (0, 0, 0),
        };
        sweep.push(WritePoint {
            threads,
            ops_per_sec: total as f64 / elapsed,
            commits,
            fsyncs_per_sec: commits as f64 / elapsed,
            last_fsync_ns,
            bytes_appended,
        });
        drop(service);
        if let Some(dir) = &point_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let wall = started.elapsed().as_secs_f64();
    let peak = sweep.last().expect("at least one sweep point");
    let single = sweep.first().expect("at least one sweep point");

    println!(
        "loadgen --write-heavy: {} reports/thread, sweep {:?} threads, {} writer groups, {} shards, seed {}, skew {}{}",
        config.reports_per_ingester,
        thread_counts,
        config.writer_groups,
        config.shards,
        config.seed,
        config.skew,
        if config.journal.is_some() {
            ", journaled"
        } else {
            ""
        },
    );
    for point in &sweep {
        println!(
            "{:>3} threads  {:>12.0} reports/sec   {:>9} commits ({:>8.0}/sec)   last fsync {:>8.2} µs",
            point.threads,
            point.ops_per_sec,
            point.commits,
            point.fsyncs_per_sec,
            point.last_fsync_ns as f64 / 1_000.0,
        );
    }

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "{{\"threads\":{},\"ingest_ops_per_sec\":{:.0},\"commits\":{},\"fsyncs_per_sec\":{:.0},\"last_fsync_nanos\":{},\"bytes_appended\":{}}}",
                p.threads, p.ops_per_sec, p.commits, p.fsyncs_per_sec, p.last_fsync_ns, p.bytes_appended
            )
        })
        .collect();
    println!(
        "{{\"mode\":\"write_heavy\",\"writer_groups\":{},\"reports_per_ingester\":{},\"max_ingest_threads\":{},\"shards\":{},\"seed\":{},\"skew\":{},\"journaled\":{},\"wall_seconds\":{:.3},\"sweep\":[{}],\"ingest_ops_per_sec_1t\":{:.0},\"ingest_ops_per_sec\":{:.0}}}",
        config.writer_groups,
        config.reports_per_ingester,
        config.ingest_threads,
        config.shards,
        config.seed,
        config.skew,
        config.journal.is_some(),
        wall,
        sweep_json.join(","),
        single.ops_per_sec,
        peak.ops_per_sec,
    );
}

/// Reports per `Ingest` frame in socket mode.
const SOCKET_INGEST_BATCH: u64 = 128;
/// In-flight `Ingest` frames per ingester connection.
const SOCKET_INGEST_WINDOW: usize = 4;
/// In-flight queries per querier connection (the pipelining window).
const SOCKET_QUERY_WINDOW: usize = 32;

/// Drive a running `wsrep-server` over TCP: same mixed workload as the
/// in-process mode, but every operation crosses the wire. Latencies are
/// measured enqueue-to-response, so the pipeline window's queueing delay
/// is part of p99 — that is the number a remote caller would see.
fn run_socket(config: Config, addr: String) {
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
    let zipf = Arc::new(Zipf::new(SERVICES, config.skew));

    let started = Instant::now();
    let mut query_latencies: Vec<u64> = Vec::new();
    let mut ingest_elapsed = 0.0f64;
    let mut query_elapsed = 0.0f64;
    let mut accepted_total = 0u64;

    std::thread::scope(|scope| {
        let mut ingest_handles = Vec::new();
        for t in 0..config.ingest_threads {
            let addr = addr.clone();
            let zipf = Arc::clone(&zipf);
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
                                ServiceId::new(zipf.sample(&mut rng)),
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
                addr.clone()
            } else {
                config.replicas[q as usize % config.replicas.len()].clone()
            };
            let zipf = Arc::clone(&zipf);
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
                        let subject: SubjectId = ServiceId::new(zipf.sample(&mut rng)).into();
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
    if !config.replicas.is_empty() {
        let primary_durable = stats
            .service
            .journal
            .map(|health| health.durable_lsn)
            .unwrap_or(0);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut entries = Vec::new();
        let mut first_lags = Vec::new();
        let mut caught_up = true;
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
        "loadgen --socket {addr}: {}i x {} reports + {}q x {} queries, seed {}, skew {}{}",
        config.ingest_threads,
        config.reports_per_ingester,
        config.query_threads,
        config.queries_per_querier,
        config.seed,
        config.skew,
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
        "{{\"mode\":\"socket\",\"socket\":\"{}\",\"ingest_threads\":{},\"query_threads\":{},\"reports_per_ingester\":{},\"queries_per_querier\":{},\"seed\":{},\"skew\":{},\"ingest_batch\":{},\"query_window\":{},\"wall_seconds\":{:.3},\"ingest_ops_per_sec\":{:.0},\"query_ops_per_sec\":{:.0},\"query_p50_ns\":{},\"query_p99_ns\":{},\"feedback_applied\":{},\"replication\":{replication_json},\"server\":{{\"requests\":{},\"connections_opened\":{},\"reports_ingested\":{},\"malformed_frames\":{},\"protocol_errors\":{},\"slow_client_closes\":{},\"bytes_in\":{},\"bytes_out\":{}}}}}",
        addr,
        config.ingest_threads,
        config.query_threads,
        config.reports_per_ingester,
        config.queries_per_querier,
        config.seed,
        config.skew,
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
}

/// `--chaos`: the CI chaos smoke. Every ingester reaches the server
/// only through an in-process [`FlakyProxy`] that keeps dropping,
/// splitting and delaying the stream, and retries each keyed batch
/// until it is acked — then the run verifies over a clean connection
/// that the server applied exactly the acked count (no losses, no
/// double-applies), and reports the injected-fault counters so the CI
/// gate can prove the chaos actually happened. Composes with a server
/// started under `--fault-append-every` for the disk half.
fn run_chaos(config: Config, addr: String) {
    use std::net::ToSocketAddrs as _;
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
    let lost = acked.saturating_sub(applied);
    let extra = applied.saturating_sub(acked);

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
        "{{\"mode\":\"chaos\",\"ingest_threads\":{},\"reports_per_ingester\":{},\"batch\":{},\"seed\":{},\"wall_seconds\":{:.3},\"acked\":{},\"applied\":{},\"lost_acked_writes\":{},\"double_applied\":{},\"injected_link_faults\":{},\"dropped_conns\":{},\"delayed_chunks\":{},\"proxy_conns\":{},\"journal_errors\":{},\"degraded\":{},\"fenced\":{}}}",
        config.ingest_threads,
        config.reports_per_ingester,
        config.batch_size,
        config.seed,
        wall,
        acked,
        applied,
        lost,
        extra,
        counters.injected(),
        counters.dropped_conns,
        counters.delayed_chunks,
        counters.accepted_conns,
        journal_errors,
        degraded,
        fenced,
    );
    assert_eq!(lost, 0, "acked writes were lost under chaos");
    assert_eq!(extra, 0, "retried batches were double-applied under chaos");
    assert!(
        counters.injected() > 0,
        "the chaos schedule never fired; this smoke proved nothing"
    );
}

fn main() {
    let config = parse_args();
    assert!(config.ingest_threads >= 1 && config.query_threads >= 1);

    if let Some(addr) = config.socket.clone() {
        if config.chaos {
            run_chaos(config, addr);
        } else {
            run_socket(config, addr);
        }
        return;
    }
    if config.read_heavy {
        run_read_heavy(config);
        return;
    }
    if config.write_heavy {
        run_write_heavy(config);
        return;
    }

    let mut builder = ReputationService::builder()
        .shards(config.shards)
        .channel_capacity(4096)
        .batch_size(config.batch_size)
        .writer_groups(config.writer_groups);
    if let Some(dir) = &config.journal {
        builder = builder.journal(dir);
    }
    if config.replay {
        builder = builder.replay_scoring();
    }
    let service = Arc::new(builder.build());
    let zipf = Arc::new(Zipf::new(SERVICES, config.skew));
    let mut seeder = StdRng::seed_from_u64(config.seed);
    for s in 0..SERVICES {
        service
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
            .expect("publish");
    }
    let prefs = Preferences::uniform([Metric::Price, Metric::ResponseTime, Metric::Accuracy]);

    let started = Instant::now();
    let mut query_latencies: Vec<u64> = Vec::new();
    let mut ingest_elapsed = 0.0f64;
    let mut query_elapsed = 0.0f64;

    std::thread::scope(|scope| {
        let mut ingest_handles = Vec::new();
        for t in 0..config.ingest_threads {
            let service = Arc::clone(&service);
            let zipf = Arc::clone(&zipf);
            let reports = config.reports_per_ingester;
            let seed = config.seed.wrapping_add(t + 1);
            ingest_handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let begun = Instant::now();
                for i in 0..reports {
                    let subject = zipf.sample(&mut rng);
                    let score: f64 = rng.gen();
                    service
                        .ingest(Feedback::scored(
                            AgentId::new(t * 1_000 + 1),
                            ServiceId::new(subject),
                            score,
                            Time::new(i),
                        ))
                        .expect("pipeline open for the whole run");
                }
                begun.elapsed().as_secs_f64()
            }));
        }

        let mut query_handles = Vec::new();
        for q in 0..config.query_threads {
            let service = Arc::clone(&service);
            let zipf = Arc::clone(&zipf);
            let prefs = prefs.clone();
            let queries = config.queries_per_querier;
            let seed = config.seed.wrapping_add(1_000 + q);
            query_handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut latencies = Vec::with_capacity(queries as usize);
                let begun = Instant::now();
                for i in 0..queries {
                    let op_started = Instant::now();
                    if i % TOPK_EVERY == 0 {
                        let category = rng.gen_range(0..CATEGORIES);
                        let top = service.top_k(category, &prefs, 10);
                        assert!(top.len() <= 10);
                    } else {
                        let subject: SubjectId = ServiceId::new(zipf.sample(&mut rng)).into();
                        if let Some(estimate) = service.score(subject) {
                            assert!((0.0..=1.0).contains(&estimate.value.get()));
                        }
                    }
                    latencies.push(op_started.elapsed().as_nanos() as u64);
                }
                (latencies, begun.elapsed().as_secs_f64())
            }));
        }

        for handle in ingest_handles {
            ingest_elapsed = ingest_elapsed.max(handle.join().expect("ingester panicked"));
        }
        for handle in query_handles {
            let (latencies, elapsed) = handle.join().expect("querier panicked");
            query_latencies.extend(latencies);
            query_elapsed = query_elapsed.max(elapsed);
        }
    });

    service.flush();
    let wall = started.elapsed().as_secs_f64();
    let stats = service.stats();
    let total_reports = config.ingest_threads * config.reports_per_ingester;
    let total_queries = config.query_threads * config.queries_per_querier;
    assert_eq!(
        stats.feedback, total_reports,
        "every accepted report must be applied"
    );

    query_latencies.sort_unstable();
    let p50 = percentile(&query_latencies, 0.50);
    let p99 = percentile(&query_latencies, 0.99);
    let ingest_rate = total_reports as f64 / ingest_elapsed;
    let query_rate = total_queries as f64 / query_elapsed;

    println!(
        "loadgen: {}i x {} reports + {}q x {} queries, {} shards, seed {}, skew {}, {} scoring{}",
        config.ingest_threads,
        config.reports_per_ingester,
        config.query_threads,
        config.queries_per_querier,
        config.shards,
        config.seed,
        config.skew,
        if stats.incremental {
            "incremental"
        } else {
            "replay"
        },
        match &config.journal {
            Some(dir) => format!(", journal at {}", dir.display()),
            None => String::new(),
        }
    );
    println!("wall time          {wall:>12.3} s");
    println!("ingest throughput  {ingest_rate:>12.0} reports/sec");
    println!("query throughput   {query_rate:>12.0} queries/sec");
    println!("query p50          {:>12.2} µs", p50 as f64 / 1_000.0);
    println!("query p99          {:>12.2} µs", p99 as f64 / 1_000.0);
    println!(
        "top-k plans        {:>12} hits / {} rebuilds",
        stats.topk_plan_hits, stats.topk_plan_misses
    );
    let journal_json = match stats.journal {
        Some(health) => {
            assert!(!health.degraded, "journal degraded during the run");
            println!(
                "journal            {:>12} segments, {} bytes, {} commits",
                health.segments, health.bytes_appended, health.commits
            );
            println!(
                "journal last fsync {:>12.2} µs",
                health.last_fsync_nanos as f64 / 1_000.0
            );
            format!(
                "{{\"segments\":{},\"bytes_appended\":{},\"commits\":{},\"last_fsync_nanos\":{},\"records_recovered\":{},\"writer_groups\":{},\"journal_errors\":{},\"degraded\":{},\"fenced\":{}}}",
                health.segments,
                health.bytes_appended,
                health.commits,
                health.last_fsync_nanos,
                health.records_recovered,
                health.writer_groups,
                health.journal_errors,
                health.degraded,
                health.fenced
            )
        }
        None => "null".to_string(),
    };
    println!(
        "{{\"ingest_threads\":{},\"query_threads\":{},\"reports_per_ingester\":{},\"queries_per_querier\":{},\"shards\":{},\"seed\":{},\"skew\":{},\"incremental\":{},\"wall_seconds\":{:.3},\"ingest_ops_per_sec\":{:.0},\"query_ops_per_sec\":{:.0},\"query_p50_ns\":{},\"query_p99_ns\":{},\"topk_plan_hits\":{},\"topk_plan_misses\":{},\"feedback_applied\":{},\"journal\":{}}}",
        config.ingest_threads,
        config.query_threads,
        config.reports_per_ingester,
        config.queries_per_querier,
        config.shards,
        config.seed,
        config.skew,
        stats.incremental,
        wall,
        ingest_rate,
        query_rate,
        p50,
        p99,
        stats.topk_plan_hits,
        stats.topk_plan_misses,
        stats.feedback,
        journal_json
    );
}
