//! The traced run: one lifecycle of the workload with spans around every
//! client call, a stage replay of the same requests in-process, and probes
//! of single layers — yielding every per-layer metric.
//!
//! Time is measured from outside, around public calls; counts come from
//! `Stats` and `/proc`. Everything here is fed the workload's own generated
//! inputs: its listings, its report stream, its query mix and skew.

use crate::hist::{median, supported_quantile, Histogram};
use crate::host::{self, TempDir};
use crate::population::{self, Query, CATEGORIES, SERVICES, TOP_K};
use crate::schema::Report;
use crate::trace::SpanLog;
use crate::wire::{Op, Tally};
use crate::workloads::{
    self, us, Config, Live, Reference, RunOutput, Samples, Workload, World, LIB_BATCH,
    PRELOAD_REPORTS, WIRE_BATCH,
};
use std::io;
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;
use wsrep_journal::frame::{crc32, split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_journal::{GroupSet, JournalConfig, JournalRecord};
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::value::QosVector;
use wsrep_serve::ReputationService;
use wsrep_server::{IngestKey, Request, Response, WireRanked};

/// Closed-loop windows of the wire pass, alternately traced and untraced.
const PASS_CLOSED_WINDOWS: u64 = 12;
/// Reports of the wire pass's bulk ingest per second of window.
const PASS_BULK_REPORTS_PER_WINDOW_S: u64 = 100_000;
/// Queries pushed through the stage replay.
const REPLAY_QUERIES: usize = 2_000;
/// Times a tight-loop probe is repeated; the fastest repetition counts.
const PROBE_REPEATS: usize = 5;
/// An answer later than this counts in `loadgen.late_share`.
const LATE_NANOS: u64 = 5_000_000;
/// Past this the generator, not the server, was the limit.
const LAG_LIMIT_US: f64 = 1_000.0;
/// Past this the traced figures are not the untraced ones.
const OVERHEAD_LIMIT: f64 = 0.05;
/// At most this many spans go into the span file; all are kept in memory
/// and all feed the figures.
const SPAN_FILE_CAP: usize = 200_000;

/// Nanoseconds per item of the fastest of `PROBE_REPEATS` runs of `work`
/// over `items` items.
fn fastest_ns_per_item(items: usize, mut work: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..PROBE_REPEATS {
        let begun = Instant::now();
        work();
        best = best.min(begun.elapsed().as_nanos() as f64 / items.max(1) as f64);
    }
    best
}

fn p50(hist: &Histogram) -> f64 {
    hist.quantile(0.5).unwrap_or(0.0)
}

/// The batch size this workload ingests with.
fn ingest_batch_size(workload: Workload) -> usize {
    if workload == Workload::LibEmbedded {
        LIB_BATCH
    } else {
        WIRE_BATCH
    }
}

/// Run `workload` traced and report every per-layer metric.
pub fn traced_run(cfg: &Config, workload: Workload) -> io::Result<RunOutput> {
    let world = workload.world(cfg.seed);
    let mut out = RunOutput::default();
    let epoch = Instant::now();

    // The workload's own lifecycle, once, every connection recording
    // client-call spans. `lib_embedded` has no connections: a served
    // registry is set up beside it, so the server layers are probed with
    // its inputs too.
    let mut samples = Samples::default();
    let seed = workloads::build_seed(cfg, &world, &mut samples, &mut out)?;
    let mut embedded_dir: Option<TempDir> = None;
    let mut live = if workload == Workload::LibEmbedded {
        embedded_dir = Some(workloads::embedded_cycle(
            cfg,
            &world,
            &seed,
            0,
            &mut samples,
            &mut out,
        )?);
        let unused = &mut Samples::default();
        let served = workloads::served_seed(cfg, &world, unused, &mut out.tally)?;
        let mut live = workloads::start_live(cfg, &world, &served, unused, &mut out.tally)?;
        live.spans = Some(SpanLog::new(epoch));
        live
    } else {
        workloads::served_cycle(cfg, &world, &seed, 0, Some(epoch), &mut samples, &mut out)?
    };
    samples.put_timings(&mut out.report);
    put_generator_figures(&samples, &mut out);

    let overhead = wire_pass(cfg, &mut live, &world, &mut out)?;
    if overhead > OVERHEAD_LIMIT {
        out.notes.push(format!(
            "FLAG: tracing cost {overhead:.3} of closed-loop throughput, over {OVERHEAD_LIMIT}: the traced figures are not the untraced ones"
        ));
    }

    // In-process from here on: a quiescent twin of the preloaded registry.
    let mut twin = Reference::build(&world)?;
    twin.catch_up(PRELOAD_REPORTS)?;
    let mut replay_log = SpanLog::new(epoch);
    let stages = stage_replay(
        workload,
        &world,
        twin.service(),
        &mut replay_log,
        &mut out.report,
    );
    serve_probes(workload, &world, twin.service(), &mut out.report)?;
    core_and_qos_probes(&world, &mut out.report);
    journal_probes(cfg, &world, &mut out.report)?;
    // The log this workload's lifecycle left, its writer stopped.
    live.server.kill();
    let log = embedded_dir.as_ref().unwrap_or(&live.dir);
    recover_probe(log.path(), &mut out.report)?;

    // What of the round trip no measured stage owns. `lib_embedded`'s
    // queries cross no client, so none is subtracted from them.
    let mut spans = live.spans.take().expect("set above");
    let [queue, flush, recv] = [
        "server.client.queue",
        "server.client.flush",
        "server.client.recv",
    ]
    .map(|name| p50(&spans.durations(name)));
    let sampled = "p50 of the sampled spans of the traced windows";
    out.report.put(
        "server.client.queue_ns",
        queue,
        format!("around Client::queue; {sampled}"),
    );
    out.report.put(
        "server.client.flush_us",
        us(flush),
        format!("around Client::flush_queued; {sampled}"),
    );
    out.report.put(
        "server.client.recv_us",
        us(recv),
        format!("around Client::recv; {sampled}"),
    );
    let client = if workload == Workload::LibEmbedded {
        0.0
    } else {
        queue + flush + recv
    };
    let round_trip = median(&samples.p50_ns).unwrap_or(0.0);
    out.report.put(
        "server.unattributed_us",
        us(round_trip - client - stages),
        format!(
            "query_p50_us of the traced lifecycle {:.1} us - client spans {:.1} us - replayed stages {:.1} us (each a p50)",
            us(round_trip),
            us(client),
            us(stages)
        ),
    );

    out.notes.push(format!(
        "stage replay: a request span's self time, what no stage span covers, is {:.0} ns at p50",
        p50(&replay_log.self_times("request"))
    ));
    spans.absorb(replay_log);
    std::fs::create_dir_all(&cfg.out_dir)?;
    let name = workload.name();
    let path = cfg.out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, spans.to_json(name, cfg.seed, SPAN_FILE_CAP))?;
    out.notes.push(format!(
        "{} spans recorded, the first {} written to {}",
        spans.spans().len(),
        spans.spans().len().min(SPAN_FILE_CAP),
        path.display()
    ));
    Ok(out)
}

/// What the generator says about itself, from the workload's own windows:
/// how late its schedule ran, the far tail, the share of late answers.
fn put_generator_figures(samples: &Samples, out: &mut RunOutput) {
    let (lag, lateness) = samples.lag_p99_us();
    let sends = samples.lag.len();
    out.report.put(
        "loadgen.sched_lag_p99_us",
        lag,
        format!(
            "how long after it could have sent a request (lib_embedded: a batch) the generator did, p99 of {sends} sends of the workload's own open loops; p99 behind schedule for any reason, the server's slowness included: {lateness:.0} us"
        ),
    );
    if lag > LAG_LIMIT_US {
        out.notes.push(format!(
            "FLAG: the generator ran {lag:.0} us behind its schedule at p99, over {LAG_LIMIT_US} us: it, not the server, was the limit"
        ));
    }
    let (used, far) = supported_quantile(&samples.latencies, 0.999).unwrap_or((0.999, 0.0));
    out.report.put(
        "loadgen.query_p999_us",
        us(far),
        format!(
            "p{} of all {} timed answers of the workload's latency windows",
            used * 100.0,
            samples.latencies.len()
        ),
    );
    out.report.put(
        "loadgen.late_share",
        samples.latencies.share_above(LATE_NANOS),
        format!(
            "share of those answers later than {} ms",
            LATE_NANOS / 1_000_000
        ),
    );
}

/// Probe the server layers over the wire with the workload's queries:
/// closed-loop windows alternately traced and untraced (the difference is
/// the tracing overhead, returned; the untraced ones also give bytes,
/// context switches and generator CPU per request), and a bulk ingest
/// bracketed by `Stats` (fsyncs and journal bytes per report).
fn wire_pass(cfg: &Config, live: &mut Live, world: &World, out: &mut RunOutput) -> io::Result<f64> {
    let mut tally = Tally::default();
    let mut traced = Samples::default();
    let mut untraced = Samples::default();
    let (mut bytes_in, mut bytes_out, mut switches, mut own_cpu, mut ops) = (0, 0, 0, 0.0, 0u64);
    for i in 0..PASS_CLOSED_WINDOWS {
        let lane = 1_000 + i;
        if i % 2 == 0 {
            workloads::closed_window(
                live,
                world,
                cfg.window,
                lane,
                false,
                &mut traced,
                &mut tally,
            )?;
            continue;
        }
        let spans = live.spans.take();
        let pid = live.server.pid();
        let mut control = live.connect()?;
        let before = control.stats()?.server;
        let switches_before = host::voluntary_switches(pid)?;
        let cpu_before = host::cpu_seconds(0)?;
        let outcome = workloads::closed_window(
            live,
            world,
            cfg.window,
            lane,
            false,
            &mut untraced,
            &mut tally,
        )?;
        own_cpu += host::cpu_seconds(0)? - cpu_before;
        switches += host::voluntary_switches(pid)? - switches_before;
        let after = control.stats()?.server;
        // The two Stats calls themselves are a request each way.
        bytes_in += after.bytes_in - before.bytes_in;
        bytes_out += after.bytes_out - before.bytes_out;
        ops += outcome.units_done;
        live.spans = spans;
    }

    let mut control = live.connect()?;
    let journal_before = control.stats()?.service.journal.unwrap_or_default();
    let bulk_reports = cfg.count(PASS_BULK_REPORTS_PER_WINDOW_S);
    workloads::bulk_windows(live, 1, bulk_reports, &mut Samples::default(), &mut tally)?;
    let journal_after = control.stats()?.service.journal.unwrap_or_default();
    out.tally.add(tally);

    let report = &mut out.report;
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    let closed = format!(
        "the {} untraced closed-loop windows of the wire pass",
        untraced.qps.len()
    );
    report.put(
        "server.bytes_in_per_op",
        per_op(bytes_in),
        format!("ServerStats.bytes_in delta / requests; {closed}"),
    );
    report.put(
        "server.bytes_out_per_op",
        per_op(bytes_out),
        format!("ServerStats.bytes_out delta / requests; {closed}"),
    );
    report.put(
        "server.ctx_switches_per_op",
        per_op(switches),
        format!("server voluntary_ctxt_switches delta, all threads / requests; {closed}"),
    );
    report.put(
        "loadgen.client_cpu_us_per_op",
        own_cpu * 1e6 / ops.max(1) as f64,
        format!("own process CPU / requests; {closed}"),
    );
    let traced_qps = median(&traced.qps).unwrap_or(0.0);
    let untraced_qps = median(&untraced.qps).unwrap_or(1.0);
    let overhead = 1.0 - traced_qps / untraced_qps;
    report.put(
        "loadgen.trace_overhead_share",
        overhead,
        format!(
            "1 - traced / untraced closed-loop req/s, medians of {} alternating windows each: {traced_qps:.0} / {untraced_qps:.0}",
            traced.qps.len()
        ),
    );
    report.put(
        "journal.fsyncs_per_kreport",
        (journal_after.commits - journal_before.commits) as f64 * 1_000.0 / bulk_reports as f64,
        format!("journal.commits delta per 1000 reports over a bulk ingest of {bulk_reports}"),
    );
    report.put(
        "journal.bytes_per_report",
        (journal_after.bytes_appended - journal_before.bytes_appended) as f64 / bulk_reports as f64,
        format!("journal.bytes_appended delta / reports over a bulk ingest of {bulk_reports}"),
    );
    Ok(overhead)
}

/// One request of the replay: its encoded frame and what it asks.
struct Replayed {
    frame: Vec<u8>,
    query: Option<Query>,
}

fn encode(request: &Request) -> Vec<u8> {
    let mut frame = Vec::new();
    request.encode_frame(&mut frame);
    frame
}

/// Push the workload's generated request bytes through
/// `split_frame -> Request::decode -> score / top_k_into / ingest_batch +
/// flush -> Response::encode_frame` in-process, one span per stage under a
/// per-request span; then time each stage alone in a tight loop, which is
/// what the ns-scale figures come from. Returns the sum of the p50s of the
/// stages one of this workload's queries crosses, in nanoseconds.
fn stage_replay(
    workload: Workload,
    world: &World,
    service: &ReputationService,
    log: &mut SpanLog,
    report: &mut Report,
) -> f64 {
    let mut queries = world.queries(3_000);
    let mut reports = world.reports();
    let mut requests: Vec<Replayed> = (0..REPLAY_QUERIES)
        .map(|_| {
            let query = queries.next_query();
            Replayed {
                frame: encode(&Op::query(query, &world.prefs).request),
                query: Some(query),
            }
        })
        .collect();
    // The write side of the mix: every twentieth request is an ingest of
    // the workload's batch size (wire_select sends few, but sends them).
    let batch = ingest_batch_size(workload);
    for i in 0..REPLAY_QUERIES / 20 {
        let request = Request::Ingest {
            batch: reports.batch(batch),
            key: Some(IngestKey {
                producer: 9,
                seq: i as u64 + 1,
            }),
        };
        requests.insert(
            i * 21,
            Replayed {
                frame: encode(&request),
                query: None,
            },
        );
    }

    let mut ranked = Vec::new();
    let mut response_frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    for (id, replayed) in requests.iter().enumerate() {
        let id = id as u64;
        let parent = log.open("request", id);
        let frame_len = log.time(
            "journal.frame.split",
            Some(parent),
            id,
            || match split_frame(&replayed.frame) {
                FrameSplit::Frame { frame_len } => frame_len,
                other => panic!("a frame this program encoded split as {other:?}"),
            },
        );
        let request = log.time("server.proto.decode_req", Some(parent), id, || {
            Request::decode(&replayed.frame[FRAME_HEADER_LEN..frame_len])
                .expect("a request this program encoded decodes")
        });
        let response = match request {
            Request::Score(subject) => log.time("serve.score", Some(parent), id, || {
                Response::Scored(service.score(subject))
            }),
            Request::TopK { category, prefs, k } => {
                log.time("serve.top_k_into", Some(parent), id, || {
                    service.top_k_into(category, &prefs, k as usize, &mut ranked);
                    Response::TopKResult(ranked.iter().map(WireRanked::from).collect())
                })
            }
            Request::Ingest { batch, .. } => {
                let accepted = log.time("serve.ingest_batch", Some(parent), id, || {
                    service.ingest_batch(batch).expect("the twin is open")
                });
                log.time("serve.flush", Some(parent), id, || service.flush());
                Response::Ingested(accepted)
            }
            other => unreachable!("the replay generates no {other:?}"),
        };
        let mut frame = Vec::new();
        log.time("server.proto.encode_resp", Some(parent), id, || {
            response.encode_frame(&mut frame)
        });
        log.close(parent);
        response_frames.push(frame);
    }

    // Each stage alone, over the same bytes.
    let count = requests.len();
    let split_ns = fastest_ns_per_item(count, || {
        for replayed in &requests {
            std::hint::black_box(split_frame(std::hint::black_box(&replayed.frame)));
        }
    });
    let decode_ns = fastest_ns_per_item(count, || {
        for replayed in &requests {
            let payload = &replayed.frame[FRAME_HEADER_LEN..];
            std::hint::black_box(Request::decode(std::hint::black_box(payload)).ok());
        }
    });
    let responses: Vec<Response> = response_frames
        .iter()
        .map(|frame| Response::decode(&frame[FRAME_HEADER_LEN..]).expect("own encoding decodes"))
        .collect();
    let mut scratch = Vec::new();
    let encode_ns = fastest_ns_per_item(count, || {
        for response in &responses {
            scratch.clear();
            response.encode_frame(&mut scratch);
            std::hint::black_box(&scratch);
        }
    });
    let bytes: Vec<u8> = requests
        .iter()
        .flat_map(|r| r.frame.iter().copied())
        .collect();
    let crc_ns = fastest_ns_per_item(1, || {
        std::hint::black_box(crc32(std::hint::black_box(&bytes)));
    });
    let mix = format!(
        "{count} generated requests ({} Score/TopK, {} Ingest of {batch}), fastest of {PROBE_REPEATS} tight loops",
        REPLAY_QUERIES,
        count - REPLAY_QUERIES
    );
    report.put(
        "journal.frame.split_ns",
        split_ns,
        format!("split_frame per request frame; {mix}"),
    );
    report.put(
        "journal.frame.crc_ns_per_kib",
        crc_ns * 1024.0 / bytes.len() as f64,
        format!(
            "crc32 over the {} request bytes in one piece; fastest of {PROBE_REPEATS}",
            bytes.len()
        ),
    );
    report.put(
        "server.proto.decode_req_ns",
        decode_ns,
        format!("Request::decode per request; {mix}"),
    );
    report.put(
        "server.proto.encode_resp_ns",
        encode_ns,
        format!("Response::encode_frame of the twin's answers, per response; {mix}"),
    );

    // The read probes, on state that has now seen the replay's writes and
    // is quiescent again.
    let only_queries: Vec<Query> = requests.iter().filter_map(|r| r.query).collect();
    let scores: Vec<_> = only_queries
        .iter()
        .filter_map(|q| match q {
            Query::Score(subject) => Some(*subject),
            Query::TopK { .. } => None,
        })
        .collect();
    let score_ns = fastest_ns_per_item(scores.len(), || {
        for &subject in &scores {
            std::hint::black_box(service.score(subject));
        }
    });
    let topks: Vec<_> = only_queries
        .iter()
        .filter_map(|q| match q {
            Query::TopK { category, prefs } => Some((*category, *prefs)),
            Query::Score(_) => None,
        })
        .collect();
    let topk_ns = fastest_ns_per_item(topks.len(), || {
        for &(category, prefs) in &topks {
            service.top_k_into(category, &world.prefs[prefs], TOP_K as usize, &mut ranked);
            std::hint::black_box(&ranked);
        }
    });
    report.put(
        "serve.score_ns",
        score_ns,
        format!("score per call on quiescent state, {} generated subjects, fastest of {PROBE_REPEATS} tight loops", scores.len()),
    );
    report.put(
        "serve.topk_hit_ns",
        topk_ns,
        format!("top_k_into (k={TOP_K}) per call on quiescent state, {} generated queries, fastest of {PROBE_REPEATS} tight loops", topks.len()),
    );

    // Per-request stages of a query, from the spans. A library query
    // crosses no frame and no protocol.
    let mut serve = log.durations("serve.score");
    serve.merge(&log.durations("serve.top_k_into"));
    let wire_stages = [
        "journal.frame.split",
        "server.proto.decode_req",
        "server.proto.encode_resp",
    ];
    let crossed = if workload == Workload::LibEmbedded {
        &wire_stages[..0]
    } else {
        &wire_stages[..]
    };
    crossed
        .iter()
        .map(|name| p50(&log.durations(name)))
        .sum::<f64>()
        + p50(&serve)
}

/// `serve` on its own: the first `top_k_into` after a write, the cost of
/// `ingest_batch` and `flush`, and the apply rate with no journal.
fn serve_probes(
    workload: Workload,
    world: &World,
    service: &ReputationService,
    report: &mut Report,
) -> io::Result<()> {
    let closed = |_| io::Error::other("the twin's ingest pipeline closed");
    let mut ranked = Vec::new();
    let mut after_write = Histogram::new();
    for i in 0..200u64 {
        let category = (i % CATEGORIES as u64) as u32;
        // A service of that category: ids are dealt to categories in turn.
        let service_id = category as u64 + CATEGORIES as u64 * (i % 50);
        debug_assert_eq!(population::category_of(service_id), category);
        let report_about = Feedback::scored(
            AgentId::new(i),
            ServiceId::new(service_id),
            0.5,
            Time::new(1_000_000),
        );
        service.ingest_batch([report_about]).map_err(closed)?;
        service.flush();
        let begun = Instant::now();
        service.top_k_into(
            category,
            &world.prefs[(i % 4) as usize],
            TOP_K as usize,
            &mut ranked,
        );
        after_write.record(begun.elapsed().as_nanos() as u64);
    }
    report.put(
        "serve.topk_after_write_us",
        us(p50(&after_write)),
        "first top_k_into on a category after a flush that touched it, p50 of 200",
    );

    let batch = ingest_batch_size(workload);
    let mut reports = world.reports();
    let (mut ingest, mut flush) = (Histogram::new(), Histogram::new());
    for _ in 0..200 {
        let reports_batch = reports.batch(batch);
        let begun = Instant::now();
        service.ingest_batch(reports_batch).map_err(closed)?;
        let queued = Instant::now();
        service.flush();
        ingest.record((queued - begun).as_nanos() as u64);
        flush.record(queued.elapsed().as_nanos() as u64);
    }
    report.put(
        "serve.ingest_batch_us",
        us(p50(&ingest)),
        format!("ingest_batch of {batch} reports, no journal, p50 of 200"),
    );
    report.put(
        "serve.flush_us",
        us(p50(&flush)),
        format!("flush after an ingest_batch of {batch}, no journal, p50 of 200"),
    );

    const APPLIED: usize = 100_000;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let batches: Vec<Vec<Feedback>> = (0..APPLIED / LIB_BATCH)
            .map(|_| reports.batch(LIB_BATCH))
            .collect();
        let begun = Instant::now();
        for reports_batch in batches {
            service.ingest_batch(reports_batch).map_err(closed)?;
        }
        service.flush();
        best = best.min(begun.elapsed().as_nanos() as f64 / APPLIED as f64);
    }
    report.put(
        "serve.apply_ns_per_report",
        best,
        format!("submit to flush over {APPLIED} reports in batches of {LIB_BATCH}, no journal, per report; fastest of 3"),
    );
    Ok(())
}

/// `core` and `qos` on their own: the Beta fold and a category's ranking.
fn core_and_qos_probes(world: &World, report: &mut Report) {
    const FOLDED: usize = 200_000;
    let folded = world.reports().batch(FOLDED);
    let fold_ns = fastest_ns_per_item(FOLDED, || {
        let mechanism = BetaMechanism::new();
        let mut accumulators: Vec<_> = (0..SERVICES).map(|_| mechanism.accumulator()).collect();
        for feedback in &folded {
            let service = feedback
                .subject
                .as_service()
                .expect("reports are about services");
            if let Some(accumulator) = &mut accumulators[service.index()] {
                accumulator.absorb(feedback);
            }
        }
        std::hint::black_box(&accumulators);
    });
    report.put(
        "core.fold_ns_per_report",
        fold_ns,
        format!("Beta accumulator() absorb over {FOLDED} generated reports, one accumulator per service, per report; fastest of {PROBE_REPEATS}"),
    );

    let mut by_category: Vec<Vec<&QosVector>> = vec![Vec::new(); CATEGORIES as usize];
    for listing in &world.listings {
        by_category[listing.category as usize].push(&listing.advertised);
    }
    let rank_ns = fastest_ns_per_item(by_category.len(), || {
        for (i, candidates) in by_category.iter().enumerate() {
            let mut metrics: Vec<_> = candidates.iter().flat_map(|v| v.metrics()).collect();
            metrics.sort();
            metrics.dedup();
            let matrix = NormalizationMatrix::new(candidates, &metrics);
            std::hint::black_box(matrix.rank(&world.prefs[i % world.prefs.len()]));
        }
    });
    report.put(
        "qos.rank_us_per_category",
        us(rank_ns),
        format!(
            "NormalizationMatrix::new + rank of the {} candidates of a category; fastest of {PROBE_REPEATS} passes over {CATEGORIES} categories",
            population::CANDIDATES_PER_CATEGORY
        ),
    );
}

/// `journal` on its own: a group commit of 8 and of 128 records,
/// fdatasync included, on a one-group log in a scratch directory.
fn journal_probes(cfg: &Config, world: &World, report: &mut Report) -> io::Result<()> {
    let scratch = TempDir::create(&cfg.tmp_root, "append")?;
    let log = GroupSet::open(scratch.path(), 1, JournalConfig::default(), 0)?;
    let mut reports = world.reports();
    for (name, size, rounds) in [
        ("journal.append_us_per_batch_8", 8usize, 150),
        ("journal.append_us_per_batch_128", 128, 75),
    ] {
        let mut taken = Vec::new();
        for _ in 0..rounds {
            let records: Vec<JournalRecord> = reports
                .batch(size)
                .into_iter()
                .map(JournalRecord::Feedback)
                .collect();
            let begun = Instant::now();
            log.append_batch(0, &records)?;
            taken.push(begun.elapsed().as_nanos() as f64);
        }
        report.put(
            name,
            us(median(&taken).expect("rounds > 0")),
            format!("GroupSet::append_batch of {size} feedback records, 1 group, fdatasync included, p50 of {rounds}"),
        );
    }
    Ok(())
}

/// `wsrep_journal::recover` on the log the traced lifecycle left.
fn recover_probe(log: &std::path::Path, report: &mut Report) -> io::Result<()> {
    let mut best = Duration::MAX;
    let mut records = 0;
    for _ in 0..3 {
        let begun = Instant::now();
        let recovered = wsrep_journal::recover(log)?;
        best = best.min(begun.elapsed());
        records = recovered.records_recovered;
    }
    report.put(
        "journal.recover_records_per_s",
        records as f64 / best.as_secs_f64(),
        format!("wsrep_journal::recover on the log the traced lifecycle left, {records} records; fastest of 3"),
    );
    Ok(())
}
