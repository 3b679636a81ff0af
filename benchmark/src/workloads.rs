//! The four workloads: set-up, timed windows, the closing crash and
//! recovery, and the correctness checks.
//!
//! A run is `CYCLES` lifecycles of the workload, each on a registry set up
//! from nothing: publish, preload, the workload's own traffic in windows
//! of one second, then acknowledged rounds, a `SIGKILL` and a recovery.
//! Every figure is the median over the windows of all cycles, so neither a
//! noisy second nor an unlucky process (heap layout, thread placement)
//! decides it; `setup_s` is the median of the cycles' set-ups.

use crate::hist::{median, supported_quantile, Histogram};
use crate::host::{self, Boot, ServerChild, TempDir};
use crate::population::{self, Query, QueryStream, ReportStream, SERVICES};
use crate::rng::Rng;
use crate::schema::Report;
use crate::trace::SpanLog;
use crate::wire::{self, KeySequence, Op, PhaseOutcome, Tally, Wire};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wsrep_core::id::{ServiceId, SubjectId};
use wsrep_core::trust::TrustEstimate;
use wsrep_qos::preference::Preferences;
use wsrep_serve::{RankedService, ReputationService};
use wsrep_server::{Request, Response};
use wsrep_sim::registry::Listing;

/// `--seconds` the window counts below are written for.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// Lifecycles per untraced run. A traced run is one: a third of the length.
pub const CYCLES: u64 = 3;
/// Reports ingested during set-up, before anything is timed.
pub const PRELOAD_REPORTS: u64 = 200_000;
/// Reports of one bulk chunk per second of window: about a second's work.
pub const BULK_REPORTS_PER_WINDOW_S: u64 = 300_000;
/// Acknowledged rounds of one chunk per second of window.
pub const ACK_ROUNDS_PER_WINDOW_S: u64 = 2_500;
/// Requests each closed-loop connection keeps unanswered.
pub const CLOSED_LOOP_WINDOW: usize = 32;
/// Generator threads and connections: `nproc` of the box this was sized on.
pub const CONNECTIONS: usize = 2;
/// Scores compared with the reference before each crash and after each
/// recovery.
const VERIFY_SCORES: usize = 2_000;

/// Fixed open-loop rates — constants, not computed per run (see README.md,
/// "How the rates were chosen").
pub const SELECT_OPEN_QPS: f64 = 40_000.0;
pub const MIXED_OPEN_QPS: f64 = 15_000.0;
pub const MIXED_INGEST_REPORTS_PER_S: f64 = 20_000.0;
pub const EMBEDDED_INGEST_REPORTS_PER_S: f64 = 20_000.0;
/// Ingest batch sizes.
pub const WIRE_BATCH: usize = 64;
pub const LIB_BATCH: usize = 128;
pub const ACK_BATCH: usize = 8;
/// Bulk batches a wire producer keeps unanswered.
pub const BULK_IN_FLIGHT: usize = 16;
/// Library queries are timed in batches of this many: one clock read per
/// call would cost a third of a 110 ns read.
pub const LIB_QUERY_BATCH: u64 = 64;

/// What the command line decided.
pub struct Config {
    pub seed: u64,
    /// `--seconds` over `NOMINAL_SECONDS`: scales how many windows a phase
    /// runs, never how long a window is.
    pub scale: f64,
    /// The length of a timed window: one second, a tenth with `--quick`.
    pub window: Duration,
    pub server_bin: PathBuf,
    /// Where journal directories are created.
    pub tmp_root: PathBuf,
    /// Where a traced run writes its span file.
    pub out_dir: PathBuf,
}

impl Config {
    /// How many windows a phase runs per cycle, given its count at
    /// `NOMINAL_SECONDS`.
    pub fn windows(&self, nominal: u64) -> u64 {
        ((nominal as f64 * self.scale).round() as u64).max(1)
    }

    /// The size of a counted window that does `per_second` units per
    /// second of window.
    pub fn count(&self, per_second: u64) -> u64 {
        ((per_second as f64 * self.window.as_secs_f64()) as u64).max(1)
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSelect,
    WireFeedback,
    WireMixed,
    LibEmbedded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WireSelect,
        Workload::WireFeedback,
        Workload::WireMixed,
        Workload::LibEmbedded,
    ];

    /// The name `BENCHMARK.json` and the command line know it by.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSelect => "wire_select",
            Workload::WireFeedback => "wire_feedback",
            Workload::WireMixed => "wire_mixed",
            Workload::LibEmbedded => "lib_embedded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The world this workload runs on. `wire_mixed` skews harder, so its
    /// writes land on exactly the subjects and categories being read.
    pub fn world(self, seed: u64) -> World {
        let zipf_s = if self == Workload::WireMixed {
            0.99
        } else {
            0.9
        };
        World {
            workload: self,
            seed,
            zipf_s,
            listings: population::listings(seed),
            prefs: population::preference_vectors(),
        }
    }
}

/// The generated inputs of one run.
pub struct World {
    pub workload: Workload,
    pub seed: u64,
    pub zipf_s: f64,
    pub listings: Vec<Listing>,
    pub prefs: Vec<Preferences>,
}

impl World {
    pub fn reports(&self) -> ReportStream {
        ReportStream::new(self.seed, self.zipf_s)
    }

    pub fn queries(&self, lane: u64) -> QueryStream {
        QueryStream::new(self.seed, lane, self.zipf_s)
    }
}

/// What a run hands back to `main`.
#[derive(Default)]
pub struct RunOutput {
    /// The metrics of the result line: the run kind's schema, exactly.
    pub report: Report,
    /// An untraced run's timing figures: printed for the reader, gated by
    /// nothing, kept off the result line.
    pub timings: Report,
    pub tally: Tally,
    /// A correctness check failed.
    pub incorrect: bool,
    /// Human-readable lines: what failed, what was observed.
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The last end-to-end metric, from the tally as it stands.
    pub fn put_answered_share(&mut self) {
        let Tally { attempted, failed } = self.tally;
        self.report.put(
            "answered_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            format!("1 - failed_share: {failed} failed of {attempted} attempted"),
        );
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.incorrect = true;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

pub fn us(nanos: f64) -> f64 {
    nanos / 1_000.0
}

/// The in-process twin the answers are checked against: the same listings
/// and the same reports in the same order, through the same library.
pub struct Reference {
    service: ReputationService,
    stream: ReportStream,
}

impl Reference {
    pub fn build(world: &World) -> io::Result<Reference> {
        let service = ReputationService::builder().try_build()?;
        for listing in &world.listings {
            service
                .publish(listing.clone())
                .map_err(|err| io::Error::other(format!("reference publish: {err:?}")))?;
        }
        Ok(Reference {
            service,
            stream: world.reports(),
        })
    }

    /// Feed the reference until it has seen the first `reports` reports of
    /// the world's stream.
    pub fn catch_up(&mut self, reports: u64) -> io::Result<()> {
        while self.stream.emitted() < reports {
            let size = (reports - self.stream.emitted()).min(4_096) as usize;
            self.service
                .ingest_batch(self.stream.batch(size))
                .map_err(|_| io::Error::other("reference ingest closed"))?;
        }
        self.service.flush();
        Ok(())
    }

    pub fn service(&self) -> &ReputationService {
        &self.service
    }
}

fn estimates_agree(a: Option<TrustEstimate>, b: Option<TrustEstimate>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            (a.value.get() - b.value.get()).abs() <= 1e-9
                && (a.confidence - b.confidence).abs() <= 1e-9
        }
        _ => false,
    }
}

/// The subjects whose scores a verification compares.
fn verify_subjects(seed: u64) -> Vec<SubjectId> {
    let mut rng = Rng::fork(seed, 0x7E57);
    (0..VERIFY_SCORES)
        .map(|_| ServiceId::new(rng.below(SERVICES as u64)).into())
        .collect()
}

/// The window values of a run, one list per figure, appended to by every
/// window of every cycle and reduced to medians once at the end.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    pub qps: Vec<f64>,
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
    /// The lowest quantile any window had to report in place of p99.
    p99_used: Option<f64>,
    pub latencies: Histogram,
    pub cpu_us_per_op: Vec<f64>,
    pub ingest_rates: Vec<f64>,
    pub ack_p50_ns: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub disk_per_report: Vec<f64>,
    pub resident_per_report: Vec<f64>,
    pub lag: Histogram,
    pub lateness: Histogram,
}

impl Samples {
    /// The completions per second of each window of a phase.
    fn take_rate(&mut self, outcome: &PhaseOutcome, phase: Duration) {
        self.qps
            .extend(outcome.series.rates(phase.as_nanos() as u64));
    }

    fn take_latencies(&mut self, outcome: &PhaseOutcome, phase: Duration) {
        let phase_ns = phase.as_nanos() as u64;
        self.p50_ns
            .extend(outcome.series.quantiles(phase_ns, 0.5).1);
        let (used, p99s) = outcome.series.quantiles(phase_ns, 0.99);
        self.p99_ns.extend(p99s);
        self.p99_used = Some(self.p99_used.map_or(used, |seen| seen.min(used)));
        self.latencies.merge(&outcome.series.all_latencies());
        self.lag.merge(&outcome.lag);
        self.lateness.merge(&outcome.lateness);
    }

    /// CPU microseconds per operation over a stretch that used
    /// `cpu_seconds` of CPU and completed `ops` operations.
    fn take_cpu(&mut self, cpu_seconds: f64, ops: f64) {
        if ops > 0.0 {
            self.cpu_us_per_op.push(cpu_seconds * 1e6 / ops);
        }
    }

    /// Per-round acknowledgement latencies, in the order taken, cut into
    /// windows of `per_window` rounds: each window's p50.
    fn take_acks(&mut self, latencies: &[u64], per_window: u64) {
        for chunk in latencies.chunks_exact(per_window as usize) {
            let mut window = Histogram::new();
            for &nanos in chunk {
                window.record(nanos);
            }
            self.ack_p50_ns
                .push(window.quantile(0.5).expect("windows are not empty"));
        }
    }

    /// Reduce each listed figure to the median of its windows and put it
    /// into `report`, the windows beside it. How each is taken on each
    /// workload is in README.md.
    fn put(report: &mut Report, figures: &[(&'static str, &[f64], f64, &str)]) {
        for &(name, values, scale, of) in figures {
            let listed: Vec<String> = values
                .iter()
                .map(|value| format!("{:.4}", value * scale))
                .collect();
            report.put(
                name,
                median(values).unwrap_or(0.0) * scale,
                format!("median of {} {of}: {}", values.len(), listed.join(" ")),
            );
        }
    }

    /// The measured end-to-end metrics.
    pub fn put_end_to_end(&self, report: &mut Report) {
        Samples::put(
            report,
            &[
                ("setup_s", &self.setup_s, 1.0, "set-ups"),
                (
                    "disk_bytes_per_report",
                    &self.disk_per_report,
                    1.0,
                    "journal directories",
                ),
                (
                    "resident_bytes_per_report",
                    &self.resident_per_report,
                    1.0,
                    "preloads",
                ),
            ],
        );
    }

    /// The seven timing figures.
    pub fn put_timings(&self, report: &mut Report) {
        let p99 = format!(
            "windows' p{}, {} samples in all",
            self.p99_used.unwrap_or(0.99) * 100.0,
            self.latencies.len()
        );
        Samples::put(
            report,
            &[
                ("query_qps", &self.qps, 1.0, "windows"),
                ("query_p50_us", &self.p50_ns, 1e-3, "windows' p50"),
                ("query_p99_us", &self.p99_ns, 1e-3, &p99),
                ("ingest_reports_per_s", &self.ingest_rates, 1.0, "windows"),
                ("durable_ack_p50_us", &self.ack_p50_ns, 1e-3, "windows' p50"),
                ("recover_s", &self.recover_s, 1.0, "recoveries"),
                ("server_cpu_us_per_op", &self.cpu_us_per_op, 1.0, "windows"),
            ],
        );
    }

    /// How late the open-loop generator ran, in microseconds at p99: by
    /// its own doing, and in all.
    pub fn lag_p99_us(&self) -> (f64, f64) {
        let p99 = |hist: &Histogram| us(supported_quantile(hist, 0.99).map_or(0.0, |(_, v)| v));
        (p99(&self.lag), p99(&self.lateness))
    }
}

/// A served registry mid-cycle: the child, its journal, the streams that
/// feed it and the reference that shadows it.
pub struct Live {
    pub server: ServerChild,
    pub dir: TempDir,
    pub reports: ReportStream,
    pub keys: KeySequence,
    pub reference: Reference,
    /// Set in a traced run: every connection records client-call spans
    /// against this log's epoch and hands them in when it closes.
    pub spans: Option<SpanLog>,
}

impl Live {
    pub fn connect(&self) -> io::Result<Wire> {
        let mut wire = Wire::connect(self.server.addr())?;
        if let Some(spans) = &self.spans {
            wire.trace(spans.epoch());
        }
        Ok(wire)
    }

    pub fn retire(&mut self, mut wire: Wire) {
        if let (Some(spans), Some(log)) = (&mut self.spans, wire.take_log()) {
            spans.absorb(log);
        }
    }
}

/// The registry every lifecycle of a run starts from: published and
/// preloaded once, then stopped. A lifecycle's set-up is a recovery of a
/// copy of its journal, because that is the one way to bring a registry up
/// that does not wait on the disk: publishing and preloading a journaled
/// registry is 5 500 fdatasyncs, four fifths of its time, and what an
/// fdatasync costs on a shared host moves by a factor of two within the
/// hour (REPEATABILITY.md).
pub struct Seed {
    dir: TempDir,
    reports: ReportStream,
    keys: KeySequence,
    /// Reports per second of the preload.
    pub preload_rate: f64,
}

/// Spawn a journaled server, publish every listing over the wire, preload
/// `PRELOAD_REPORTS` reports, flush, `SIGKILL`. The server's `VmRSS` growth
/// over the preload is `resident_bytes_per_report`.
pub fn served_seed(
    cfg: &Config,
    world: &World,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<Seed> {
    let dir = TempDir::create(&cfg.tmp_root, "seed")?;
    let server = ServerChild::spawn(&cfg.server_bin, Boot::Journal(dir.path()))?;
    let mut wire = Wire::connect(server.addr())?;
    let publishes = world.listings.iter().map(|listing| Op {
        request: Request::Publish(listing.clone()),
        expect: wire::Expect::Published,
        units: 0,
    });
    tally.add(wire.pipeline(publishes, CLOSED_LOOP_WINDOW)?);
    let resident_before = host::resident_bytes(server.pid())?;
    let mut reports = world.reports();
    let mut keys = KeySequence::new(1);
    let (preload_rate, preload_tally) = wire::bulk_ingest(
        &mut wire,
        |size| reports.batch(size),
        &mut keys,
        PRELOAD_REPORTS,
        WIRE_BATCH,
        BULK_IN_FLIGHT,
    )?;
    tally.add(preload_tally);
    let grown = host::resident_bytes(server.pid())?.saturating_sub(resident_before);
    samples
        .resident_per_report
        .push(grown as f64 / PRELOAD_REPORTS as f64);
    Ok(Seed {
        dir,
        reports,
        keys,
        preload_rate,
    })
}

/// Set a served registry up from `seed`: copy its journal, start
/// `wsrep-server --recover=` on the copy, wait for the first `Pong`.
/// `setup_s` is the time all of that takes.
pub fn start_live(
    cfg: &Config,
    world: &World,
    seed: &Seed,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<Live> {
    let dir = TempDir::create(&cfg.tmp_root, "journal")?;
    let begun = Instant::now();
    host::copy_dir(seed.dir.path(), dir.path())?;
    let server = ServerChild::spawn(&cfg.server_bin, Boot::Recover(dir.path()))?;
    let mut wire = Wire::connect(server.addr())?;
    let pong = wire::answer_ok(wire::Expect::Pong, &wire.call(&Request::Ping)?);
    samples.setup_s.push(begun.elapsed().as_secs_f64());
    tally.add(Tally {
        attempted: 1,
        failed: u64::from(!pong),
    });
    Ok(Live {
        server,
        dir,
        reports: seed.reports.clone(),
        keys: seed.keys.clone(),
        reference: Reference::build(world)?,
        spans: None,
    })
}

/// Run `work` on every connection, one generator thread each.
fn run_on_each<T: Send>(
    wires: &mut [Wire],
    work: impl Fn(usize, &mut Wire) -> io::Result<T> + Sync,
) -> io::Result<Vec<T>> {
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = wires
            .iter_mut()
            .enumerate()
            .map(|(i, wire)| scope.spawn(move || work(i, wire)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"))
            .collect()
    })
}

fn merge(outcomes: Vec<PhaseOutcome>) -> PhaseOutcome {
    let mut outcomes = outcomes.into_iter();
    let mut merged = outcomes.next().expect("at least one connection");
    for outcome in outcomes {
        merged.merge(&outcome);
    }
    merged
}

fn connect_all(live: &Live) -> io::Result<Vec<Wire>> {
    (0..CONNECTIONS).map(|_| live.connect()).collect()
}

/// One window of queries in closed loop on `CONNECTIONS` fresh
/// connections: throughput and, with `cpu`, the server's CPU per request.
/// Fresh connections and threads per window, because where the scheduler
/// puts them decides a good part of the result. `lane` picks the query
/// streams, so every window asks different questions. Returns what the
/// window saw, for callers that want more than `samples` keeps.
pub fn closed_window(
    live: &mut Live,
    world: &World,
    window: Duration,
    lane: u64,
    cpu: bool,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<PhaseOutcome> {
    let mut wires = connect_all(live)?;
    let pid = live.server.pid();
    let cpu_before = host::cpu_seconds(pid)?;
    let start = Instant::now();
    let outcomes = run_on_each(&mut wires, |i, wire| {
        let mut queries = world.queries(lane * 16 + i as u64);
        wire::closed_loop(
            wire,
            || Op::query(queries.next_query(), &world.prefs),
            CLOSED_LOOP_WINDOW,
            start,
            window,
        )
    })?;
    let cpu_seconds = host::cpu_seconds(pid)? - cpu_before;
    wires.into_iter().for_each(|wire| live.retire(wire));
    let outcome = merge(outcomes);
    tally.add(outcome.tally);
    samples.take_rate(&outcome, window);
    if cpu {
        samples.take_cpu(cpu_seconds, outcome.units_done as f64);
    }
    Ok(outcome)
}

/// One window of queries in open loop at `qps` over `CONNECTIONS` fresh
/// connections: latency from the intended send time.
pub fn open_window(
    live: &mut Live,
    world: &World,
    qps: f64,
    window: Duration,
    lane: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut wires = connect_all(live)?;
    let start = Instant::now();
    let outcomes = run_on_each(&mut wires, |i, wire| {
        let mut queries = world.queries(lane * 16 + 8 + i as u64);
        wire::open_loop(
            wire,
            || Op::query(queries.next_query(), &world.prefs),
            qps / CONNECTIONS as f64,
            start,
            window,
            false,
        )
    })?;
    wires.into_iter().for_each(|wire| live.retire(wire));
    let outcome = merge(outcomes);
    tally.add(outcome.tally);
    samples.take_latencies(&outcome, window);
    Ok(())
}

/// Bulk ingest on one connection: `windows` chunks of `chunk` reports,
/// each ended by a `Flush` and timed alone: reports per second counted at
/// `Flushed`, and the server's CPU per report.
pub fn bulk_windows(
    live: &mut Live,
    windows: u64,
    chunk: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut wire = live.connect()?;
    let pid = live.server.pid();
    for _ in 0..windows {
        let cpu_before = host::cpu_seconds(pid)?;
        let reports = &mut live.reports;
        let (rate, chunk_tally) = wire::bulk_ingest(
            &mut wire,
            |size| reports.batch(size),
            &mut live.keys,
            chunk,
            WIRE_BATCH,
            BULK_IN_FLIGHT,
        )?;
        tally.add(chunk_tally);
        samples.ingest_rates.push(rate);
        samples.take_cpu(host::cpu_seconds(pid)? - cpu_before, chunk as f64);
    }
    live.retire(wire);
    Ok(())
}

/// Acknowledged rounds on one connection: `windows` windows of
/// `per_window` rounds of `Ingest` (8 reports) + `Flush`.
pub fn acked_windows(
    live: &mut Live,
    windows: u64,
    per_window: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let mut wire = live.connect()?;
    let reports = &mut live.reports;
    let (latencies, acked) = wire::acked_rounds(
        &mut wire,
        |size| reports.batch(size),
        &mut live.keys,
        per_window * windows,
        ACK_BATCH,
    )?;
    live.retire(wire);
    tally.add(acked);
    samples.take_acks(&latencies, per_window);
    Ok(())
}

/// One window in which one fresh connection ingests open loop (batches of
/// `WIRE_BATCH`, a `Flush` about twice a second and one at the end) and
/// one queries open loop: query throughput and latency, achieved ingest
/// rate, and the server's CPU per query-or-report.
pub fn mixed_window(
    live: &mut Live,
    world: &World,
    window: Duration,
    lane: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let batches_per_s = MIXED_INGEST_REPORTS_PER_S / WIRE_BATCH as f64;
    // A Flush rides as every n-th op: about two a second.
    let flush_every = (batches_per_s / 2.0).round() as u64;
    let mut ingest_wire = live.connect()?;
    let mut query_wire = live.connect()?;
    let pid = live.server.pid();
    let reports = &mut live.reports;
    let keys = &mut live.keys;
    let cpu_before = host::cpu_seconds(pid)?;
    let start = Instant::now();
    let (ingest, queries) = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let mut ops = 0u64;
            wire::open_loop(
                &mut ingest_wire,
                || {
                    ops += 1;
                    if ops.is_multiple_of(flush_every + 1) {
                        Op::flush()
                    } else {
                        Op::ingest(reports.batch(WIRE_BATCH), keys.next_key())
                    }
                },
                batches_per_s * (flush_every + 1) as f64 / flush_every as f64,
                start,
                window,
                true,
            )
        });
        let mut stream = world.queries(lane * 16);
        let queries = wire::open_loop(
            &mut query_wire,
            || Op::query(stream.next_query(), &world.prefs),
            MIXED_OPEN_QPS,
            start,
            window,
            false,
        );
        (ingest.join().expect("ingest thread panicked"), queries)
    });
    let (ingest, queries) = (ingest?, queries?);
    let cpu_seconds = host::cpu_seconds(pid)? - cpu_before;
    live.retire(ingest_wire);
    live.retire(query_wire);
    tally.add(ingest.tally);
    tally.add(queries.tally);
    samples.take_rate(&queries, window);
    samples.take_latencies(&queries, window);
    samples.lag.merge(&ingest.lag);
    samples.lateness.merge(&ingest.lateness);
    samples.take_cpu(cpu_seconds, (queries.units_done + ingest.units_done) as f64);
    // Achieved, not offered: reports count when the Flushed covering them
    // arrives, over the time to the last one.
    samples
        .ingest_rates
        .push(ingest.units_done as f64 / (ingest.last_done_ns.max(1) as f64 / 1e9));
    Ok(())
}

/// Compare the server's applied-report count and sampled scores with the
/// reference. Each compared score is one attempted operation.
fn verify_served(
    out: &mut RunOutput,
    live: &mut Live,
    world: &World,
    when: &str,
) -> io::Result<()> {
    let sent = live.reports.emitted();
    live.reference.catch_up(sent)?;
    let mut wire = Wire::connect(live.server.addr())?;
    let stats = wire.stats()?;
    out.check(stats.service.feedback == sent, || {
        format!(
            "{when}: server applied {} reports, {sent} were sent",
            stats.service.feedback
        )
    });
    let subjects = verify_subjects(world.seed);
    let mut mismatched = 0u64;
    for chunk in subjects.chunks(CLOSED_LOOP_WINDOW) {
        for &subject in chunk {
            wire.queue(&Request::Score(subject));
        }
        wire.flush_queued()?;
        for &subject in chunk {
            let agrees = match wire.recv()? {
                Response::Scored(got) => {
                    estimates_agree(got, live.reference.service().score(subject))
                }
                _ => false,
            };
            mismatched += u64::from(!agrees);
        }
    }
    out.tally.add(Tally {
        attempted: subjects.len() as u64,
        failed: mismatched,
    });
    out.check(mismatched == 0, || {
        format!(
            "{when}: {mismatched} of {} scores differ from the reference",
            subjects.len()
        )
    });
    Ok(())
}

/// Verify, `SIGKILL`, weigh the journal directory, restart with
/// `--recover=` timed to the first `Pong`, verify again. The cycle goes on
/// against the recovered server. On a failed check the journal directory
/// is kept.
pub fn crash(
    cfg: &Config,
    live: &mut Live,
    world: &World,
    samples: &mut Samples,
    out: &mut RunOutput,
) -> io::Result<()> {
    let checked = (|| {
        verify_served(out, live, world, "before SIGKILL")?;
        live.server.kill();
        let bytes = host::dir_bytes(live.dir.path())?;
        samples
            .disk_per_report
            .push(bytes as f64 / live.reports.emitted() as f64);
        let begun = Instant::now();
        live.server = ServerChild::spawn(&cfg.server_bin, Boot::Recover(live.dir.path()))?;
        let mut wire = Wire::connect(live.server.addr())?;
        let pong = wire::answer_ok(wire::Expect::Pong, &wire.call(&Request::Ping)?);
        samples.recover_s.push(begun.elapsed().as_secs_f64());
        out.tally.add(Tally {
            attempted: 1,
            failed: u64::from(!pong),
        });
        verify_served(out, live, world, "after SIGKILL + --recover")
    })();
    if !matches!(checked, Ok(()) if !out.incorrect) {
        live.dir.keep();
        out.notes.push(format!(
            "journal directory kept: {}",
            live.dir.path().display()
        ));
    }
    checked
}

/// One lifecycle of a served workload: set up from `seed`, the workload's
/// own windows, acknowledged rounds, a crash and a recovery. `cycle` picks the query
/// streams, so every window of a run asks different questions. With
/// `epoch`, every connection records client-call spans against it. Returns
/// the registry, serving again after its recovery.
pub fn served_cycle(
    cfg: &Config,
    world: &World,
    seed: &Seed,
    cycle: u64,
    epoch: Option<Instant>,
    samples: &mut Samples,
    out: &mut RunOutput,
) -> io::Result<Live> {
    let mut tally = Tally::default();
    let mut live = start_live(cfg, world, seed, samples, &mut tally)?;
    live.spans = epoch.map(SpanLog::new);
    let lane = |window: u64| cycle * 64 + window;
    let ack_rounds = cfg.count(ACK_ROUNDS_PER_WINDOW_S);
    match world.workload {
        // Reads against published, quiescent state. The write-side figures
        // come from what every run has anyway: the seed's preload, and the
        // acknowledged rounds and crash that close a lifecycle.
        Workload::WireSelect => {
            for window in 0..cfg.windows(3) {
                closed_window(
                    &mut live,
                    world,
                    cfg.window,
                    lane(window),
                    true,
                    samples,
                    &mut tally,
                )?;
                open_window(
                    &mut live,
                    world,
                    SELECT_OPEN_QPS,
                    cfg.window,
                    lane(window),
                    samples,
                    &mut tally,
                )?;
            }
            acked_windows(&mut live, 1, ack_rounds, samples, &mut tally)?;
            crash(cfg, &mut live, world, samples, out)?;
        }
        // Bulk and acknowledged writes, a crash, and reads on the
        // just-recovered server. The per-op CPU here is the bulk phase's.
        Workload::WireFeedback => {
            let chunk = cfg.count(BULK_REPORTS_PER_WINDOW_S);
            bulk_windows(&mut live, cfg.windows(2), chunk, samples, &mut tally)?;
            acked_windows(&mut live, 1, ack_rounds, samples, &mut tally)?;
            crash(cfg, &mut live, world, samples, out)?;
            for window in 0..cfg.windows(2) {
                closed_window(
                    &mut live,
                    world,
                    cfg.window,
                    lane(window),
                    false,
                    samples,
                    &mut tally,
                )?;
                open_window(
                    &mut live,
                    world,
                    SELECT_OPEN_QPS,
                    cfg.window,
                    lane(window),
                    samples,
                    &mut tally,
                )?;
            }
        }
        // Open-loop writes beside open-loop reads on the same hot subjects.
        Workload::WireMixed => {
            for window in 0..cfg.windows(6) {
                mixed_window(
                    &mut live,
                    world,
                    cfg.window,
                    lane(window),
                    samples,
                    &mut tally,
                )?;
            }
            acked_windows(&mut live, 1, ack_rounds, samples, &mut tally)?;
            crash(cfg, &mut live, world, samples, out)?;
        }
        Workload::LibEmbedded => unreachable!("lib_embedded has no served cycle"),
    }
    out.tally.add(tally);
    Ok(live)
}

/// Build the seed the workload's lifecycles start from. `wire_select` has no
/// bulk phase of its own: its `ingest_reports_per_s` is the preload's.
pub fn build_seed(
    cfg: &Config,
    world: &World,
    samples: &mut Samples,
    out: &mut RunOutput,
) -> io::Result<Seed> {
    let workload = world.workload;
    let seed = if workload == Workload::LibEmbedded {
        embedded_seed(cfg, world, samples, &mut out.tally)?
    } else {
        served_seed(cfg, world, samples, &mut out.tally)?
    };
    if workload == Workload::WireSelect {
        samples.ingest_rates.push(seed.preload_rate);
    }
    Ok(seed)
}

/// Run `workload` untraced: one seed, `CYCLES` lifecycles, every
/// end-to-end metric and, beside them, the timing figures.
pub fn run(cfg: &Config, workload: Workload) -> io::Result<RunOutput> {
    let world = workload.world(cfg.seed);
    let mut out = RunOutput::default();
    let mut samples = Samples::default();
    let seed = build_seed(cfg, &world, &mut samples, &mut out)?;
    for cycle in 0..CYCLES {
        if workload == Workload::LibEmbedded {
            embedded_cycle(cfg, &world, &seed, cycle, &mut samples, &mut out)?;
        } else {
            // Dropped at once: two servers never share the box.
            served_cycle(cfg, &world, &seed, cycle, None, &mut samples, &mut out)?;
        }
    }
    samples.put_end_to_end(&mut out.report);
    out.put_answered_share();
    samples.put_timings(&mut out.timings);
    if !samples.lag.is_empty() {
        let (lag, lateness) = samples.lag_p99_us();
        out.notes.push(format!(
            "open loop: generator schedule lag p99 {lag:.0} us, lateness p99 {lateness:.0} us, over {} sends",
            samples.lag.len()
        ));
    }
    Ok(out)
}

/// Answer one query from the library, checking it as the wire drivers do.
pub fn lib_answer(
    service: &ReputationService,
    query: Query,
    prefs: &[Preferences],
    buffer: &mut Vec<RankedService>,
) -> bool {
    match query {
        Query::Score(subject) => service
            .score(subject)
            .is_none_or(|e| (0.0..=1.0).contains(&e.value.get())),
        Query::TopK { category, prefs: p } => {
            service.top_k_into(category, &prefs[p], population::TOP_K as usize, buffer);
            buffer.len() <= population::TOP_K as usize
                && buffer
                    .iter()
                    .all(|r| population::category_of(r.service.raw()) == category)
                && buffer.windows(2).all(|pair| pair[0].score >= pair[1].score)
        }
    }
}

fn open_embedded(dir: &Path, recover: bool) -> io::Result<ReputationService> {
    let builder = ReputationService::builder().writer_groups(2);
    if recover {
        builder.recover_from(dir).try_build()
    } else {
        builder.journal(dir).try_build()
    }
}

/// `ingest_batch` `count` reports, then `flush`; returns reports per second.
pub fn lib_ingest(
    service: &ReputationService,
    reports: &mut ReportStream,
    count: u64,
) -> io::Result<f64> {
    let begun = Instant::now();
    let mut sent = 0u64;
    while sent < count {
        let size = LIB_BATCH.min((count - sent) as usize);
        let accepted = service
            .ingest_batch(reports.batch(size))
            .map_err(|_| io::Error::other("ingest pipeline closed"))?;
        if accepted != size as u64 {
            return Err(io::Error::other("ingest_batch accepted a partial batch"));
        }
        sent += size as u64;
    }
    service.flush();
    Ok(count as f64 / begun.elapsed().as_secs_f64())
}

/// `lib_embedded`'s seed: open a journaled service over two writer groups
/// in the benchmark's own process, publish, preload, flush, drop. This is
/// the process's first use of its heap, so its `VmRSS` growth over the
/// preload is `resident_bytes_per_report`.
pub fn embedded_seed(
    cfg: &Config,
    world: &World,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<Seed> {
    let dir = TempDir::create(&cfg.tmp_root, "seed")?;
    let service = open_embedded(dir.path(), false)?;
    for listing in &world.listings {
        let published = service.publish(listing.clone()).is_ok();
        tally.add(Tally {
            attempted: 1,
            failed: u64::from(!published),
        });
    }
    let mut reports = world.reports();
    let resident_before = host::resident_bytes(0)?;
    let preload_rate = lib_ingest(&service, &mut reports, PRELOAD_REPORTS)?;
    let grown = host::resident_bytes(0)?.saturating_sub(resident_before);
    samples
        .resident_per_report
        .push(grown as f64 / PRELOAD_REPORTS as f64);
    Ok(Seed {
        dir,
        reports,
        keys: KeySequence::new(1),
        preload_rate,
    })
}

/// One lifecycle of `lib_embedded`: the library with no sockets, journaled
/// over two writer groups, inside the benchmark's own process. Recover a
/// copy of the seed; bulk chunks; queries beside ingest; acknowledged
/// rounds; then drop the service and recover it. No process dies here:
/// what the wire workloads prove with `SIGKILL` this one proves for a
/// drop. Returns the journal directory, closed; on a failed check it is
/// kept.
pub fn embedded_cycle(
    cfg: &Config,
    world: &World,
    seed: &Seed,
    cycle: u64,
    samples: &mut Samples,
    out: &mut RunOutput,
) -> io::Result<TempDir> {
    let mut dir = TempDir::create(&cfg.tmp_root, "journal")?;
    let checked = embedded_cycle_unguarded(cfg, world, seed, cycle, dir.path(), samples, out);
    if !matches!(checked, Ok(()) if !out.incorrect) {
        dir.keep();
        out.notes
            .push(format!("journal directory kept: {}", dir.path().display()));
    }
    checked.map(|()| dir)
}

fn embedded_cycle_unguarded(
    cfg: &Config,
    world: &World,
    seed: &Seed,
    cycle: u64,
    dir: &Path,
    samples: &mut Samples,
    out: &mut RunOutput,
) -> io::Result<()> {
    let mut tally = Tally::default();
    let begun = Instant::now();
    host::copy_dir(seed.dir.path(), dir)?;
    let service = open_embedded(dir, true)?;
    std::hint::black_box(service.score(ServiceId::new(0).into()));
    samples.setup_s.push(begun.elapsed().as_secs_f64());
    let mut reports = seed.reports.clone();

    let chunk = cfg.count(BULK_REPORTS_PER_WINDOW_S);
    for _ in 0..cfg.windows(2) {
        samples
            .ingest_rates
            .push(lib_ingest(&service, &mut reports, chunk)?);
        tally.attempted += chunk.div_ceil(LIB_BATCH as u64);
    }
    for window in 0..cfg.windows(3) {
        embedded_query_window(
            &service,
            &mut reports,
            world,
            cfg.window,
            cycle * 64 + window,
            samples,
            &mut tally,
        )?;
    }
    // Acknowledged rounds: ingest_batch of 8, then flush.
    let ack_rounds = cfg.count(ACK_ROUNDS_PER_WINDOW_S);
    let mut acks = Vec::new();
    for _ in 0..ack_rounds {
        let batch = reports.batch(ACK_BATCH);
        let begun = Instant::now();
        let accepted = service.ingest_batch(batch);
        service.flush();
        acks.push(begun.elapsed().as_nanos() as u64);
        tally.attempted += 1;
        tally.failed += u64::from(accepted != Ok(ACK_BATCH as u64));
    }
    samples.take_acks(&acks, ack_rounds);
    out.tally.add(tally);

    let sent = reports.emitted();
    let mut reference = Reference::build(world)?;
    reference.catch_up(sent)?;
    verify_embedded(out, &service, &reference, world, sent, "before the drop");
    drop(service);
    samples
        .disk_per_report
        .push(host::dir_bytes(dir)? as f64 / sent as f64);
    let begun = Instant::now();
    let service = open_embedded(dir, true)?;
    std::hint::black_box(service.score(ServiceId::new(0).into()));
    samples.recover_s.push(begun.elapsed().as_secs_f64());
    verify_embedded(out, &service, &reference, world, sent, "after recover_from");
    Ok(())
}

/// One window in which one thread queries the library closed loop while a
/// second ingests at a fixed rate: throughput, per-call latency, own CPU
/// per query.
fn embedded_query_window(
    service: &ReputationService,
    reports: &mut ReportStream,
    world: &World,
    window: Duration,
    lane: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> io::Result<()> {
    let window_ns = window.as_nanos() as u64;
    let cpu_before = host::cpu_seconds(0)?;
    let start = Instant::now();
    let (mut outcome, ingested) = std::thread::scope(|scope| {
        // A fixed count on a fixed schedule, so the log is the same size
        // whatever the speed; `lag` is how late each batch was handed in.
        let ingester = scope.spawn(|| {
            let gap = Duration::from_secs_f64(LIB_BATCH as f64 / EMBEDDED_INGEST_REPORTS_PER_S);
            let batches = (window.as_secs_f64() / gap.as_secs_f64()) as u32;
            let mut lag = Histogram::new();
            for batch in 0..batches {
                let due = start + gap * batch;
                host::wait_until(due);
                lag.record(due.elapsed().as_nanos() as u64);
                if service.ingest_batch(reports.batch(LIB_BATCH)) != Ok(LIB_BATCH as u64) {
                    return Err(io::Error::other("background ingest refused"));
                }
            }
            Ok((batches, lag))
        });
        let mut outcome = PhaseOutcome::new(window);
        let mut stream = world.queries(lane * 16);
        let mut buffer = Vec::new();
        loop {
            let begun = start.elapsed().as_nanos() as u64;
            if begun >= window_ns {
                break;
            }
            let mut failed = 0;
            for _ in 0..LIB_QUERY_BATCH {
                let ok = lib_answer(service, stream.next_query(), &world.prefs, &mut buffer);
                failed += u64::from(!ok);
            }
            let done = start.elapsed().as_nanos() as u64;
            outcome.tally.add(Tally {
                attempted: LIB_QUERY_BATCH,
                failed,
            });
            outcome
                .series
                .record(done, LIB_QUERY_BATCH, (done - begun) / LIB_QUERY_BATCH);
        }
        (outcome, ingester.join().expect("ingest thread panicked"))
    });
    let cpu_seconds = host::cpu_seconds(0)? - cpu_before;
    let (batches, lag) = ingested?;
    outcome.lag = lag;
    tally.add(outcome.tally);
    tally.add(Tally {
        attempted: batches as u64,
        failed: 0,
    });
    samples.take_rate(&outcome, window);
    samples.take_latencies(&outcome, window);
    samples.take_cpu(cpu_seconds, outcome.tally.attempted as f64);
    Ok(())
}

fn verify_embedded(
    out: &mut RunOutput,
    service: &ReputationService,
    reference: &Reference,
    world: &World,
    reports: u64,
    when: &str,
) {
    let applied = service.stats().feedback;
    out.check(applied == reports, || {
        format!("{when}: service applied {applied} reports, {reports} were sent")
    });
    let subjects = verify_subjects(world.seed);
    let mismatched = subjects
        .iter()
        .filter(|&&s| !estimates_agree(service.score(s), reference.service().score(s)))
        .count() as u64;
    out.tally.add(Tally {
        attempted: subjects.len() as u64,
        failed: mismatched,
    });
    out.check(mismatched == 0, || {
        format!(
            "{when}: {mismatched} of {} scores differ from the reference",
            subjects.len()
        )
    });
}
