//! Load drivers over `wsrep_server::Client`: closed loop, open loop, bulk
//! ingest and acknowledged rounds, each checking every answer it gets.
//!
//! Only `Client::{connect, queue, flush_queued, recv}` are used, so every
//! request of a driver is pipelined by hand and answers are matched to
//! requests by the protocol's FIFO contract.

use crate::hist::{Histogram, WindowSeries};
use crate::host::wait_until;
use crate::population::{category_of, Query, TOP_K};
use crate::trace::SpanLog;
use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_qos::preference::Preferences;
use wsrep_server::{Client, IngestKey, Request, Response, WireStats};

/// Operations attempted and failed. A failed operation is one that was
/// refused, answered with an error, or answered wrongly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What a request must be answered with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    Pong,
    Published,
    Scored,
    TopK { category: u32 },
    Ingested(u64),
    Flushed,
}

/// Whether `response` is a correct answer of the expected kind: a score in
/// `[0, 1]`; a `TopK` of at most `k` services, all of the requested
/// category, in non-increasing score order; an ingest count equal to the
/// batch sent.
pub fn answer_ok(expect: Expect, response: &Response) -> bool {
    match (expect, response) {
        (Expect::Pong, Response::Pong) => true,
        (Expect::Published, Response::Published(_)) => true,
        (Expect::Scored, Response::Scored(estimate)) => estimate.is_none_or(|e| {
            (0.0..=1.0).contains(&e.value.get()) && (0.0..=1.0).contains(&e.confidence)
        }),
        (Expect::TopK { category }, Response::TopKResult(ranked)) => {
            ranked.len() <= TOP_K as usize
                && ranked.iter().all(|r| category_of(r.service) == category)
                && ranked.windows(2).all(|pair| pair[0].score >= pair[1].score)
        }
        (Expect::Ingested(sent), Response::Ingested(accepted)) => sent == *accepted,
        (Expect::Flushed, Response::Flushed) => true,
        _ => false,
    }
}

/// One request of a generated stream.
pub struct Op {
    pub request: Request,
    pub expect: Expect,
    /// Work this request stands for in throughput figures: 1 for a query,
    /// the batch size for an ingest, 0 for a flush.
    pub units: u64,
}

impl Op {
    pub fn query(query: Query, prefs: &[Preferences]) -> Op {
        match query {
            Query::Score(subject) => Op {
                request: Request::Score(subject),
                expect: Expect::Scored,
                units: 1,
            },
            Query::TopK { category, prefs: p } => Op {
                request: Request::TopK {
                    category,
                    prefs: prefs[p].clone(),
                    k: TOP_K,
                },
                expect: Expect::TopK { category },
                units: 1,
            },
        }
    }

    pub fn ingest(batch: Vec<Feedback>, key: IngestKey) -> Op {
        let units = batch.len() as u64;
        Op {
            request: Request::Ingest {
                batch,
                key: Some(key),
            },
            expect: Expect::Ingested(units),
            units,
        }
    }

    pub fn flush() -> Op {
        Op {
            request: Request::Flush,
            expect: Expect::Flushed,
            units: 0,
        }
    }
}

/// A traced connection records a span around one client call in this many:
/// enough spans for every quantile (over 50 000 a window), at a sixteenth of
/// the cost. One in four cost 3-6% of closed-loop throughput.
const SPAN_SAMPLE: u64 = 16;

/// A connection, optionally recording spans around its client calls.
pub struct Wire {
    client: Client,
    log: Option<SpanLog>,
    requests: u64,
    calls: u64,
}

fn broken(what: impl std::fmt::Display) -> io::Error {
    io::Error::other(format!("connection to wsrep-server failed: {what}"))
}

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        Ok(Wire {
            client: Client::connect(addr)?,
            log: None,
            requests: 0,
            calls: 0,
        })
    }

    /// Record `server.client.*` spans from now on, against `epoch`.
    pub fn trace(&mut self, epoch: Instant) {
        self.log = Some(SpanLog::new(epoch));
    }

    pub fn take_log(&mut self) -> Option<SpanLog> {
        self.log.take()
    }

    /// Whether this client call is one of the sampled ones.
    fn sampled(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(SPAN_SAMPLE)
    }

    pub fn queue(&mut self, request: &Request) {
        self.requests += 1;
        let id = self.requests;
        let sampled = self.sampled();
        match &mut self.log {
            Some(log) if sampled => log.time("server.client.queue", None, id, || {
                self.client.queue(request)
            }),
            _ => self.client.queue(request),
        }
    }

    pub fn flush_queued(&mut self) -> io::Result<()> {
        let id = self.requests;
        let sampled = self.sampled();
        match &mut self.log {
            Some(log) if sampled => log.time("server.client.flush", None, id, || {
                self.client.flush_queued()
            }),
            _ => self.client.flush_queued(),
        }
    }

    pub fn recv(&mut self) -> io::Result<Response> {
        let id = self.requests;
        let sampled = self.sampled();
        match &mut self.log {
            Some(log) if sampled => log.time("server.client.recv", None, id, || self.client.recv()),
            _ => self.client.recv(),
        }
        .map_err(broken)
    }

    /// One synchronous round trip.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.queue(request);
        self.flush_queued()?;
        self.recv()
    }

    /// The server's counters.
    pub fn stats(&mut self) -> io::Result<WireStats> {
        match self.call(&Request::Stats)? {
            Response::StatsResult(stats) => Ok(*stats),
            other => Err(broken(format!("Stats answered with {other:?}"))),
        }
    }

    /// Send every op of `ops` with at most `window` unanswered, checking
    /// each answer. For set-up traffic: nothing is timed.
    pub fn pipeline(
        &mut self,
        ops: impl IntoIterator<Item = Op>,
        window: usize,
    ) -> io::Result<Tally> {
        let mut tally = Tally::default();
        let mut pending: VecDeque<Expect> = VecDeque::new();
        for op in ops {
            self.queue(&op.request);
            self.flush_queued()?;
            pending.push_back(op.expect);
            while pending.len() >= window {
                let expect = pending.pop_front().expect("window is positive");
                tally.count(answer_ok(expect, &self.recv()?));
            }
        }
        while let Some(expect) = pending.pop_front() {
            tally.count(answer_ok(expect, &self.recv()?));
        }
        Ok(tally)
    }
}

/// What one driver saw on one connection during one window.
pub struct PhaseOutcome {
    /// Completions and latencies, timed from the window's start. The
    /// series holds the window itself and, past it, whatever was answered
    /// after the deadline, which no figure counts.
    pub series: WindowSeries,
    pub tally: Tally,
    /// Open loop: how long after it could have sent each request the
    /// generator did — from the later of the request's due time and the
    /// moment the thread last came back from waiting on the server.
    pub lag: Histogram,
    /// Open loop: how long after its due time each request was sent,
    /// whatever the reason. One thread sends and receives, so a server
    /// stall shows here too; latency is charged for it either way.
    pub lateness: Histogram,
    /// Units completed, and when the last of them was (ns into the phase).
    pub units_done: u64,
    pub last_done_ns: u64,
}

impl PhaseOutcome {
    pub fn new(window: Duration) -> PhaseOutcome {
        PhaseOutcome {
            series: WindowSeries::new(window.as_nanos() as u64),
            tally: Tally::default(),
            lag: Histogram::new(),
            lateness: Histogram::new(),
            units_done: 0,
            last_done_ns: 0,
        }
    }

    pub fn merge(&mut self, other: &PhaseOutcome) {
        self.series.merge(&other.series);
        self.tally.add(other.tally);
        self.lag.merge(&other.lag);
        self.lateness.merge(&other.lateness);
        self.units_done += other.units_done;
        self.last_done_ns = self.last_done_ns.max(other.last_done_ns);
    }
}

struct Pending {
    /// When the request was due (open loop) or sent (closed loop).
    from_ns: u64,
    expect: Expect,
    units: u64,
}

/// Bookkeeping shared by the timed drivers: match answers to requests,
/// check them, and credit their units — ingested reports only once a
/// `Flushed` covers them.
struct Ledger {
    outcome: PhaseOutcome,
    pending: VecDeque<Pending>,
    unflushed_units: u64,
    phase_nanos: u64,
}

impl Ledger {
    fn new(phase: Duration) -> Ledger {
        Ledger {
            outcome: PhaseOutcome::new(phase),
            pending: VecDeque::new(),
            unflushed_units: 0,
            phase_nanos: phase.as_nanos() as u64,
        }
    }

    fn sent(&mut self, from_ns: u64, op: &Op) {
        self.pending.push_back(Pending {
            from_ns,
            expect: op.expect,
            units: op.units,
        });
    }

    fn answered(&mut self, now_ns: u64, response: &Response) {
        let request = self
            .pending
            .pop_front()
            .expect("an answer without a request");
        let ok = answer_ok(request.expect, response);
        self.outcome.tally.count(ok);
        // A failed request misses every latency limit: it is recorded as
        // taking until the phase deadline.
        let latency = if ok {
            now_ns.saturating_sub(request.from_ns)
        } else {
            self.phase_nanos.max(now_ns.saturating_sub(request.from_ns))
        };
        let credited = match request.expect {
            Expect::Ingested(_) => {
                self.unflushed_units += if ok { request.units } else { 0 };
                0
            }
            Expect::Flushed if ok => std::mem::take(&mut self.unflushed_units),
            _ if ok => request.units,
            _ => 0,
        };
        self.outcome.series.record(now_ns, credited, latency);
        if credited > 0 {
            self.outcome.units_done += credited;
            self.outcome.last_done_ns = now_ns;
        }
    }
}

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Closed loop: keep `window` requests unanswered on this connection for
/// `phase`, sending the next as each answer arrives. Latency is timed from
/// the send.
pub fn closed_loop(
    wire: &mut Wire,
    mut next_op: impl FnMut() -> Op,
    window: usize,
    start: Instant,
    phase: Duration,
) -> io::Result<PhaseOutcome> {
    let phase_ns = phase.as_nanos() as u64;
    let mut ledger = Ledger::new(phase);
    for _ in 0..window {
        let op = next_op();
        wire.queue(&op.request);
        ledger.sent(nanos_since(start), &op);
    }
    wire.flush_queued()?;
    while !ledger.pending.is_empty() {
        let response = wire.recv()?;
        let now = nanos_since(start);
        ledger.answered(now, &response);
        if now < phase_ns {
            let op = next_op();
            wire.queue(&op.request);
            wire.flush_queued()?;
            ledger.sent(nanos_since(start), &op);
        }
    }
    Ok(ledger.outcome)
}

/// Most requests an open-loop connection leaves unanswered; past this the
/// generator waits, and the wait shows as schedule lag.
const OPEN_LOOP_MAX_PENDING: usize = 4_096;

/// Open loop: send request `i` at `start + i / rate` whatever the server
/// is doing, for `phase`. Latency is timed from the *intended* send time,
/// so a stall is charged to every request it delayed (no coordinated
/// omission). `lag` records how late each request actually left.
///
/// One thread both sends and receives: it sends everything due, then
/// blocks for one answer (when any is owed) or waits for the next due
/// time. A final `Flush` is appended when `flush_at_end` is set, so
/// ingested units are credited.
pub fn open_loop(
    wire: &mut Wire,
    mut next_op: impl FnMut() -> Op,
    rate_per_s: f64,
    start: Instant,
    phase: Duration,
    flush_at_end: bool,
) -> io::Result<PhaseOutcome> {
    let gap_ns = 1e9 / rate_per_s;
    let total = (rate_per_s * phase.as_secs_f64()).round() as u64;
    let due_ns = |i: u64| (i as f64 * gap_ns) as u64;
    let mut ledger = Ledger::new(phase);
    let mut issued = 0u64;
    let mut flushed_at_end = !flush_at_end;
    // When this thread last stopped waiting (on the server or the clock).
    let mut free_since = 0u64;
    loop {
        let now = nanos_since(start);
        let mut queued = false;
        while issued < total
            && due_ns(issued) <= now
            && ledger.pending.len() < OPEN_LOOP_MAX_PENDING
        {
            let op = next_op();
            wire.queue(&op.request);
            ledger.outcome.lateness.record(now - due_ns(issued));
            ledger
                .outcome
                .lag
                .record(now - due_ns(issued).max(free_since));
            ledger.sent(due_ns(issued), &op);
            issued += 1;
            queued = true;
        }
        if issued == total && !flushed_at_end {
            let op = Op::flush();
            wire.queue(&op.request);
            ledger.sent(now, &op);
            flushed_at_end = true;
            queued = true;
        }
        if queued {
            wire.flush_queued()?;
        }
        if !ledger.pending.is_empty() {
            let response = wire.recv()?;
            free_since = nanos_since(start);
            ledger.answered(free_since, &response);
        } else if issued < total {
            wait_until(start + Duration::from_nanos(due_ns(issued)));
            free_since = due_ns(issued);
        } else {
            break;
        }
    }
    Ok(ledger.outcome)
}

/// Bulk ingest: pipeline `reports` reports in keyed batches of `batch`
/// with at most `in_flight` unanswered, then `Flush`. Returns reports per
/// second, counted when `Flushed` arrives, and the tally.
pub fn bulk_ingest(
    wire: &mut Wire,
    mut next_batch: impl FnMut(usize) -> Vec<Feedback>,
    keys: &mut KeySequence,
    reports: u64,
    batch: usize,
    in_flight: usize,
) -> io::Result<(f64, Tally)> {
    let mut sent = 0u64;
    let begun = Instant::now();
    let ops = std::iter::from_fn(|| {
        (sent < reports).then(|| {
            let size = batch.min((reports - sent) as usize);
            sent += size as u64;
            Op::ingest(next_batch(size), keys.next_key())
        })
    })
    .chain(std::iter::once_with(Op::flush));
    let tally = wire.pipeline(ops, in_flight)?;
    Ok((reports as f64 / begun.elapsed().as_secs_f64(), tally))
}

/// Acknowledged rounds: `rounds` times, send an `Ingest` of `batch`
/// reports and a `Flush` in one write and wait for `Flushed`. Returns the
/// nanoseconds from sending the `Ingest` to receiving `Flushed`, per round
/// in the order taken.
pub fn acked_rounds(
    wire: &mut Wire,
    mut next_batch: impl FnMut(usize) -> Vec<Feedback>,
    keys: &mut KeySequence,
    rounds: u64,
    batch: usize,
) -> io::Result<(Vec<u64>, Tally)> {
    let mut latencies = Vec::with_capacity(rounds as usize);
    let mut tally = Tally::default();
    for _ in 0..rounds {
        let ingest = Op::ingest(next_batch(batch), keys.next_key());
        let begun = Instant::now();
        wire.queue(&ingest.request);
        wire.queue(&Request::Flush);
        wire.flush_queued()?;
        let ingested = answer_ok(ingest.expect, &wire.recv()?);
        let flushed = answer_ok(Expect::Flushed, &wire.recv()?);
        latencies.push(begun.elapsed().as_nanos() as u64);
        // The round is one operation: a report batch made durable.
        tally.count(ingested && flushed);
    }
    Ok((latencies, tally))
}

/// The idempotency keys of one producer: `(producer, 1), (producer, 2)…`.
#[derive(Clone)]
pub struct KeySequence {
    producer: u64,
    seq: u64,
}

impl KeySequence {
    pub fn new(producer: u64) -> KeySequence {
        KeySequence { producer, seq: 0 }
    }

    pub fn next_key(&mut self) -> IngestKey {
        self.seq += 1;
        IngestKey {
            producer: self.producer,
            seq: self.seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use wsrep_core::trust::TrustEstimate;
    use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
    use wsrep_server::WireRanked;

    fn ranked(service: u64, score: f64) -> WireRanked {
        WireRanked {
            service,
            provider: 0,
            qos_score: 0.5,
            reputation: None,
            score,
        }
    }

    #[test]
    fn answers_are_checked_for_kind_order_and_category() {
        let category = category_of(7);
        let same = 7 + crate::population::CATEGORIES as u64;
        let good = Response::TopKResult(vec![ranked(7, 0.9), ranked(same, 0.4)]);
        let unordered = Response::TopKResult(vec![ranked(7, 0.4), ranked(same, 0.9)]);
        let foreign = Response::TopKResult(vec![ranked(8, 0.9)]);
        let long = Response::TopKResult(vec![ranked(7, 0.5); TOP_K as usize + 1]);
        assert!(answer_ok(Expect::TopK { category }, &good));
        assert!(!answer_ok(Expect::TopK { category }, &unordered));
        assert!(!answer_ok(Expect::TopK { category }, &foreign));
        assert!(!answer_ok(Expect::TopK { category }, &long));
        assert!(answer_ok(Expect::Scored, &Response::Scored(None)));
        let estimate = Some(TrustEstimate::new(0.7, 0.5));
        assert!(answer_ok(Expect::Scored, &Response::Scored(estimate)));
        assert!(!answer_ok(Expect::Scored, &Response::Flushed));
        assert!(answer_ok(Expect::Ingested(8), &Response::Ingested(8)));
        assert!(!answer_ok(Expect::Ingested(8), &Response::Ingested(7)));
    }

    /// A one-connection server that answers every `Ping` with `Pong`, but
    /// sleeps `stall` before answering request number `stall_at`.
    fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0usize;
            let mut pong = Vec::new();
            Response::Pong.encode_frame(&mut pong);
            loop {
                while let FrameSplit::Frame { frame_len } = split_frame(&buf) {
                    assert!(frame_len >= FRAME_HEADER_LEN);
                    buf.drain(..frame_len);
                    if answered == stall_at {
                        std::thread::sleep(stall);
                    }
                    answered += 1;
                    stream.write_all(&pong).unwrap();
                }
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, handle)
    }

    fn ping() -> Op {
        Op {
            request: Request::Ping,
            expect: Expect::Pong,
            units: 1,
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_send_time() {
        // 1 000 req/s for 400 ms; the server stalls 100 ms on request 100.
        // Every request due during the stall waited for it, and an honest
        // recorder charges them: about 100 requests see 1..100 ms. A
        // recorder timing from the actual send would see almost none.
        let stall = Duration::from_millis(100);
        let (addr, server) = stalling_server(100, stall);
        let mut wire = Wire::connect(&addr).unwrap();
        let outcome = open_loop(
            &mut wire,
            ping,
            1_000.0,
            Instant::now(),
            Duration::from_millis(400),
            false,
        )
        .unwrap();
        drop(wire);
        server.join().unwrap();
        assert_eq!(outcome.tally.attempted, 400);
        assert_eq!(outcome.tally.failed, 0);
        let latencies = outcome.series.all_latencies();
        let slow = latencies.share_above(10_000_000) * 400.0;
        // A recorder timing from the actual send would see one or two. The
        // upper limit is loose: a busy host adds stalls of its own.
        assert!(
            (70.0..=200.0).contains(&slow),
            "{slow} requests above 10 ms; the stall delayed about 90"
        );
        // The single-threaded sender was blocked in recv during the stall:
        // its sends were late, but not by the generator's own doing.
        assert!(outcome.lateness.quantile(0.99).unwrap() > 50_000_000.0);
        assert!(outcome.lag.quantile(0.99).unwrap() < 50_000_000.0);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_counts_every_answer() {
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let mut wire = Wire::connect(&addr).unwrap();
        let outcome = closed_loop(
            &mut wire,
            ping,
            8,
            Instant::now(),
            Duration::from_millis(100),
        )
        .unwrap();
        drop(wire);
        server.join().unwrap();
        assert!(outcome.tally.attempted >= 8);
        assert_eq!(outcome.tally.failed, 0);
        assert_eq!(outcome.units_done, outcome.tally.attempted);
        assert!(outcome
            .series
            .rates(100_000_000)
            .iter()
            .all(|&rate| rate > 0.0));
    }

    #[test]
    fn ingested_units_are_credited_only_when_flushed() {
        let mut ledger = Ledger::new(Duration::from_secs(1));
        let key = IngestKey {
            producer: 1,
            seq: 1,
        };
        let op = Op::ingest(Vec::new(), key);
        let op = Op {
            units: 64,
            expect: Expect::Ingested(64),
            ..op
        };
        ledger.sent(0, &op);
        ledger.sent(0, &Op::flush());
        ledger.answered(10, &Response::Ingested(64));
        assert_eq!(ledger.outcome.units_done, 0);
        ledger.answered(20, &Response::Flushed);
        assert_eq!(ledger.outcome.units_done, 64);
        assert_eq!(ledger.outcome.last_done_ns, 20);
    }
}
