//! The serving loop: a hand-rolled readiness-driven reactor.
//!
//! One **acceptor** thread owns the listener and deals accepted sockets
//! round-robin to N **worker** threads. Each worker owns its connections
//! outright (no cross-thread connection state, no locks on the data
//! path) and blocks on a [`Poller`] — raw epoll (see [`crate::poll`]) — waking
//! only when a socket is actually readable/writable, a new connection is
//! dealt to it, or shutdown is requested. Per wakeup it pumps exactly
//! the ready connections: nonblocking writes first, then nonblocking
//! reads, then frame parsing and request dispatch. Read interest is
//! dropped while a connection is over its write-buffer limit and write
//! interest exists only while responses are queued, so a fully idle
//! server sits in `epoll_wait` at ~zero CPU instead of spinning a
//! sleep-poll loop. The connection ownership model is unchanged from the
//! polling reactor: readiness says *which* worker-owned connection to
//! pump, never moves one across threads.
//!
//! ## Pipelining and backpressure
//!
//! Requests are served strictly in arrival order per connection; a
//! client may pipeline as deep as it likes, but the server bounds the
//! damage a connection can do:
//!
//! - **Bounded in-flight depth**: a worker parses at most
//!   [`ServerConfig::max_pipeline_depth`] requests per connection per
//!   pass, and stops *reading* from a socket whose output buffer already
//!   holds more than [`ServerConfig::write_buffer_limit`] unsent bytes.
//!   An unread response backlog therefore freezes that connection's
//!   intake (TCP pushes the backpressure to the client) without ever
//!   growing server memory unboundedly.
//! - **Slow-client timeout**: a connection that stays *over* the
//!   write-buffer limit for longer than
//!   [`ServerConfig::write_stall_timeout`] is closed — trickling a few
//!   bytes now and then doesn't reset the clock, only draining back
//!   under the limit does. One stuck socket costs one bounded buffer
//!   for one bounded time, never the reactor.
//!
//! ## Lifecycle
//!
//! [`Server::shutdown`] (or a [`Request::Shutdown`] frame) flips a flag;
//! the acceptor stops accepting, workers stop reading, finish writing
//! every queued response, close their connections, and exit; `join`
//! then flushes the ingest pipeline — with a journal attached that is a
//! final group-commit fsync, so everything acknowledged over the wire
//! is durable before the process exits.

use crate::poll::{EpollPoller, Event, Interest, Poller, Waker};
use crate::proto::{ErrorCode, IngestKey, Request, Response, ServerStats, WireRanked, WireStats};
use crate::repl::{ReplicationGauge, Replicator};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_journal::frame::{split_frame, FrameSplit};
use wsrep_serve::{DurabilityPolicy, ReputationService};
use wsrep_sim::registry::RegistryError;

/// Reactor tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each owns a share of the connections).
    pub workers: usize,
    /// Most requests parsed and served per connection per reactor pass.
    pub max_pipeline_depth: usize,
    /// Stop reading from a connection whose unsent output exceeds this.
    pub write_buffer_limit: usize,
    /// Close a connection write-blocked over the limit for this long.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_pipeline_depth: 128,
            write_buffer_limit: 1 << 20,
            write_stall_timeout: Duration::from_secs(10),
        }
    }
}

/// Wire counters as relaxed atomics; snapshots into
/// [`ServerStats`].
#[derive(Debug, Default)]
struct Counters {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    requests: [AtomicU64; 11],
    reports_ingested: AtomicU64,
    malformed_frames: AtomicU64,
    protocol_errors: AtomicU64,
    slow_client_closes: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServerStats {
        let mut requests = [0u64; 11];
        for (slot, counter) in requests.iter_mut().zip(&self.requests) {
            *slot = counter.load(Ordering::Relaxed);
        }
        ServerStats {
            connections_opened: self.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            requests,
            reports_ingested: self.reports_ingested.load(Ordering::Relaxed),
            malformed_frames: self.malformed_frames.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            slow_client_closes: self.slow_client_closes.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Recent `(seq → acknowledgement)` pairs remembered per producer for
/// ingest dedup. Deep enough to cover any plausible in-flight retry
/// window; a producer that pipelines more unacknowledged batches than
/// this loses exactly-once on the overflow.
const DEDUP_WINDOW: usize = 128;

/// One producer's recently acknowledged ingest sequence numbers.
#[derive(Debug, Default)]
struct ProducerWindow {
    /// `(seq, accepted)` in arrival order, newest at the back.
    acked: VecDeque<(u64, u64)>,
}

impl ProducerWindow {
    fn lookup(&self, seq: u64) -> Option<u64> {
        // Retries target recent seqs, so scan newest-first.
        self.acked
            .iter()
            .rev()
            .find(|(s, _)| *s == seq)
            .map(|(_, accepted)| *accepted)
    }

    fn record(&mut self, seq: u64, accepted: u64) {
        if self.acked.len() == DEDUP_WINDOW {
            self.acked.pop_front();
        }
        self.acked.push_back((seq, accepted));
    }
}

/// The server-side half of exactly-once ingest: per-producer windows of
/// recently acknowledged `(seq, accepted)` pairs. A keyed batch whose
/// seq is already in its producer's window is **not** re-applied — the
/// original acknowledgement is replayed, so a client retrying after a
/// lost response cannot double-count feedback.
#[derive(Debug, Default)]
struct IngestDedup {
    producers: Mutex<HashMap<u64, Arc<Mutex<ProducerWindow>>>>,
}

impl IngestDedup {
    /// The producer's window, created on first sight. Two-level locking:
    /// the map lock is held only for the lookup, the per-producer lock
    /// for the whole check-apply-record sequence — concurrent retries of
    /// the same batch serialize, different producers don't contend.
    fn producer(&self, id: u64) -> Arc<Mutex<ProducerWindow>> {
        let mut map = self.producers.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(id).or_default())
    }
}

/// Replication hooks a cluster node plugs into its server. A plain
/// standalone server uses [`ReplicationHooks::default`]: no shipping,
/// no gauge, writes allowed.
#[derive(Default)]
pub struct ReplicationHooks {
    /// Serves `ReplPull`/`ReplHeartbeat` (a primary's shipped log).
    pub replicator: Option<Arc<dyn Replicator>>,
    /// Staleness watermarks surfaced in the `Stats` response.
    pub gauge: Option<Arc<ReplicationGauge>>,
    /// Start in read-only mode: reject writes (publish, deregister,
    /// ingest) with [`ErrorCode::ReadOnly`]. A replica serves reads at
    /// its watermark; promotion flips this off via
    /// [`Server::set_read_only`].
    pub read_only: bool,
}

/// State every thread shares.
struct Shared {
    service: Arc<ReputationService>,
    counters: Counters,
    dedup: IngestDedup,
    shutdown: AtomicBool,
    read_only: AtomicBool,
    replicator: Option<Arc<dyn Replicator>>,
    repl_gauge: Option<Arc<ReplicationGauge>>,
    config: ServerConfig,
    /// One waker per reactor thread (workers + acceptor): shutdown must
    /// interrupt a blocked `Poller::wait`, not wait out its timeout.
    wakers: Vec<Waker>,
}

impl Shared {
    /// Flip the shutdown flag and wake every reactor thread so none
    /// sleeps through it.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
    }
}

/// A running reputation server bound to a TCP address.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and start serving `service`. Use port 0 to let the
    /// OS pick; [`Server::local_addr`] reports the bound address.
    pub fn start(
        service: Arc<ReputationService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::start_with_replication(service, addr, config, ReplicationHooks::default())
    }

    /// [`Server::start`] with replication hooks attached — how a cluster
    /// primary ships its log and a replica serves read-only at its
    /// watermark.
    pub fn start_with_replication(
        service: Arc<ReputationService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        hooks: ReplicationHooks,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // Pollers are built before any thread starts so their wakers can
        // live in `Shared` — anyone holding the shared state can wake
        // every reactor thread (shutdown, the acceptor dealing a socket).
        let workers_n = config.workers.max(1);
        let acceptor_poller: Box<dyn Poller> = Box::new(EpollPoller::new()?);
        let mut worker_pollers: Vec<Box<dyn Poller>> = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            worker_pollers.push(Box::new(EpollPoller::new()?));
        }
        let worker_wakers: Vec<Waker> =
            worker_pollers.iter().map(|poller| poller.waker()).collect();
        let mut wakers = worker_wakers.clone();
        wakers.push(acceptor_poller.waker());
        let shared = Arc::new(Shared {
            service,
            counters: Counters::default(),
            dedup: IngestDedup::default(),
            shutdown: AtomicBool::new(false),
            read_only: AtomicBool::new(hooks.read_only),
            replicator: hooks.replicator,
            repl_gauge: hooks.gauge,
            config,
            wakers,
        });
        let mut senders: Vec<Sender<TcpStream>> = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for (w, poller) in worker_pollers.into_iter().enumerate() {
            let (tx, rx) = channel::<TcpStream>();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("wsrep-worker-{w}"))
                    .spawn(move || worker_loop(&shared, rx, poller))
                    .expect("spawn worker thread"),
            );
        }
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("wsrep-acceptor".to_string())
            .spawn(move || {
                accept_loop(
                    &acceptor_shared,
                    listener,
                    senders,
                    worker_wakers,
                    acceptor_poller,
                )
            })
            .expect("spawn acceptor thread");
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current wire counters.
    pub fn server_stats(&self) -> ServerStats {
        self.shared.counters.snapshot()
    }

    /// Whether shutdown has been requested (locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Flip read-only mode. A promoted replica calls
    /// `set_read_only(false)` to start accepting writes.
    pub fn set_read_only(&self, read_only: bool) {
        self.shared.read_only.store(read_only, Ordering::Release);
    }

    /// True once the service's durability policy fenced writes after a
    /// journal failure. Under [`DurabilityPolicy::FailStop`] the server
    /// also flips into shutdown by itself; hosts poll this to decide
    /// their exit code.
    pub fn durability_fenced(&self) -> bool {
        self.shared.service.durability_fenced()
    }

    /// Request a graceful shutdown: stop accepting, drain every
    /// connection's queued responses, flush ingest. Returns immediately;
    /// [`Server::join`] waits for the drain.
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Wait until every connection drained and every thread exited, then
    /// flush the ingest pipeline — the final durability barrier. Blocks
    /// until someone requests shutdown.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Everything acknowledged over the wire is queued in the ingest
        // pipeline at most; this barrier applies and (with a journal)
        // fsyncs it.
        self.shared.service.flush();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join_inner();
    }
}

/// Read chunk size per pass per connection.
const READ_CHUNK: usize = 64 * 1024;

/// How often an over-limit connection is re-pumped while its stall
/// clock runs. The kernel stops announcing writability once the send
/// buffer is mostly full even though small writes still succeed (and
/// each attempt lets the buffer autotune larger), so readiness alone
/// would both under-drain a recovering client and take too long to
/// prove a dead one stalled.
const STALL_POLL: Duration = Duration::from_millis(1);

/// Capacity a drained `rbuf`/`wbuf` keeps. A burst may grow the buffers
/// up to the backpressure limits; once drained they shrink back here so
/// one past slow client doesn't pin megabytes for its lifetime.
const BUF_RETAIN: usize = 256 * 1024;

fn accept_loop(
    shared: &Shared,
    listener: TcpListener,
    senders: Vec<Sender<TcpStream>>,
    worker_wakers: Vec<Waker>,
    mut poller: Box<dyn Poller>,
) {
    // Block on listener readiness between accepts; if registration fails
    // (exotic fd limits) fall back to a short sleep — accept stays
    // correct either way, only the idle cost differs.
    let registered = poller
        .register(listener.as_raw_fd(), 0, Interest::READ)
        .is_ok();
    let mut events: Vec<Event> = Vec::new();
    let mut next = 0usize;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                shared
                    .counters
                    .connections_opened
                    .fetch_add(1, Ordering::Relaxed);
                // Round-robin deal; a worker that exited drops its
                // receiver and the send fails, closing the socket. The
                // wake makes the worker adopt it now, not at its next
                // natural wakeup.
                let worker = next % senders.len();
                if senders[worker].send(stream).is_ok() {
                    worker_wakers[worker].wake();
                }
                next = next.wrapping_add(1);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                if registered {
                    let max_idle = poller.max_idle();
                    let _ = poller.wait(&mut events, max_idle);
                } else {
                    thread::sleep(Duration::from_micros(500));
                }
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(shared: &Shared, incoming: Receiver<TcpStream>, mut poller: Box<dyn Poller>) {
    // Connection slab: the poller token is the index, freed slots are
    // reused. `scheduled` dedups the pump set within one pass.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut scheduled: Vec<bool> = Vec::new();
    let mut pump_set: Vec<usize> = Vec::new();
    // Connections that still have work no readiness event will announce:
    // a complete frame beyond the per-pass pipeline bound, or a stall
    // deadline that just expired. Pumped again on the next pass.
    let mut carry: Vec<usize> = Vec::new();
    // Over-limit connections being polled at STALL_POLL cadence. Unlike
    // `carry`, these wait out a short timed sleep first: their next
    // write is expected to fail, so spinning on them would burn a core.
    let mut stall_poll: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut accepting = true;
    let mut timeout = Duration::ZERO;
    loop {
        let _ = poller.wait(&mut events, timeout);
        let draining = shared.shutdown.load(Ordering::Acquire);

        // Adopt newly dealt connections; ones that arrive mid-shutdown
        // are drained and closed by the same path as the rest.
        while accepting {
            match incoming.try_recv() {
                Ok(stream) => {
                    let token = free.pop().unwrap_or_else(|| {
                        conns.push(None);
                        scheduled.push(false);
                        conns.len() - 1
                    });
                    let conn = Conn::new(stream);
                    if poller
                        .register(conn.stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        // Unwatchable socket: close it rather than hold a
                        // connection no event will ever pump.
                        shared
                            .counters
                            .connections_closed
                            .fetch_add(1, Ordering::Relaxed);
                        free.push(token);
                        continue;
                    }
                    conns[token] = Some(conn);
                    if !scheduled[token] {
                        scheduled[token] = true;
                        pump_set.push(token);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    accepting = false;
                }
            }
        }

        for token in carry.drain(..).chain(stall_poll.drain(..)) {
            if conns.get(token).is_some_and(Option::is_some) && !scheduled[token] {
                scheduled[token] = true;
                pump_set.push(token);
            }
        }
        for event in &events {
            let token = event.token;
            if conns.get(token).is_some_and(Option::is_some) && !scheduled[token] {
                scheduled[token] = true;
                pump_set.push(token);
            }
        }
        if draining {
            // Every connection must notice the drain, events or not.
            for (token, slot) in conns.iter().enumerate() {
                if slot.is_some() && !scheduled[token] {
                    scheduled[token] = true;
                    pump_set.push(token);
                }
            }
        }

        let mut progress = false;
        for &token in &pump_set {
            scheduled[token] = false;
            let Some(conn) = conns[token].as_mut() else {
                continue;
            };
            let outcome = conn.pump(shared, draining);
            progress |= outcome.progress;
            if outcome.closed {
                let _ = poller.deregister(conn.stream.as_raw_fd(), token);
                conns[token] = None;
                free.push(token);
                shared
                    .counters
                    .connections_closed
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // Keep the kernel's picture current: read interest off under
            // write backlog (TCP backpressure), write interest only while
            // responses are queued.
            let desired = conn.desired_interest(shared, draining);
            if desired != conn.interest
                && poller
                    .reregister(conn.stream.as_raw_fd(), token, desired)
                    .is_ok()
            {
                conn.interest = desired;
            }
            if outcome.more {
                carry.push(token);
            }
        }
        pump_set.clear();

        // Bookkeeping pass: live count for the drain exit, and stall
        // deadlines — the one timer readiness knows nothing about.
        let mut live = 0usize;
        let mut stall_wait: Option<Duration> = None;
        for (token, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot else { continue };
            live += 1;
            if conn.backlog() > shared.config.write_buffer_limit {
                // Start the clock here too: the serve loop may push a
                // backlog over the limit without another pump running.
                let stalled_since = *conn.stalled_since.get_or_insert_with(Instant::now);
                let elapsed = stalled_since.elapsed();
                if elapsed >= shared.config.write_stall_timeout {
                    // Deadline hit: pump immediately, the pump evicts.
                    carry.push(token);
                } else {
                    stall_poll.push(token);
                    stall_wait = Some(STALL_POLL);
                }
            }
        }
        if draining && live == 0 {
            return;
        }
        timeout = if progress || !carry.is_empty() {
            Duration::ZERO
        } else {
            let mut idle = poller.max_idle();
            if let Some(stall) = stall_wait {
                idle = idle.min(stall);
            }
            idle
        };
    }
}

struct PumpOutcome {
    progress: bool,
    closed: bool,
    /// A complete frame is still buffered (the pass hit the pipeline
    /// bound): pump again without waiting for readiness.
    more: bool,
}

/// One connection, owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    /// Received bytes not yet parsed; `rpos` marks the parsed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded responses not yet written; `wpos` marks the sent prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Stop reading and close once `wbuf` drains (fatal protocol error,
    /// shutdown handshake, or peer EOF).
    close_after_flush: bool,
    /// When the write backlog first exceeded the limit. The stall
    /// clock: eviction fires when this gets old while the backlog is
    /// still over the limit, and only draining to *half* the limit
    /// clears it — trickling bytes at the boundary resets nothing.
    stalled_since: Option<Instant>,
    /// Readiness interest currently registered with the worker's poller.
    interest: Interest,
    /// Reusable read scratch — connections allocate their buffers once,
    /// not per request.
    read_chunk: Box<[u8; READ_CHUNK]>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            // One read chunk up front: a pipelined window of requests then
            // lands without regrowing the buffer, so how the bytes happen
            // to arrive does not decide what the worker's heap holds.
            rbuf: Vec::with_capacity(READ_CHUNK),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            close_after_flush: false,
            stalled_since: None,
            interest: Interest::READ,
            read_chunk: Box::new([0u8; READ_CHUNK]),
        }
    }

    /// Unsent response bytes.
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// What readiness this connection can currently act on: reads unless
    /// backpressured/closing, writes only while responses are queued.
    fn desired_interest(&self, shared: &Shared, draining: bool) -> Interest {
        Interest {
            readable: !self.close_after_flush
                && !draining
                && self.backlog() <= shared.config.write_buffer_limit,
            writable: self.wpos < self.wbuf.len(),
        }
    }

    fn pump(&mut self, shared: &Shared, draining: bool) -> PumpOutcome {
        let mut progress = false;

        // 1. Drain pending writes (nonblocking).
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return self.closed(),
                Ok(n) => {
                    self.wpos += n;
                    shared
                        .counters
                        .bytes_out
                        .fetch_add(n as u64, Ordering::Relaxed);
                    progress = true;
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.closed(),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.wbuf.capacity() > BUF_RETAIN {
                self.wbuf.shrink_to(BUF_RETAIN);
            }
            if self.close_after_flush {
                let _ = self.stream.shutdown(SockShutdown::Both);
                return self.closed();
            }
        }

        let backlog = self.backlog();
        if backlog > shared.config.write_buffer_limit {
            // Slow client: its responses aren't draining. Stop reading
            // (TCP backpressure) and give up on it entirely if it stays
            // over the limit for the whole stall timeout.
            let stalled_since = *self.stalled_since.get_or_insert_with(Instant::now);
            if stalled_since.elapsed() > shared.config.write_stall_timeout {
                shared
                    .counters
                    .slow_client_closes
                    .fetch_add(1, Ordering::Relaxed);
                let _ = self.stream.shutdown(SockShutdown::Both);
                return self.closed();
            }
            return PumpOutcome {
                progress,
                closed: false,
                more: false,
            };
        }
        if backlog <= shared.config.write_buffer_limit / 2 {
            self.stalled_since = None;
        }

        // 2. Read whatever the socket has (nonblocking), unless closing
        //    or draining for shutdown.
        let mut peer_eof = false;
        if !self.close_after_flush && !draining {
            loop {
                match self.stream.read(&mut self.read_chunk[..]) {
                    Ok(0) => {
                        peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&self.read_chunk[..n]);
                        shared
                            .counters
                            .bytes_in
                            .fetch_add(n as u64, Ordering::Relaxed);
                        progress = true;
                        if n < self.read_chunk.len() {
                            break;
                        }
                    }
                    Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return self.closed(),
                }
            }
        }

        // 3. Parse and serve complete frames, bounded per pass.
        let mut served = 0usize;
        while served < shared.config.max_pipeline_depth
            && self.wbuf.len() - self.wpos <= shared.config.write_buffer_limit
            && !self.close_after_flush
        {
            match split_frame(&self.rbuf[self.rpos..]) {
                FrameSplit::Incomplete => break,
                FrameSplit::Corrupt => {
                    // The stream can't be resynchronized: answer with a
                    // final error and close once it's flushed. The reply
                    // is pre-encoded — garbage on the wire is exactly
                    // where a peer shouldn't get to charge us
                    // allocations.
                    shared
                        .counters
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    self.wbuf.extend_from_slice(corrupt_frame_reply());
                    self.close_after_flush = true;
                }
                FrameSplit::Frame { frame_len } => {
                    let start = self.rpos + wsrep_journal::frame::FRAME_HEADER_LEN;
                    let end = self.rpos + frame_len;
                    let response = serve_payload(shared, &self.rbuf[start..end], draining);
                    self.rpos = end;
                    let shutting_down = matches!(response, Response::ShuttingDown);
                    response.encode_frame(&mut self.wbuf);
                    if shutting_down {
                        self.close_after_flush = true;
                    }
                    served += 1;
                    progress = true;
                }
            }
        }
        // Reclaim the parsed prefix once it dominates the buffer, and
        // give back burst capacity once it's reclaimed.
        if self.rpos > 0 && (self.rpos == self.rbuf.len() || self.rpos >= READ_CHUNK) {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
            if self.rbuf.capacity() > BUF_RETAIN && self.rbuf.len() <= BUF_RETAIN {
                self.rbuf.shrink_to(BUF_RETAIN);
            }
        }

        // Did the pipeline bound stop us with a complete frame already
        // buffered? No readiness event will announce it, so tell the
        // reactor to pump again. (Exiting for backpressure instead is
        // announced — by the socket turning writable.)
        let more = served == shared.config.max_pipeline_depth
            && !self.close_after_flush
            && self.backlog() <= shared.config.write_buffer_limit
            && matches!(
                split_frame(&self.rbuf[self.rpos..]),
                FrameSplit::Frame { .. }
            );

        if (peer_eof || draining) && !self.close_after_flush && !more {
            // Serve what was already buffered, then close.
            if split_frame(&self.rbuf[self.rpos..]) == FrameSplit::Incomplete || draining {
                self.close_after_flush = true;
                if self.wbuf.len() == self.wpos {
                    let _ = self.stream.shutdown(SockShutdown::Both);
                    return self.closed();
                }
            }
        }

        PumpOutcome {
            progress,
            closed: false,
            more,
        }
    }

    fn closed(&mut self) -> PumpOutcome {
        PumpOutcome {
            progress: true,
            closed: true,
            more: false,
        }
    }
}

/// The pre-encoded reply to an unrecoverable framing error.
fn corrupt_frame_reply() -> &'static [u8] {
    static REPLY: OnceLock<Vec<u8>> = OnceLock::new();
    REPLY.get_or_init(|| {
        let mut frame = Vec::new();
        Response::Error {
            code: ErrorCode::BadRequest,
            message: "corrupt frame (bad length or checksum)".to_string(),
        }
        .encode_frame(&mut frame);
        frame
    })
}

/// The refusal a fenced service answers every write with. Under
/// [`DurabilityPolicy::FailStop`] the refusal also flips the server into
/// shutdown: a fail-stop node drains and exits rather than keep a
/// non-durable registry reachable.
fn refuse_not_durable(shared: &Shared) -> Response {
    if shared.service.durability_policy() == DurabilityPolicy::FailStop {
        shared.request_shutdown();
    }
    Response::Error {
        code: ErrorCode::NotDurable,
        message: "journal failed; durability policy fenced writes".to_string(),
    }
}

/// Serve one ingest batch, deduplicating keyed batches through the
/// producer's window so a retried batch applies exactly once.
fn serve_ingest(shared: &Shared, batch: Vec<Feedback>, key: Option<IngestKey>) -> Response {
    if shared.service.durability_fenced() {
        return refuse_not_durable(shared);
    }
    let Some(key) = key else {
        return ingest_now(shared, batch);
    };
    let window = shared.dedup.producer(key.producer);
    // Hold the producer's window lock across check-apply-record:
    // concurrent retries of the same seq serialize here, so exactly one
    // applies and the rest replay its acknowledgement.
    let mut window = window.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(accepted) = window.lookup(key.seq) {
        return Response::Ingested(accepted);
    }
    let response = ingest_now(shared, batch);
    if let Response::Ingested(accepted) = response {
        window.record(key.seq, accepted);
    }
    response
}

fn ingest_now(shared: &Shared, batch: Vec<Feedback>) -> Response {
    let size = batch.len() as u64;
    match shared.service.ingest_batch(batch) {
        Ok(accepted) => {
            shared
                .counters
                .reports_ingested
                .fetch_add(accepted, Ordering::Relaxed);
            debug_assert_eq!(accepted, size);
            Response::Ingested(accepted)
        }
        Err(_) => Response::Error {
            code: ErrorCode::IngestClosed,
            message: "ingest pipeline closed".to_string(),
        },
    }
}

/// Decode one frame payload and serve it against the service.
fn serve_payload(shared: &Shared, payload: &[u8], draining: bool) -> Response {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(err) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let code = match err {
                crate::proto::DecodeError::BadVersion(_) => ErrorCode::BadVersion,
                _ => ErrorCode::BadRequest,
            };
            return Response::Error {
                code,
                message: err.to_string(),
            };
        }
    };
    serve_request(shared, request, draining)
}

fn serve_request(shared: &Shared, request: Request, draining: bool) -> Response {
    shared.counters.requests[request.stat_slot()].fetch_add(1, Ordering::Relaxed);
    if draining && !matches!(request, Request::Shutdown | Request::Stats | Request::Ping) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is draining".to_string(),
        };
    }
    if shared.read_only.load(Ordering::Acquire)
        && matches!(
            request,
            Request::Publish(_) | Request::Deregister(_) | Request::Ingest { .. }
        )
    {
        return Response::Error {
            code: ErrorCode::ReadOnly,
            message: "read-only replica; writes must go to the primary".to_string(),
        };
    }
    match request {
        Request::Ping => Response::Pong,
        Request::Publish(listing) => match shared.service.publish(listing) {
            Ok(status) => Response::Published(status),
            Err(_) => refuse_not_durable(shared),
        },
        Request::Deregister(service) => match shared.service.deregister(service) {
            Ok(()) => Response::Deregistered(true),
            Err(RegistryError::NotDurable) => refuse_not_durable(shared),
            Err(_) => Response::Deregistered(false),
        },
        Request::Ingest { batch, key } => serve_ingest(shared, batch, key),
        Request::Score(subject) => Response::Scored(shared.service.score(subject)),
        Request::TopK { category, prefs, k } => {
            let ranked = shared.service.top_k(category, &prefs, k as usize);
            Response::TopKResult(ranked.iter().map(WireRanked::from).collect())
        }
        Request::Stats => Response::StatsResult(Box::new(WireStats {
            service: shared.service.stats(),
            server: shared.counters.snapshot(),
            replication: shared.repl_gauge.as_ref().map(|gauge| gauge.snapshot()),
        })),
        Request::Flush => {
            // Blocks this worker until the pipeline catches up — the
            // caller asked for a barrier; other workers keep serving.
            // The barrier is honest: a fenced pipeline dropped batches
            // instead of journaling them, and flush refuses to ack them.
            match shared.service.try_flush() {
                Ok(()) => Response::Flushed,
                Err(_) => refuse_not_durable(shared),
            }
        }
        Request::Shutdown => {
            shared.request_shutdown();
            Response::ShuttingDown
        }
        Request::ReplPull {
            from_lsn,
            max_records,
        } => match shared.replicator.as_deref() {
            Some(replicator) => match replicator.pull(from_lsn, max_records) {
                Ok(batch) => Response::ReplBatch(batch),
                Err(err) => Response::Error {
                    code: ErrorCode::ReplUnavailable,
                    message: err.to_string(),
                },
            },
            None => Response::Error {
                code: ErrorCode::ReplUnavailable,
                message: "this node does not ship a log".to_string(),
            },
        },
        Request::ReplHeartbeat {
            replica,
            durable_lsn,
        } => match shared.replicator.as_deref() {
            Some(replicator) => Response::ReplWatermark(replicator.heartbeat(replica, durable_lsn)),
            None => Response::Error {
                code: ErrorCode::ReplUnavailable,
                message: "this node does not track replicas".to_string(),
            },
        },
    }
}
