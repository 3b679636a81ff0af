//! The serving loop: one blocking thread per connection.
//!
//! One **acceptor** thread blocks in `accept` and spawns a named thread
//! per connection, up to [`ServerConfig::max_connections`]. Past the cap
//! a connection is answered with one pre-encoded [`ErrorCode::Busy`]
//! frame and closed; no thread is spawned for it. A connection thread
//! blocks in `read`, so an idle server sits in the kernel at ~zero CPU.
//!
//! ## Pipelining and backpressure
//!
//! Requests are served strictly in arrival order per connection; a
//! client may pipeline as deep as it likes. After each read the thread
//! serves every complete frame it holds, then writes all their responses
//! at once — or earlier, once they pass [`WRITE_BATCH`] bytes, so a flood
//! of fat requests cannot balloon the response buffer. Backpressure is
//! the blocking `write`: a thread that is writing is not reading, and TCP
//! pushes the backpressure to the client.
//!
//! - **Slow-client timeout**: [`ServerConfig::write_stall_timeout`] is a
//!   deadline over one batch of responses. Each `write` waits at most the
//!   time left, so trickling a few bytes now and then doesn't reset the
//!   clock; a client not done by the deadline is closed. One stuck
//!   socket costs one bounded buffer for one bounded time, and only its
//!   own thread.
//!
//! ## Lifecycle
//!
//! [`Server::shutdown`] (or a [`Request::Shutdown`] frame, or a fail-stop
//! fence) flips a flag, wakes the acceptor with one connection to the
//! listener, and shuts down the read half of every open connection. Each
//! reader then sees the end of its stream, serves what it has buffered,
//! writes the responses and exits; `join` waits for every thread, then
//! flushes the ingest pipeline — with a journal attached that is a final
//! group-commit fsync, so everything acknowledged over the wire is
//! durable before the process exits.

use crate::proto::{ErrorCode, IngestKey, Request, Response, ServerStats, WireRanked, WireStats};
use crate::repl::{ReplicationGauge, Replicator};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{
    Ipv4Addr, Ipv6Addr, Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use wsrep_core::feedback::Feedback;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_serve::{DurabilityPolicy, ReputationService};
use wsrep_sim::registry::RegistryError;

/// Server knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most connections served at once, one thread each. A connection
    /// past the cap is answered [`ErrorCode::Busy`] and closed.
    pub max_connections: usize,
    /// Close a connection that has not taken one batch of responses
    /// within this long.
    pub write_stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
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
    /// Where shutdown connects to wake the acceptor out of `accept`.
    wake_addr: SocketAddr,
    /// A clone of every open connection, by connection number: shutdown
    /// closes their read halves to wake the blocked readers. The map's
    /// length is the number of connections the cap counts.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// Flip the shutdown flag, wake the acceptor, and end every open
    /// connection's input so no thread sleeps through it.
    fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        for stream in self.open_conns().values() {
            let _ = stream.shutdown(SockShutdown::Read);
        }
    }

    fn open_conns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Forget connection `id` and count it closed.
    fn close(&self, id: u64) {
        self.open_conns().remove(&id);
        self.counters
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A running reputation server bound to a TCP address.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    /// Returns the threads of the connections still open when it exits.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
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
        let local_addr = listener.local_addr()?;
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            service,
            counters: Counters::default(),
            dedup: IngestDedup::default(),
            shutdown: AtomicBool::new(false),
            read_only: AtomicBool::new(hooks.read_only),
            replicator: hooks.replicator,
            repl_gauge: hooks.gauge,
            config,
            wake_addr,
            conns: Mutex::new(HashMap::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("wsrep-acceptor".to_string())
            .spawn(move || accept_loop(&acceptor_shared, &listener))?;
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
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
            for conn in acceptor.join().unwrap_or_default() {
                let _ = conn.join();
            }
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

/// Bytes a connection's read buffer holds. It is allocated once, when
/// the connection starts, and grows only for a frame larger than itself.
const READ_CHUNK: usize = 64 * 1024;

/// Encoded responses a connection writes at the latest: past this it
/// stops serving and writes, so a flood of fat requests holds at most
/// about this much response memory.
const WRITE_BATCH: usize = 1 << 20;

/// Capacity a written response buffer keeps. One burst of fat responses
/// may grow it to [`WRITE_BATCH`]; it shrinks back here so one past
/// flood doesn't pin a megabyte for the connection's lifetime.
const BUF_RETAIN: usize = 256 * 1024;

/// Accept until shutdown, one thread per connection below the cap.
/// Returns the threads of the connections still open.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if shared.shutdown.load(Ordering::Acquire) => break,
            // Out of descriptors or the like: back off, don't spin.
            Err(_) => {
                thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        threads.retain(|conn| !conn.is_finished());
        {
            let mut conns = shared.open_conns();
            // Checked under the lock `request_shutdown` takes after
            // flipping the flag: a connection registered here is always
            // among the ones it shuts down.
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if conns.len() >= shared.config.max_connections {
                drop(conns);
                // Never block the acceptor on a peer we are refusing.
                if stream.set_nonblocking(true).is_ok() {
                    let _ = (&stream).write(busy_reply());
                }
                continue;
            }
            let Ok(clone) = stream.try_clone() else {
                continue;
            };
            conns.insert(id, clone);
        }
        shared
            .counters
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
        let conn_shared = Arc::clone(shared);
        match thread::Builder::new()
            .name(format!("wsrep-conn-{id}"))
            .spawn(move || serve_connection(&conn_shared, id, stream))
        {
            Ok(conn) => threads.push(conn),
            Err(_) => shared.close(id),
        }
    }
    threads
}

/// Serve one connection until the peer hangs up, a framing error, an
/// eviction, or shutdown ends its input.
fn serve_connection(shared: &Shared, id: u64, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Received bytes; `rbuf[..filled]` is what is not yet served. It has
    // a fixed capacity, not one sized by how a burst happened to arrive:
    // burst-sized buffers made what the process holds depend on timing.
    let mut rbuf = vec![0u8; READ_CHUNK];
    let mut filled = 0;
    let mut wbuf = Vec::new();
    loop {
        if filled == rbuf.len() {
            // One frame larger than the whole buffer.
            rbuf.resize(2 * rbuf.len(), 0);
        }
        match stream.read(&mut rbuf[filled..]) {
            // The peer hung up, or shutdown ended our input.
            Ok(0) => break,
            Ok(n) => {
                filled += n;
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let Some(served) = serve_frames(shared, &mut stream, &rbuf[..filled], &mut wbuf) else {
            break;
        };
        rbuf.copy_within(served..filled, 0);
        filled -= served;
        if rbuf.len() > READ_CHUNK && filled <= READ_CHUNK {
            rbuf.truncate(READ_CHUNK);
            rbuf.shrink_to_fit();
        }
    }
    let _ = stream.shutdown(SockShutdown::Both);
    shared.close(id);
}

/// Serve every complete frame at the front of `bytes`, in order, and
/// write their responses. Returns how many bytes it served, or `None`
/// once the connection must close.
fn serve_frames(
    shared: &Shared,
    stream: &mut TcpStream,
    bytes: &[u8],
    wbuf: &mut Vec<u8>,
) -> Option<usize> {
    let mut served = 0;
    let mut open = true;
    while open {
        match split_frame(&bytes[served..]) {
            FrameSplit::Incomplete => break,
            FrameSplit::Corrupt => {
                // The stream can't be resynchronized: answer with a final
                // error and close. The reply is pre-encoded — garbage on
                // the wire is exactly where a peer shouldn't get to charge
                // us allocations.
                shared
                    .counters
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                wbuf.extend_from_slice(corrupt_frame_reply());
                open = false;
            }
            FrameSplit::Frame { frame_len } => {
                let payload = &bytes[served + FRAME_HEADER_LEN..served + frame_len];
                let draining = shared.shutdown.load(Ordering::Acquire);
                let response = serve_payload(shared, payload, draining);
                served += frame_len;
                open = !matches!(response, Response::ShuttingDown);
                response.encode_frame(wbuf);
            }
        }
        if wbuf.len() > WRITE_BATCH && !write_batch(shared, stream, wbuf) {
            return None;
        }
    }
    (write_batch(shared, stream, wbuf) && open).then_some(served)
}

/// Write all of `wbuf` within the stall timeout, then empty it. False
/// when the connection failed or was evicted as a slow client.
fn write_batch(shared: &Shared, stream: &mut TcpStream, wbuf: &mut Vec<u8>) -> bool {
    let deadline = Instant::now() + shared.config.write_stall_timeout;
    let mut sent = 0;
    while sent < wbuf.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return evict_slow_client(shared);
        }
        if stream.set_write_timeout(Some(left)).is_err() {
            return false;
        }
        match stream.write(&wbuf[sent..]) {
            Ok(0) => return false,
            Ok(n) => {
                sent += n;
                shared
                    .counters
                    .bytes_out
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return evict_slow_client(shared)
            }
            Err(_) => return false,
        }
    }
    wbuf.clear();
    wbuf.shrink_to(BUF_RETAIN);
    true
}

/// Count a connection closed for not taking its responses in time.
fn evict_slow_client(shared: &Shared) -> bool {
    shared
        .counters
        .slow_client_closes
        .fetch_add(1, Ordering::Relaxed);
    false
}

/// The pre-encoded reply to an unrecoverable framing error.
fn corrupt_frame_reply() -> &'static [u8] {
    static REPLY: OnceLock<Vec<u8>> = OnceLock::new();
    REPLY.get_or_init(|| {
        error_frame(
            ErrorCode::BadRequest,
            "corrupt frame (bad length or checksum)",
        )
    })
}

/// The pre-encoded refusal of a connection past the cap.
fn busy_reply() -> &'static [u8] {
    static REPLY: OnceLock<Vec<u8>> = OnceLock::new();
    REPLY.get_or_init(|| error_frame(ErrorCode::Busy, "connection limit reached; retry later"))
}

fn error_frame(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut frame = Vec::new();
    Response::Error {
        code,
        message: message.to_string(),
    }
    .encode_frame(&mut frame);
    frame
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
