//! `wsrep-client` — the sync connection speaking the wire protocol.
//!
//! [`Client`] wraps one blocking `TcpStream` with reusable encode/decode
//! buffers. Two styles of use:
//!
//! - **Call style**: [`Client::ping`], [`Client::publish`],
//!   [`Client::ingest`], [`Client::score`], [`Client::top_k`], … — one
//!   request, one response, one round trip.
//! - **Pipelined style**: [`Client::queue`] any number of requests,
//!   [`Client::flush_queued`] to put them on the wire in one write, then
//!   [`Client::recv`] exactly as many responses. The server answers in
//!   request order (the protocol's FIFO contract), so no correlation ids
//!   are needed; keeping a sliding window of queued requests amortizes
//!   the round trip across the window.

use crate::proto::{
    ErrorCode, IngestKey, ReplBatch, ReplWatermark, Request, Response, WireRanked, WireStats,
};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{ServiceId, SubjectId};
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
use wsrep_qos::preference::Preferences;
use wsrep_sim::registry::{Listing, PublishStatus};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server went away: connection reset, broken pipe, or the
    /// stream ended mid-response. Retryable by reconnecting.
    Disconnected(String),
    /// A configured read timeout elapsed with the response still owed
    /// (see [`Client::set_read_timeout`]). The connection is left in an
    /// indeterminate mid-frame state — reconnect rather than retry on
    /// the same stream.
    TimedOut,
    /// An earlier [`ClientError::TimedOut`] poisoned this connection and
    /// a call was attempted anyway. The stream may be mid-frame: any
    /// byte read now could be the tail of the timed-out response, so
    /// every answer would be misattributed to the wrong request. The
    /// only safe move is a fresh connection.
    Poisoned,
    /// The server answered with a protocol error.
    Server {
        /// The error code the server sent.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The stream carried bytes that do not parse as a response frame.
    Corrupt(String),
    /// The server answered with a response of the wrong kind — a broken
    /// pipelining contract.
    Unexpected(Response),
}

impl ClientError {
    /// Classify a socket error: timeouts and peer-gone conditions get
    /// their own variants so callers can branch without matching on
    /// [`io::ErrorKind`].
    fn from_io(err: io::Error) -> Self {
        match err.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ClientError::TimedOut,
            io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof => ClientError::Disconnected(err.to_string()),
            _ => ClientError::Io(err),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "socket error: {err}"),
            ClientError::Disconnected(what) => write!(f, "server disconnected: {what}"),
            ClientError::TimedOut => write!(f, "read timed out with a response still owed"),
            ClientError::Poisoned => write!(
                f,
                "connection poisoned by an earlier timeout; reconnect before retrying"
            ),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            ClientError::Corrupt(what) => write!(f, "corrupt response stream: {what}"),
            ClientError::Unexpected(response) => {
                write!(f, "out-of-order response: {response:?}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::from_io(err)
    }
}

/// A sync connection to a `wsrep-server`.
pub struct Client {
    stream: TcpStream,
    /// Unparsed received bytes; `rpos` marks the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Encoded-but-unsent requests (pipelining buffer).
    wbuf: Vec<u8>,
    /// Requests sent (or queued) minus responses received.
    in_flight: usize,
    /// Latched by a read timeout: the stream may be mid-frame, so every
    /// later call refuses with [`ClientError::Poisoned`].
    poisoned: bool,
}

impl Client {
    /// Connect to a server (Nagle disabled — the protocol is its own
    /// batching layer).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            in_flight: 0,
            poisoned: false,
        })
    }

    /// Responses owed by the server (queued or sent requests minus
    /// received responses).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True once a read timeout left this connection mid-frame. A
    /// poisoned client refuses every further call with
    /// [`ClientError::Poisoned`] — reconnect instead. (This is why
    /// timed-out requests are only safe to retry with an idempotency
    /// key: the server may have applied them.)
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Bound how long [`Client::recv`] blocks on the socket. `None`
    /// restores the default (block forever). When the bound elapses,
    /// calls fail with [`ClientError::TimedOut`] instead of hanging on a
    /// stalled or half-dead server.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Encode `request` into the send buffer without writing the socket.
    /// Pair with [`Client::flush_queued`] and [`Client::recv`].
    pub fn queue(&mut self, request: &Request) {
        request.encode_frame(&mut self.wbuf);
        self.in_flight += 1;
    }

    /// Put every queued request on the wire.
    pub fn flush_queued(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Queue + flush in one call.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.queue(request);
        self.flush_queued()
    }

    /// Read the next response (blocking). Responses arrive in request
    /// order.
    ///
    /// After a [`ClientError::TimedOut`] the connection is poisoned:
    /// the timed-out response may still arrive, so reading again would
    /// pair it with the wrong request. Every later `recv` (and every
    /// call-style helper, which goes through `recv`) fails with
    /// [`ClientError::Poisoned`] until the caller reconnects.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if self.poisoned {
            return Err(ClientError::Poisoned);
        }
        loop {
            match split_frame(&self.rbuf[self.rpos..]) {
                FrameSplit::Frame { frame_len } => {
                    let start = self.rpos + FRAME_HEADER_LEN;
                    let end = self.rpos + frame_len;
                    let response = Response::decode(&self.rbuf[start..end])
                        .map_err(|err| ClientError::Corrupt(err.to_string()))?;
                    self.rpos = end;
                    if self.rpos == self.rbuf.len() {
                        self.rbuf.clear();
                        self.rpos = 0;
                    }
                    self.in_flight = self.in_flight.saturating_sub(1);
                    return Ok(response);
                }
                FrameSplit::Corrupt => {
                    return Err(ClientError::Corrupt("bad frame checksum".to_string()))
                }
                FrameSplit::Incomplete => {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = self.stream.read(&mut chunk).map_err(|err| {
                        let err = ClientError::from_io(err);
                        if matches!(err, ClientError::TimedOut) {
                            self.poisoned = true;
                        }
                        err
                    })?;
                    if n == 0 {
                        return Err(ClientError::Disconnected(
                            "server closed the connection mid-response".to_string(),
                        ));
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
    }

    /// One round trip: send `request`, receive its response.
    pub(crate) fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        let response = self.recv()?;
        if let Response::Error { code, message } = response {
            return Err(ClientError::Server { code, message });
        }
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Publish (or update) a listing.
    pub fn publish(&mut self, listing: Listing) -> Result<PublishStatus, ClientError> {
        match self.call(&Request::Publish(listing))? {
            Response::Published(status) => Ok(status),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Withdraw a listing; `Ok(true)` when one was removed.
    pub fn deregister(&mut self, service: ServiceId) -> Result<bool, ClientError> {
        match self.call(&Request::Deregister(service))? {
            Response::Deregistered(found) => Ok(found),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Submit a batch of feedback; returns how many reports the server
    /// accepted into its ingest pipeline.
    pub fn ingest(&mut self, batch: Vec<Feedback>) -> Result<u64, ClientError> {
        let request = Request::Ingest { batch, key: None };
        match self.call(&request)? {
            Response::Ingested(accepted) => Ok(accepted),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Submit a batch of feedback under an idempotency key. Resending
    /// the same `(producer, seq)` — e.g. after a timeout or reconnect —
    /// replays the original answer instead of ingesting twice, so a
    /// retried batch applies exactly once. See
    /// [`RetryingClient`](crate::retry::RetryingClient) for the wrapper
    /// that manages keys automatically.
    pub fn ingest_keyed(
        &mut self,
        batch: Vec<Feedback>,
        key: IngestKey,
    ) -> Result<u64, ClientError> {
        let request = Request::Ingest {
            batch,
            key: Some(key),
        };
        match self.call(&request)? {
            Response::Ingested(accepted) => Ok(accepted),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// One subject's reputation; `None` means no evidence.
    pub fn score(&mut self, subject: SubjectId) -> Result<Option<TrustEstimate>, ClientError> {
        match self.call(&Request::Score(subject))? {
            Response::Scored(estimate) => Ok(estimate),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// The `k` best services in `category` under `prefs`.
    pub fn top_k(
        &mut self,
        category: u32,
        prefs: &Preferences,
        k: u32,
    ) -> Result<Vec<WireRanked>, ClientError> {
        let request = Request::TopK {
            category,
            prefs: prefs.clone(),
            k,
        };
        match self.call(&request)? {
            Response::TopKResult(ranked) => Ok(ranked),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Service + server counters.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsResult(stats) => Ok(*stats),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Apply-everything barrier: when this returns, every report this
    /// connection ingested before it is queryable (and journaled, with a
    /// journal attached).
    pub fn flush(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Flush)? {
            Response::Flushed => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Ask the server to shut down gracefully. The server acknowledges,
    /// drains every connection, flushes ingest, and exits.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Pull journal records from a primary, starting at `from_lsn`.
    /// Replication-loop plumbing; plain readers never need this.
    pub fn repl_pull(&mut self, from_lsn: u64, max_records: u32) -> Result<ReplBatch, ClientError> {
        let request = Request::ReplPull {
            from_lsn,
            max_records,
        };
        match self.call(&request)? {
            Response::ReplBatch(batch) => Ok(batch),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Report this replica's applied watermark; returns the primary's
    /// view of the topology.
    pub fn repl_heartbeat(
        &mut self,
        replica: u64,
        durable_lsn: u64,
    ) -> Result<ReplWatermark, ClientError> {
        let request = Request::ReplHeartbeat {
            replica,
            durable_lsn,
        };
        match self.call(&request)? {
            Response::ReplWatermark(watermark) => Ok(watermark),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
