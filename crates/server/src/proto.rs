//! The wire protocol: versioned, length-prefixed, CRC32-framed.
//!
//! Every message — request or response — travels in one journal-style
//! frame (`len: u32 LE | crc32: u32 LE | payload`, see
//! [`wsrep_journal::frame`]); the payload begins with the protocol
//! version byte and an opcode, followed by the body in the journal
//! codec's little-endian layout. Reusing the journal's framing and codec
//! means the wire inherits the same torn/corrupt detection discipline the
//! WAL already proves, and domain types (feedback, listings, subjects)
//! are encoded by the exact routines the durability path pins with golden
//! files.
//!
//! Records travel as the WAL writes them: `Ingest` and `ReplBatch` end in
//! `count u32` and a commit payload
//! ([`wsrep_journal::record::put_payload`]), so any change to the
//! payload's rules is a [`PROTO_VERSION`] bump.
//!
//! ```text
//! ┌──────────────┬───────────────┬─────────────────────────────────┐
//! │ len: u32 LE  │ crc32: u32 LE │ ver: u8 | opcode: u8 | body ... │
//! └──────────────┴───────────────┴─────────────────────────────────┘
//! ```
//!
//! ## Contract
//!
//! - **Pipelining**: a client may send any number of requests before
//!   reading; the server answers strictly in request order on each
//!   connection. No request ids are needed — FIFO is the contract.
//! - **Versioning**: every payload carries its protocol version, and a
//!   peer speaks exactly one, [`PROTO_VERSION`]. Any other version gets
//!   [`Response::Error`] with [`ErrorCode::BadVersion`] and the
//!   connection survives (framing is still sound). New fields are only
//!   ever *appended* to existing payloads under a version bump.
//! - **Errors**: a well-framed but undecodable payload gets
//!   [`ErrorCode::BadRequest`] and the connection survives; a corrupt
//!   *frame* (bad CRC, absurd length) is unrecoverable — the stream can
//!   never resynchronize — so the server sends a final error and closes.
//!
//! Opcodes are a format contract like the journal's tags: never
//! renumber, new messages get new opcodes.

use std::fmt;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{ServiceId, SubjectId};
use wsrep_core::trust::TrustEstimate;
use wsrep_journal::codec::{
    get_listing, get_metric, get_subject, put_bool, put_bytes, put_f64, put_listing, put_metric,
    put_subject, put_u32, put_u64, CodecError, CompactRules, Cursor,
};
use wsrep_journal::frame::{begin_frame, end_frame};
use wsrep_journal::record::{decode_payload, put_payload, MIN_RECORD_LEN};
use wsrep_journal::JournalRecord;
use wsrep_qos::preference::Preferences;
use wsrep_serve::{DurabilityPolicy, JournalHealth, RankedService, ServiceStats};
use wsrep_sim::registry::{Listing, PublishStatus};

/// Protocol version carried in every payload.
///
/// v2: stats payloads gained the journal's `writer_groups` count.
/// v3: `Ingest` carries an optional `(producer, seq)` idempotency key
/// (exactly-once retries); the stats journal block gained
/// `journal_errors`, the durability `policy`, and the `fenced` flag;
/// [`ErrorCode::NotDurable`] was added.
/// v4: `Ingest` is `key?, count u32, payload`, `ReplBatch` is
/// `first_lsn, durable_lsn, count u32, payload`; the stats body lost its
/// two reserved `cache_*` slots. A peer speaks this version only.
/// [`ErrorCode::Busy`] was appended within v4; nothing else moved.
pub const PROTO_VERSION: u8 = 4;

// Request opcodes — wire contract, never renumber.
const OP_PING: u8 = 0x01;
const OP_PUBLISH: u8 = 0x02;
const OP_DEREGISTER: u8 = 0x03;
const OP_INGEST: u8 = 0x04;
const OP_SCORE: u8 = 0x05;
const OP_TOP_K: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_FLUSH: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;
// Replication opcode family: a follower pulls records and reports its
// applied watermark. Pull-based shipping keeps the FIFO contract — a
// replica is just another pipelined client.
const OP_REPL_PULL: u8 = 0x10;
const OP_REPL_HEARTBEAT: u8 = 0x11;

// Response opcodes.
const OP_PONG: u8 = 0x81;
const OP_PUBLISHED: u8 = 0x82;
const OP_DEREGISTERED: u8 = 0x83;
const OP_INGESTED: u8 = 0x84;
const OP_SCORED: u8 = 0x85;
const OP_TOP_K_RESULT: u8 = 0x86;
const OP_STATS_RESULT: u8 = 0x87;
const OP_FLUSHED: u8 = 0x88;
const OP_SHUTTING_DOWN: u8 = 0x89;
const OP_REPL_BATCH: u8 = 0x90;
const OP_REPL_WATERMARK: u8 = 0x91;
const OP_ERROR: u8 = 0xEE;

/// Why the server rejected a message. The discriminant is the wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The payload's version byte is not [`PROTO_VERSION`].
    BadVersion = 1,
    /// The frame was sound but the payload did not decode.
    BadRequest = 2,
    /// The server is draining and no longer accepts work.
    ShuttingDown = 3,
    /// The ingest pipeline is closed.
    IngestClosed = 4,
    /// This node cannot serve the replication request (not a primary, or
    /// the requested history was compacted away).
    ReplUnavailable = 5,
    /// This node is a read-only replica: writes must go to the primary.
    ReadOnly = 6,
    /// This node cannot make the write durable and its durability policy
    /// fenced writes rather than lie about it. Not retryable here —
    /// clients should fail over.
    NotDurable = 7,
    /// The server is at its connection cap and closed this connection
    /// unserved. Retryable: the same request succeeds once a slot frees.
    Busy = 8,
}

impl ErrorCode {
    fn from_wire(tag: u8) -> Result<Self, CodecError> {
        match tag {
            1 => Ok(ErrorCode::BadVersion),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::IngestClosed),
            5 => Ok(ErrorCode::ReplUnavailable),
            6 => Ok(ErrorCode::ReadOnly),
            7 => Ok(ErrorCode::NotDurable),
            8 => Ok(ErrorCode::Busy),
            tag => Err(CodecError::BadTag {
                what: "error code",
                tag,
            }),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::BadVersion => write!(f, "unsupported protocol version"),
            ErrorCode::BadRequest => write!(f, "malformed request payload"),
            ErrorCode::ShuttingDown => write!(f, "server shutting down"),
            ErrorCode::IngestClosed => write!(f, "ingest pipeline closed"),
            ErrorCode::ReplUnavailable => write!(f, "replication unavailable here"),
            ErrorCode::ReadOnly => write!(f, "read-only replica"),
            ErrorCode::NotDurable => write!(f, "writes fenced after journal failure"),
            ErrorCode::Busy => write!(f, "server at its connection cap"),
        }
    }
}

/// The `(producer, seq)` idempotency key a retried ingest batch carries. The server keeps a per-producer window of recently applied
/// sequence numbers and replays the original acknowledgement for a
/// duplicate, so a retry after a lost response applies **exactly once**.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestKey {
    /// The producer's stable identity across reconnects.
    pub producer: u64,
    /// Strictly increasing per producer; each batch gets a fresh value,
    /// each retry of the same batch reuses it.
    pub seq: u64,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Publish (or update) a listing.
    Publish(Listing),
    /// Withdraw a listing.
    Deregister(ServiceId),
    /// A batch of feedback reports for the ingest pipeline.
    Ingest {
        /// The reports.
        batch: Vec<Feedback>,
        /// Idempotency key for exactly-once retries (`None` from
        /// fire-and-forget producers).
        key: Option<IngestKey>,
    },
    /// One subject's reputation.
    Score(SubjectId),
    /// The `k` best services in a category under the given preferences.
    TopK {
        /// Category to rank.
        category: u32,
        /// Preference weights, encoded as `(metric, weight)` pairs.
        prefs: Preferences,
        /// How many services to return.
        k: u32,
    },
    /// Service + server counters.
    Stats,
    /// Apply-everything barrier (durability barrier with a journal).
    Flush,
    /// Graceful shutdown: drain connections, flush ingest, exit.
    Shutdown,
    /// Replication follower: pull journal records starting at `from_lsn`.
    ReplPull {
        /// LSN of the first record the follower wants.
        from_lsn: u64,
        /// Most records the primary should return in one batch.
        max_records: u32,
    },
    /// Replication follower: report the watermark it has durably applied.
    ReplHeartbeat {
        /// Follower identity (stable across reconnects).
        replica: u64,
        /// One past the last LSN the follower has applied durably.
        durable_lsn: u64,
    },
}

/// One server response. Responses arrive in request order.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Publish`].
    Published(PublishStatus),
    /// Answer to [`Request::Deregister`]: whether a listing was removed.
    Deregistered(bool),
    /// Answer to [`Request::Ingest`]: reports accepted into the pipeline.
    Ingested(u64),
    /// Answer to [`Request::Score`]; `None` means no evidence.
    Scored(Option<TrustEstimate>),
    /// Answer to [`Request::TopK`].
    TopKResult(Vec<WireRanked>),
    /// Answer to [`Request::Stats`].
    StatsResult(Box<WireStats>),
    /// Answer to [`Request::Flush`].
    Flushed,
    /// Answer to [`Request::Shutdown`]; the connection closes after this.
    ShuttingDown,
    /// Answer to [`Request::ReplPull`]: shipped records plus the
    /// primary's durable watermark.
    ReplBatch(ReplBatch),
    /// Answer to [`Request::ReplHeartbeat`]: the primary's view of the
    /// replication topology.
    ReplWatermark(ReplWatermark),
    /// The request could not be served.
    Error {
        /// Why.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// A [`RankedService`] as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRanked {
    /// The ranked service.
    pub service: u64,
    /// Its provider.
    pub provider: u64,
    /// Advertised-QoS score in `[0, 1]`.
    pub qos_score: f64,
    /// Reputation evidence, when any feedback exists.
    pub reputation: Option<TrustEstimate>,
    /// The blended ranking score.
    pub score: f64,
}

impl From<&RankedService> for WireRanked {
    fn from(r: &RankedService) -> Self {
        WireRanked {
            service: r.service.raw(),
            provider: r.provider.raw(),
            qos_score: r.qos_score,
            reputation: r.reputation,
            score: r.score,
        }
    }
}

/// A run of journal records shipped from a primary's log.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplBatch {
    /// LSN of `records[0]` (meaningful only when records is non-empty).
    pub first_lsn: u64,
    /// Records in dense LSN order; empty means the follower is caught up.
    pub records: Vec<JournalRecord>,
    /// One past the last LSN the primary's journal holds.
    pub durable_lsn: u64,
}

/// The primary's view of the replication topology, answered to a
/// heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplWatermark {
    /// One past the last LSN the primary's journal holds.
    pub durable_lsn: u64,
    /// Followers that heartbeated recently.
    pub replicas: u32,
    /// The slowest recent follower's applied watermark (equal to
    /// `durable_lsn` when there are none).
    pub min_replica_lsn: u64,
}

/// Which side of replication a node is on. The discriminant is the wire
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplRole {
    /// Accepts writes and ships its log.
    Primary = 0,
    /// Applies a shipped log and serves bounded-staleness reads.
    Replica = 1,
}

/// Replication state surfaced in [`WireStats`] — the bounded-staleness
/// watermark contract made observable: `lag` is how many records this
/// node's reads may trail the other side's durable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationStats {
    /// This node's role.
    pub role: ReplRole,
    /// One past the last LSN durable *here*.
    pub local_durable_lsn: u64,
    /// The other side's durable watermark: on a replica, the primary's
    /// durable LSN as last seen; on a primary, the slowest tracked
    /// replica's acked LSN.
    pub remote_durable_lsn: u64,
    /// Staleness in records: on a replica, how far its reads trail the
    /// primary; on a primary, how far its slowest replica trails it.
    pub lag: u64,
    /// Followers tracked by recent heartbeats (primary side; 0 on
    /// replicas).
    pub replicas: u32,
    /// Whether the replication link is currently up (always true on a
    /// primary).
    pub connected: bool,
}

/// Server-side wire counters, alongside [`ServiceStats`] in a
/// [`Response::StatsResult`].
///
/// Same consistency contract as `ServiceStats`: each counter is a relaxed
/// atomic, individually monotonic, not a consistent cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted since start.
    pub connections_opened: u64,
    /// Connections closed since start.
    pub connections_closed: u64,
    /// Requests served, by opcode: ping, publish, deregister, ingest,
    /// score, top_k, stats, flush, shutdown, repl_pull, repl_heartbeat.
    pub requests: [u64; 11],
    /// Feedback reports accepted over the wire (sum of ingest batch
    /// sizes).
    pub reports_ingested: u64,
    /// Frames rejected as corrupt (bad CRC or absurd length) — each one
    /// also closes its connection.
    pub malformed_frames: u64,
    /// Well-framed payloads that failed to decode (connection survives).
    pub protocol_errors: u64,
    /// Connections closed for exceeding the write-stall timeout with a
    /// full output buffer (slow-client protection).
    pub slow_client_closes: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
}

impl ServerStats {
    /// Total requests across all opcodes.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }
}

/// Everything a [`Request::Stats`] answers with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireStats {
    /// The service's own counters.
    pub service: ServiceStats,
    /// The network layer's counters.
    pub server: ServerStats,
    /// Replication watermarks, when this node is part of a cluster.
    pub replication: Option<ReplicationStats>,
}

fn put_prefs(out: &mut Vec<u8>, prefs: &Preferences) {
    put_u32(out, prefs.len() as u32);
    for (metric, weight) in prefs.iter() {
        put_metric(out, metric);
        put_f64(out, weight);
    }
}

fn get_prefs(cur: &mut Cursor<'_>) -> Result<Preferences, CodecError> {
    let n = cur.u32()?;
    let mut weights = Vec::with_capacity(n.min(1024) as usize);
    for _ in 0..n {
        let metric = get_metric(cur)?;
        let weight = cur.f64()?;
        weights.push((metric, weight));
    }
    Ok(Preferences::from_weights(weights))
}

fn put_opt_estimate(out: &mut Vec<u8>, estimate: &Option<TrustEstimate>) {
    put_bool(out, estimate.is_some());
    if let Some(e) = estimate {
        put_f64(out, e.value.get());
        put_f64(out, e.confidence);
    }
}

fn get_opt_estimate(cur: &mut Cursor<'_>) -> Result<Option<TrustEstimate>, CodecError> {
    if !cur.bool()? {
        return Ok(None);
    }
    let value = cur.f64()?;
    let confidence = cur.f64()?;
    Ok(Some(TrustEstimate::new(value, confidence)))
}

fn put_service_stats(out: &mut Vec<u8>, stats: &ServiceStats) {
    put_u64(out, stats.shards as u64);
    put_u64(out, stats.listings as u64);
    put_u64(out, stats.feedback);
    put_u64(out, stats.submitted);
    put_u64(out, stats.topk_plan_hits);
    put_u64(out, stats.topk_plan_misses);
    put_u64(out, stats.preranked_hits);
    put_u64(out, stats.preranked_misses);
    put_u64(out, stats.snapshot_swaps);
    put_u64(out, stats.scratch_reuse);
    put_bool(out, stats.incremental);
    match &stats.journal {
        Some(health) => {
            put_bool(out, true);
            put_u64(out, health.segments);
            put_u64(out, health.bytes_appended);
            put_u64(out, health.last_fsync_nanos);
            put_u64(out, health.commits);
            put_u64(out, health.durable_lsn);
            put_u64(out, health.records_recovered);
            put_u64(out, health.writer_groups);
            put_bool(out, health.degraded);
            put_u64(out, health.journal_errors);
            out.push(health.policy.as_u8());
            put_bool(out, health.fenced);
        }
        None => put_bool(out, false),
    }
}

fn get_service_stats(cur: &mut Cursor<'_>) -> Result<ServiceStats, CodecError> {
    Ok(ServiceStats {
        shards: cur.u64()? as usize,
        listings: cur.u64()? as usize,
        feedback: cur.u64()?,
        submitted: cur.u64()?,
        topk_plan_hits: cur.u64()?,
        topk_plan_misses: cur.u64()?,
        preranked_hits: cur.u64()?,
        preranked_misses: cur.u64()?,
        snapshot_swaps: cur.u64()?,
        scratch_reuse: cur.u64()?,
        incremental: cur.bool()?,
        journal: if cur.bool()? {
            Some(JournalHealth {
                segments: cur.u64()?,
                bytes_appended: cur.u64()?,
                last_fsync_nanos: cur.u64()?,
                commits: cur.u64()?,
                durable_lsn: cur.u64()?,
                records_recovered: cur.u64()?,
                writer_groups: cur.u64()?,
                degraded: cur.bool()?,
                journal_errors: cur.u64()?,
                policy: {
                    let tag = cur.u8()?;
                    DurabilityPolicy::from_u8(tag).ok_or(CodecError::BadTag {
                        what: "durability policy",
                        tag,
                    })?
                },
                fenced: cur.bool()?,
            })
        } else {
            None
        },
    })
}

/// Read `count u32` and a payload of that many records to the end of the
/// body, each mapped through `keep`, into a `Vec` sized to the count. A
/// count the bytes left cannot hold is refused before any allocation.
fn get_records<T>(
    cur: &mut Cursor<'_>,
    mut keep: impl FnMut(JournalRecord) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let count = cur.u32()? as usize;
    if count > cur.remaining() / MIN_RECORD_LEN {
        return Err(CodecError::BadCount);
    }
    let mut records = Vec::with_capacity(count);
    decode_payload(cur, CompactRules::Format6(None), |record| {
        if records.len() == count {
            return Err(CodecError::BadCount);
        }
        records.push(keep(record)?);
        Ok(())
    })?;
    if records.len() != count {
        return Err(CodecError::BadCount);
    }
    Ok(records)
}

/// An `Ingest` payload holds reports and nothing else.
fn report(record: JournalRecord) -> Result<Feedback, CodecError> {
    match record {
        JournalRecord::Feedback(report) => Ok(report),
        _ => Err(CodecError::BadTag {
            what: "ingest record (not a report)",
            tag: 0,
        }),
    }
}

fn put_replication_stats(out: &mut Vec<u8>, stats: &Option<ReplicationStats>) {
    match stats {
        Some(r) => {
            put_bool(out, true);
            out.push(r.role as u8);
            put_u64(out, r.local_durable_lsn);
            put_u64(out, r.remote_durable_lsn);
            put_u64(out, r.lag);
            put_u32(out, r.replicas);
            put_bool(out, r.connected);
        }
        None => put_bool(out, false),
    }
}

fn get_replication_stats(cur: &mut Cursor<'_>) -> Result<Option<ReplicationStats>, CodecError> {
    if !cur.bool()? {
        return Ok(None);
    }
    let role = match cur.u8()? {
        0 => ReplRole::Primary,
        1 => ReplRole::Replica,
        tag => {
            return Err(CodecError::BadTag {
                what: "replication role",
                tag,
            })
        }
    };
    Ok(Some(ReplicationStats {
        role,
        local_durable_lsn: cur.u64()?,
        remote_durable_lsn: cur.u64()?,
        lag: cur.u64()?,
        replicas: cur.u32()?,
        connected: cur.bool()?,
    }))
}

fn put_server_stats(out: &mut Vec<u8>, stats: &ServerStats) {
    put_u64(out, stats.connections_opened);
    put_u64(out, stats.connections_closed);
    for &count in &stats.requests {
        put_u64(out, count);
    }
    put_u64(out, stats.reports_ingested);
    put_u64(out, stats.malformed_frames);
    put_u64(out, stats.protocol_errors);
    put_u64(out, stats.slow_client_closes);
    put_u64(out, stats.bytes_in);
    put_u64(out, stats.bytes_out);
}

fn get_server_stats(cur: &mut Cursor<'_>) -> Result<ServerStats, CodecError> {
    let connections_opened = cur.u64()?;
    let connections_closed = cur.u64()?;
    let mut requests = [0u64; 11];
    for slot in &mut requests {
        *slot = cur.u64()?;
    }
    Ok(ServerStats {
        connections_opened,
        connections_closed,
        requests,
        reports_ingested: cur.u64()?,
        malformed_frames: cur.u64()?,
        protocol_errors: cur.u64()?,
        slow_client_closes: cur.u64()?,
        bytes_in: cur.u64()?,
        bytes_out: cur.u64()?,
    })
}

impl Request {
    /// Index into [`ServerStats::requests`] for this request kind.
    pub(crate) fn stat_slot(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Publish(_) => 1,
            Request::Deregister(_) => 2,
            Request::Ingest { .. } => 3,
            Request::Score(_) => 4,
            Request::TopK { .. } => 5,
            Request::Stats => 6,
            Request::Flush => 7,
            Request::Shutdown => 8,
            Request::ReplPull { .. } => 9,
            Request::ReplHeartbeat { .. } => 10,
        }
    }

    /// Encode as one complete frame appended to `out`.
    ///
    /// The payload is encoded **in place**: the frame header is reserved
    /// in `out`, the body appended directly after it, and length + CRC
    /// backfilled — no intermediate payload buffer, no second copy.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let frame_start = begin_frame(out);
        self.encode_payload(out);
        end_frame(out, frame_start);
    }

    fn encode_payload(&self, payload: &mut Vec<u8>) {
        payload.push(PROTO_VERSION);
        match self {
            Request::Ping => payload.push(OP_PING),
            Request::Publish(listing) => {
                payload.push(OP_PUBLISH);
                put_listing(payload, listing);
            }
            Request::Deregister(service) => {
                payload.push(OP_DEREGISTER);
                put_u64(payload, service.raw());
            }
            Request::Ingest { batch, key } => {
                payload.push(OP_INGEST);
                match key {
                    Some(key) => {
                        put_bool(payload, true);
                        put_u64(payload, key.producer);
                        put_u64(payload, key.seq);
                    }
                    None => put_bool(payload, false),
                }
                put_u32(payload, batch.len() as u32);
                put_payload(payload, &mut batch.iter(), usize::MAX);
            }
            Request::Score(subject) => {
                payload.push(OP_SCORE);
                put_subject(payload, *subject);
            }
            Request::TopK { category, prefs, k } => {
                payload.push(OP_TOP_K);
                put_u32(payload, *category);
                put_u32(payload, *k);
                put_prefs(payload, prefs);
            }
            Request::Stats => payload.push(OP_STATS),
            Request::Flush => payload.push(OP_FLUSH),
            Request::Shutdown => payload.push(OP_SHUTDOWN),
            Request::ReplPull {
                from_lsn,
                max_records,
            } => {
                payload.push(OP_REPL_PULL);
                put_u64(payload, *from_lsn);
                put_u32(payload, *max_records);
            }
            Request::ReplHeartbeat {
                replica,
                durable_lsn,
            } => {
                payload.push(OP_REPL_HEARTBEAT);
                put_u64(payload, *replica);
                put_u64(payload, *durable_lsn);
            }
        }
    }

    /// Decode one request from a frame payload (version byte included).
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut cur = Cursor::new(payload);
        let version = cur.u8()?;
        if version != PROTO_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let opcode = cur.u8()?;
        let request = match opcode {
            OP_PING => Request::Ping,
            OP_PUBLISH => Request::Publish(get_listing(&mut cur)?),
            OP_DEREGISTER => Request::Deregister(ServiceId::new(cur.u64()?)),
            OP_INGEST => {
                let key = if cur.bool()? {
                    Some(IngestKey {
                        producer: cur.u64()?,
                        seq: cur.u64()?,
                    })
                } else {
                    None
                };
                let batch = get_records(&mut cur, report)?;
                Request::Ingest { batch, key }
            }
            OP_SCORE => Request::Score(get_subject(&mut cur)?),
            OP_TOP_K => {
                let category = cur.u32()?;
                let k = cur.u32()?;
                let prefs = get_prefs(&mut cur)?;
                Request::TopK { category, prefs, k }
            }
            OP_STATS => Request::Stats,
            OP_FLUSH => Request::Flush,
            OP_SHUTDOWN => Request::Shutdown,
            OP_REPL_PULL => Request::ReplPull {
                from_lsn: cur.u64()?,
                max_records: cur.u32()?,
            },
            OP_REPL_HEARTBEAT => Request::ReplHeartbeat {
                replica: cur.u64()?,
                durable_lsn: cur.u64()?,
            },
            tag => {
                return Err(DecodeError::Codec(CodecError::BadTag {
                    what: "request opcode",
                    tag,
                }))
            }
        };
        if cur.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(request)
    }
}

impl Response {
    /// Encode as one complete frame appended to `out`.
    ///
    /// In-place like the request encoder: header reserved, payload
    /// appended directly to `out`, length + CRC backfilled.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let frame_start = begin_frame(out);
        self.encode_payload(out);
        end_frame(out, frame_start);
    }

    fn encode_payload(&self, payload: &mut Vec<u8>) {
        payload.push(PROTO_VERSION);
        match self {
            Response::Pong => payload.push(OP_PONG),
            Response::Published(status) => {
                payload.push(OP_PUBLISHED);
                payload.push(match status {
                    PublishStatus::Created => 0,
                    PublishStatus::Updated => 1,
                });
            }
            Response::Deregistered(found) => {
                payload.push(OP_DEREGISTERED);
                put_bool(payload, *found);
            }
            Response::Ingested(count) => {
                payload.push(OP_INGESTED);
                put_u64(payload, *count);
            }
            Response::Scored(estimate) => {
                payload.push(OP_SCORED);
                put_opt_estimate(payload, estimate);
            }
            Response::TopKResult(ranked) => {
                payload.push(OP_TOP_K_RESULT);
                put_u32(payload, ranked.len() as u32);
                for r in ranked {
                    put_u64(payload, r.service);
                    put_u64(payload, r.provider);
                    put_f64(payload, r.qos_score);
                    put_opt_estimate(payload, &r.reputation);
                    put_f64(payload, r.score);
                }
            }
            Response::StatsResult(stats) => {
                payload.push(OP_STATS_RESULT);
                put_service_stats(payload, &stats.service);
                put_server_stats(payload, &stats.server);
                put_replication_stats(payload, &stats.replication);
            }
            Response::Flushed => payload.push(OP_FLUSHED),
            Response::ShuttingDown => payload.push(OP_SHUTTING_DOWN),
            Response::ReplBatch(batch) => {
                payload.push(OP_REPL_BATCH);
                put_u64(payload, batch.first_lsn);
                put_u64(payload, batch.durable_lsn);
                put_u32(payload, batch.records.len() as u32);
                put_payload(payload, &mut batch.records.iter(), usize::MAX);
            }
            Response::ReplWatermark(mark) => {
                payload.push(OP_REPL_WATERMARK);
                put_u64(payload, mark.durable_lsn);
                put_u32(payload, mark.replicas);
                put_u64(payload, mark.min_replica_lsn);
            }
            Response::Error { code, message } => {
                payload.push(OP_ERROR);
                payload.push(*code as u8);
                put_bytes(payload, message.as_bytes());
            }
        }
    }

    /// Decode one response from a frame payload (version byte included).
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut cur = Cursor::new(payload);
        let version = cur.u8()?;
        if version != PROTO_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        let opcode = cur.u8()?;
        let response = match opcode {
            OP_PONG => Response::Pong,
            OP_PUBLISHED => match cur.u8()? {
                0 => Response::Published(PublishStatus::Created),
                1 => Response::Published(PublishStatus::Updated),
                tag => {
                    return Err(DecodeError::Codec(CodecError::BadTag {
                        what: "publish status",
                        tag,
                    }))
                }
            },
            OP_DEREGISTERED => Response::Deregistered(cur.bool()?),
            OP_INGESTED => Response::Ingested(cur.u64()?),
            OP_SCORED => Response::Scored(get_opt_estimate(&mut cur)?),
            OP_TOP_K_RESULT => {
                let n = cur.u32()?;
                let mut ranked = Vec::with_capacity(n.min(65_536) as usize);
                for _ in 0..n {
                    ranked.push(WireRanked {
                        service: cur.u64()?,
                        provider: cur.u64()?,
                        qos_score: cur.f64()?,
                        reputation: get_opt_estimate(&mut cur)?,
                        score: cur.f64()?,
                    });
                }
                Response::TopKResult(ranked)
            }
            OP_STATS_RESULT => {
                let service = get_service_stats(&mut cur)?;
                let server = get_server_stats(&mut cur)?;
                let replication = get_replication_stats(&mut cur)?;
                Response::StatsResult(Box::new(WireStats {
                    service,
                    server,
                    replication,
                }))
            }
            OP_FLUSHED => Response::Flushed,
            OP_SHUTTING_DOWN => Response::ShuttingDown,
            OP_REPL_BATCH => {
                let first_lsn = cur.u64()?;
                let durable_lsn = cur.u64()?;
                let records = get_records(&mut cur, Ok)?;
                Response::ReplBatch(ReplBatch {
                    first_lsn,
                    records,
                    durable_lsn,
                })
            }
            OP_REPL_WATERMARK => Response::ReplWatermark(ReplWatermark {
                durable_lsn: cur.u64()?,
                replicas: cur.u32()?,
                min_replica_lsn: cur.u64()?,
            }),
            OP_ERROR => {
                let code = ErrorCode::from_wire(cur.u8()?)?;
                let bytes = cur.bytes()?;
                Response::Error {
                    code,
                    message: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            tag => {
                return Err(DecodeError::Codec(CodecError::BadTag {
                    what: "response opcode",
                    tag,
                }))
            }
        };
        if cur.remaining() != 0 {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(response)
    }
}

/// Decoding a well-framed payload failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The version byte is not [`PROTO_VERSION`].
    BadVersion(u8),
    /// The body did not decode.
    Codec(CodecError),
    /// Bytes were left over after a complete message — frames delimit
    /// messages, so trailing bytes mean corruption.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadVersion(v) => {
                write!(f, "protocol version {v} (this peer speaks {PROTO_VERSION})")
            }
            DecodeError::Codec(err) => write!(f, "{err}"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<CodecError> for DecodeError {
    fn from(err: CodecError) -> Self {
        DecodeError::Codec(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ProviderId};
    use wsrep_core::time::Time;
    use wsrep_journal::frame::{split_frame, FrameSplit, FRAME_HEADER_LEN};
    use wsrep_qos::metric::Metric;
    use wsrep_qos::value::QosVector;

    fn roundtrip_request(request: &Request) -> Request {
        let mut buf = Vec::new();
        request.encode_frame(&mut buf);
        let FrameSplit::Frame { frame_len } = split_frame(&buf) else {
            panic!("encoded frame must split");
        };
        assert_eq!(frame_len, buf.len());
        Request::decode(&buf[FRAME_HEADER_LEN..frame_len]).expect("request decodes")
    }

    fn roundtrip_response(response: &Response) -> Response {
        let mut buf = Vec::new();
        response.encode_frame(&mut buf);
        let FrameSplit::Frame { frame_len } = split_frame(&buf) else {
            panic!("encoded frame must split");
        };
        Response::decode(&buf[FRAME_HEADER_LEN..frame_len]).expect("response decodes")
    }

    #[test]
    fn every_request_variant_round_trips() {
        let requests = [
            Request::Ping,
            Request::Publish(Listing {
                service: ServiceId::new(4),
                provider: ProviderId::new(5),
                category: 6,
                advertised: QosVector::from_pairs([(Metric::Accuracy, 0.9)]),
            }),
            Request::Deregister(ServiceId::new(7)),
            Request::Ingest {
                batch: vec![
                    Feedback::scored(AgentId::new(1), ServiceId::new(2), 0.75, Time::new(3)),
                    Feedback::scored(AgentId::new(4), ProviderId::new(5), 0.25, Time::new(6)),
                ],
                key: None,
            },
            Request::Ingest {
                batch: vec![Feedback::scored(
                    AgentId::new(1),
                    ServiceId::new(2),
                    0.75,
                    Time::new(3),
                )],
                key: Some(IngestKey {
                    producer: 0xFEED,
                    seq: 41,
                }),
            },
            Request::Score(ServiceId::new(9).into()),
            Request::TopK {
                category: 3,
                prefs: Preferences::uniform([Metric::Price, Metric::Accuracy]),
                k: 10,
            },
            Request::Stats,
            Request::Flush,
            Request::Shutdown,
            Request::ReplPull {
                from_lsn: 42,
                max_records: 512,
            },
            Request::ReplHeartbeat {
                replica: 7,
                durable_lsn: 41,
            },
        ];
        for request in requests {
            assert_eq!(roundtrip_request(&request), request);
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        let responses = [
            Response::Pong,
            Response::Published(PublishStatus::Created),
            Response::Published(PublishStatus::Updated),
            Response::Deregistered(true),
            Response::Ingested(128),
            Response::Scored(None),
            Response::Scored(Some(TrustEstimate::new(0.75, 0.5))),
            Response::TopKResult(vec![WireRanked {
                service: 1,
                provider: 2,
                qos_score: 0.5,
                reputation: Some(TrustEstimate::new(0.9, 0.8)),
                score: 0.7,
            }]),
            Response::StatsResult(Box::new(WireStats {
                service: ServiceStats {
                    shards: 8,
                    listings: 64,
                    feedback: 1000,
                    submitted: 1000,
                    topk_plan_hits: 3,
                    topk_plan_misses: 4,
                    preranked_hits: 5,
                    preranked_misses: 6,
                    snapshot_swaps: 7,
                    scratch_reuse: 8,
                    incremental: true,
                    journal: Some(JournalHealth {
                        segments: 1,
                        bytes_appended: 2,
                        last_fsync_nanos: 3,
                        commits: 4,
                        durable_lsn: 99,
                        records_recovered: 5,
                        writer_groups: 4,
                        journal_errors: 6,
                        policy: DurabilityPolicy::ReadOnly,
                        degraded: false,
                        fenced: true,
                    }),
                },
                server: ServerStats {
                    connections_opened: 3,
                    connections_closed: 1,
                    requests: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                    reports_ingested: 100,
                    malformed_frames: 1,
                    protocol_errors: 2,
                    slow_client_closes: 3,
                    bytes_in: 4,
                    bytes_out: 5,
                },
                replication: Some(ReplicationStats {
                    role: ReplRole::Replica,
                    local_durable_lsn: 90,
                    remote_durable_lsn: 99,
                    lag: 9,
                    replicas: 0,
                    connected: true,
                }),
            })),
            Response::Flushed,
            Response::ShuttingDown,
            Response::ReplBatch(ReplBatch {
                first_lsn: 17,
                records: vec![
                    JournalRecord::Feedback(Feedback::scored(
                        AgentId::new(1),
                        ServiceId::new(2),
                        0.75,
                        Time::new(3),
                    )),
                    JournalRecord::Publish(Listing {
                        service: ServiceId::new(4),
                        provider: ProviderId::new(5),
                        category: 6,
                        advertised: QosVector::from_pairs([(Metric::Accuracy, 0.9)]),
                    }),
                    JournalRecord::Deregister(ServiceId::new(4)),
                ],
                durable_lsn: 20,
            }),
            Response::ReplBatch(ReplBatch {
                first_lsn: 0,
                records: Vec::new(),
                durable_lsn: 0,
            }),
            Response::ReplWatermark(ReplWatermark {
                durable_lsn: 20,
                replicas: 2,
                min_replica_lsn: 17,
            }),
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "nope".to_string(),
            },
            Response::Error {
                code: ErrorCode::ReadOnly,
                message: "replica".to_string(),
            },
            Response::Error {
                code: ErrorCode::ReplUnavailable,
                message: "not a primary".to_string(),
            },
            Response::Error {
                code: ErrorCode::Busy,
                message: "at the cap".to_string(),
            },
        ];
        for response in responses {
            assert_eq!(roundtrip_response(&response), response);
        }
    }

    #[test]
    fn a_v2_request_is_refused_like_any_other_version() {
        let mut buf = Vec::new();
        Request::Ping.encode_frame(&mut buf);
        let mut payload = buf[FRAME_HEADER_LEN..].to_vec();
        payload[0] = 2;
        assert_eq!(Request::decode(&payload), Err(DecodeError::BadVersion(2)));
    }

    #[test]
    fn wrong_version_is_rejected_with_the_offending_byte() {
        let mut buf = Vec::new();
        Request::Ping.encode_frame(&mut buf);
        let mut payload = buf[FRAME_HEADER_LEN..].to_vec();
        payload[0] = 99;
        assert_eq!(Request::decode(&payload), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        Request::Ping.encode_frame(&mut buf);
        let mut payload = buf[FRAME_HEADER_LEN..].to_vec();
        payload.push(0);
        assert_eq!(Request::decode(&payload), Err(DecodeError::TrailingBytes));
    }
}
