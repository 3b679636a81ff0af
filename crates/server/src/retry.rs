//! Retry plumbing: jittered exponential backoff and the
//! auto-reconnecting client.
//!
//! A bare [`Client`] fails fast: a dropped
//! connection surfaces as [`ClientError::Disconnected`], a timeout
//! poisons the stream, and the caller is left to reconnect. That is the
//! right primitive, but every real caller wants the same loop around
//! it — reconnect, back off, try again, give up eventually. This module
//! is that loop, built from two pieces:
//!
//! - [`RetryPolicy`] + [`Backoff`] — the delay schedule: exponential
//!   growth with **equal jitter** (half deterministic, half uniform
//!   random), a cap, an attempt budget, and an optional wall-clock
//!   deadline. The jitter matters: a fleet of replicas reconnecting
//!   after a primary restart must not stampede in lockstep.
//! - [`RetryingClient`] — a [`Client`] wrapper that reconnects through
//!   the policy and makes **ingest retries exactly-once**: every batch
//!   is assigned one [`IngestKey`] `(producer, seq)` up front and that
//!   same key is resent on every retry, so the server's dedup window
//!   replays the original answer instead of applying the batch twice.
//!   This is what makes retrying after [`ClientError::TimedOut`] safe —
//!   without the key, the timed-out request may have been applied and a
//!   retry would double-count every report in the batch.
//!
//! The randomness is a tiny splitmix64/xorshift PRNG, not a crate
//! dependency: backoff jitter needs decorrelation, not cryptography.

use crate::client::{Client, ClientError};
use crate::proto::IngestKey;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use wsrep_core::feedback::Feedback;
use wsrep_sim::registry::{Listing, PublishStatus};

/// A small fast PRNG (xorshift64*), seeded through splitmix64 so that
/// consecutive seeds (0, 1, 2, …) still produce decorrelated streams.
#[derive(Debug, Clone)]
pub(crate) struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seed the generator. Any seed is fine, including 0.
    pub(crate) fn new(seed: u64) -> Self {
        // splitmix64 scrambles the seed so xorshift never sees 0 and
        // nearby seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng64 {
            state: z.max(1), // xorshift has a fixed point at 0
        }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// When and how often to retry a failed call.
///
/// The delay before attempt `n` (0-based) grows as
/// `base * multiplier^n`, capped at `cap`, with equal jitter: the
/// actual sleep is uniform in `[d/2, d]`. Attempts stop at
/// `max_attempts` or when `deadline` (wall clock since the first
/// attempt) would be exceeded, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Delay before the first retry (pre-jitter).
    pub base: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub cap: Duration,
    /// Growth factor per attempt; values below 1.0 are treated as 1.0.
    pub multiplier: f64,
    /// Total tries, including the first. 1 means "never retry".
    pub max_attempts: u32,
    /// Overall wall-clock budget across all attempts and sleeps.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            multiplier: 2.0,
            max_attempts: 8,
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that retries forever (bounded only by `deadline` if one
    /// is set later). Used by pull loops that must outlive primary
    /// restarts.
    pub fn unbounded() -> Self {
        RetryPolicy {
            max_attempts: u32::MAX,
            ..RetryPolicy::default()
        }
    }

    /// The pre-jitter delay for 0-based retry `attempt`.
    pub(crate) fn raw_delay(&self, attempt: u32) -> Duration {
        let mult = self.multiplier.max(1.0);
        let factor = mult.powi(attempt.min(63) as i32);
        let nanos = (self.base.as_nanos() as f64 * factor).min(self.cap.as_nanos() as f64);
        Duration::from_nanos(nanos as u64)
    }

    /// The jittered delay for 0-based retry `attempt`: uniform in
    /// `[raw/2, raw]`.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut Rng64) -> Duration {
        let raw = self.raw_delay(attempt).as_nanos() as u64;
        let half = raw / 2;
        Duration::from_nanos(half + rng.below(raw - half + 1))
    }
}

/// A stateful backoff schedule: call [`Backoff::next_delay`] before each
/// reconnect attempt, [`Backoff::reset`] after a success so the next
/// failure starts from `base` again.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: Rng64,
}

impl Backoff {
    /// A schedule over `policy`, jittered from `seed`.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Backoff {
            policy,
            attempt: 0,
            rng: Rng64::new(seed),
        }
    }

    /// The delay to sleep before the next attempt. Grows per call;
    /// saturates at the policy cap. Attempt budgets and deadlines are
    /// the caller's concern — this is just the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let delay = self.policy.delay(self.attempt, &mut self.rng);
        self.attempt = self.attempt.saturating_add(1);
        delay
    }

    /// Start over from the base delay (call after a successful attempt).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Process-local uniquifier mixed into auto-generated producer ids so
/// two clients created in the same nanosecond still differ.
static PRODUCER_NONCE: AtomicU64 = AtomicU64::new(0);

fn auto_producer_id() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let nonce = PRODUCER_NONCE.fetch_add(1, Ordering::Relaxed);
    // splitmix the combination so ids look nothing alike.
    Rng64::new(nanos ^ (nonce.rotate_left(32))).next_u64()
}

/// Is this failure worth a reconnect-and-retry? Server refusals
/// (protocol errors, `NotDurable` fences) and corrupt streams are not —
/// the same request would fail the same way.
fn retryable(err: &ClientError) -> bool {
    matches!(
        err,
        ClientError::Disconnected(_)
            | ClientError::TimedOut
            | ClientError::Poisoned
            | ClientError::Io(_)
    )
}

/// A [`Client`] that reconnects and retries through a [`RetryPolicy`],
/// with exactly-once ingest.
///
/// Every [`RetryingClient::ingest`] call allocates one
/// [`IngestKey`] — this client's stable `producer` id plus a
/// monotonically increasing `seq` — **before** the first send, and
/// reuses it verbatim on every retry. The server's per-producer dedup
/// window recognizes a replayed `(producer, seq)` and answers with the
/// original result without re-applying the batch, so a retry after a
/// timeout or disconnect cannot double-count feedback.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    read_timeout: Option<Duration>,
    producer: u64,
    next_seq: u64,
    conn: Option<Client>,
    rng: Rng64,
}

impl RetryingClient {
    /// A retrying client for `addr` (connected lazily on first use)
    /// with an auto-generated producer id.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        let producer = auto_producer_id();
        RetryingClient {
            addr: addr.into(),
            policy,
            read_timeout: None,
            producer,
            next_seq: 0,
            conn: None,
            rng: Rng64::new(producer),
        }
    }

    /// Pin the producer id (e.g. to resume a known identity, or for
    /// deterministic tests). Must be unique per logical producer:
    /// two clients sharing an id would dedup each other's batches.
    pub fn with_producer(mut self, producer: u64) -> Self {
        self.producer = producer;
        self
    }

    /// Bound how long each receive may block. Applied to the current
    /// connection and every reconnect.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            // Best-effort: a failed setsockopt will surface on use.
            let _ = conn.set_read_timeout(timeout);
        }
    }

    /// Drop the current connection (the next call reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn connection(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.as_ref().map(|c| c.is_poisoned()).unwrap_or(false) {
            self.conn = None;
        }
        if self.conn.is_none() {
            let client = Client::connect(self.addr.as_str())?;
            client.set_read_timeout(self.read_timeout)?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Run `op` against a live connection, reconnecting and retrying
    /// through the policy on transport failures. Protocol-level
    /// refusals (server errors, corrupt streams) are returned as-is.
    ///
    /// Only safe for idempotent operations — ingest goes through
    /// [`RetryingClient::ingest`], which adds the dedup key.
    pub(crate) fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let start = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let result = match self.connection() {
                Ok(conn) => op(conn),
                Err(err) => Err(err),
            };
            let err = match result {
                Ok(value) => return Ok(value),
                Err(err) if retryable(&err) => err,
                Err(err) => return Err(err),
            };
            // The connection is suspect after any transport error.
            self.conn = None;
            attempt += 1;
            if attempt >= self.policy.max_attempts {
                return Err(err);
            }
            let delay = self.policy.delay(attempt - 1, &mut self.rng);
            if let Some(deadline) = self.policy.deadline {
                if start.elapsed() + delay > deadline {
                    return Err(err);
                }
            }
            std::thread::sleep(delay);
        }
    }

    /// Liveness probe with retries.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.retry(|c| c.ping())
    }

    /// Publish (or update) a listing, retrying on transport failures.
    /// Publishing is a last-writer-wins upsert, so replaying it is
    /// harmless (the reported `Created`/`Updated` status may differ
    /// across retries).
    pub fn publish(&mut self, listing: Listing) -> Result<PublishStatus, ClientError> {
        self.retry(move |c| c.publish(listing.clone()))
    }

    /// Submit a batch of feedback with exactly-once semantics: the
    /// batch's idempotency key is allocated once, here, and resent on
    /// every retry, so the server applies the batch at most once no
    /// matter how many times the transport fails underneath.
    pub fn ingest(&mut self, batch: Vec<Feedback>) -> Result<u64, ClientError> {
        let key = IngestKey {
            producer: self.producer,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.retry(move |c| c.ingest_keyed(batch.clone(), key))
    }

    /// Apply-everything barrier, retried. A flush that times out may
    /// have completed server-side; re-issuing it is idempotent (the
    /// barrier just drains again).
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.retry(|c| c.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_delays_grow_and_cap() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            multiplier: 2.0,
            max_attempts: 10,
            deadline: None,
        };
        assert_eq!(policy.raw_delay(0), Duration::from_millis(10));
        assert_eq!(policy.raw_delay(1), Duration::from_millis(20));
        assert_eq!(policy.raw_delay(2), Duration::from_millis(40));
        // Capped from attempt 4 on (160ms -> 100ms).
        assert_eq!(policy.raw_delay(4), Duration::from_millis(100));
        assert_eq!(policy.raw_delay(63), Duration::from_millis(100));
    }

    #[test]
    fn jittered_delay_stays_in_the_equal_jitter_band() {
        let policy = RetryPolicy::default();
        let mut rng = Rng64::new(7);
        for attempt in 0..12 {
            let raw = policy.raw_delay(attempt);
            for _ in 0..32 {
                let d = policy.delay(attempt, &mut rng);
                assert!(
                    d >= raw / 2,
                    "attempt {attempt}: {d:?} below half of {raw:?}"
                );
                assert!(d <= raw, "attempt {attempt}: {d:?} above {raw:?}");
            }
        }
    }

    #[test]
    fn backoff_resets_to_base() {
        let policy = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            multiplier: 2.0,
            max_attempts: u32::MAX,
            deadline: None,
        };
        let mut backoff = Backoff::new(policy, 3);
        let first = backoff.next_delay();
        let mut grew = false;
        for _ in 0..6 {
            grew |= backoff.next_delay() > Duration::from_millis(10);
        }
        assert!(grew, "six doublings never left the base band");
        backoff.reset();
        let after_reset = backoff.next_delay();
        assert!(after_reset <= Duration::from_millis(10));
        assert!(first <= Duration::from_millis(10));
    }

    #[test]
    fn rng_streams_from_adjacent_seeds_diverge() {
        let mut a = Rng64::new(0);
        let mut b = Rng64::new(1);
        let mut same = 0;
        for _ in 0..64 {
            if a.next_u64() == b.next_u64() {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }

    #[test]
    fn auto_producer_ids_are_distinct() {
        let a = auto_producer_id();
        let b = auto_producer_id();
        assert_ne!(a, b);
    }

    #[test]
    fn ingest_keys_advance_per_batch() {
        let mut client = RetryingClient::new("127.0.0.1:1", RetryPolicy::default());
        assert_eq!(client.next_seq, 0);
        // Connection will fail (nothing listens on port 1), but the key
        // must be burned before the first attempt — that is what makes
        // a later manual replay safe.
        let policy = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        client.policy = policy;
        let _ = client.ingest(Vec::new());
        assert_eq!(client.next_seq, 1);
        let _ = client.ingest(Vec::new());
        assert_eq!(client.next_seq, 2);
    }
}
