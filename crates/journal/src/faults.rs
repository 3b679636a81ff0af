//! Failpoint-style fault injection for journal I/O.
//!
//! Every durability claim in this crate is only as good as its behavior
//! when the disk misbehaves — and SIGKILL-style crash tests exercise one
//! failure shape only. This module is the pluggable seam that makes the
//! others reachable: an [`IoPolicy`] installed on a [`Journal`] (or a
//! whole [`GroupSet`]) is consulted before each append, fsync, rotation
//! and snapshot, and may fail the operation with an `ENOSPC`-style
//! error, tear the write (leave a partial frame on disk, as a crash
//! mid-`write` would), or delay it.
//!
//! Two deterministic policies cover the two testing styles:
//!
//! - [`FaultScript`] — an explicit per-operation queue ("let two appends
//!   pass, then tear the third"), for unit tests and generated chaos
//!   schedules;
//! - [`PeriodicFaults`] — every-Nth-operation faults with running
//!   counters, for long smoke runs (loadgen, the CI chaos job) where the
//!   gate needs a guaranteed-nonzero injected-fault count.
//!
//! The contract the [`Journal`] upholds under injection: a failed append
//! restores the active segment to its pre-append length (best effort),
//! so a rejected batch can never become durable later by riding a
//! subsequent batch's fsync — except [`Fault::Torn`], which deliberately
//! leaves the partial bytes so recovery's torn-tail repair is exercised.
//!
//! [`Journal`]: crate::journal::Journal
//! [`GroupSet`]: crate::group::GroupSet

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The journal I/O operations a policy can intercept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Writing a framed batch to the active segment.
    Append,
    /// The group-commit `fdatasync` that acknowledges a batch.
    Fsync,
    /// Sealing the active segment and creating its successor.
    Rotate,
    /// Writing a point-in-time snapshot (consulted by the checkpointer).
    Snapshot,
}

impl IoOp {
    /// Every interceptable operation, in counter-index order.
    pub(crate) const ALL: [IoOp; 4] = [IoOp::Append, IoOp::Fsync, IoOp::Rotate, IoOp::Snapshot];

    fn index(self) -> usize {
        self as usize
    }

    /// Lower-case operation name, for error messages and logs.
    pub(crate) fn name(self) -> &'static str {
        match self {
            IoOp::Append => "append",
            IoOp::Fsync => "fsync",
            IoOp::Rotate => "rotate",
            IoOp::Snapshot => "snapshot",
        }
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What to do to an intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an error of this kind before it touches
    /// the file.
    Error(io::ErrorKind),
    /// Write only the first `keep` bytes of the batch, then fail — the
    /// on-disk shape of a crash mid-`write`. Appends only; on other
    /// operations it degenerates to an error.
    Torn { keep: usize },
    /// Sleep, then let the operation proceed (a stalling disk).
    Delay(Duration),
}

impl Fault {
    /// The classic disk-full failure.
    pub fn enospc() -> Fault {
        Fault::Error(io::ErrorKind::StorageFull)
    }

    /// Render this fault as the `io::Error` the intercepted operation
    /// reports. [`Fault::Delay`] never surfaces as an error from the
    /// journal itself, but callers consulting a policy around their own
    /// I/O (e.g. the checkpointer's snapshot write) use this too.
    pub fn into_error(self, op: IoOp) -> io::Error {
        let kind = match self {
            Fault::Error(kind) => kind,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, format!("injected {op} fault"))
    }
}

/// Per-operation counts of injected faults (delays included).
#[derive(Debug, Default)]
pub struct FaultCounters {
    injected: [AtomicU64; 4],
}

impl FaultCounters {
    fn record(&self, op: IoOp) {
        self.injected[op.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Faults injected into one operation.
    pub(crate) fn for_op(&self, op: IoOp) -> u64 {
        self.injected[op.index()].load(Ordering::Relaxed)
    }

    /// Faults injected across all operations.
    pub fn total(&self) -> u64 {
        IoOp::ALL.iter().map(|&op| self.for_op(op)).sum()
    }
}

/// A fault-injection policy consulted before each journal I/O
/// operation. `None` lets the operation proceed untouched; the default
/// (no policy installed) is a no-op with zero cost on the append path.
pub trait IoPolicy: Send + Sync + fmt::Debug {
    /// Decide the fate of one `op` occurrence.
    fn inject(&self, op: IoOp) -> Option<Fault>;

    /// Total faults this policy has injected so far (for gates that
    /// require the chaos to have actually happened).
    fn injected(&self) -> u64;
}

#[derive(Debug)]
struct ScriptEntry {
    /// Occurrences of the operation to let pass before firing.
    skip: u64,
    fault: Fault,
}

/// An explicit, deterministic fault schedule: per-operation FIFO queues
/// of "let `skip` pass, then inject `fault`" entries. Exhausted queues
/// inject nothing, so a script's effect is exactly what was pushed.
#[derive(Debug, Default)]
pub struct FaultScript {
    queues: Mutex<[VecDeque<ScriptEntry>; 4]>,
    counters: FaultCounters,
}

impl FaultScript {
    pub fn new() -> FaultScript {
        FaultScript::default()
    }

    /// Inject `fault` on the next occurrence of `op`.
    pub fn push(&self, op: IoOp, fault: Fault) {
        self.push_after(op, 0, fault);
    }

    /// Let `skip` occurrences of `op` pass, then inject `fault`. The
    /// skip count starts when this entry reaches the front of `op`'s
    /// queue, so pushes compose sequentially.
    pub fn push_after(&self, op: IoOp, skip: u64, fault: Fault) {
        let mut queues = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        queues[op.index()].push_back(ScriptEntry { skip, fault });
    }

    /// The running injected-fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }
}

impl IoPolicy for FaultScript {
    fn inject(&self, op: IoOp) -> Option<Fault> {
        let mut queues = self.queues.lock().unwrap_or_else(|e| e.into_inner());
        let queue = &mut queues[op.index()];
        let entry = queue.front_mut()?;
        if entry.skip > 0 {
            entry.skip -= 1;
            return None;
        }
        let fault = queue.pop_front().expect("front entry exists").fault;
        self.counters.record(op);
        Some(fault)
    }

    fn injected(&self) -> u64 {
        self.counters.total()
    }
}

/// Deterministic background chaos: every `n`th occurrence of an
/// operation fails with `StorageFull`. Built for long smoke runs where a
/// CI gate needs the injected-fault count to be provably nonzero.
#[derive(Debug, Default)]
pub struct PeriodicFaults {
    error_every: [u64; 4],
    error_seen: [AtomicU64; 4],
    counters: FaultCounters,
}

impl PeriodicFaults {
    pub fn new() -> PeriodicFaults {
        PeriodicFaults::default()
    }

    /// Error every `n`th occurrence of `op` (`0` disables).
    pub fn error_every(mut self, op: IoOp, n: u64) -> Self {
        self.error_every[op.index()] = n;
        self
    }

    /// The running injected-fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }
}

impl IoPolicy for PeriodicFaults {
    fn inject(&self, op: IoOp) -> Option<Fault> {
        let i = op.index();
        let every = self.error_every[i];
        if every > 0 {
            let seen = self.error_seen[i].fetch_add(1, Ordering::Relaxed) + 1;
            if seen.is_multiple_of(every) {
                self.counters.record(op);
                return Some(Fault::enospc());
            }
        }
        None
    }

    fn injected(&self) -> u64 {
        self.counters.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_fires_in_push_order_with_skips() {
        let script = FaultScript::new();
        script.push_after(IoOp::Append, 2, Fault::enospc());
        script.push(IoOp::Append, Fault::Torn { keep: 3 });
        script.push(IoOp::Fsync, Fault::Delay(Duration::from_millis(5)));

        assert_eq!(script.inject(IoOp::Append), None);
        assert_eq!(script.inject(IoOp::Append), None);
        assert_eq!(
            script.inject(IoOp::Append),
            Some(Fault::Error(io::ErrorKind::StorageFull))
        );
        assert_eq!(script.inject(IoOp::Append), Some(Fault::Torn { keep: 3 }));
        assert_eq!(script.inject(IoOp::Append), None, "queue exhausted");
        assert_eq!(
            script.inject(IoOp::Fsync),
            Some(Fault::Delay(Duration::from_millis(5)))
        );
        assert_eq!(script.inject(IoOp::Rotate), None);
        assert_eq!(script.counters().for_op(IoOp::Append), 2);
        assert_eq!(script.injected(), 3);
    }

    #[test]
    fn periodic_faults_fire_on_schedule() {
        let plan = PeriodicFaults::new().error_every(IoOp::Append, 3);
        assert_eq!(plan.inject(IoOp::Append), None);
        assert_eq!(plan.inject(IoOp::Append), None);
        assert_eq!(
            plan.inject(IoOp::Append),
            Some(Fault::Error(io::ErrorKind::StorageFull))
        );
        assert_eq!(plan.inject(IoOp::Append), None);
        assert_eq!(plan.inject(IoOp::Fsync), None, "other ops untouched");
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn fault_errors_carry_the_operation_name() {
        let err = Fault::enospc().into_error(IoOp::Fsync);
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("fsync"));
    }
}
