//! Batched feedback ingestion.
//!
//! A submission moves through the pipeline whole. `submit_batch` splits it
//! by **writer group** (a report goes to its subject's shard's group,
//! `shard_of(subject) % groups`) and queues each group its part as one
//! batch; a full queue blocks the submitter (backpressure). One writer per
//! group takes every batch queued at once, so a subject's reports flow
//! through one writer in submission order, and groups own disjoint shard
//! sets. Each batch is applied through [`ShardedStore::insert_batch`]: one
//! lock acquisition per touched shard, not one per report.
//!
//! With a journal attached, a writer **group-commits what it took to its
//! own group's WAL before applying it**: one write and one fsync for every
//! queued submission, and N independent fsync pipelines for N writers. Only
//! then is it counted applied, so [`IngestPipeline::flush`] — which blocks
//! until everything submitted before it is applied — is also a durability
//! barrier across every group.

use crate::durability::JournalHandle;
use crate::shard::ShardedStore;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use wsrep_core::feedback::Feedback;
use wsrep_journal::JournalRecord;

/// Batches one writer group holds unapplied — queued, or taken by its
/// writer and not applied yet — before [`IngestPipeline::submit_batch`]
/// blocks. The depth counts batches, not reports, because a batch is what
/// moves; and it counts what the writer holds, so it bounds the reports a
/// group keeps in memory however many its writer takes at once. A queued
/// report lives in the heap until it is applied, so the queue is only as
/// deep as a commit needs: at the 64-report parts the wire and the library
/// hand a group, eight batches commit up to 512 reports with one fsync.
const QUEUE_BATCHES: usize = 8;

/// Submitting failed because the pipeline already shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestClosed;

impl fmt::Display for IngestClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ingest pipeline is closed")
    }
}

impl std::error::Error for IngestClosed {}

/// One writer group's queue of submitted batches, and its counts.
#[derive(Default)]
struct GroupQueue {
    state: Mutex<Queued>,
    /// Signalled when a batch arrives or the queue closes.
    arrived: Condvar,
    /// Signalled when the writer has applied what it took.
    settled: Condvar,
}

#[derive(Default)]
struct Queued {
    /// Submitted and not yet taken by the writer, in submission order.
    waiting: Vec<Vec<JournalRecord>>,
    /// Batches not yet applied: `waiting` plus what the writer holds.
    unapplied: usize,
    /// Reports submitted to this group, and applied by its writer.
    submitted: u64,
    applied: u64,
    /// The pipeline is dropping, or its writer is gone.
    closed: bool,
}

impl GroupQueue {
    fn lock(&self) -> MutexGuard<'_, Queued> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queue `batch`, blocking while [`QUEUE_BATCHES`] are unapplied.
    fn push(&self, batch: Vec<JournalRecord>) -> Result<(), IngestClosed> {
        let mut queued = self.lock();
        while queued.unapplied >= QUEUE_BATCHES && !queued.closed {
            queued = self.settled.wait(queued).unwrap_or_else(|e| e.into_inner());
        }
        if queued.closed {
            return Err(IngestClosed);
        }
        queued.submitted += batch.len() as u64;
        queued.unapplied += 1;
        queued.waiting.push(batch);
        drop(queued);
        self.arrived.notify_one();
        Ok(())
    }

    /// Swap every waiting batch into the empty `taken`, blocking until
    /// there is one; false once the queue is closed and drained.
    fn take(&self, taken: &mut Vec<Vec<JournalRecord>>) -> bool {
        let mut queued = self.lock();
        while queued.waiting.is_empty() {
            if queued.closed {
                return false;
            }
            queued = self.arrived.wait(queued).unwrap_or_else(|e| e.into_inner());
        }
        std::mem::swap(&mut queued.waiting, taken);
        true
    }

    /// The writer applied `taken`: count it, and make room for as many.
    fn settle(&self, taken: &[Vec<JournalRecord>]) {
        let mut queued = self.lock();
        queued.unapplied -= taken.len();
        queued.applied += taken.iter().map(|batch| batch.len() as u64).sum::<u64>();
        drop(queued);
        self.settled.notify_all();
    }

    /// Block until this group has applied `reports` reports.
    fn wait_applied(&self, reports: u64) {
        let mut queued = self.lock();
        while queued.applied < reports {
            queued = self.settled.wait(queued).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.arrived.notify_all();
        self.settled.notify_all();
    }
}

/// Closes its queue when the writer exits, by return or by panic, so no
/// submitter waits on a writer that is gone.
struct CloseOnExit(Arc<GroupQueue>);

impl Drop for CloseOnExit {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The queues + writer threads feeding a [`ShardedStore`], one queue/writer
/// pair per writer group.
pub struct IngestPipeline {
    store: Arc<ShardedStore>,
    queues: Vec<Arc<GroupQueue>>,
    writers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("writer_groups", &self.writers.len())
            .field("submitted", &self.submitted())
            .finish_non_exhaustive()
    }
}

impl IngestPipeline {
    /// Start a single writer thread draining into `store`.
    pub fn start(store: Arc<ShardedStore>) -> Self {
        Self::start_with_journal(store, None, 1)
    }

    /// Start `writer_groups` writer threads, each journaling what it takes
    /// to its own writer group before applying it when a journal handle is
    /// attached. A journaled pipeline's group count must match the
    /// handle's.
    pub(crate) fn start_with_journal(
        store: Arc<ShardedStore>,
        journal: Option<Arc<JournalHandle>>,
        writer_groups: usize,
    ) -> Self {
        let groups = writer_groups.max(1);
        if let Some(handle) = &journal {
            debug_assert_eq!(
                groups,
                handle.writer_groups(),
                "pipeline fan-out must match the journal's writer groups"
            );
        }
        let mut queues = Vec::with_capacity(groups);
        let mut writers = Vec::with_capacity(groups);
        for group in 0..groups {
            let queue = Arc::new(GroupQueue::default());
            let writer_queue = CloseOnExit(Arc::clone(&queue));
            let store = Arc::clone(&store);
            let journal = journal.clone();
            let writer = std::thread::Builder::new()
                .name(format!("wsrep-ingest-{group}"))
                .spawn(move || drain(&store, &writer_queue.0, journal.as_deref(), group))
                .expect("spawn ingest writer");
            queues.push(queue);
            writers.push(writer);
        }
        IngestPipeline {
            store,
            queues,
            writers,
        }
    }

    /// Enqueue a submission as one batch per writer group it touches, each
    /// holding that group's reports in submission order, blocking while a
    /// group's queue is full. Returns the number of reports accepted. If a
    /// writer is gone, the parts already queued stay accepted, and the call
    /// returns [`IngestClosed`], which carries no count: the server answers
    /// such a request `IngestClosed`.
    pub fn submit_batch(
        &self,
        batch: impl IntoIterator<Item = Feedback>,
    ) -> Result<u64, IngestClosed> {
        let reports: Vec<Feedback> = batch.into_iter().collect();
        let groups = self.queues.len();
        let group_of = |report: &Feedback| self.store.shard_of(report.subject) % groups;
        let mut sizes = vec![0; groups];
        for report in &reports {
            sizes[group_of(report)] += 1;
        }
        let mut parts: Vec<Vec<JournalRecord>> =
            sizes.into_iter().map(Vec::with_capacity).collect();
        for report in reports {
            parts[group_of(&report)].push(JournalRecord::Feedback(report));
        }
        let mut accepted = 0;
        for (queue, part) in self.queues.iter().zip(parts) {
            let reports = part.len() as u64;
            if reports > 0 {
                queue.push(part)?;
                accepted += reports;
            }
        }
        Ok(accepted)
    }

    /// Reports accepted by [`IngestPipeline::submit_batch`] so far.
    pub fn submitted(&self) -> u64 {
        self.queues.iter().map(|queue| queue.lock().submitted).sum()
    }

    /// Reports the writers have applied to the store so far.
    pub fn applied(&self) -> u64 {
        self.queues.iter().map(|queue| queue.lock().applied).sum()
    }

    /// Block until everything submitted before this call is applied: each
    /// group's writer has applied what that group had accepted.
    ///
    /// With a journal attached this is also a **durability barrier**:
    /// every writer fsyncs what it takes before applying it and applies it
    /// before counting it applied, so on return every prior submission is
    /// on stable storage.
    pub fn flush(&self) {
        let targets: Vec<u64> = self.queues.iter().map(|q| q.lock().submitted).collect();
        for (queue, target) in self.queues.iter().zip(targets) {
            queue.wait_applied(target);
        }
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // Close every queue; each writer drains what is queued, then
        // exits, and we wait for all so no report is lost on shutdown.
        for queue in &self.queues {
            queue.close();
        }
        for writer in self.writers.drain(..) {
            let _ = writer.join();
        }
    }
}

fn drain(store: &ShardedStore, queue: &GroupQueue, journal: Option<&JournalHandle>, group: usize) {
    // Block for one submission, take every one queued by then, journal
    // them as one commit, and apply each as the batch it was submitted as,
    // from the buffer it was submitted in.
    let mut taken = Vec::new();
    while queue.take(&mut taken) {
        let apply = || {
            for batch in &taken {
                store.insert_batch(batch.iter().filter_map(JournalRecord::as_feedback));
            }
        };
        match journal {
            // Journal first (one write + one fsync, on this group's log),
            // apply second, both under this group's commit lock. A fenced
            // handle rejects the commit: it is dropped here, unapplied —
            // the fence is observable before it is counted applied, so a
            // flusher that checks `fenced` after flushing cannot miss it.
            Some(handle) => {
                let _ = handle.commit(group, &taken, apply);
            }
            None => apply(),
        }
        // Counted even when rejected, so `flush()` never hangs on a fenced
        // pipeline; the caller learns of the rejection from the fence
        // flag, not from a stuck barrier.
        queue.settle(&taken);
        taken.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::DurabilityPolicy;
    use std::path::PathBuf;
    use std::time::Duration;
    use wsrep_core::id::{AgentId, ServiceId, SubjectId};
    use wsrep_core::mechanism::{score_from_log, ReputationMechanism, Unfolded};
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_core::mechanisms::sporas::SporasMechanism;
    use wsrep_core::time::Time;
    use wsrep_journal::faults::{Fault, FaultScript, IoOp};
    use wsrep_journal::{recover, GroupSet, JournalConfig};

    /// A store that scores `M` by replay, so it holds what it applied.
    fn unfolded<M: ReputationMechanism + Default + 'static>(shards: usize) -> Arc<ShardedStore> {
        let replay = Arc::new(|| Box::new(Unfolded(Box::<M>::default())) as _);
        Arc::new(ShardedStore::new(shards, replay))
    }

    fn store(shards: usize) -> Arc<ShardedStore> {
        unfolded::<BetaMechanism>(shards)
    }

    fn fb(rater: u64, service: u64) -> Feedback {
        Feedback::scored(
            AgentId::new(rater),
            ServiceId::new(service),
            0.5,
            Time::ZERO,
        )
    }

    /// A one-writer pipeline journaling into a fresh directory, whose
    /// first append is held back by `delay`.
    fn delayed_journal(
        tag: &str,
        store: &Arc<ShardedStore>,
        delay: Duration,
    ) -> (IngestPipeline, Arc<JournalHandle>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("wsrep-serve-ingest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let script = Arc::new(FaultScript::new());
        script.push(IoOp::Append, Fault::Delay(delay));
        let set = GroupSet::open(&dir, 1, JournalConfig::default(), 0).unwrap();
        set.set_io_policy(script);
        let handle = Arc::new(JournalHandle::new(set, 0, DurabilityPolicy::Degrade, None));
        let pipeline =
            IngestPipeline::start_with_journal(Arc::clone(store), Some(Arc::clone(&handle)), 1);
        (pipeline, handle, dir)
    }

    #[test]
    fn flush_observes_every_submitted_report() {
        let store = store(4);
        let pipeline = IngestPipeline::start(Arc::clone(&store));
        for i in 0..500 {
            pipeline.submit_batch([fb(i, i % 11)]).unwrap();
        }
        pipeline.flush();
        assert_eq!(store.len(), 500);
        assert_eq!(pipeline.applied(), 500);
    }

    #[test]
    fn drop_drains_the_queue() {
        let store = store(2);
        {
            let pipeline = IngestPipeline::start(Arc::clone(&store));
            for i in 0..100 {
                pipeline.submit_batch([fb(i, 3)]).unwrap();
            }
        } // drop: disconnect + join
        assert_eq!(store.len(), 100);
        assert_eq!(store.resident_reports(), 100);
        let subject: SubjectId = ServiceId::new(3).into();
        let log: Vec<Feedback> = (0..100).map(|i| fb(i, 3)).collect();
        let expected = score_from_log(&mut BetaMechanism::new(), &log, subject);
        assert_eq!(store.score(subject), expected);
    }

    #[test]
    fn submit_batch_counts_and_flushes_like_individual_submits() {
        let whole = store(4);
        let single = store(4);
        let pipeline = IngestPipeline::start(Arc::clone(&whole));
        let one_by_one = IngestPipeline::start(Arc::clone(&single));
        let accepted = pipeline
            .submit_batch((0..300).map(|i| fb(i, i % 7)))
            .unwrap();
        for i in 0..300 {
            one_by_one.submit_batch([fb(i, i % 7)]).unwrap();
        }
        assert_eq!(accepted, 300);
        assert_eq!(pipeline.submitted(), 300);
        pipeline.flush();
        one_by_one.flush();
        assert_eq!(whole.len(), 300);
        for service in 0..7 {
            let subject: SubjectId = ServiceId::new(service).into();
            assert_eq!(whole.score(subject), single.score(subject));
        }
    }

    #[test]
    fn a_writer_commits_everything_queued_as_one_commit() {
        let store = store(2);
        let (pipeline, handle, dir) =
            delayed_journal("one-commit", &store, Duration::from_millis(500));
        let batches: Vec<Vec<Feedback>> = (0..5u64)
            .map(|b| (0..50).map(|i| fb(b * 50 + i, i % 5)).collect())
            .collect();
        pipeline.submit_batch(batches[0].clone()).unwrap();
        // The writer took the first batch and waits in its append; the
        // next four queue behind it.
        std::thread::sleep(Duration::from_millis(50));
        for batch in &batches[1..] {
            pipeline.submit_batch(batch.clone()).unwrap();
        }
        pipeline.flush();
        let commits = handle.health().commits;
        assert!(commits <= 2, "{commits} commits for 5 batches");
        assert_eq!(pipeline.applied(), 250);
        assert_eq!(store.len(), 250);
        drop(pipeline);
        assert_eq!(recover(&dir).unwrap().feedback, batches.concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_applies_backpressure_without_loss() {
        const SUBMITTERS: u64 = 4;
        const BATCH: u64 = 5;
        let batches = 10 * QUEUE_BATCHES as u64;
        let total = batches * BATCH;
        let store = store(2);
        let (pipeline, _handle, dir) =
            delayed_journal("backpressure", &store, Duration::from_secs(1));
        std::thread::scope(|scope| {
            for s in 0..SUBMITTERS {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for b in (s..batches).step_by(SUBMITTERS as usize) {
                        let first = b * BATCH;
                        pipeline
                            .submit_batch((first..first + BATCH).map(|i| fb(i, i % 3)))
                            .unwrap();
                    }
                });
            }
            // The writer is stalled in its first append, so no more than
            // a full queue of batches gets past the submitters.
            std::thread::sleep(Duration::from_millis(100));
            let held = pipeline.submitted();
            assert!(
                held <= QUEUE_BATCHES as u64 * BATCH,
                "{held} reports queued"
            );
        });
        pipeline.flush();
        assert_eq!(pipeline.submitted(), total);
        assert_eq!(pipeline.applied(), total);
        assert_eq!(store.len() as u64, total);
        drop(pipeline);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiple_writer_groups_preserve_per_subject_order() {
        // Interleave subjects; each subject's reports must stay in
        // submission order even though four writers apply them, whatever
        // the submission size.
        let mut submitted = Vec::new();
        for round in 0..200u64 {
            for service in 0..12u64 {
                let score = ((round * 7 + service) % 10) as f64 / 10.0;
                submitted.push(Feedback::scored(
                    AgentId::new(round),
                    ServiceId::new(service),
                    score,
                    Time::new(round),
                ));
            }
        }
        for size in [1, 7, 64] {
            // Sporas folds each rating into a damped running reputation,
            // so the same reports in another order score differently.
            let store = unfolded::<SporasMechanism>(8);
            let pipeline = IngestPipeline::start_with_journal(Arc::clone(&store), None, 4);
            for batch in submitted.chunks(size) {
                pipeline.submit_batch(batch.iter().cloned()).unwrap();
            }
            pipeline.flush();
            assert_eq!(store.len(), 200 * 12);
            for service in 0..12u64 {
                let subject: SubjectId = ServiceId::new(service).into();
                let log = submitted.iter().filter(|f| f.subject == subject);
                let expected = score_from_log(&mut SporasMechanism::new(), log, subject);
                assert_eq!(
                    store.score(subject),
                    expected,
                    "subject {service} order preserved at {size} reports a batch"
                );
            }
        }
    }
}
