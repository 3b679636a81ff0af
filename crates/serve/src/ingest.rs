//! Batched feedback ingestion.
//!
//! Producers push reports into bounded channels (backpressure: a full
//! channel blocks the producer instead of growing without bound) and
//! writer threads drain them — one writer per **writer group**. A report
//! is routed by its subject's shard (`shard_of(subject) % groups`), so a
//! subject's reports always flow through the same writer in submission
//! order, and groups own disjoint shard sets (no two writers contend on
//! a shard lock). With one group this collapses to the classic single
//! writer. Each writer greedily gathers up to `batch_size` queued
//! reports per wake-up and applies them through
//! [`ShardedStore::insert_batch`], so a burst of B reports costs one
//! lock acquisition per touched shard instead of one per report.
//!
//! When a journal is attached, each writer **group-commits its batch to
//! its own group's WAL before applying it**: one buffered write and one
//! fsync cover the whole batch — N writers mean N independent fsync
//! pipelines instead of one commit lock — and only after the apply does
//! the shared progress counter move. [`IngestPipeline::flush`] therefore
//! doubles as a durability barrier — when it returns, everything
//! submitted so far is both queryable and on stable storage, across
//! every group.
//!
//! [`IngestPipeline::flush`] gives tests and benchmarks a consistency
//! point: it blocks until everything submitted *so far by this handle*
//! has been applied to the store.

use crate::durability::JournalHandle;
use crate::shard::ShardedStore;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wsrep_core::feedback::Feedback;
use wsrep_journal::JournalRecord;

/// Ingestion tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Bounded channel capacity per writer group; a full channel blocks
    /// producers. The buffer is allocated whole when the pipeline starts.
    pub channel_capacity: usize,
    /// Most reports applied per writer wake-up.
    pub batch_size: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            channel_capacity: 1024,
            batch_size: 64,
        }
    }
}

/// Submitting failed because the pipeline already shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestClosed;

impl fmt::Display for IngestClosed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ingest pipeline is closed")
    }
}

impl std::error::Error for IngestClosed {}

/// Applied-report counter the writers bump and `flush` waits on.
#[derive(Debug, Default)]
struct Progress {
    applied: Mutex<u64>,
    moved: Condvar,
}

impl Progress {
    fn add(&self, n: u64) {
        let mut applied = self.applied.lock().unwrap_or_else(|e| e.into_inner());
        *applied += n;
        self.moved.notify_all();
    }

    fn wait_until(&self, target: u64) {
        let mut applied = self.applied.lock().unwrap_or_else(|e| e.into_inner());
        while *applied < target {
            applied = self.moved.wait(applied).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn current(&self) -> u64 {
        *self.applied.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The channels + writer threads feeding a [`ShardedStore`], one
/// channel/writer pair per writer group.
pub struct IngestPipeline {
    store: Arc<ShardedStore>,
    senders: Vec<Sender<Feedback>>,
    writers: Vec<JoinHandle<()>>,
    submitted: AtomicU64,
    progress: Arc<Progress>,
}

impl fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("writer_groups", &self.writers.len())
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl IngestPipeline {
    /// Start a single writer thread draining into `store`.
    pub fn start(store: Arc<ShardedStore>, config: IngestConfig) -> Self {
        Self::start_with_journal(store, config, None, 1)
    }

    /// Start `writer_groups` writer threads, each journaling its batches
    /// to its own writer group before applying them when a journal
    /// handle is attached. A journaled pipeline's group count must match
    /// the handle's.
    pub(crate) fn start_with_journal(
        store: Arc<ShardedStore>,
        config: IngestConfig,
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
        let progress = Arc::new(Progress::default());
        let batch_size = config.batch_size.max(1);
        let mut senders = Vec::with_capacity(groups);
        let mut writers = Vec::with_capacity(groups);
        for group in 0..groups {
            let (sender, receiver) = bounded::<Feedback>(config.channel_capacity);
            let store = Arc::clone(&store);
            let progress = Arc::clone(&progress);
            let journal = journal.clone();
            let writer = std::thread::Builder::new()
                .name(format!("wsrep-ingest-{group}"))
                .spawn(move || {
                    drain(
                        &store,
                        &receiver,
                        batch_size,
                        &progress,
                        journal.as_deref(),
                        group,
                    );
                })
                .expect("spawn ingest writer");
            senders.push(sender);
            writers.push(writer);
        }
        IngestPipeline {
            store,
            senders,
            writers,
            submitted: AtomicU64::new(0),
            progress,
        }
    }

    /// The writer group owning `feedback`'s subject.
    fn group_of(&self, feedback: &Feedback) -> usize {
        self.store.shard_of(feedback.subject) % self.senders.len()
    }

    /// Enqueue one report, blocking while its group's channel is full.
    pub fn submit(&self, feedback: Feedback) -> Result<(), IngestClosed> {
        if self.senders.is_empty() {
            return Err(IngestClosed);
        }
        let group = self.group_of(&feedback);
        self.senders[group]
            .send(feedback)
            .map_err(|_| IngestClosed)?;
        self.submitted.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Enqueue a whole batch, blocking while channels are full.
    ///
    /// Semantically identical to calling [`IngestPipeline::submit`] in a
    /// loop, but the `submitted` counter moves once — a `flush` racing a
    /// batch waits either for none of it or for everything enqueued so
    /// far, never for a torn count. Returns the number of reports
    /// accepted. On a pipeline closed mid-batch the already-sent prefix
    /// stays accepted, and the call returns [`IngestClosed`], which
    /// carries no count: the server answers such a request `IngestClosed`.
    pub fn submit_batch(
        &self,
        batch: impl IntoIterator<Item = Feedback>,
    ) -> Result<u64, IngestClosed> {
        if self.senders.is_empty() {
            return Err(IngestClosed);
        }
        let mut accepted = 0u64;
        for feedback in batch {
            let group = self.group_of(&feedback);
            if self.senders[group].send(feedback).is_err() {
                self.submitted.fetch_add(accepted, Ordering::SeqCst);
                return Err(IngestClosed);
            }
            accepted += 1;
        }
        self.submitted.fetch_add(accepted, Ordering::SeqCst);
        Ok(accepted)
    }

    /// Reports accepted by [`IngestPipeline::submit`] so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::SeqCst)
    }

    /// Reports the writers have applied to the store so far.
    pub fn applied(&self) -> u64 {
        self.progress.current()
    }

    /// Reports queued but not yet applied, across all groups.
    pub fn backlog(&self) -> usize {
        self.senders.iter().map(|s| s.len()).sum()
    }

    /// Block until everything submitted before this call is applied.
    ///
    /// With a journal attached this is also a **durability barrier**:
    /// every writer fsyncs each batch before applying it and applies it
    /// before advancing the counter this waits on, so on return every
    /// prior submission is on stable storage.
    pub fn flush(&self) {
        self.progress.wait_until(self.submitted());
    }
}

impl Drop for IngestPipeline {
    fn drop(&mut self) {
        // Disconnect every channel; each writer drains what is queued,
        // then exits, and we wait for all so no report is lost on
        // shutdown.
        self.senders.clear();
        for writer in self.writers.drain(..) {
            let _ = writer.join();
        }
    }
}

fn drain(
    store: &ShardedStore,
    receiver: &Receiver<Feedback>,
    batch_size: usize,
    progress: &Progress,
    journal: Option<&JournalHandle>,
    group: usize,
) {
    // Blocking recv for the first report of a batch, then opportunistic
    // try_recv to gather whatever else is already queued.
    while let Ok(first) = receiver.recv() {
        let mut batch = Vec::with_capacity(batch_size);
        batch.push(first);
        while batch.len() < batch_size {
            match receiver.try_recv() {
                Ok(feedback) => batch.push(feedback),
                Err(_) => break,
            }
        }
        let applied = batch.len() as u64;
        match journal {
            Some(handle) => {
                // Journal first (one write + one fsync for the whole
                // batch, on this group's log), apply second, both under
                // this group's commit lock. The reports move into the
                // records and are applied from there by reference. A
                // fenced handle rejects the batch: it is dropped here,
                // unapplied — the fence is observable before `progress`
                // moves, so a flusher that checks `fenced` after
                // flushing cannot miss it.
                let records: Vec<JournalRecord> =
                    batch.into_iter().map(JournalRecord::Feedback).collect();
                let reports = records.iter().filter_map(JournalRecord::as_feedback);
                let _ = handle.commit(group, &records, || store.insert_batch(reports));
            }
            None => store.insert_batch(&batch),
        }
        // Progress advances even for rejected batches so `flush()` never
        // hangs on a fenced pipeline; the caller learns of the rejection
        // from the fence flag, not from a stuck barrier.
        progress.add(applied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::id::{AgentId, ServiceId, SubjectId};
    use wsrep_core::mechanism::{score_from_log, ReputationMechanism, Unfolded};
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_core::mechanisms::sporas::SporasMechanism;
    use wsrep_core::time::Time;

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

    #[test]
    fn flush_observes_every_submitted_report() {
        let store = store(4);
        let pipeline = IngestPipeline::start(Arc::clone(&store), IngestConfig::default());
        for i in 0..500 {
            pipeline.submit(fb(i, i % 11)).unwrap();
        }
        pipeline.flush();
        assert_eq!(store.len(), 500);
        assert_eq!(pipeline.applied(), 500);
    }

    #[test]
    fn drop_drains_the_queue() {
        let store = store(2);
        {
            let pipeline = IngestPipeline::start(Arc::clone(&store), IngestConfig::default());
            for i in 0..100 {
                pipeline.submit(fb(i, 3)).unwrap();
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
        let store = store(4);
        let pipeline = IngestPipeline::start(Arc::clone(&store), IngestConfig::default());
        let accepted = pipeline
            .submit_batch((0..300).map(|i| fb(i, i % 7)))
            .unwrap();
        assert_eq!(accepted, 300);
        assert_eq!(pipeline.submitted(), 300);
        pipeline.flush();
        assert_eq!(store.len(), 300);
    }

    #[test]
    fn tiny_channel_applies_backpressure_without_loss() {
        let store = store(2);
        let config = IngestConfig {
            channel_capacity: 2,
            batch_size: 4,
        };
        let pipeline = IngestPipeline::start(Arc::clone(&store), config);
        for i in 0..200 {
            pipeline.submit(fb(i, i % 3)).unwrap();
        }
        pipeline.flush();
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn multiple_writer_groups_preserve_per_subject_order() {
        // Sporas folds each rating into a damped running reputation, so
        // the same reports in another order score differently.
        let store = unfolded::<SporasMechanism>(8);
        let pipeline = IngestPipeline::start_with_journal(
            Arc::clone(&store),
            IngestConfig::default(),
            None,
            4,
        );
        // Interleave subjects; each subject's reports must stay in
        // submission order even though four writers apply them.
        let mut submitted = Vec::new();
        for round in 0..200u64 {
            for service in 0..12u64 {
                let score = ((round * 7 + service) % 10) as f64 / 10.0;
                let report = Feedback::scored(
                    AgentId::new(round),
                    ServiceId::new(service),
                    score,
                    Time::new(round),
                );
                pipeline.submit(report.clone()).unwrap();
                submitted.push(report);
            }
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
                "subject {service} order preserved"
            );
        }
    }
}
