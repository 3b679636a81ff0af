//! The common interface every trust/reputation mechanism implements.
//!
//! The survey compares some twenty systems; to make them interchangeable in
//! the selection engine and the experiments, they all speak the same small
//! protocol: feedback goes in ([`ReputationMechanism::submit`]), trust
//! estimates come out — either one **global** value per subject or a
//! **personalized** value per `(observer, subject)` pair, matching the
//! third axis of the typology.
//!
//! A mechanism that can score one subject from that subject's reports alone
//! offers an **incremental fold** ([`ReputationMechanism::accumulator`]):
//! a small [`SubjectAccumulator`] that absorbs each report once and answers
//! in O(1). A store that keeps many subjects resident holds their
//! accumulators as the rows of one [`AccumulatorTable`]: a [`Rows`] of the
//! fold's accumulator, whose rows sit inline in fixed blocks of
//! [`ROWS_PER_BLOCK`], or a [`LogReplay`] of each subject's reports for a
//! mechanism without a fold. [`accumulator_table`] picks between them.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use crate::time::Time;
use crate::trust::TrustEstimate;
use crate::typology::MechanismInfo;
use std::fmt;
use std::sync::Arc;

/// A trust/reputation mechanism.
///
/// Implementations are deterministic given the feedback sequence; any
/// internal iteration (e.g. EigenTrust's power method) happens lazily at
/// query time or explicitly in [`ReputationMechanism::refresh`].
///
/// The `Send` bound lets boxed mechanisms move across threads (the
/// parallel multi-seed market runner); every implementation is plain
/// owned data, so this costs nothing.
pub trait ReputationMechanism: fmt::Debug + Send {
    /// The mechanism's coordinates in the paper's Figure 4 typology.
    fn info(&self) -> MechanismInfo;

    /// Ingest one feedback report.
    fn submit(&mut self, feedback: &Feedback);

    /// An empty per-subject accumulator implementing this mechanism's
    /// **incremental fold**, or `None` when the mechanism genuinely needs
    /// a full-log pass (cross-subject state such as rater reputations
    /// learned from *other* subjects' logs, graph fixed points, or
    /// collaborative filtering over the whole rating matrix).
    ///
    /// Contract: after absorbing a subject's feedback log in order,
    /// [`SubjectAccumulator::estimate`] must equal
    /// [`score_from_log`] run over the same log through a **fresh
    /// instance configured like `self`** — including the trailing
    /// `refresh` to the newest absorbed timestamp that `score_from_log`
    /// performs. Callers that keep accumulators resident (the served
    /// registry's shards) therefore read in O(1) exactly what a replay
    /// would have recomputed in O(log length).
    ///
    /// The parameters of `self` (forgetting factors, thresholds, …) carry
    /// into the accumulator; its evidence starts empty.
    fn accumulator(&self) -> Option<Box<dyn SubjectAccumulator>> {
        None
    }

    /// The global (public) reputation of a subject, or `None` when the
    /// mechanism has no evidence about it yet.
    ///
    /// Personalized-only mechanisms answer with the population-wide
    /// aggregate so that every mechanism can serve both query styles (the
    /// paper notes personalized systems subsume a global view).
    fn global(&self, subject: SubjectId) -> Option<TrustEstimate>;

    /// The reputation of `subject` in the eyes of `observer`.
    ///
    /// Global mechanisms answer identically for every observer — the
    /// default implementation delegates to [`Self::global`].
    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        let _ = observer;
        self.global(subject)
    }

    /// Advance internal state to `now`: apply decay, re-run fixed-point
    /// iterations, drop expired windows. Called once per simulation round.
    fn refresh(&mut self, now: Time) {
        let _ = now;
    }

    /// Number of feedback reports ingested (for accounting in experiments).
    fn feedback_count(&self) -> usize;
}

/// Per-subject sufficient statistics of one mechanism's global estimate.
///
/// An accumulator is the resident, incremental form of
/// [`score_from_log`]: every report about its subject is folded forward
/// once ([`SubjectAccumulator::absorb`]), and the current estimate is an
/// O(1) read ([`SubjectAccumulator::estimate`]) no matter how long the
/// log has grown. Every feedback absorbed by one accumulator carries the
/// same `subject`; mechanisms that treat self-ratings specially (the
/// subject appearing as its own rater) may rely on that.
///
/// `estimate` is a pure read: time-decayed mechanisms apply the pending
/// decay (from the last absorbed update to the newest absorbed
/// timestamp) on the fly without mutating the resident state, mirroring
/// the `refresh(latest)` that [`score_from_log`] issues after replay.
///
/// Every `Clone` accumulator is also a table's fresh row
/// ([`IntoRows`]), so `mechanism.accumulator().map(|fresh| fresh.rows())`
/// builds the table a store keeps a mechanism's subjects in.
pub trait SubjectAccumulator: fmt::Debug + Send + Sync + IntoRows {
    /// Fold one report about this accumulator's subject into the
    /// resident statistics.
    fn absorb(&mut self, feedback: &Feedback);

    /// The current global estimate, equal to what a full-log replay
    /// through a fresh mechanism would answer. `None` until evidence
    /// exists or while the mechanism abstains.
    fn estimate(&self) -> Option<TrustEstimate>;
}

/// The table half of [`SubjectAccumulator`], implemented for every `Clone`
/// accumulator: a boxed accumulator can build a table of its own type
/// (the dyn-clone idiom), so no mechanism names its table.
pub trait IntoRows {
    /// An empty table whose every new row is a clone of `self`.
    fn rows(&self) -> Box<dyn AccumulatorTable>;
}

impl<A: SubjectAccumulator + Clone + 'static> IntoRows for A {
    fn rows(&self) -> Box<dyn AccumulatorTable> {
        Box::new(Rows::new(self.clone()))
    }
}

/// One mechanism's per-subject state for many subjects: one row per
/// subject, addressed by the index [`AccumulatorTable::push`] answered.
/// Each row is a [`SubjectAccumulator`] of its own, and keeps that
/// trait's contract.
pub trait AccumulatorTable: fmt::Debug + Send + Sync {
    /// A new, empty row; answers its index, which is the table's length
    /// before the call.
    fn push(&mut self) -> usize;

    /// Fold one report into `row`, which every report it absorbs is about.
    fn absorb(&mut self, row: usize, feedback: &Feedback);

    /// `row`'s current estimate, as [`SubjectAccumulator::estimate`].
    fn estimate(&self, row: usize) -> Option<TrustEstimate>;

    /// Reports held in RAM across every row.
    fn reports_held(&self) -> usize;
}

/// Rows per block of a [`Rows`] table: 64 beta accumulators of 48 bytes
/// make a 3 KiB block.
pub const ROWS_PER_BLOCK: usize = 64;

/// Rows of one type held inline, in blocks of [`ROWS_PER_BLOCK`]. A new
/// row is a clone of the table's fresh value. A block is allocated when
/// the previous one is full, at exactly its final size, and is never
/// grown, moved or freed while the table lives; so a row's neighbours are
/// the rows pushed beside it, and a table of `n` rows holds
/// `⌈n / ROWS_PER_BLOCK⌉` blocks and the block index. Nothing is
/// allocated before the first push.
#[derive(Debug)]
pub struct Rows<A> {
    fresh: A,
    blocks: Vec<Vec<A>>,
}

impl<A: Clone> Rows<A> {
    /// An empty table whose rows start as clones of `fresh`.
    pub fn new(fresh: A) -> Self {
        Rows {
            fresh,
            blocks: Vec::new(),
        }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * ROWS_PER_BLOCK + last.len()
        })
    }

    /// Whether no row was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Append a clone of the fresh value; answers its index.
    pub fn push(&mut self) -> usize {
        let row = self.len();
        if row.is_multiple_of(ROWS_PER_BLOCK) {
            self.blocks.push(Vec::with_capacity(ROWS_PER_BLOCK));
        }
        let fresh = self.fresh.clone();
        self.blocks
            .last_mut()
            .expect("a block has room")
            .push(fresh);
        row
    }

    /// The row at `row`. Panics past the end.
    pub fn get(&self, row: usize) -> &A {
        &self.blocks[row / ROWS_PER_BLOCK][row % ROWS_PER_BLOCK]
    }

    /// The row at `row`, to update. Panics past the end.
    pub fn get_mut(&mut self, row: usize) -> &mut A {
        &mut self.blocks[row / ROWS_PER_BLOCK][row % ROWS_PER_BLOCK]
    }

    /// Every row, in push order.
    pub fn iter(&self) -> impl Iterator<Item = &A> {
        self.blocks.iter().flatten()
    }
}

impl<A: SubjectAccumulator + Clone> AccumulatorTable for Rows<A> {
    fn push(&mut self) -> usize {
        Rows::push(self)
    }

    fn absorb(&mut self, row: usize, feedback: &Feedback) {
        self.get_mut(row).absorb(feedback);
    }

    fn estimate(&self, row: usize) -> Option<TrustEstimate> {
        self.get(row).estimate()
    }

    /// None: a fold keeps statistics only.
    fn reports_held(&self) -> usize {
        0
    }
}

/// Builds a fresh mechanism instance: the recipe for a store's table and
/// for each [`LogReplay`] pass.
pub type MechanismFactory = Arc<dyn Fn() -> Box<dyn ReputationMechanism> + Send + Sync>;

/// The table of a mechanism without a fold: per row, one subject's
/// reports in arrival order, replayed by [`score_from_log`] through a
/// fresh instance per estimate. The factory is held once for the table;
/// a row takes its subject from its first report.
pub struct LogReplay {
    mechanism: MechanismFactory,
    logs: Rows<Vec<Feedback>>,
}

impl LogReplay {
    /// An empty table replaying through `mechanism`.
    pub fn new(mechanism: MechanismFactory) -> Self {
        LogReplay {
            mechanism,
            logs: Rows::new(Vec::new()),
        }
    }
}

impl fmt::Debug for LogReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogReplay")
            .field("rows", &self.logs.len())
            .field("reports", &self.reports_held())
            .finish_non_exhaustive()
    }
}

impl AccumulatorTable for LogReplay {
    fn push(&mut self) -> usize {
        self.logs.push()
    }

    fn absorb(&mut self, row: usize, feedback: &Feedback) {
        self.logs.get_mut(row).push(feedback.clone());
    }

    fn estimate(&self, row: usize) -> Option<TrustEstimate> {
        let log = self.logs.get(row);
        let subject = log.first()?.subject;
        score_from_log((self.mechanism)().as_mut(), log, subject)
    }

    fn reports_held(&self) -> usize {
        self.logs.iter().map(Vec::len).sum()
    }
}

/// The table `mechanism`'s subjects are kept in: its fold's [`Rows`] when
/// it offers one, a [`LogReplay`] when it does not.
pub fn accumulator_table(mechanism: &MechanismFactory) -> Box<dyn AccumulatorTable> {
    match mechanism().accumulator() {
        Some(fresh) => fresh.rows(),
        None => Box::new(LogReplay::new(Arc::clone(mechanism))),
    }
}

/// Replay a feedback log through `mechanism` and answer with the global
/// estimate for `subject`.
///
/// This is the single scoring entry point shared by batch recomputation
/// (the served registry's cache rebuilds a subject's score from its shard
/// log through this function) and one-off offline analysis. `refresh` is
/// driven to the timestamp of the newest replayed report so windowed and
/// decaying mechanisms observe the same clock they would have seen live.
pub fn score_from_log<'a, M, I>(
    mechanism: &mut M,
    log: I,
    subject: SubjectId,
) -> Option<TrustEstimate>
where
    M: ReputationMechanism + ?Sized,
    I: IntoIterator<Item = &'a Feedback>,
{
    let mut latest: Option<Time> = None;
    for feedback in log {
        mechanism.submit(feedback);
        latest = Some(match latest {
            Some(t) if t >= feedback.at => t,
            _ => feedback.at,
        });
    }
    if let Some(now) = latest {
        mechanism.refresh(now);
    }
    mechanism.global(subject)
}

/// A broken invariant and its first counterexample: which check failed,
/// where, what it expected there and what it found. `Debug` prints the
/// `Display` line, so an unwrapped check fails with the counterexample.
#[derive(Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check that failed, by its function name (`"twin_equal"`).
    pub invariant: &'static str,
    /// The log position of the counterexample, when it has one.
    pub lsn: Option<u64>,
    /// What the counterexample is about: a subject, a service, an ack key.
    pub subject: Option<String>,
    /// What the invariant demands there.
    pub expected: String,
    /// What the check found instead.
    pub got: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated", self.invariant)?;
        if let Some(lsn) = self.lsn {
            write!(f, " at lsn {lsn}")?;
        }
        if let Some(subject) = &self.subject {
            write!(f, " for {subject}")?;
        }
        write!(f, ": expected {}, got {}", self.expected, self.got)
    }
}

impl fmt::Debug for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for Violation {}

/// Incremental fold == log replay: `mechanism`'s accumulator, absorbing
/// `log` (every report about `subject`) in order, must estimate exactly
/// what [`score_from_log`] answers over the same log. `mechanism` must be
/// fresh: it hands out the accumulator, then replays. Answers the replayed
/// estimate; a mechanism without a fold holds by construction.
pub fn fold_matches_replay<M: ReputationMechanism + ?Sized>(
    mechanism: &mut M,
    log: &[Feedback],
    subject: SubjectId,
) -> Result<Option<TrustEstimate>, Violation> {
    let folded = mechanism.accumulator().map(|mut accumulator| {
        log.iter().for_each(|feedback| accumulator.absorb(feedback));
        accumulator.estimate()
    });
    let replayed = score_from_log(mechanism, log, subject);
    match folded {
        Some(folded) if folded != replayed => Err(Violation {
            invariant: "fold_matches_replay",
            lsn: None,
            subject: Some(subject.to_string()),
            expected: format!("{replayed:?}, as `{}` replays it", mechanism.info().key),
            got: format!("{folded:?}"),
        }),
        _ => Ok(replayed),
    }
}

/// `M` with its fold withheld: every call delegates and `accumulator()`
/// is `None`, so a served registry scores it by [`score_from_log`] replay
/// — the reference twin a fold is tested against.
#[derive(Debug)]
pub struct Unfolded<M: ?Sized>(pub Box<M>);

impl<M: ReputationMechanism + ?Sized> ReputationMechanism for Unfolded<M> {
    fn info(&self) -> MechanismInfo {
        self.0.info()
    }

    fn submit(&mut self, feedback: &Feedback) {
        self.0.submit(feedback);
    }

    fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
        self.0.global(subject)
    }

    fn personalized(&self, observer: AgentId, subject: SubjectId) -> Option<TrustEstimate> {
        self.0.personalized(observer, subject)
    }

    fn refresh(&mut self, now: Time) {
        self.0.refresh(now);
    }

    fn feedback_count(&self) -> usize {
        self.0.feedback_count()
    }
}

/// Convenience: rank `candidates` by a mechanism's estimate for `observer`,
/// best first. Subjects without evidence rank by the ignorance prior.
pub fn rank_candidates<M: ReputationMechanism + ?Sized>(
    mechanism: &M,
    observer: AgentId,
    candidates: &[SubjectId],
) -> Vec<(SubjectId, TrustEstimate)> {
    let mut ranked: Vec<(SubjectId, TrustEstimate)> = candidates
        .iter()
        .map(|&s| {
            (
                s,
                mechanism
                    .personalized(observer, s)
                    .unwrap_or_else(TrustEstimate::ignorance),
            )
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.value
            .get()
            .partial_cmp(&a.1.value.get())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::trust::TrustValue;
    use crate::typology::{Centralization, Scope, Subject};
    use std::collections::BTreeMap;

    /// Minimal mechanism used to exercise the trait's default methods.
    #[derive(Debug, Default)]
    struct MeanMechanism {
        sums: BTreeMap<SubjectId, (f64, usize)>,
    }

    impl ReputationMechanism for MeanMechanism {
        fn info(&self) -> MechanismInfo {
            MechanismInfo {
                key: "mean",
                display: "test mean",
                centralization: Centralization::Centralized,
                subject: Subject::Resource,
                scope: Scope::Global,
                citation: "-",
                proposed_for_web_services: false,
            }
        }

        fn submit(&mut self, feedback: &Feedback) {
            let e = self.sums.entry(feedback.subject).or_insert((0.0, 0));
            e.0 += feedback.score;
            e.1 += 1;
        }

        fn global(&self, subject: SubjectId) -> Option<TrustEstimate> {
            self.sums
                .get(&subject)
                .map(|&(sum, n)| TrustEstimate::new(TrustValue::new(sum / n as f64), 1.0))
        }

        fn feedback_count(&self) -> usize {
            self.sums.values().map(|&(_, n)| n).sum()
        }
    }

    #[test]
    fn personalized_defaults_to_global() {
        let mut m = MeanMechanism::default();
        let s = ServiceId::new(1);
        m.submit(&Feedback::scored(AgentId::new(0), s, 0.8, Time::ZERO));
        let g = m.global(s.into()).unwrap();
        let p = m.personalized(AgentId::new(42), s.into()).unwrap();
        assert_eq!(g, p);
        assert_eq!(m.feedback_count(), 1);
        assert!(
            m.accumulator().is_none(),
            "replay fallback is the default fold"
        );
    }

    #[test]
    fn score_from_log_matches_live_submission() {
        let s = ServiceId::new(1);
        let log = vec![
            Feedback::scored(AgentId::new(0), s, 0.9, Time::new(0)),
            Feedback::scored(AgentId::new(1), s, 0.5, Time::new(3)),
        ];
        let mut live = MeanMechanism::default();
        for f in &log {
            live.submit(f);
        }
        let mut replayed = MeanMechanism::default();
        let from_log = score_from_log(&mut replayed, &log, s.into());
        assert_eq!(from_log, live.global(s.into()));
        assert_eq!(
            score_from_log(&mut MeanMechanism::default(), &[], s.into()),
            None
        );
    }

    #[test]
    fn rank_orders_best_first_and_fills_ignorance() {
        let mut m = MeanMechanism::default();
        let good = ServiceId::new(1);
        let bad = ServiceId::new(2);
        let unknown = ServiceId::new(3);
        m.submit(&Feedback::scored(AgentId::new(0), good, 0.9, Time::ZERO));
        m.submit(&Feedback::scored(AgentId::new(0), bad, 0.1, Time::ZERO));
        let ranked = rank_candidates(
            &m,
            AgentId::new(0),
            &[bad.into(), unknown.into(), good.into()],
        );
        assert_eq!(ranked[0].0, good.into());
        assert_eq!(ranked[1].0, unknown.into()); // neutral 0.5 beats 0.1
        assert_eq!(ranked[2].0, bad.into());
        assert_eq!(ranked[1].1.confidence, 0.0);
    }
}
