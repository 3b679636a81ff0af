//! The central feedback store — the "central QoS registry" of Figure 2.
//!
//! Centralized mechanisms keep their raw evidence here: an append-only log
//! with per-subject and per-rater indexes. The store itself is
//! mechanism-agnostic; mechanisms query it and derive their own statistics.

use crate::feedback::Feedback;
use crate::id::{AgentId, SubjectId};
use std::collections::BTreeMap;

/// Append-only feedback log with secondary indexes.
#[derive(Debug, Clone, Default)]
pub struct FeedbackStore {
    log: Vec<Feedback>,
    by_subject: BTreeMap<SubjectId, Vec<usize>>,
    by_rater: BTreeMap<AgentId, Vec<usize>>,
}

impl FeedbackStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one feedback report.
    pub fn push(&mut self, feedback: Feedback) {
        let idx = self.log.len();
        self.by_subject
            .entry(feedback.subject)
            .or_default()
            .push(idx);
        self.by_rater.entry(feedback.rater).or_default().push(idx);
        self.log.push(feedback);
    }

    /// Every report about `subject`, oldest first.
    pub fn about(&self, subject: SubjectId) -> impl Iterator<Item = &Feedback> {
        self.by_subject
            .get(&subject)
            .into_iter()
            .flatten()
            .map(|&i| &self.log[i])
    }

    /// Every report filed by `rater`, oldest first.
    pub fn by(&self, rater: AgentId) -> impl Iterator<Item = &Feedback> {
        self.by_rater
            .get(&rater)
            .into_iter()
            .flatten()
            .map(|&i| &self.log[i])
    }

    /// Total number of reports.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Iterate the full log, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Feedback> {
        self.log.iter()
    }

    /// The mean score of reports about `subject`, if any.
    pub fn mean_score(&self, subject: SubjectId) -> Option<f64> {
        let (sum, n) = self
            .about(subject)
            .fold((0.0, 0usize), |(s, n), f| (s + f.score, n + 1));
        if n > 0 {
            Some(sum / n as f64)
        } else {
            None
        }
    }
}

impl Extend<Feedback> for FeedbackStore {
    fn extend<T: IntoIterator<Item = Feedback>>(&mut self, iter: T) {
        for f in iter {
            self.push(f);
        }
    }
}

impl FromIterator<Feedback> for FeedbackStore {
    fn from_iter<T: IntoIterator<Item = Feedback>>(iter: T) -> Self {
        let mut store = FeedbackStore::new();
        store.extend(iter);
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ServiceId;
    use crate::time::Time;

    fn store() -> FeedbackStore {
        let s1 = ServiceId::new(1);
        let s2 = ServiceId::new(2);
        [
            Feedback::scored(AgentId::new(0), s1, 0.9, Time::new(0)),
            Feedback::scored(AgentId::new(1), s1, 0.7, Time::new(5)),
            Feedback::scored(AgentId::new(0), s2, 0.2, Time::new(9)),
            Feedback::scored(AgentId::new(0), s1, 0.5, Time::new(10)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn indexes_agree_with_log() {
        let st = store();
        assert_eq!(st.len(), 4);
        assert_eq!(st.about(ServiceId::new(1).into()).count(), 3);
        assert_eq!(st.by(AgentId::new(0)).count(), 3);
    }

    #[test]
    fn mean_score_averages() {
        let st = store();
        let m = st.mean_score(ServiceId::new(1).into()).unwrap();
        assert!((m - 0.7).abs() < 1e-12);
        assert_eq!(st.mean_score(ServiceId::new(99).into()), None);
    }

    #[test]
    fn empty_store_behaves() {
        let st = FeedbackStore::new();
        assert!(st.is_empty());
        assert_eq!(st.about(ServiceId::new(1).into()).count(), 0);
    }
}
