//! The incremental-fold contract, property-tested for every concrete
//! mechanism through [`fold_matches_replay`]: absorbing a subject's
//! feedback log through [`ReputationMechanism::accumulator`] must answer
//! exactly what a fresh instance answers after replaying the same log —
//! including out-of-order timestamps and the trailing decay refresh. Mechanisms without a fold fall back to replay in the
//! served registry, so they satisfy the contract by construction.

use proptest::prelude::*;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanism::{fold_matches_replay, ReputationMechanism};
use wsrep_core::mechanisms::all_figure4_mechanisms;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;

/// Every concrete mechanism: the Figure 4 set plus the beta building
/// block (the served registry's default).
fn mechanisms() -> Vec<Box<dyn ReputationMechanism>> {
    let mut all = all_figure4_mechanisms();
    all.push(Box::new(BetaMechanism::new()));
    all
}

/// Hold every mechanism to `fold_matches_replay` over `log`, which must
/// contain only reports about `subject`.
fn fold_matches_replay_for_all(log: &[Feedback], subject: SubjectId) {
    for mut mechanism in mechanisms() {
        fold_matches_replay(mechanism.as_mut(), log, subject).unwrap();
    }
}

#[test]
fn folding_mechanisms_exist() {
    let with_fold = mechanisms()
        .iter()
        .filter(|m| m.accumulator().is_some())
        .count();
    assert!(
        with_fold >= 6,
        "expected at least beta/ebay/amazon/epinions/sporas/complaints, got {with_fold}"
    );
}

#[test]
fn empty_log_estimates_nothing() {
    for m in mechanisms() {
        if let Some(acc) = m.accumulator() {
            assert_eq!(acc.estimate(), None, "{}", m.info().key);
        }
    }
}

proptest! {
    /// Arbitrary scores and arbitrary (unsorted) timestamps: the exact
    /// workload the shard-resident accumulators see, since the ingest
    /// writer applies reports in arrival order, not timestamp order.
    #[test]
    fn fold_equals_replay_for_service_subjects(
        reports in proptest::collection::vec(
            (0.0f64..=1.0, 0u64..60, 0u64..5),
            1..40,
        )
    ) {
        let subject = ServiceId::new(7);
        let log: Vec<Feedback> = reports
            .into_iter()
            .map(|(score, at, rater)| {
                Feedback::scored(AgentId::new(rater), subject, score, Time::new(at))
            })
            .collect();
        fold_matches_replay_for_all(&log, subject.into());
    }

    /// Agent subjects can appear as their own raters (self-ratings),
    /// which Sporas and the complaints index treat specially.
    #[test]
    fn fold_equals_replay_with_self_ratings(
        reports in proptest::collection::vec(
            (0.0f64..=1.0, 0u64..60, 0u64..3),
            1..40,
        )
    ) {
        let subject = AgentId::new(0);
        let log: Vec<Feedback> = reports
            .into_iter()
            .map(|(score, at, rater)| {
                Feedback::scored(AgentId::new(rater), subject, score, Time::new(at))
            })
            .collect();
        fold_matches_replay_for_all(&log, subject.into());
    }

    /// Decay refresh: long idle gaps between bursts, so time-decayed
    /// mechanisms must agree on the pending-decay arithmetic too.
    #[test]
    fn fold_equals_replay_across_idle_gaps(
        burst_a in proptest::collection::vec(0.0f64..=1.0, 1..10),
        burst_b in proptest::collection::vec(0.0f64..=1.0, 1..10),
        gap in 1u64..200,
    ) {
        let subject = ServiceId::new(1);
        let mut log = Vec::new();
        for (i, &score) in burst_a.iter().enumerate() {
            log.push(Feedback::scored(AgentId::new(i as u64), subject, score, Time::new(i as u64)));
        }
        let resume = burst_a.len() as u64 + gap;
        for (i, &score) in burst_b.iter().enumerate() {
            log.push(Feedback::scored(
                AgentId::new(i as u64),
                subject,
                score,
                Time::new(resume + i as u64),
            ));
        }
        fold_matches_replay_for_all(&log, subject.into());
    }
}
