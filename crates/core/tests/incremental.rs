//! The incremental-fold contract, property-tested for every concrete
//! mechanism through [`fold_matches_replay`]: absorbing a subject's
//! feedback log through [`ReputationMechanism::accumulator`] must answer
//! exactly what a fresh instance answers after replaying the same log —
//! including out-of-order timestamps and the trailing decay refresh. Mechanisms without a fold fall back to replay in the
//! served registry, so they satisfy the contract by construction.
//!
//! A store keeps many subjects' accumulators as the rows of one table, so
//! the table must answer per row exactly what a lone accumulator answers,
//! and a [`LogReplay`] table what [`score_from_log`] answers.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanism::{
    fold_matches_replay, score_from_log, AccumulatorTable, LogReplay, MechanismFactory,
    ReputationMechanism, SubjectAccumulator, ROWS_PER_BLOCK,
};
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::mechanisms::{all_figure4_mechanisms, build};
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

/// Ids the table tests draw subjects from: two thirds are services, the
/// rest fold onto eight agents, for more than three blocks of rows.
const TABLE_SUBJECTS: u64 = 5 * ROWS_PER_BLOCK as u64;

/// Reports about `TABLE_SUBJECTS` subjects, interleaved: services and
/// agents (which can rate themselves), timestamps that jump back and
/// forth, and every fifth subject idle for a long gap between two bursts.
fn table_stream(seed: u64) -> Vec<Feedback> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let mut reports = Vec::new();
    for round in 0..12u64 {
        for _ in 0..TABLE_SUBJECTS {
            let n = next(TABLE_SUBJECTS);
            if n % 5 == 0 && (3..9).contains(&round) {
                continue;
            }
            let at = Time::new(round * 20 + next(30));
            let score = next(11) as f64 / 10.0;
            let rater = AgentId::new(next(6));
            reports.push(if n % 3 == 0 {
                Feedback::scored(rater, AgentId::new(n % 8), score, at)
            } else {
                Feedback::scored(rater, ServiceId::new(n), score, at)
            });
        }
    }
    reports
}

/// `key`'s mechanism, built fresh per call.
fn factory(key: &'static str) -> MechanismFactory {
    Arc::new(move || build(key).expect("a Figure-4 key or beta"))
}

/// Every fold, as the rows of one table, answers per row what one boxed
/// accumulator per subject answers, row for row, at every step.
#[test]
fn rows_equal_one_accumulator_per_subject() {
    let mut folded = 0;
    for prototype in mechanisms() {
        let key = prototype.info().key;
        let Some(fresh) = prototype.accumulator() else {
            continue;
        };
        folded += 1;
        for seed in 1..=3 {
            let mut table = fresh.rows();
            let mut lone: Vec<Box<dyn SubjectAccumulator>> = Vec::new();
            let mut rows: HashMap<SubjectId, usize> = HashMap::new();
            for (n, report) in table_stream(seed).iter().enumerate() {
                let row = *rows.entry(report.subject).or_insert_with(|| {
                    lone.push(prototype.accumulator().expect("it folds"));
                    table.push()
                });
                table.absorb(row, report);
                lone[row].absorb(report);
                assert_eq!(
                    table.estimate(row),
                    lone[row].estimate(),
                    "{key}, report {n}"
                );
            }
            assert!(
                rows.len() > 3 * ROWS_PER_BLOCK,
                "{key}: {} rows",
                rows.len()
            );
            assert_eq!(table.reports_held(), 0, "{key}");
            for (row, accumulator) in lone.iter().enumerate() {
                assert_eq!(
                    table.estimate(row),
                    accumulator.estimate(),
                    "{key}, row {row}"
                );
            }
        }
    }
    assert_eq!(
        folded, 6,
        "beta, ebay, amazon, epinions, sporas, complaints"
    );
}

/// A `LogReplay` table answers per row what a replay of that subject's
/// reports through a fresh instance answers, for every mechanism, and
/// holds every report it absorbed.
#[test]
fn log_replay_rows_equal_score_from_log() {
    let reports = table_stream(4);
    for prototype in mechanisms() {
        let key = prototype.info().key;
        let mechanism = factory(key);
        let mut table = LogReplay::new(Arc::clone(&mechanism));
        let mut logs: Vec<Vec<Feedback>> = Vec::new();
        let mut rows: HashMap<SubjectId, usize> = HashMap::new();
        for report in &reports {
            let row = *rows.entry(report.subject).or_insert_with(|| {
                logs.push(Vec::new());
                table.push()
            });
            table.absorb(row, report);
            logs[row].push(report.clone());
        }
        let held: usize = logs.iter().map(Vec::len).sum();
        assert_eq!(table.reports_held(), held, "{key}");
        assert_eq!(held, reports.len(), "{key}");
        for (subject, &row) in &rows {
            let replayed = score_from_log(mechanism().as_mut(), &logs[row], *subject);
            assert_eq!(table.estimate(row), replayed, "{key}, {subject:?}");
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
