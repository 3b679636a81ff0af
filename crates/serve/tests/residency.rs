//! What the served registry keeps in RAM of the reports it applied: with
//! a folding mechanism nothing — the journal is the only copy of the log
//! — and with a mechanism that has no fold, the log it replays.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanism::score_from_log;
use wsrep_core::mechanisms::all_figure4_mechanisms;
use wsrep_core::store::FeedbackStore;
use wsrep_core::time::Time;
use wsrep_serve::ReputationService;

const REPORTS: u64 = 500;
const SERVICES: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wsrep-serve-residency-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn reports() -> Vec<Feedback> {
    (0..REPORTS)
        .map(|i| {
            Feedback::scored(
                AgentId::new(i % 13),
                ServiceId::new(i % SERVICES),
                (i % 10) as f64 / 10.0,
                Time::new(i / 4),
            )
        })
        .collect()
}

fn applied_per_shard(service: &ReputationService) -> usize {
    let store = service.store();
    (0..store.num_shards()).map(|i| store.shard_len(i)).sum()
}

#[test]
fn fold_mode_holds_no_log_and_its_replay_twin_holds_all_of_it() {
    let fold_dir = temp_dir("fold");
    let replay_dir = temp_dir("replay");
    let open = |recover: bool| {
        let fold = ReputationService::builder().shards(4).writer_groups(2);
        let replay = ReputationService::builder().shards(4).replay_scoring();
        if recover {
            (
                fold.recover_from(&fold_dir).build(),
                replay.recover_from(&replay_dir).build(),
            )
        } else {
            (
                fold.journal(&fold_dir).build(),
                replay.journal(&replay_dir).build(),
            )
        }
    };
    let check = |fold: &ReputationService, replay: &ReputationService, when: &str| {
        assert_eq!(fold.store().resident_reports(), 0, "fold mode, {when}");
        assert_eq!(
            replay.store().resident_reports(),
            REPORTS as usize,
            "replay mode, {when}"
        );
        for service in [fold, replay] {
            assert_eq!(service.stats().feedback, REPORTS, "{when}");
            assert_eq!(applied_per_shard(service), REPORTS as usize, "{when}");
        }
        for s in 0..SERVICES {
            let subject: SubjectId = ServiceId::new(s).into();
            assert_eq!(fold.store().about(subject), None, "{when}");
            assert_eq!(
                fold.score(subject),
                replay.score(subject),
                "service {s}, {when}"
            );
        }
    };

    let (fold, replay) = open(false);
    for report in reports() {
        fold.ingest(report.clone()).unwrap();
        replay.ingest(report).unwrap();
    }
    fold.flush();
    replay.flush();
    check(&fold, &replay, "after ingest + flush");
    drop((fold, replay));

    let (fold, replay) = open(true);
    check(&fold, &replay, "after recover_from");
    drop((fold, replay));
    fs::remove_dir_all(&fold_dir).unwrap();
    fs::remove_dir_all(&replay_dir).unwrap();
}

#[test]
fn mechanisms_without_a_fold_keep_their_log_and_replay_it() {
    let reports = reports();
    let mut reference = FeedbackStore::new();
    reference.extend(reports.iter().cloned());
    let mut checked = 0;
    for prototype in all_figure4_mechanisms() {
        if prototype.accumulator().is_some() {
            continue;
        }
        let key = prototype.info().key;
        let make = move || {
            all_figure4_mechanisms()
                .into_iter()
                .find(|m| m.info().key == key)
                .expect("mechanism key is stable")
        };
        let service = ReputationService::builder()
            .shards(4)
            .mechanism_factory(Arc::new(make))
            .build();
        assert!(!service.stats().incremental, "{key}");
        service.ingest_batch(reports.iter().cloned()).unwrap();
        service.flush();
        assert_eq!(
            service.store().resident_reports(),
            reports.len(),
            "{key} has no fold, so its shards must keep the log"
        );
        for s in 0..SERVICES {
            let subject: SubjectId = ServiceId::new(s).into();
            let kept = service.store().about(subject).expect("log mode");
            let expected: Vec<Feedback> = reference.about(subject).cloned().collect();
            assert_eq!(kept, expected, "{key}, service {s}");
            let mut mechanism = make();
            assert_eq!(
                service.score(subject),
                score_from_log(mechanism.as_mut(), &expected, subject),
                "{key}, service {s}"
            );
        }
        checked += 1;
    }
    assert!(checked > 0, "Figure 4 has mechanisms without a fold");
}
