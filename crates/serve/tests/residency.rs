//! What the served registry keeps in RAM of the reports it applied: with
//! a folding mechanism nothing — the journal is the only copy of the log
//! — and with a mechanism that has no fold, each subject's reports, which
//! it replays. Checked for every Figure-4 mechanism, before and after a
//! recovery from the journal.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId};
use wsrep_core::mechanisms::{all_figure4_mechanisms, build};
use wsrep_core::time::Time;
use wsrep_serve::check::{twin_equal, Twin};
use wsrep_serve::{MechanismFactory, ReputationService};

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
fn every_mechanism_holds_its_log_exactly_when_it_has_no_fold() {
    let reports = reports();
    let twin = Twin::published(&[], &reports);
    let mut checked = 0;
    for prototype in all_figure4_mechanisms() {
        let key = prototype.info().key;
        let has_fold = prototype.accumulator().is_some();
        let mechanism: MechanismFactory = Arc::new(move || build(key).expect("a Figure-4 key"));
        let dir = temp_dir(key);
        let builder = || {
            ReputationService::builder()
                .shards(4)
                .writer_groups(2)
                .mechanism_factory(Arc::clone(&mechanism))
        };
        let check = |service: &ReputationService, when: &str| {
            let stats = service.stats();
            assert_eq!(stats.incremental, has_fold, "{key}, {when}");
            assert_eq!(stats.feedback, REPORTS, "{key}, {when}");
            assert_eq!(applied_per_shard(service), reports.len(), "{key}, {when}");
            let held = if has_fold { 0 } else { reports.len() };
            assert_eq!(service.store().resident_reports(), held, "{key}, {when}");
            twin_equal(service, &twin).unwrap_or_else(|v| panic!("{key}, {when}: {v}"));
        };

        let service = builder().journal(&dir).build();
        service.ingest_batch(reports.iter().cloned()).unwrap();
        service.flush();
        check(&service, "after ingest + flush");
        drop(service);

        let service = builder().recover_from(&dir).build();
        check(&service, "after recover_from");
        drop(service);
        fs::remove_dir_all(&dir).unwrap();
        checked += 1;
    }
    assert_eq!(checked, all_figure4_mechanisms().len());
}
