//! The memo contract of the four mechanisms that keep a computed vector
//! beside their evidence (pagerank, social, eigentrust: the fixed point;
//! vu: every reporter's credibility): whatever order mutators, queries
//! and `refresh` arrive in, an answer is never older than the last
//! mutation. After every step of a seeded schedule the live instance
//! must answer exactly what a fresh instance answers once fed the
//! mutating steps of the same prefix and nothing else, so the fresh side
//! computes from cold every time and a missed invalidation on the live
//! side shows as a difference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::{AgentId, ServiceId, SubjectId};
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::mechanisms::eigentrust::EigenTrustMechanism;
use wsrep_core::mechanisms::pagerank::PageRankMechanism;
use wsrep_core::mechanisms::social::SocialMechanism;
use wsrep_core::mechanisms::vu::VuMechanism;
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::preference::Preferences;
use wsrep_qos::value::QosVector;

const IDS: u64 = 6;
const STEPS: usize = 80;

#[derive(Debug, Clone)]
enum Step {
    Submit(Feedback),
    /// The mechanism's own mutator beside `submit` (see each table row).
    Special(u64, u64, f64),
    Global(SubjectId),
    Personalized(AgentId, SubjectId),
    Refresh(Time),
}

/// Raters are agents; subjects are agents or services, as the markets mix them.
fn subjects() -> Vec<SubjectId> {
    (0..IDS)
        .flat_map(|i| [AgentId::new(i).into(), ServiceId::new(i).into()])
        .collect()
}

fn response_time(ms: f64) -> QosVector {
    QosVector::from_pairs([(Metric::ResponseTime, ms)])
}

fn schedule(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let subjects = subjects();
    (0..STEPS)
        .map(|at| {
            let subject = subjects[rng.gen_range(0..subjects.len())];
            let agent = AgentId::new(rng.gen_range(0..IDS));
            match rng.gen_range(0..10) {
                0..=3 => Step::Submit(
                    Feedback::scored(agent, subject, rng.gen(), Time::new(at as u64))
                        .with_observed(response_time(rng.gen_range(20.0..2000.0))),
                ),
                4..=5 => Step::Special(
                    rng.gen_range(0..IDS),
                    rng.gen_range(0..IDS),
                    rng.gen_range(50.0..400.0),
                ),
                6..=7 => Step::Global(subject),
                8 => Step::Personalized(agent, subject),
                _ => Step::Refresh(Time::new(at as u64)),
            }
        })
        .collect()
}

fn apply<M: ReputationMechanism>(m: &mut M, step: &Step, special: fn(&mut M, u64, u64, f64)) {
    match step {
        Step::Submit(feedback) => m.submit(feedback),
        Step::Special(a, b, x) => special(m, *a, *b, *x),
        Step::Global(subject) => drop(m.global(*subject)),
        Step::Personalized(observer, subject) => drop(m.personalized(*observer, *subject)),
        Step::Refresh(now) => m.refresh(*now),
    }
}

fn assert_same_answers<M: ReputationMechanism>(live: &M, twin: &M, context: &str) {
    for subject in subjects() {
        assert_eq!(
            live.global(subject),
            twin.global(subject),
            "`{}` global({subject:?}) {context}",
            live.info().key
        );
        for observer in (0..IDS).map(AgentId::new) {
            assert_eq!(
                live.personalized(observer, subject),
                twin.personalized(observer, subject),
                "`{}` personalized({observer:?}, {subject:?}) {context}",
                live.info().key
            );
        }
    }
}

fn never_stale<M: ReputationMechanism + Clone>(
    fresh: fn() -> M,
    special: fn(&mut M, u64, u64, f64),
) {
    for seed in [7, 42, 1234] {
        let steps = schedule(seed);
        let mut live = fresh();
        for (done, step) in steps.iter().enumerate() {
            apply(&mut live, step, special);
            let mut twin = fresh();
            for earlier in &steps[..=done] {
                if matches!(earlier, Step::Submit(_) | Step::Special(..)) {
                    apply(&mut twin, earlier, special);
                }
            }
            let context = format!("after step {done} of seed {seed}: {step:?}");
            assert_same_answers(&live, &twin, &context);
            // The checks above left `live` warm: a clone carries the memo
            // and must answer as its original does.
            assert_same_answers(&live.clone(), &twin, &format!("(clone) {context}"));
        }
    }
}

#[test]
fn a_memoised_answer_is_never_stale() {
    never_stale(PageRankMechanism::new, |m, a, b, _| {
        m.endorse(AgentId::new(a), ServiceId::new(b))
    });
    never_stale(SocialMechanism::new, |m, a, b, _| {
        m.add_edge(AgentId::new(a), AgentId::new(b))
    });
    never_stale(EigenTrustMechanism::new, |m, a, _, _| {
        m.pre_trust(AgentId::new(a))
    });
    // vu: a trusted probe of service `b`, or (odd `a`) a consumer profile.
    never_stale(VuMechanism::new, |m, a, b, x| {
        if a % 2 == 0 {
            m.submit_trusted(ServiceId::new(b), response_time(x));
        } else {
            m.set_profile(
                AgentId::new(a),
                Preferences::uniform([Metric::ResponseTime]),
            );
        }
    });
}
