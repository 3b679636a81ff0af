//! Closed-form oracles for the six folds. Each fold's estimate is checked
//! against the cited paper's batch formula over the subject's whole log,
//! written here and not in the library, so a fold that computes the wrong
//! thing fails even where `fold_matches_replay` cannot see it: Beta and
//! eBay *are* their folds (`PerSubject`), so their replay runs the fold
//! itself.
//!
//! Every oracle is read two ways: through the fold a served registry
//! keeps (`accumulator()` absorbing the log) and through `global()` after
//! `submit`ting the log in-process. A log holds one subject, an agent that
//! may rate itself, with timestamps that step back (out of order) and jump
//! ahead (decay gaps).
//!
//! Amazon's helpfulness votes and Epinions' web of trust are model inputs
//! that never pass through the log, so their weighted means are read
//! through `global()` alone, after the votes or trust edges are set.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsrep_core::feedback::Feedback;
use wsrep_core::id::AgentId;
use wsrep_core::mechanism::ReputationMechanism;
use wsrep_core::mechanisms::amazon::AmazonMechanism;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::mechanisms::build;
use wsrep_core::mechanisms::epinions::EpinionsMechanism;
use wsrep_core::time::Time;
use wsrep_core::trust::TrustEstimate;

/// The subject of every log.
const SUBJECT: u64 = 0;

/// Absolute tolerance: the oracles sum in closed form, the folds step by
/// step.
const TOLERANCE: f64 = 1e-9;

/// `n / (n + k)`, the confidence every fold reports.
fn confidence(n: f64, k: f64) -> f64 {
    n / (n + k)
}

/// Reports about `SUBJECT` from `(score, rater, step)`: each report's
/// time is the previous one's moved by `step`, not below 0.
fn log(reports: &[(f64, u64, i64)]) -> Vec<Feedback> {
    let mut at: i64 = 100;
    reports
        .iter()
        .map(|&(score, rater, step)| {
            at = (at + step).max(0);
            Feedback::scored(
                AgentId::new(rater),
                AgentId::new(SUBJECT),
                score,
                Time::new(at as u64),
            )
        })
        .collect()
}

/// Up to 40 reports; half the scores sit on a bucket edge (0, 1/3, 1/2,
/// 2/3, 1), the rest anywhere in `[0, 1]`; steps from 30 rounds back to
/// 90 ahead.
fn reports() -> impl Strategy<Value = Vec<(f64, u64, i64)>> {
    const EDGES: [f64; 5] = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0];
    let score = (0usize..10, 0.0f64..=1.0)
        .prop_map(|(pick, anywhere)| EDGES.get(pick).copied().unwrap_or(anywhere));
    proptest::collection::vec((score, 0u64..3, -30i64..=90), 1..40)
}

/// `mechanism`'s estimate of `SUBJECT` after `log`, read through its fold
/// and through `global()`.
fn both_reads(
    mechanism: &dyn Fn() -> Box<dyn ReputationMechanism>,
    log: &[Feedback],
) -> [TrustEstimate; 2] {
    let mut fold = mechanism().accumulator().expect("a fold");
    let mut in_process = mechanism();
    for report in log {
        fold.absorb(report);
        in_process.submit(report);
    }
    [
        fold.estimate().expect("evidence exists"),
        in_process
            .global(AgentId::new(SUBJECT).into())
            .expect("evidence exists"),
    ]
}

fn check(key: &str, got: TrustEstimate, value: f64, confidence: f64) -> Result<(), TestCaseError> {
    prop_assert!(
        (got.value.get() - value).abs() < TOLERANCE
            && (got.confidence - confidence).abs() < TOLERANCE,
        "{key}: got {got:?}, the closed form says value {value}, confidence {confidence}"
    );
    Ok(())
}

fn check_key(
    key: &str,
    log: &[Feedback],
    value: f64,
    confidence: f64,
) -> Result<(), TestCaseError> {
    for got in both_reads(&|| build(key).expect("a fold key"), log) {
        check(key, got, value, confidence)?;
    }
    Ok(())
}

/// Jøsang–Ismail at clock `t`: `r = Σ λ^(t−t_i)·s_i` and
/// `s = Σ λ^(t−t_i)·(1−s_i)`, estimate `(r+1)/(r+s+2)`, confidence from
/// the rounded mass.
///
/// The log-order rule for out-of-order timestamps: evidence ages only
/// forward, one report to the next in log order, so report `i`'s age is
/// the sum of the forward steps after it, `Σ_{j>i} max(0, t_j − t_{j−1})`,
/// plus `max(0, t − t_n)`. In time order that sum is `t − t_i`. The clock
/// `t` is the newest report's time, or the `refresh` time.
fn beta_oracle(log: &[Feedback], lambda: f64, clock: Time) -> (f64, f64) {
    let (mut r, mut s) = (0.0, 0.0);
    for (i, report) in log.iter().enumerate() {
        let steps: u64 = log[i..]
            .windows(2)
            .map(|pair| pair[1].at.since(pair[0].at))
            .sum();
        let age = steps + clock.since(log[log.len() - 1].at);
        let weight = lambda.powf(age as f64);
        r += weight * report.score;
        s += weight * (1.0 - report.score);
    }
    let mass = (r + s).round();
    ((r + 1.0) / (r + s + 2.0), confidence(mass, 5.0))
}

/// eBay: the three tallies, `+1` at a score of 2/3 or more, `−1` at 1/3
/// or less, neutral between; the estimate is the positive share of the
/// judged feedback (neutral 0.5 with none), its confidence from the
/// judged count.
fn ebay_oracle(log: &[Feedback]) -> (f64, f64) {
    let positive = log.iter().filter(|f| f.score >= 2.0 / 3.0).count() as f64;
    let negative = log.iter().filter(|f| f.score <= 1.0 / 3.0).count() as f64;
    let judged = positive + negative;
    let value = if judged == 0.0 {
        0.5
    } else {
        positive / judged
    };
    (value, confidence(judged, 5.0))
}

/// Amazon and Epinions with no helpfulness vote and no web of trust:
/// every reviewer weighs the same, so the weighted mean is the mean.
fn neutral_weight_mean_oracle(log: &[Feedback]) -> (f64, f64) {
    let n = log.len() as f64;
    (
        log.iter().map(|f| f.score).sum::<f64>() / n,
        confidence(n, 4.0),
    )
}

/// A mean of the log's scores, each weighted by `weight(rater)`, with the
/// confidence of its report count.
fn weighted_mean_oracle(log: &[Feedback], weight: impl Fn(AgentId) -> f64) -> (f64, f64) {
    let (num, den) = log.iter().fold((0.0, 0.0), |(num, den), f| {
        let w = weight(f.rater);
        (num + w * f.score, den + w)
    });
    (num / den, confidence(log.len() as f64, 4.0))
}

/// Amazon with helpfulness votes `(reviewer, helpful)`: a reviewer with
/// `h` helpful and `u` unhelpful votes weighs `max(0.25, (h+1)/(h+u+2))`,
/// one with no vote 0.5.
fn amazon_oracle(log: &[Feedback], votes: &[(u64, bool)]) -> (f64, f64) {
    weighted_mean_oracle(log, |rater| {
        let mine = votes
            .iter()
            .filter(|(reviewer, _)| AgentId::new(*reviewer) == rater);
        let h = mine.clone().filter(|(_, helpful)| *helpful).count() as f64;
        let u = mine.filter(|(_, helpful)| !*helpful).count() as f64;
        if h + u == 0.0 {
            0.5
        } else {
            ((h + 1.0) / (h + u + 2.0)).max(0.25)
        }
    })
}

/// Epinions after `edges` `(member, reviewer, trusts)` in order: a
/// member's last edge to a reviewer stands (a `trust` after a `block`
/// removes the block, and the reverse), and a reviewer with `n =
/// max(0, trusters − blockers)` weighs `0.2 + 0.8·n/(n+3)`.
fn epinions_oracle(log: &[Feedback], edges: &[(u64, u64, bool)]) -> (f64, f64) {
    let standing: BTreeMap<(u64, u64), bool> = edges
        .iter()
        .map(|&(member, reviewer, trusts)| ((member, reviewer), trusts))
        .collect();
    weighted_mean_oracle(log, |rater| {
        let edges_to = |trusts: bool| {
            standing
                .iter()
                .filter(|(&(_, reviewer), &t)| AgentId::new(reviewer) == rater && t == trusts)
                .count() as f64
        };
        let n = (edges_to(true) - edges_to(false)).max(0.0);
        0.2 + 0.8 * n / (n + 3.0)
    })
}

/// Sporas (Zacharia, Moukas & Maes), `D = 3000`, `θ = 10`, `σ = 250`:
/// `R_0 = 0`, `R_k = clamp(R_{k−1} + (1/θ)·Φ(R_{k−1})·R_rater·(W_k −
/// R_{k−1}/D), 0, D)` with `Φ(R) = 1 − 1/(1 + e^{−(R−D)/σ})`, `W = 0.1 +
/// 0.9·score` and `R_rater` the subject's own `R_{k−1}` when it rates
/// itself after its first rating, `D/2` (a newcomer) otherwise.
fn sporas_oracle(log: &[Feedback]) -> (f64, f64) {
    let (d, theta, sigma) = (3000.0f64, 10.0, 250.0);
    let mut r = 0.0f64;
    for (k, report) in log.iter().enumerate() {
        let rater = if report.rater == AgentId::new(SUBJECT) && k > 0 {
            r
        } else {
            d / 2.0
        };
        let phi = 1.0 - 1.0 / (1.0 + (-(r - d) / sigma).exp());
        let w = 0.1 + 0.9 * report.score;
        r = (r + phi * rater * (w - r / d) / theta).clamp(0.0, d);
    }
    (r / d, confidence(log.len() as f64, 5.0))
}

/// Aberer & Despotovic's complaints, as a trust value: a report below 0.5
/// is a complaint; the trust is `0.5 + (1 − rate − 0.5) × suspicion`,
/// where `rate` is complaints received over reports and `suspicion =
/// 1/(1 + filed/10)` counts the complaints the subject filed (here, about
/// itself).
fn complaints_oracle(log: &[Feedback]) -> (f64, f64) {
    let n = log.len() as f64;
    let complaints = log.iter().filter(|f| f.score < 0.5);
    let received = complaints.clone().count() as f64;
    let filed = complaints
        .filter(|f| f.rater == AgentId::new(SUBJECT))
        .count() as f64;
    let suspicion = 1.0 / (1.0 + filed / 10.0);
    (
        0.5 + (1.0 - received / n - 0.5) * suspicion,
        confidence(n, 4.0),
    )
}

proptest! {
    #[test]
    fn beta_is_the_decayed_evidence_sum(reports in reports(), lambda in 0.5f64..=1.0, idle in 0u64..100) {
        let log = log(&reports);
        let newest = log.iter().map(|f| f.at).max().expect("a report");
        let beta = || Box::new(BetaMechanism::with_forgetting(lambda)) as Box<dyn ReputationMechanism>;
        let (value, conf) = beta_oracle(&log, lambda, newest);
        for got in both_reads(&beta, &log) {
            check("beta", got, value, conf)?;
        }
        // `refresh(now)` moves the in-process clock to `now`.
        let now = Time::new(newest.round() + idle);
        let mut refreshed = beta();
        log.iter().for_each(|f| refreshed.submit(f));
        refreshed.refresh(now);
        let (value, conf) = beta_oracle(&log, lambda, now);
        check("beta", refreshed.global(AgentId::new(SUBJECT).into()).unwrap(), value, conf)?;
    }

    #[test]
    fn ebay_is_its_three_tallies(reports in reports()) {
        let log = log(&reports);
        let (value, conf) = ebay_oracle(&log);
        check_key("ebay", &log, value, conf)?;
    }

    #[test]
    fn amazon_and_epinions_are_the_neutral_weight_mean(reports in reports()) {
        let log = log(&reports);
        let (value, conf) = neutral_weight_mean_oracle(&log);
        check_key("amazon", &log, value, conf)?;
        check_key("epinions", &log, value, conf)?;
    }

    #[test]
    fn amazon_weighs_reviewers_by_their_helpfulness_votes(
        reports in reports(),
        votes in proptest::collection::vec((0u64..3, 0u8..2).prop_map(|(r, h)| (r, h == 1)), 0..20),
    ) {
        let log = log(&reports);
        let mut amazon = AmazonMechanism::new();
        for &(reviewer, helpful) in &votes {
            amazon.vote_helpful(AgentId::new(reviewer), helpful);
        }
        log.iter().for_each(|f| amazon.submit(f));
        let (value, conf) = amazon_oracle(&log, &votes);
        check("amazon", amazon.global(AgentId::new(SUBJECT).into()).unwrap(), value, conf)?;
    }

    #[test]
    fn epinions_weighs_reviewers_by_their_web_of_trust(
        reports in reports(),
        edges in proptest::collection::vec((0u64..6, 0u64..3, 0u8..2).prop_map(|(m, r, t)| (m, r, t == 1)), 0..30),
    ) {
        let log = log(&reports);
        let mut epinions = EpinionsMechanism::new();
        for &(member, reviewer, trusts) in &edges {
            let (member, reviewer) = (AgentId::new(member), AgentId::new(reviewer));
            if trusts {
                epinions.trust(member, reviewer);
            } else {
                epinions.block(member, reviewer);
            }
        }
        log.iter().for_each(|f| epinions.submit(f));
        let (value, conf) = epinions_oracle(&log, &edges);
        check("epinions", epinions.global(AgentId::new(SUBJECT).into()).unwrap(), value, conf)?;
    }

    #[test]
    fn sporas_is_its_recurrence(reports in reports()) {
        let log = log(&reports);
        let (value, conf) = sporas_oracle(&log);
        check_key("sporas", &log, value, conf)?;
    }

    #[test]
    fn complaints_is_rate_times_suspicion(reports in reports()) {
        let log = log(&reports);
        let (value, conf) = complaints_oracle(&log);
        check_key("complaints", &log, value, conf)?;
    }
}

/// The oracles themselves, on logs worked by hand.
#[test]
fn the_oracles_agree_with_hand_computed_logs() {
    let at = |score: f64, rater: u64, t: u64| {
        Feedback::scored(
            AgentId::new(rater),
            AgentId::new(SUBJECT),
            score,
            Time::new(t),
        )
    };
    // λ = 0.5: the report at 2 ages 2 rounds to the clock at 4.
    let (value, _) = beta_oracle(&[at(1.0, 1, 2), at(0.0, 1, 4)], 0.5, Time::new(4));
    assert!((value - (0.25 + 1.0) / (0.25 + 1.0 + 2.0)).abs() < 1e-12);
    // Out of order, 4 then 2 then clock 4: the report at 4 ages 0 + 2.
    let (value, _) = beta_oracle(&[at(1.0, 1, 4), at(0.0, 1, 2)], 0.5, Time::new(4));
    assert!((value - (0.25 + 1.0) / (0.25 + 0.25 + 2.0)).abs() < 1e-12);
    assert_eq!(
        ebay_oracle(&[at(0.9, 1, 0), at(0.5, 1, 0), at(0.1, 1, 0)]),
        (0.5, 2.0 / 7.0)
    );
    // Reviewer 1 has one helpful vote in one, (1+1)/(1+2) = 2/3; reviewer 2
    // has none, 0.5.
    let (value, _) = amazon_oracle(&[at(1.0, 1, 0), at(0.0, 2, 0)], &[(1, true)]);
    assert!((value - (2.0 / 3.0) / (2.0 / 3.0 + 0.5)).abs() < 1e-12);
    // Member 5 trusts then blocks reviewer 1, member 6 trusts it: one
    // truster, one blocker, n = 0, so both reviewers weigh 0.2.
    let edges = [(5, 1, true), (6, 1, true), (5, 1, false)];
    let (value, _) = epinions_oracle(&[at(1.0, 1, 0), at(0.0, 2, 0)], &edges);
    assert!((value - 0.5).abs() < 1e-12);
    // Two complaints in three reports, one filed by the subject itself.
    let (value, _) = complaints_oracle(&[at(0.1, SUBJECT, 0), at(0.2, 1, 0), at(0.9, 2, 0)]);
    assert!((value - (0.5 + (1.0 / 3.0 - 0.5) / 1.1)).abs() < 1e-12);
}
