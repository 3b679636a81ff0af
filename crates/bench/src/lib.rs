//! # wsrep-bench — experiment drivers
//!
//! One binary per figure/claim of the paper (see DESIGN.md §4 for the
//! index). This library holds the shared experiment plumbing; run the
//! binaries with e.g.
//! `cargo run --release -p wsrep-bench --bin exp_fig2`.

use wsrep_core::feedback::Feedback;
use wsrep_core::id::ServiceId;
use wsrep_core::store::FeedbackStore;
use wsrep_qos::metric::Metric;
use wsrep_qos::normalize::NormalizationMatrix;
use wsrep_qos::value::QosVector;
use wsrep_sim::monitor::SensorFleet;
use wsrep_sim::world::World;
use wsrep_sim::WorldConfig;

/// The market size shared by most experiments.
pub fn base_config(seed: u64) -> WorldConfig {
    let mut cfg = WorldConfig::small(seed);
    cfg.providers = 12;
    cfg.services_per_provider = 2;
    cfg.consumers = 40;
    cfg
}

/// Drive a *sensor monitoring* selection loop: every round a sensor fleet
/// probes every service (paying per probe), maintains measured means, and
/// every consumer picks the best measured service under its preferences.
/// Returns `(settled mean utility, total probe cost)`.
///
/// This is the "deploy a sensor per service" information source of
/// Figure 2 — accurate, but the cost accounting is the point.
pub fn run_monitored(mut world: World, rounds: u64, probe_cost: f64) -> (f64, f64) {
    let mut fleet = SensorFleet::new(probe_cost);
    let mut measured: std::collections::BTreeMap<ServiceId, QosVector> =
        std::collections::BTreeMap::new();
    let mut tail_utility = 0.0;
    let mut tail_n = 0u64;
    let tail_start = rounds - rounds / 4;
    for round in 0..rounds {
        // Probe everything.
        let services: Vec<(ServiceId, wsrep_qos::profile::QualityProfile)> = world
            .services()
            .map(|s| (s.id, s.quality.clone()))
            .collect();
        for (sid, quality) in &services {
            let obs = fleet.probe(world.rng(), *sid, quality);
            measured.entry(*sid).or_default().ema_update(&obs, 0.3);
        }
        // Consumers select on measured means.
        let ids: Vec<ServiceId> = measured.keys().copied().collect();
        let vectors: Vec<QosVector> = ids.iter().map(|s| measured[s].clone()).collect();
        let mut metrics: Vec<Metric> = vectors.iter().flat_map(|v| v.metrics()).collect();
        metrics.sort();
        metrics.dedup();
        let matrix = NormalizationMatrix::new(&vectors, &metrics);
        for consumer in world.consumers.clone() {
            if let Some(best) = matrix.best(&consumer.prefs) {
                let chosen = ids[best];
                let u = world.expected_utility(&consumer, chosen);
                if round >= tail_start {
                    tail_utility += u;
                    tail_n += 1;
                }
            }
        }
        world.step();
    }
    let settled = if tail_n > 0 {
        tail_utility / tail_n as f64
    } else {
        0.0
    };
    (settled, fleet.stats().cost)
}

/// Run `rounds` rounds of *random* interactions over a world, filing all
/// feedback into a store — the raw material for the defense experiments.
pub fn collect_feedback(world: &mut World, rounds: u64) -> FeedbackStore {
    let mut store = FeedbackStore::new();
    let services: Vec<ServiceId> = world.services().map(|s| s.id).collect();
    for _ in 0..rounds {
        for idx in 0..world.consumers.len() {
            let pick = services[rand::Rng::gen_range(world.rng(), 0..services.len())];
            if let Some((_, fb)) = world.invoke_and_report(idx, pick) {
                store.push(fb);
            }
        }
        world.step();
    }
    store
}

/// Ground-truth ranking check: does `estimate_of` rank the oracle-best
/// service above the oracle-worst one? Uses uniform preferences so the
/// answer is about the feedback, not personalization.
pub fn ranks_best_over_worst<F>(world: &World, estimate_of: F) -> Option<bool>
where
    F: Fn(ServiceId) -> Option<f64>,
{
    let prefs = wsrep_qos::preference::Preferences::uniform(world.metrics().to_vec());
    let mut ranked: Vec<(ServiceId, f64)> = world
        .services()
        .map(|s| (s.id, prefs.utility_raw(&s.quality.means(), world.bounds())))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let best = ranked.first()?.0;
    let worst = ranked.last()?.0;
    Some(estimate_of(best)? > estimate_of(worst)?)
}

/// Mean score error of an estimator against ground-truth utilities over
/// all services, under uniform preferences.
pub fn estimate_error<F>(world: &World, estimate_of: F) -> Option<f64>
where
    F: Fn(ServiceId) -> Option<f64>,
{
    let prefs = wsrep_qos::preference::Preferences::uniform(world.metrics().to_vec());
    let mut err = 0.0;
    let mut n = 0usize;
    for s in world.services() {
        let truth = prefs.utility_raw(&s.quality.means(), world.bounds());
        if let Some(est) = estimate_of(s.id) {
            err += (est - truth).abs();
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(err / n as f64)
    }
}

/// Tiny helper: all feedback in a store replayed into a mechanism.
pub fn replay(store: &FeedbackStore, mechanism: &mut dyn wsrep_core::ReputationMechanism) {
    for fb in store.iter() {
        mechanism.submit(fb);
    }
}

/// Replay only QoS-bearing observations as a vector of feedback (used by
/// the decentralized registry experiments).
pub fn qos_reports(store: &FeedbackStore) -> Vec<Feedback> {
    store
        .iter()
        .filter(|f| !f.observed.is_empty())
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrep_core::mechanisms::beta::BetaMechanism;
    use wsrep_core::ReputationMechanism;
    use wsrep_sim::world::World;

    #[test]
    fn monitored_run_is_accurate_but_costly() {
        let world = World::generate(base_config(5));
        let n_services = world.services().count() as f64;
        let (settled, cost) = run_monitored(world, 20, 1.0);
        assert!(settled > 0.6, "monitoring finds good services: {settled}");
        assert!((cost - 20.0 * n_services).abs() < 1e-9);
    }

    #[test]
    fn collected_feedback_is_nonempty_and_replayable() {
        let mut world = World::generate(base_config(6));
        let store = collect_feedback(&mut world, 5);
        assert!(store.len() > 100);
        let mut beta = BetaMechanism::new();
        replay(&store, &mut beta);
        assert_eq!(beta.feedback_count(), store.len());
    }

    #[test]
    fn honest_feedback_ranks_best_over_worst() {
        let mut world = World::generate(base_config(7));
        let store = collect_feedback(&mut world, 10);
        let mut beta = BetaMechanism::new();
        replay(&store, &mut beta);
        let ok = ranks_best_over_worst(&world, |s| beta.global(s.into()).map(|e| e.value.get()))
            .unwrap();
        assert!(ok);
    }

    #[test]
    fn estimate_error_is_finite_and_bounded() {
        let mut world = World::generate(base_config(8));
        let store = collect_feedback(&mut world, 10);
        let mut beta = BetaMechanism::new();
        replay(&store, &mut beta);
        let err = estimate_error(&world, |s| beta.global(s.into()).map(|e| e.value.get())).unwrap();
        assert!((0.0..=1.0).contains(&err));
    }

    #[test]
    fn qos_reports_filter_bare_scores() {
        let mut world = World::generate(base_config(9));
        let store = collect_feedback(&mut world, 2);
        let reports = qos_reports(&store);
        assert_eq!(reports.len(), store.len(), "honest reports carry QoS");
    }
}
