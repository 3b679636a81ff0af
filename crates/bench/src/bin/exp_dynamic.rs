//! Experiment E8 — Section 3's *dynamic* property of trust.
//!
//! "Trust and reputation can increase or decrease with further
//! experiences. They also decay with time. New experiences are more
//! important than old ones." Two measurements:
//!
//! 1. tracking error of decay models against an oscillating / degrading
//!    provider's true quality (per-sample estimator comparison);
//! 2. market-level: the beta mechanism's forgetting factor swept over a
//!    dynamic market — too little forgetting chases stale reputations,
//!    too much throws evidence away.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsrep_bench::base_config;
use wsrep_core::decay::DecayModel;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::time::Time;
use wsrep_qos::metric::Metric;
use wsrep_qos::profile::QualityProfile;
use wsrep_select::eval::{Market, MarketConfig};
use wsrep_select::report::{f3, section, wrap, Table};
use wsrep_select::strategy::ReputationSelect;
use wsrep_sim::provider::{metric_range, Behavior, Provider};
use wsrep_sim::world::World;

/// Track one service whose quality follows `behavior`; return the mean
/// absolute error of each decay model's running estimate vs truth.
fn tracking_error(behavior: Behavior, decay: DecayModel, seed: u64) -> f64 {
    let provider = Provider {
        id: wsrep_core::ProviderId::new(0),
        services: vec![],
        behavior,
        exaggeration: 0.0,
    };
    let mut quality = QualityProfile::from_triples([(Metric::ResponseTime, 300.0, 10.0)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let (lo, hi) = metric_range(Metric::ResponseTime);
    let mut samples: Vec<(f64, Time)> = Vec::new();
    let mut err = 0.0;
    let mut n = 0usize;
    for t in 0..200u64 {
        provider.step_quality(&mut quality, Time::new(t));
        let obs = quality.sample(&mut rng);
        let score = wsrep_qos::normalize::normalize_one(
            obs.get(Metric::ResponseTime).unwrap(),
            lo,
            hi,
            Metric::ResponseTime.monotonicity(),
        );
        samples.push((score, Time::new(t)));
        let truth = wsrep_qos::normalize::normalize_one(
            quality.means().get(Metric::ResponseTime).unwrap(),
            lo,
            hi,
            Metric::ResponseTime.monotonicity(),
        );
        if let Some(est) = decay.weighted_mean(samples.iter().copied(), Time::new(t)) {
            if t >= 20 {
                err += (est - truth).abs();
                n += 1;
            }
        }
    }
    err / n.max(1) as f64
}

fn main() {
    println!("# E8 — dynamic trust: decay and forgetting");

    section("tracking error vs provider dynamics (mean |estimate - truth|, rounds 20-200)");
    let mut t = Table::new(["decay model", "oscillating provider", "degrading provider"]);
    let osc = Behavior::Oscillating {
        period: 40,
        amplitude: 0.03,
    };
    let deg = Behavior::Degrading { rate: 0.01 };
    let mut tracking = Vec::new();
    for (label, decay) in [
        ("none (uniform mean)", DecayModel::None),
        ("window 20", DecayModel::Window { window: 20 }),
        (
            "exponential hl=10",
            DecayModel::Exponential { half_life: 10 },
        ),
        (
            "exponential hl=50",
            DecayModel::Exponential { half_life: 50 },
        ),
    ] {
        let e_osc = (0..5).map(|s| tracking_error(osc, decay, s)).sum::<f64>() / 5.0;
        let e_deg = (0..5).map(|s| tracking_error(deg, decay, s)).sum::<f64>() / 5.0;
        t.row([label.to_string(), f3(e_osc), f3(e_deg)]);
        tracking.push((label, e_osc, e_deg));
    }
    print!("{}", t.render());

    section("market utility vs beta forgetting factor (100% dynamic providers, 80 rounds)");
    let mut t = Table::new(["forgetting factor", "settled utility", "mean regret"]);
    let mut sweep = Vec::new();
    for lambda in [1.0, 0.99, 0.95, 0.85, 0.6] {
        let seeds = [3u64, 11, 29];
        let mut u = 0.0;
        let mut r = 0.0;
        for &seed in &seeds {
            let mut cfg = base_config(seed);
            cfg.preference_heterogeneity = 0.0;
            cfg.dynamic_fraction = 1.0;
            let world = World::generate(cfg);
            let mut strat = ReputationSelect::new(Box::new(BetaMechanism::with_forgetting(lambda)));
            let report = Market::new(world, MarketConfig::new(80, seed)).run(&mut strat);
            u += report.settled_utility;
            r += report.mean_regret;
        }
        let (u, r) = (u / seeds.len() as f64, r / seeds.len() as f64);
        t.row([format!("{lambda}"), f3(u), f3(r)]);
        sweep.push((lambda, u, r));
    }
    print!("{}", t.render());

    section("design-time vs run-time selection in a dynamic market (Section 3.1 Q1)");
    let mut t = Table::new(["selector", "settled utility", "mean regret"]);
    let (run_time, design_time) = {
        use wsrep_select::strategy::DesignTimeSelect;
        let seeds = [5u64, 13, 37];
        let mut run_time = (0.0, 0.0);
        let mut design_time = (0.0, 0.0);
        for &seed in &seeds {
            let mut cfg = base_config(seed);
            cfg.preference_heterogeneity = 0.0;
            cfg.dynamic_fraction = 1.0;
            // Run-time: reselected every invocation.
            let mut live = ReputationSelect::new(Box::new(BetaMechanism::with_forgetting(0.95)));
            let r = Market::new(World::generate(cfg.clone()), MarketConfig::new(80, seed))
                .run(&mut live);
            run_time.0 += r.settled_utility;
            run_time.1 += r.mean_regret;
            // Design-time: the developer picks once and hard-codes it.
            let mut frozen = DesignTimeSelect::new(ReputationSelect::new(Box::new(
                BetaMechanism::with_forgetting(0.95),
            )));
            let d = Market::new(World::generate(cfg), MarketConfig::new(80, seed)).run(&mut frozen);
            design_time.0 += d.settled_utility;
            design_time.1 += d.mean_regret;
        }
        let n = seeds.len() as f64;
        t.row([
            "run-time (automatic reselection)".to_string(),
            f3(run_time.0 / n),
            f3(run_time.1 / n),
        ]);
        t.row([
            "design-time (choice frozen at first use)".to_string(),
            f3(design_time.0 / n),
            f3(design_time.1 / n),
        ]);
        (run_time.0 / n, design_time.0 / n)
    };
    print!("{}", t.render());

    let uniform = tracking[0];
    let least = |error: fn(&(&str, f64, f64)) -> f64| {
        *tracking
            .iter()
            .min_by(|x, y| error(x).total_cmp(&error(y)))
            .expect("decay models were tracked")
    };
    let (osc_best, deg_best) = (least(|m| m.1), least(|m| m.2));
    let (first, last) = (sweep[0], sweep[sweep.len() - 1]);
    let best = *sweep
        .iter()
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("factors were swept");
    let sweep_reading = if sweep.iter().all(|m| f3(m.1) == f3(first.1)) {
        format!(
            "The market sweep is flat: every forgetting factor settles at {}, \
             and only the mean regret moves, from {} at {} to {} at {}",
            f3(first.1),
            f3(first.2),
            first.0,
            f3(last.2),
            last.0
        )
    } else {
        format!(
            "In the market sweep forgetting factor {} settles highest ({}), \
             against {} at {} and {} at {}",
            best.0,
            f3(best.1),
            f3(first.1),
            first.0,
            f3(last.1),
            last.0
        )
    };
    let frozen_reading = if design_time < run_time {
        "forfeits the adaptation a dynamic market demands, which is the \
         survey's motivation for automatic run-time selection"
    } else {
        "loses nothing in this market, so it does not bear out the \
         survey's motivation for automatic run-time selection"
    };
    println!(
        "\n{}",
        wrap(&format!(
            "Reading: on the oscillating provider the uniform mean errs {} \
            against {} for {}, the closest tracker there; on the degrading one \
            it errs {}, {:.1}x the {} of {} (Section 3's \"new experiences are \
            more important\"). {sweep_reading}. Freezing the choice at \
            design time, the paper's description of current practice, settles \
            at {} against {} for run-time reselection: it {frozen_reading}.",
            f3(uniform.1),
            f3(osc_best.1),
            osc_best.0,
            f3(uniform.2),
            uniform.2 / deg_best.2,
            f3(deg_best.2),
            deg_best.0,
            f3(design_time),
            f3(run_time),
        ))
    );
}
