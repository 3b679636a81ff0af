//! Experiment F2 — Figure 2: the information-source comparison.
//!
//! Section 2 of the paper walks through the sources a selection system can
//! use — provider-advertised QoS (gameable), SLAs (bounded loss at
//! negotiation cost), monitoring sensors (accurate but "very costly since
//! each web service needs a sensor"), and consumer feedback (the trust &
//! reputation route: nearly as accurate, a fraction of the cost, and it
//! captures aspects monitoring cannot).
//!
//! Design: a market where half the providers exaggerate their claims
//! fully. Each information source drives selection for 60 rounds; we
//! report settled utility and the explicit cost ledger.

use wsrep_bench::{base_config, run_monitored};
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::mechanisms::lnz::LnzMechanism;
use wsrep_select::eval::{Market, MarketConfig};
use wsrep_select::report::{f3, section, wrap, Table};
use wsrep_select::strategy::{AdvertisedQos, RandomSelect, ReputationSelect, SlaSelect};
use wsrep_sim::world::World;

fn config(seed: u64) -> wsrep_sim::WorldConfig {
    let mut cfg = base_config(seed);
    cfg.preference_heterogeneity = 0.0;
    cfg.exaggerating_fraction = 0.5;
    cfg.exaggeration_amount = 1.0;
    cfg
}

fn main() {
    println!("# F2 — Figure 2: information sources for web-service selection");
    const ROUNDS: u64 = 60;
    const SEED: u64 = 7;
    let probe_cost = 1.0;

    section("settled utility and cost per information source (50% of providers exaggerate fully)");
    let mut t = Table::new([
        "information source",
        "settled utility",
        "mean regret",
        "cost units",
        "cost notes",
    ]);

    // Blind choice.
    let mut random = RandomSelect;
    let r = Market::new(
        World::generate(config(SEED)),
        MarketConfig::new(ROUNDS, SEED),
    )
    .run(&mut random);
    t.row([
        "random (blind)",
        &f3(r.settled_utility),
        &f3(r.mean_regret),
        "0",
        "-",
    ]);

    // Provider-advertised QoS.
    let mut adv = AdvertisedQos;
    let a = Market::new(
        World::generate(config(SEED)),
        MarketConfig::new(ROUNDS, SEED),
    )
    .run(&mut adv);
    t.row([
        "advertised QoS",
        &f3(a.settled_utility),
        &f3(a.mean_regret),
        "0",
        "free but gameable",
    ]);

    // SLA-backed.
    let mut sla = SlaSelect::new();
    let s = Market::new(
        World::generate(config(SEED)),
        MarketConfig::new(ROUNDS, SEED),
    )
    .run_sla(&mut sla);
    t.row([
        "SLA (blacklist on violations)",
        &f3(s.settled_utility),
        &f3(s.mean_regret),
        &f3(s.negotiation_paid),
        &format!("penalties recovered {}", f3(s.penalties_collected)),
    ]);

    // Monitoring sensors.
    let (monitored, probe_total) = run_monitored(World::generate(config(SEED)), ROUNDS, probe_cost);
    t.row([
        "sensors (probe every service)",
        &f3(monitored),
        "-",
        &f3(probe_total),
        "one probe x service x round",
    ]);

    // Consumer feedback → beta reputation.
    let mut beta = ReputationSelect::new(Box::new(BetaMechanism::new()));
    let b = Market::new(
        World::generate(config(SEED)),
        MarketConfig::new(ROUNDS, SEED),
    )
    .run(&mut beta);
    t.row([
        "consumer feedback (beta reputation)",
        &f3(b.settled_utility),
        &f3(b.mean_regret),
        "0",
        "piggybacks on real use",
    ]);

    // Consumer feedback → LNZ QoS registry.
    let mut lnz = ReputationSelect::new(Box::new(LnzMechanism::new()));
    let l = Market::new(
        World::generate(config(SEED)),
        MarketConfig::new(ROUNDS, SEED),
    )
    .run(&mut lnz);
    t.row([
        "consumer feedback (LNZ QoS registry)",
        &f3(l.settled_utility),
        &f3(l.mean_regret),
        "0",
        "piggybacks on real use",
    ]);

    print!("{}", t.render());

    let feedback = b.settled_utility.max(l.settled_utility);
    let over = |x: f64, y: f64| if x > y { "beats" } else { "trails" };
    let sla_reading = if s.settled_utility > a.settled_utility {
        "so SLAs recover part of what exaggeration costs, at negotiation cost, \
         as Section 2 of the paper argues"
    } else {
        "so here SLAs do not recover what exaggeration costs, against \
         Section 2 of the paper"
    };
    println!(
        "\n{}",
        wrap(&format!(
            "Reading: consumer feedback reaches {:.0}% of the sensors' selection \
            quality ({} vs {}) at zero probing cost. Advertised QoS {} blind \
            choice ({} vs {}) with half the providers exaggerating, and the SLA \
            selector {} advertised QoS ({} vs {}) after {} units of negotiation, \
            {sla_reading}.",
            100.0 * feedback / monitored,
            f3(feedback),
            f3(monitored),
            over(a.settled_utility, r.settled_utility),
            f3(a.settled_utility),
            f3(r.settled_utility),
            over(s.settled_utility, a.settled_utility),
            f3(s.settled_utility),
            f3(a.settled_utility),
            f3(s.negotiation_paid),
        ))
    );
}
