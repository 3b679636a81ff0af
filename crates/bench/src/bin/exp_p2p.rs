//! Experiment E7 — Section 5, direction 1: decentralized trust for
//! P2P web services.
//!
//! "Various peer to peer based web service techniques have been proposed,
//! which require decentralized mechanisms for trust and reputation." We
//! run the decentralized machinery on simulated overlays and measure what
//! the survey says matters: whether decentralized selection quality
//! approaches the centralized reference, and at what communication cost —
//! including under churn, the condition that breaks the UDDI model.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use wsrep_bench::{base_config, collect_feedback, qos_reports, ranks_best_over_worst};
use wsrep_core::feedback::Feedback;
use wsrep_core::id::AgentId;
use wsrep_core::mechanisms::beta::BetaMechanism;
use wsrep_core::mechanisms::eigentrust::EigenTrustMechanism;
use wsrep_core::time::Time;
use wsrep_core::ReputationMechanism;
use wsrep_net::churn::ChurnModel;
use wsrep_net::overlay::flood::flood;
use wsrep_net::overlay::gossip::gossip;
use wsrep_net::overlay::graph::NeighborGraph;
use wsrep_net::protocols::eigentrust_dist::DistributedEigenTrust;
use wsrep_net::protocols::pgrid_rep::PGridQosRegistry;
use wsrep_net::SimNetwork;
use wsrep_select::report::{f3, pct, section, Table};
use wsrep_sim::world::World;

fn main() {
    println!("# E7 — decentralized trust and reputation for P2P web services");
    const SEED: u64 = 19;

    // Shared raw material: one market's worth of feedback.
    let mut world = World::generate(base_config(SEED));
    let store = collect_feedback(&mut world, 12);

    // ---------------------------------------------------------------
    section("selection quality: decentralized P-Grid registries vs centralized reference");
    let mut central = BetaMechanism::new();
    for fb in store.iter() {
        central.submit(fb);
    }
    let central_ok =
        ranks_best_over_worst(&world, |s| central.global(s.into()).map(|e| e.value.get())).unwrap();

    let registry_peers: Vec<AgentId> = (500..516).map(AgentId::new).collect();
    let mut pgrid = PGridQosRegistry::new(&registry_peers);
    for fb in qos_reports(&store) {
        pgrid.submit_report(&fb);
    }
    let submit_messages = pgrid.messages();
    let mut pgrid_estimates: BTreeMap<wsrep_core::ServiceId, f64> = BTreeMap::new();
    for s in world.services() {
        let (est, _) = pgrid.query(AgentId::new(1), s.id, None);
        if let Some(e) = est {
            pgrid_estimates.insert(s.id, e.value.get());
        }
    }
    let pgrid_ok = ranks_best_over_worst(&world, |s| pgrid_estimates.get(&s).copied()).unwrap();

    let mut t = Table::new(["architecture", "best>worst kept", "messages", "per report"]);
    t.row([
        "centralized beta registry".to_string(),
        format!("{central_ok}"),
        format!("{}", 2 * store.len()),
        f3(2.0),
    ]);
    t.row([
        "P-Grid QoS registries (16)".to_string(),
        format!("{pgrid_ok}"),
        format!("{}", pgrid.messages()),
        f3(submit_messages as f64 / store.len() as f64),
    ]);
    print!("{}", t.render());

    // Responsibility sharing: how the stored reports spread over peers.
    let mut load: Vec<usize> = pgrid.load().into_iter().map(|(_, n)| n).collect();
    load.sort_unstable();
    let total: usize = load.iter().sum();
    println!(
        "\nstorage balance over the 16 registries: min {} / median {} / max {} of {} reports \
         (\"each registry is responsible for … a part of service providers\")",
        load.first().copied().unwrap_or(0),
        load.get(load.len() / 2).copied().unwrap_or(0),
        load.last().copied().unwrap_or(0),
        total
    );

    // ---------------------------------------------------------------
    section("distributed EigenTrust under churn (peers rating peers)");
    let mut table = Table::new([
        "churn (offline fraction)",
        "bad peer ranked last",
        "rounds",
        "messages",
    ]);
    for churn_level in [0.0, 0.1, 0.2] {
        // 24 peers: 20 good (praise each other), 4 bad.
        let mut rows: BTreeMap<AgentId, BTreeMap<AgentId, f64>> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(SEED + (churn_level * 100.0) as u64);
        for i in 0..20u64 {
            let mut row = BTreeMap::new();
            for j in 0..20u64 {
                if i != j && rng.gen::<f64>() < 0.4 {
                    row.insert(AgentId::new(j), 1.0);
                }
            }
            let total: f64 = row.values().sum();
            if total > 0.0 {
                for v in row.values_mut() {
                    *v /= total;
                }
            }
            rows.insert(AgentId::new(i), row);
        }
        for b in 20..24u64 {
            rows.insert(AgentId::new(b), BTreeMap::new());
        }
        let det = DistributedEigenTrust::new(rows, vec![AgentId::new(0)], 0.15);
        let mut net = SimNetwork::ideal(SEED);
        for p in det.peers() {
            net.add_node(p);
        }
        // Knock a churn_level fraction of the good peers offline.
        let mut churn = ChurnModel::new(churn_level, 0.0);
        let population: Vec<AgentId> = (1..20).map(AgentId::new).collect();
        churn.step(&mut rng, &population);
        for p in churn.offline() {
            net.fail(p);
        }
        let out = det.run(&mut net);
        let bad_max = (20..24u64)
            .filter_map(|b| out.trust.get(&AgentId::new(b)))
            .fold(0.0f64, |a, &b| a.max(b));
        let good_min = out
            .trust
            .iter()
            .filter(|(p, _)| p.raw() < 20)
            .map(|(_, &v)| v)
            .fold(f64::INFINITY, f64::min);
        table.row([
            pct(churn_level),
            format!("{}", good_min >= bad_max),
            format!("{}", out.rounds),
            format!("{}", out.messages),
        ]);
    }
    print!("{}", table.render());

    // ---------------------------------------------------------------
    section("EigenTrust power iteration vs network size and pre-trust mass a");
    let mut t = Table::new(["peers", "pre-trust mass a", "iterations to converge"]);
    for (n, alpha) in [
        (50, 0.15),
        (100, 0.15),
        (200, 0.15),
        (100, 0.05),
        (100, 0.5),
    ] {
        t.row([
            format!("{n}"),
            format!("{alpha}"),
            format!("{}", seeded_network(n, alpha).iterations_to_converge()),
        ]);
    }
    print!("{}", t.render());

    // ---------------------------------------------------------------
    section("unstructured dissemination cost (XRep flooding, gossip)");
    let mut rng = StdRng::seed_from_u64(SEED);
    let nodes: Vec<AgentId> = (0..100).map(AgentId::new).collect();
    let graph = NeighborGraph::random_connected(&mut rng, &nodes, 2);
    let mut t = Table::new(["primitive", "coverage", "messages", "rounds"]);
    for ttl in [2usize, 4, 6] {
        let out = flood(&graph, AgentId::new(0), ttl);
        t.row([
            format!("flood ttl={ttl}"),
            pct(out.reached.len() as f64 / 99.0),
            format!("{}", out.messages),
            format!("{ttl}"),
        ]);
    }
    let g = gossip(&mut rng, &graph, AgentId::new(0), 3, 100);
    t.row([
        "gossip fanout=3".to_string(),
        pct(g.informed.len() as f64 / 100.0),
        format!("{}", g.messages),
        format!("{}", g.rounds),
    ]);
    print!("{}", t.render());

    println!(
        "\nReading: decentralized reputation reaches the same best/worst\n\
         discrimination as the centralized registry; the price is routing\n\
         hops (P-Grid), per-round trust-share traffic (EigenTrust) or\n\
         flooding duplicates (XRep) — and moderate churn does not break\n\
         the rankings, which is the survey's case for P2P web services."
    );
}

/// `n` peers, one of them pre-trusted, each rating 8 random others (80%
/// good); the network depends on `n` alone, so an `a` sweep at one size
/// iterates over the same ratings.
fn seeded_network(n: u64, alpha: f64) -> EigenTrustMechanism {
    let mut m = EigenTrustMechanism::with_params(alpha, 1e-9, 500);
    m.pre_trust(AgentId::new(0));
    let mut rng = StdRng::seed_from_u64(n);
    for i in 0..n {
        for _ in 0..8 {
            let j = rng.gen_range(0..n);
            if i != j {
                m.submit(&Feedback::scored(
                    AgentId::new(i),
                    AgentId::new(j),
                    if rng.gen::<f64>() < 0.8 { 0.9 } else { 0.1 },
                    Time::ZERO,
                ));
            }
        }
    }
    m
}
