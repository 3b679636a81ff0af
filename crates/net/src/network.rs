//! The simulated message-passing network.
//!
//! A deliberately small transport: nodes are [`AgentId`]s, messages carry a
//! generic payload plus a byte size for bandwidth accounting, delivery
//! takes a fixed latency in rounds and may be lost, and nodes can be failed
//! and recovered (the single-point-of-failure experiments flip exactly
//! that switch on a centralized registry node).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsrep_core::id::AgentId;
use wsrep_core::time::Time;

/// A message in flight or delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Envelope<P> {
    /// Sender node.
    pub from: AgentId,
    /// Destination node.
    pub to: AgentId,
    /// Application payload.
    pub payload: P,
    /// Accounted wire size in bytes.
    pub size: usize,
}

/// Cumulative transport statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered into an inbox.
    pub delivered: u64,
    /// Messages dropped (loss or dead destination).
    pub dropped: u64,
    /// Bytes handed to the network.
    pub bytes_sent: u64,
}

/// An in-process network simulator with latency, loss and failures.
#[derive(Debug)]
pub struct SimNetwork<P> {
    nodes: BTreeSet<AgentId>,
    down: BTreeSet<AgentId>,
    inboxes: BTreeMap<AgentId, VecDeque<Envelope<P>>>,
    /// Messages scheduled for delivery at a future round.
    in_flight: BTreeMap<Time, Vec<Envelope<P>>>,
    latency: u64,
    loss: f64,
    now: Time,
    rng: StdRng,
    stats: NetStats,
}

impl<P> SimNetwork<P> {
    /// A network with the given delivery latency (rounds), loss probability
    /// and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `\[0, 1\]`.
    pub fn new(latency: u64, loss: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        SimNetwork {
            nodes: BTreeSet::new(),
            down: BTreeSet::new(),
            inboxes: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            latency,
            loss,
            now: Time::ZERO,
            rng: StdRng::seed_from_u64(seed),
            stats: NetStats::default(),
        }
    }

    /// An ideal network: instant (next step), lossless.
    pub fn ideal(seed: u64) -> Self {
        Self::new(0, 0.0, seed)
    }

    /// Register a node (idempotent).
    pub fn add_node(&mut self, node: AgentId) {
        self.nodes.insert(node);
        self.inboxes.entry(node).or_default();
    }

    /// Whether a node is currently alive.
    pub(crate) fn is_alive(&self, node: AgentId) -> bool {
        self.nodes.contains(&node) && !self.down.contains(&node)
    }

    /// Fail a node: it stops receiving; queued inbox content is lost.
    pub fn fail(&mut self, node: AgentId) {
        self.down.insert(node);
        if let Some(inbox) = self.inboxes.get_mut(&node) {
            inbox.clear();
        }
    }

    /// Recover a failed node.
    pub fn recover(&mut self, node: AgentId) {
        self.down.remove(&node);
    }

    /// Transport statistics so far.
    pub(crate) fn stats(&self) -> NetStats {
        self.stats
    }

    /// Send a message; it will arrive after the configured latency unless
    /// lost. Sending from or to a dead/unknown node drops immediately.
    pub(crate) fn send(&mut self, from: AgentId, to: AgentId, payload: P, size: usize) {
        self.stats.sent += 1;
        self.stats.bytes_sent += size as u64;
        if !self.is_alive(from) || !self.nodes.contains(&to) {
            self.stats.dropped += 1;
            return;
        }
        if self.loss > 0.0 && self.rng.gen::<f64>() < self.loss {
            self.stats.dropped += 1;
            return;
        }
        let due = self.now + self.latency;
        self.in_flight.entry(due).or_default().push(Envelope {
            from,
            to,
            payload,
            size,
        });
    }

    /// Advance one round, delivering everything due. Returns the number of
    /// messages delivered this step.
    pub(crate) fn step(&mut self) -> usize {
        let due: Vec<Time> = self
            .in_flight
            .keys()
            .copied()
            .filter(|&t| t <= self.now)
            .collect();
        let mut delivered = 0;
        for t in due {
            for env in self.in_flight.remove(&t).unwrap_or_default() {
                if self.is_alive(env.to) {
                    self.inboxes.entry(env.to).or_default().push_back(env);
                    self.stats.delivered += 1;
                    delivered += 1;
                } else {
                    self.stats.dropped += 1;
                }
            }
        }
        self.now += 1;
        delivered
    }

    /// Run steps until no message is in flight (or `max_steps` elapse).
    pub(crate) fn settle(&mut self, max_steps: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_steps {
            total += self.step();
            if self.in_flight.is_empty() {
                break;
            }
        }
        total
    }

    /// Drain a node's inbox.
    pub(crate) fn drain_inbox(&mut self, node: AgentId) -> Vec<Envelope<P>> {
        self.inboxes
            .get_mut(&node)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbox_len(n: &SimNetwork<String>, node: AgentId) -> usize {
        n.inboxes.get(&node).map_or(0, VecDeque::len)
    }

    fn a(i: u64) -> AgentId {
        AgentId::new(i)
    }

    fn net(latency: u64, loss: f64) -> SimNetwork<String> {
        let mut n = SimNetwork::new(latency, loss, 42);
        for i in 0..4 {
            n.add_node(a(i));
        }
        n
    }

    #[test]
    fn messages_arrive_after_latency() {
        let mut n = net(2, 0.0);
        n.send(a(0), a(1), "hi".into(), 2);
        assert_eq!(n.step(), 0); // t0: not due (due at t2)
        assert_eq!(n.step(), 0); // t1
        assert_eq!(n.step(), 1); // t2: delivered
        let inbox = n.drain_inbox(a(1));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].payload, "hi");
    }

    #[test]
    fn ideal_network_delivers_next_step() {
        let mut n: SimNetwork<u32> = SimNetwork::ideal(1);
        n.add_node(a(0));
        n.add_node(a(1));
        n.send(a(0), a(1), 7, 4);
        assert_eq!(n.step(), 1);
        assert_eq!(n.drain_inbox(a(1))[0].payload, 7);
    }

    #[test]
    fn lossy_network_drops_some_messages() {
        let mut n = net(0, 0.5);
        for _ in 0..200 {
            n.send(a(0), a(1), "x".into(), 1);
        }
        n.settle(10);
        let s = n.stats();
        assert_eq!(s.sent, 200);
        assert!(s.dropped > 50 && s.dropped < 150, "dropped={}", s.dropped);
        assert_eq!(s.delivered + s.dropped, 200);
    }

    #[test]
    fn failed_node_loses_messages_and_inbox() {
        let mut n = net(1, 0.0);
        n.send(a(0), a(1), "early".into(), 1);
        n.step();
        n.step();
        assert_eq!(inbox_len(&n, a(1)), 1);
        n.fail(a(1));
        assert_eq!(inbox_len(&n, a(1)), 0, "inbox cleared on failure");
        n.send(a(0), a(1), "late".into(), 1);
        n.settle(5);
        assert_eq!(inbox_len(&n, a(1)), 0);
        assert!(!n.is_alive(a(1)));
        n.recover(a(1));
        n.send(a(0), a(1), "after".into(), 1);
        n.settle(5);
        assert_eq!(inbox_len(&n, a(1)), 1);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let mut n = net(0, 0.0);
        n.fail(a(0));
        n.send(a(0), a(1), "x".into(), 1);
        n.settle(3);
        assert_eq!(n.stats().dropped, 1);
    }

    #[test]
    fn byte_accounting_sums_sizes() {
        let mut n = net(0, 0.0);
        n.send(a(0), a(1), "x".into(), 10);
        n.send(a(1), a(2), "y".into(), 32);
        assert_eq!(n.stats().bytes_sent, 42);
    }

    #[test]
    fn settle_stops_when_quiet() {
        let mut n = net(1, 0.0);
        n.send(a(0), a(1), "x".into(), 1);
        let delivered = n.settle(100);
        assert_eq!(delivered, 1);
        assert!(n.now.round() < 100, "stopped early once drained");
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn invalid_loss_panics() {
        let _: SimNetwork<u8> = SimNetwork::new(0, 1.5, 0);
    }
}
