//! Per-port outgoing message queues.
//!
//! Both models allow only *one* message per edge per round. Protocols that
//! may owe several messages to the same neighbour in the same round (e.g. a
//! wave forward plus an echo, in the Least-El election) queue them here and
//! drain one per port per round; [`PortOutbox::flush`] also keeps the node
//! scheduled while messages remain.

use crate::message::Message;
use crate::protocol::Context;
use std::collections::VecDeque;
use ule_graph::Port;

/// A per-port FIFO of outgoing messages.
#[derive(Debug, Clone)]
pub struct PortOutbox<M> {
    queues: Vec<VecDeque<M>>,
}

impl<M: Message> PortOutbox<M> {
    /// An outbox for a node with `degree` ports.
    pub fn new(degree: usize) -> Self {
        PortOutbox {
            queues: vec![VecDeque::new(); degree],
        }
    }

    /// Queues `msg` for transmission on `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn push(&mut self, port: Port, msg: M) {
        self.queues[port].push_back(msg);
    }

    /// Queues a copy of `msg` on every port.
    pub fn push_all(&mut self, msg: M) {
        for q in &mut self.queues {
            q.push_back(msg.clone());
        }
    }

    /// Queues a copy of `msg` on every port except `skip`.
    pub fn push_except(&mut self, skip: Port, msg: M) {
        for (p, q) in self.queues.iter_mut().enumerate() {
            if p != skip {
                q.push_back(msg.clone());
            }
        }
    }

    /// Pops the next queued message for `port` without sending it.
    ///
    /// Protocols normally just [`PortOutbox::flush`]; popping is for
    /// wrappers that re-route or tag messages before sending.
    pub fn pop(&mut self, port: Port) -> Option<M> {
        self.queues[port].pop_front()
    }

    /// Whether all queues are empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Total queued messages.
    pub fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Sends at most one queued message per port and, if anything remains
    /// queued, schedules the node for the next round.
    ///
    /// Call exactly once at the end of
    /// [`crate::Protocol::on_round`]; all of the protocol's sends should go
    /// through the outbox so the one-per-port rule cannot be violated.
    pub fn flush(&mut self, ctx: &mut Context<'_, M>) {
        for (port, q) in self.queues.iter_mut().enumerate() {
            if let Some(msg) = q.pop_front() {
                ctx.send(port, msg);
            }
        }
        if !self.is_empty() {
            ctx.wake_next();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Signal;
    use crate::protocol::{Knowledge, NodeRng, NodeSetup};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fifo_per_port() {
        let mut ob: PortOutbox<Signal> = PortOutbox::new(2);
        assert!(ob.is_empty());
        ob.push(0, Signal);
        ob.push(0, Signal);
        ob.push(1, Signal);
        assert_eq!(ob.len(), 3);
        assert!(!ob.is_empty());
    }

    #[test]
    fn flush_sends_one_per_port_and_reschedules() {
        let setup = NodeSetup {
            degree: 2,
            id: None,
            knowledge: Knowledge::NONE,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut sent = vec![false; 2];
        let mut wake = None;
        let mut ctx = Context {
            round: 0,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        let mut ob: PortOutbox<Signal> = PortOutbox::new(2);
        ob.push(0, Signal);
        ob.push(0, Signal);
        ob.push(1, Signal);
        ob.flush(&mut ctx);
        assert_eq!(outbox.len(), 2);
        assert_eq!(wake, Some(1), "one message left → reschedule");
    }

    #[test]
    fn push_all_and_except() {
        let mut ob: PortOutbox<Signal> = PortOutbox::new(3);
        ob.push_all(Signal);
        assert_eq!(ob.len(), 3);
        ob.push_except(1, Signal);
        assert_eq!(ob.len(), 5);
    }
}
