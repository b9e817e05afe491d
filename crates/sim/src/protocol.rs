//! The protocol interface: what a node is allowed to see and do.
//!
//! A [`Protocol`] instance runs at each node. Per the model (Section 2 of
//! the paper) a node sees only: its own identifier (if the network is not
//! anonymous), its degree and port numbers, whichever of `n`, `m`, `D` the
//! run grants as common knowledge, its private coin flips, and the messages
//! arriving on its ports. The [`Context`] enforces exactly this interface —
//! protocols never touch the graph or other nodes.

use crate::exec::node_rng;
use crate::message::Message;
use rand::rngs::StdRng;
use rand::Rng;
use ule_graph::{Id, NodeId, Port};

/// Election status of a node: the paper's `status_u ∈ {⊥, elected,
/// non-elected}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Status {
    /// `⊥` — not yet decided.
    #[default]
    Undecided,
    /// `elected` — this node is the leader.
    Leader,
    /// `non-elected`.
    NonLeader,
}

/// Which global parameters the nodes are told at start-up (the "Knowledge"
/// column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Knowledge {
    /// Number of nodes, if known.
    pub n: Option<usize>,
    /// Number of edges, if known.
    pub m: Option<usize>,
    /// Diameter, if known.
    pub diameter: Option<usize>,
}

impl Knowledge {
    /// Nothing is known.
    pub const NONE: Knowledge = Knowledge {
        n: None,
        m: None,
        diameter: None,
    };

    /// Only `n` is known.
    pub fn n(n: usize) -> Knowledge {
        Knowledge {
            n: Some(n),
            ..Knowledge::NONE
        }
    }

    /// `n` and `D` are known (Corollary 4.6's assumption).
    pub fn n_and_diameter(n: usize, d: usize) -> Knowledge {
        Knowledge {
            n: Some(n),
            m: None,
            diameter: Some(d),
        }
    }

    /// Everything is known (the lower bounds hold even here).
    pub fn full(n: usize, m: usize, d: usize) -> Knowledge {
        Knowledge {
            n: Some(n),
            m: Some(m),
            diameter: Some(d),
        }
    }
}

/// The per-node constants fixed before the execution starts.
#[derive(Debug, Clone)]
pub struct NodeSetup {
    /// Degree of the node (= number of ports).
    pub degree: usize,
    /// The node's unique identifier, or `None` in anonymous networks.
    pub id: Option<Id>,
    /// The common knowledge granted to every node.
    pub knowledge: Knowledge,
}

/// The view a node has of the world during one activation.
///
/// Obtained only inside [`Protocol::on_round`]. All sends are buffered and
/// delivered at the start of the next round (synchronous model).
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) round: u64,
    pub(crate) setup: &'a NodeSetup,
    pub(crate) first_activation: bool,
    pub(crate) rng: NodeRng<'a>,
    pub(crate) outbox: &'a mut Vec<(Port, M)>,
    pub(crate) sent_on: &'a mut [bool],
    pub(crate) wake: &'a mut Option<u64>,
}

/// A node's private RNG as its [`Context`] holds it: the stream itself, or
/// — on a lazy RNG column — what derives it, followed only on the first
/// [`Context::rng`] call, so an activation that draws nothing costs no
/// derivation.
#[derive(Debug)]
pub(crate) enum NodeRng<'a> {
    /// The materialized stream, drawn from in place.
    Dense(&'a mut StdRng),
    /// Node `node`'s stream in a run seeded with `seed`; `slot` holds it
    /// once derived.
    Lazy {
        seed: u64,
        node: NodeId,
        slot: Option<StdRng>,
    },
}

impl NodeRng<'_> {
    /// The state a lazy stream must persist: `Some` iff it was derived and
    /// then drawn from (it no longer equals the pristine stream).
    pub(crate) fn drawn(self) -> Option<StdRng> {
        let NodeRng::Lazy { seed, node, slot } = self else {
            return None;
        };
        slot.filter(|worked| *worked != node_rng(seed, node))
    }
}

impl<'a, M: Message> Context<'a, M> {
    /// Current round number (starts at 0).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.setup.degree
    }

    /// This node's identifier, or `None` in an anonymous network.
    pub fn id(&self) -> Option<Id> {
        self.setup.id
    }

    /// This node's identifier.
    ///
    /// # Panics
    ///
    /// Panics in anonymous networks; protocols that require identifiers
    /// should document the requirement.
    pub fn require_id(&self) -> Id {
        self.setup.id.expect("protocol requires unique identifiers")
    }

    /// The knowledge flags of this run.
    pub fn knowledge(&self) -> Knowledge {
        self.setup.knowledge
    }

    /// `n`, if the nodes were told it.
    pub fn n(&self) -> Option<usize> {
        self.setup.knowledge.n
    }

    /// `n`; panics when unknown (protocol requirement mismatch).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not common knowledge in this run.
    pub fn require_n(&self) -> usize {
        self.setup
            .knowledge
            .n
            .expect("protocol requires knowledge of n")
    }

    /// `D`, if the nodes were told it.
    pub fn diameter(&self) -> Option<usize> {
        self.setup.knowledge.diameter
    }

    /// `D`; panics when unknown (protocol requirement mismatch).
    ///
    /// # Panics
    ///
    /// Panics if `D` is not common knowledge in this run.
    pub fn require_diameter(&self) -> usize {
        self.setup
            .knowledge
            .diameter
            .expect("protocol requires knowledge of D")
    }

    /// `true` the first time this node is ever activated (spontaneous
    /// wakeup at its wakeup round, or message-triggered wakeup).
    pub fn first_activation(&self) -> bool {
        self.first_activation
    }

    /// This node's private coin flips: one deterministic stream per node
    /// and run seed, continuing where the node's earlier draws left it.
    /// Until some node draws, the stream is derived on the first call of an
    /// activation, so activations that never call this pay nothing for it.
    pub fn rng(&mut self) -> &mut StdRng {
        match &mut self.rng {
            NodeRng::Dense(rng) => rng,
            NodeRng::Lazy { seed, node, slot } => {
                slot.get_or_insert_with(|| node_rng(*seed, *node))
            }
        }
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.rng().gen::<bool>()
    }

    /// Sends `msg` through `port`, to arrive next round.
    ///
    /// # Panics
    ///
    /// Panics if `port >= degree` or if a message was already sent on this
    /// port this round (one message per edge per round, both CONGEST and
    /// LOCAL — the models restrict *size*, not multiplicity).
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(
            port < self.setup.degree,
            "send on port {port} but degree is {}",
            self.setup.degree
        );
        assert!(
            !self.sent_on[port],
            "two messages on port {port} in one round (protocol bug)"
        );
        self.sent_on[port] = true;
        self.outbox.push((port, msg));
    }

    /// Sends a copy of `msg` through every port.
    pub fn broadcast(&mut self, msg: M) {
        for port in 0..self.setup.degree {
            self.send(port, msg.clone());
        }
    }

    /// Sends a copy of `msg` through every port except `skip`.
    pub fn broadcast_except(&mut self, skip: Port, msg: M) {
        for port in 0..self.setup.degree {
            if port != skip {
                self.send(port, msg.clone());
            }
        }
    }

    /// Requests activation at the next round even if no message arrives.
    pub fn wake_next(&mut self) {
        self.wake_at(self.round + 1);
    }

    /// Requests activation at the given (future) round even if no message
    /// arrives. The engine fast-forwards idle gaps, so sparse timers are
    /// cheap — this is how the Theorem 4.1 agents sleep for `2^ID` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `round` is not in the future.
    pub fn wake_at(&mut self, round: u64) {
        assert!(round > self.round, "wake_at({round}) is not in the future");
        *self.wake = Some(match *self.wake {
            Some(w) => w.min(round),
            None => round,
        });
    }
}

/// A distributed protocol, instantiated once per node.
///
/// The engine calls [`Protocol::on_round`] whenever the node is *active*:
/// at its wakeup round, whenever messages arrive, and at any round the node
/// requested via [`Context::wake_at`]. A node that neither holds pending
/// wakeups nor receives messages is idle; the run ends when every node is
/// idle (or at the round cap).
///
/// Protocols must be [`Send`]: the sharded-parallel engine steps disjoint
/// shards of nodes on worker threads (see [`crate::Parallelism`]), so node
/// state crosses thread boundaries. Protocol state is plain data at every
/// node, so this is automatic — the bound exists to state the contract.
pub trait Protocol: Send {
    /// The message type exchanged by this protocol.
    type Msg: Message;

    /// One activation: consume the inbox (messages sent to this node last
    /// round, tagged by arrival port), update state, send messages.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]);

    /// The node's current election status.
    fn status(&self) -> Status;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Signal;
    use rand::SeedableRng;

    #[allow(clippy::type_complexity)]
    fn ctx_parts() -> (
        NodeSetup,
        StdRng,
        Vec<(Port, Signal)>,
        Vec<bool>,
        Option<u64>,
    ) {
        (
            NodeSetup {
                degree: 3,
                id: Some(7),
                knowledge: Knowledge::full(10, 20, 3),
            },
            StdRng::seed_from_u64(1),
            Vec::new(),
            vec![false; 3],
            None,
        )
    }

    #[test]
    fn context_accessors() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 5,
            setup: &setup,
            first_activation: true,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        assert_eq!(ctx.round(), 5);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.id(), Some(7));
        assert_eq!(ctx.require_id(), 7);
        assert_eq!(ctx.n(), Some(10));
        assert_eq!(ctx.require_n(), 10);
        assert_eq!(ctx.diameter(), Some(3));
        assert!(ctx.first_activation());
        let _ = ctx.coin();
    }

    #[test]
    fn broadcast_fills_all_ports() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 0,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        ctx.broadcast(Signal);
        assert_eq!(outbox.len(), 3);
    }

    #[test]
    fn broadcast_except_skips() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 0,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        ctx.broadcast_except(1, Signal);
        let ports: Vec<Port> = outbox.iter().map(|&(p, _)| p).collect();
        assert_eq!(ports, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "two messages on port")]
    fn double_send_panics() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 0,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        ctx.send(0, Signal);
        ctx.send(0, Signal);
    }

    #[test]
    #[should_panic(expected = "not in the future")]
    fn past_wake_panics() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 9,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        ctx.wake_at(9);
    }

    #[test]
    fn wake_keeps_minimum() {
        let (setup, mut rng, mut outbox, mut sent, mut wake) = ctx_parts();
        let mut ctx = Context {
            round: 0,
            setup: &setup,
            first_activation: false,
            rng: NodeRng::Dense(&mut rng),
            outbox: &mut outbox,
            sent_on: &mut sent,
            wake: &mut wake,
        };
        ctx.wake_at(100);
        ctx.wake_at(50);
        ctx.wake_at(80);
        assert_eq!(wake, Some(50));
    }

    #[test]
    fn a_lazy_stream_is_derived_on_first_use_and_persisted_only_after_a_draw() {
        let (setup, _, mut outbox, mut sent, mut wake) = ctx_parts();
        let pristine = node_rng(9, 4);
        let mut activation = |draws: usize, calls: usize| {
            let mut ctx = Context {
                round: 0,
                setup: &setup,
                first_activation: false,
                rng: NodeRng::Lazy {
                    seed: 9,
                    node: 4,
                    slot: None,
                },
                outbox: &mut outbox,
                sent_on: &mut sent,
                wake: &mut wake,
            };
            for _ in 0..calls {
                assert_eq!(ctx.rng().clone(), pristine, "derived, not drawn yet");
            }
            let flips: Vec<bool> = (0..draws).map(|_| ctx.coin()).collect();
            (flips, ctx.rng.drawn())
        };
        assert_eq!(activation(0, 0), (vec![], None));
        assert_eq!(activation(0, 2), (vec![], None), "a call is not a draw");
        let mut twin = pristine.clone();
        let want: Vec<bool> = (0..3).map(|_| twin.gen()).collect();
        assert_eq!(activation(3, 1), (want, Some(twin)));
    }
}
