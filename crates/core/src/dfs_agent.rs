//! The deterministic `O(m)`-message DFS-agent election — Theorem 4.1.
//!
//! The paper's generalization of Frederickson–Lynch \[8\] to arbitrary
//! graphs: every node launches an *annexing agent* carrying its identifier;
//! an agent walks the graph in DFS order, but an agent with identifier `i`
//! takes one step only every `2^i` rounds. Smaller identifiers destroy
//! larger ones on contact: an agent entering a node previously visited (or
//! currently hosting an agent) with a smaller identifier dies. The smallest
//! agent completes a full DFS (≈ `2m` traversals) and declares its origin
//! leader; the `k`-th smallest agent moves at most `2^{i_1 − i_k}` times as
//! often, so total messages telescope to `≤ 4m + O(n)` — **O(m), for any
//! identifier assignment** — while running time is `Θ(m · 2^{i_1})`,
//! exponential in the smallest identifier. This is the algorithm that
//! shows the Ω(m) bound of Theorem 3.1 is tight when time is unbounded.
//!
//! Under adversarial wakeup a preliminary flooding *wakeup phase* (2m
//! messages, ≤ D rounds, exactly as in the paper) rouses every node; the
//! extra agent steps taken before the last node wakes add only `O(D)`
//! messages (the paper's `2D` term).
//!
//! The simulator's idle fast-forwarding makes the exponential schedule
//! simulable: engine work is proportional to agent *moves*, not rounds.
//!
//! **One walker per node.** The paper leaves the identifier of every agent
//! that passes a node `w` at `w`. Once `w` holds identifier `a`, every
//! agent larger than `a` that enters `w` dies, and so does every larger
//! agent waiting at `w` when `a` arrives. So of everything left at `w`,
//! only the smallest identifier can still move through `w`: a node keeps
//! the DFS state of that one *walker* — its parent port, its next port
//! and the ports that lead back into its explored territory — and
//! overwrites it when a smaller agent takes the node over. An activation
//! needs only the smallest agent in its inbox, and at most one move fires
//! per round, so sends go straight to the context.

use ule_graph::Id;
use ule_sim::message::{id_bits, Message, TAG_BITS};
use ule_sim::{Context, Protocol, Status};

/// Cap on the throttling exponent so tick arithmetic stays in `u64`.
/// Identifiers at or above the cap share one rate; the 4m message bound is
/// guaranteed for assignments whose identifiers stay below it (experiment
/// configs do), correctness holds regardless.
const RATE_EXPONENT_CAP: u64 = 40;

/// Messages of the DFS-agent algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfsMsg {
    /// Wakeup flood (adversarial-wakeup runs only).
    Wakeup,
    /// The agent steps forward into a node.
    Visit {
        /// The walking agent (= its origin's identifier).
        agent: Id,
    },
    /// The agent steps back to the node it came from (subtree finished or
    /// the target was already visited).
    Retreat {
        /// The walking agent.
        agent: Id,
    },
}

impl Message for DfsMsg {
    fn size_bits(&self) -> u64 {
        match self {
            DfsMsg::Wakeup => TAG_BITS,
            DfsMsg::Visit { agent } | DfsMsg::Retreat { agent } => TAG_BITS + id_bits(*agent),
        }
    }
}

/// What the walker waiting at a node does at its next throttle tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// Continue exploring from this node.
    Explore,
    /// Step back through the given port.
    RetreatVia(usize),
}

/// Per-node protocol state for Theorem 4.1. The run must carry explicit
/// identifiers; no knowledge of `n`, `m`, `D` is needed. Construct with
/// `send_wakeup` set when the run uses adversarial wakeup. The run's round
/// cap must accommodate `Θ(m · 2^{min id})` rounds — prefer small
/// identifiers (the *time* is the algorithm's admitted weakness; the
/// *messages* stay `O(m)` regardless).
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{RuntimeKind, SimConfig};
/// use ule_graph::{gen, IdAssignment};
///
/// let g = gen::cycle(8)?;
/// let cfg = SimConfig::seeded(0)
///     .with_ids(IdAssignment::sequential(8))
///     .with_max_rounds(u64::MAX / 4);
/// // `send_wakeup = false`; a wakeup phase goes through
/// // `ule_sim::Runner` and `DfsAgent::new`.
/// let out = Algorithm::DfsAgent.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// // The minimum identifier (1, at node 0) wins.
/// assert_eq!(out.leader(), Some(0));
/// // Theorem 4.1: no more than ~4m messages.
/// assert!(out.messages <= 4 * g.edge_count() as u64 + 2 * 8);
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct DfsAgent {
    send_wakeup: bool,
    own: Id,
    /// The walker: the smallest agent this node has seen.
    min_seen: Id,
    /// The port the walker first entered through (`None` at its origin).
    parent: Option<usize>,
    /// The next port the walker's DFS tries from here.
    next_port: usize,
    /// Ports known to lead to nodes the walker already visited (marked when
    /// its `Visit` arrives from there) — the classic DFS marking that keeps
    /// the walk at ≈ 2m steps. Sized on the walker's first re-visit,
    /// cleared (capacity kept) when a smaller walker takes over.
    skip: Vec<bool>,
    /// The walker's next move and its tick, while it waits here.
    pending: Option<(Pending, u64)>,
    status: Status,
}

impl DfsAgent {
    /// A node instance. `send_wakeup` enables the wakeup-phase flood and
    /// should match the run's wakeup mode (required under adversarial
    /// wakeup, pure overhead under simultaneous wakeup). `degree` is not
    /// stored: the node sizes its port marks on first need.
    pub fn new(own: Id, _degree: usize, send_wakeup: bool) -> Self {
        DfsAgent {
            send_wakeup,
            own,
            min_seen: own,
            parent: None,
            next_port: 0,
            skip: Vec::new(),
            pending: None,
            status: Status::Undecided,
        }
    }

    fn rate(agent: Id) -> u64 {
        1u64 << agent.min(RATE_EXPONENT_CAP)
    }

    /// The next throttle tick for `agent` strictly after `round`.
    fn next_tick(agent: Id, round: u64) -> u64 {
        let r = Self::rate(agent);
        (round / r + 1) * r
    }

    /// One DFS move of the walker; returns the message to send, or `None`
    /// when the walker completed at its origin (leader!).
    fn explore_step(&mut self, degree: usize) -> Option<(usize, DfsMsg)> {
        let agent = self.min_seen;
        while self.next_port < degree {
            let p = self.next_port;
            self.next_port += 1;
            if Some(p) != self.parent && self.skip.get(p) != Some(&true) {
                return Some((p, DfsMsg::Visit { agent }));
            }
        }
        match self.parent {
            Some(pp) => Some((pp, DfsMsg::Retreat { agent })),
            None => {
                // Full DFS complete at the origin.
                self.status = Status::Leader;
                None
            }
        }
    }
}

impl Protocol for DfsAgent {
    type Msg = DfsMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, DfsMsg>, inbox: &[(usize, DfsMsg)]) {
        let round = ctx.round();

        if ctx.first_activation() {
            if self.send_wakeup {
                ctx.broadcast(DfsMsg::Wakeup);
            }
            self.pending = Some((Pending::Explore, Self::next_tick(self.own, round)));
        }

        // Every arrival but the smallest is larger than the smallest and so
        // dies here; the smallest survives unless it is above the walker.
        let smallest = inbox
            .iter()
            .filter_map(|&(port, msg)| match msg {
                DfsMsg::Wakeup => None,
                DfsMsg::Visit { agent } => Some((agent, port, true)),
                DfsMsg::Retreat { agent } => Some((agent, port, false)),
            })
            .min_by_key(|&(agent, _, _)| agent);
        if let Some((agent, port, visit)) = smallest.filter(|&(a, _, _)| a <= self.min_seen) {
            let tick = Self::next_tick(agent, round);
            if agent < self.min_seen {
                // A smaller agent takes the node over: the walker waiting
                // here (if any) dies, and this node is not the leader.
                debug_assert!(visit, "retreat for an agent that never passed here");
                self.min_seen = agent;
                self.parent = Some(port);
                self.next_port = 0;
                self.skip.clear();
                self.pending = Some((Pending::Explore, tick));
                self.status = Status::NonLeader;
            } else if visit {
                // Already visited: the sender's port leads to explored
                // territory — mark it and retreat.
                if self.skip.is_empty() {
                    self.skip.resize(ctx.degree(), false);
                }
                self.skip[port] = true;
                self.pending = Some((Pending::RetreatVia(port), tick));
            } else {
                self.pending = Some((Pending::Explore, tick));
            }
        }

        match self.pending {
            Some((pending, tick)) if tick <= round => {
                self.pending = None;
                let agent = self.min_seen;
                let step = match pending {
                    Pending::RetreatVia(p) => Some((p, DfsMsg::Retreat { agent })),
                    Pending::Explore => self.explore_step(ctx.degree()),
                };
                if let Some((p, msg)) = step {
                    ctx.send(p, msg);
                }
            }
            Some((_, tick)) => ctx.wake_at(tick),
            None => {}
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use ule_graph::{gen, Graph, IdAssignment};
    use ule_sim::{RunOutcome, Runner, SimConfig, Termination, Wakeup};

    fn elect(g: &Graph, cfg: &SimConfig, send_wakeup: bool) -> RunOutcome {
        Runner::new(g, cfg).run(|_, s, _| DfsAgent::new(s.id.unwrap(), s.degree, send_wakeup))
    }

    fn cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::seeded(seed)
            .with_ids(IdAssignment::sequential(n))
            .with_max_rounds(u64::MAX / 4)
    }

    #[test]
    fn elects_min_id_on_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(20, &mut rng).unwrap();
            let out = elect(&g, &cfg(g.len(), 0), false);
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.leader(), Some(0), "family {fam}: min id must win");
            assert_eq!(out.termination, Termination::Quiescent);
        }
    }

    /// The deterministic Theorem 4.1 bound as a hard envelope: every
    /// family at `n = 2^k` for each `k` in `log_sizes`, identifiers a
    /// seeded permutation of `1..=n` (so the winner sits anywhere).
    fn assert_four_m_envelope(log_sizes: std::ops::RangeInclusive<u32>) {
        let mut rng = StdRng::seed_from_u64(2);
        for n in log_sizes.map(|k| 1usize << k) {
            for fam in gen::Family::ALL {
                let g = fam.build(n, &mut rng).unwrap();
                let mut ids: Vec<Id> = (1..=g.len() as Id).collect();
                ids.shuffle(&mut rng);
                let cfg = SimConfig::seeded(0)
                    .with_ids(IdAssignment::new(ids))
                    .with_max_rounds(u64::MAX / 4);
                let out = elect(&g, &cfg, false);
                assert!(out.election_succeeded(), "family {fam}, n = {n}");
                let bound = 4 * g.edge_count() as u64 + 2 * g.len() as u64;
                assert!(
                    out.messages <= bound,
                    "family {fam}, n = {n}: {} messages > {bound}",
                    out.messages
                );
            }
        }
    }

    #[test]
    fn message_bound_four_m_on_every_family() {
        assert_four_m_envelope(5..=8);
    }

    /// The same doubling sweep continued to n = 2048, where the complete
    /// and lollipop families carry 10⁵ – 10⁶ edges: seconds in release,
    /// minutes in a debug build, so it runs with the release perf smokes.
    #[test]
    #[ignore = "large-n envelope; run with --release -- --ignored"]
    fn message_bound_four_m_on_every_family_at_scale() {
        assert_four_m_envelope(9..=11);
    }

    #[test]
    fn time_exponential_in_min_id() {
        // Shifting all identifiers up by k multiplies the time by ~2^k but
        // leaves the message count identical (same walk, slower clock).
        let g = gen::cycle(10).unwrap();
        let lo = ule_sim::Runner::new(
            &g,
            &SimConfig::seeded(0)
                .with_ids(IdAssignment::sequential_from(1, 10))
                .with_max_rounds(u64::MAX / 4),
        )
        .run(|_, setup, _| DfsAgent::new(setup.id.unwrap(), setup.degree, false));
        let hi = ule_sim::Runner::new(
            &g,
            &SimConfig::seeded(0)
                .with_ids(IdAssignment::sequential_from(5, 10))
                .with_max_rounds(u64::MAX / 4),
        )
        .run(|_, setup, _| DfsAgent::new(setup.id.unwrap(), setup.degree, false));
        assert!(lo.election_succeeded() && hi.election_succeeded());
        assert_eq!(lo.messages, hi.messages, "same walk, different clock");
        assert!(
            hi.rounds > 8 * lo.rounds,
            "expected ≈16× slowdown, got {} vs {}",
            hi.rounds,
            lo.rounds
        );
    }

    #[test]
    fn min_id_placement_is_irrelevant_to_messages() {
        // Adversarial placement of the minimum at the far end of a path.
        let g = gen::path(16).unwrap();
        let mut ids: Vec<u64> = (2..=16).collect();
        ids.push(1); // node 15 holds the minimum
        let out = ule_sim::Runner::new(
            &g,
            &SimConfig::seeded(0)
                .with_ids(IdAssignment::new(ids))
                .with_max_rounds(u64::MAX / 4),
        )
        .run(|_, setup, _| DfsAgent::new(setup.id.unwrap(), setup.degree, false));
        assert!(out.election_succeeded());
        assert_eq!(out.leader(), Some(15));
        assert!(out.messages <= 4 * g.edge_count() as u64 + 2 * g.len() as u64);
    }

    #[test]
    fn adversarial_wakeup_with_wakeup_phase() {
        let g = gen::grid(4, 4).unwrap();
        let cfg = SimConfig::seeded(3)
            .with_ids(IdAssignment::sequential(16))
            .with_wakeup(Wakeup::Adversarial(vec![7]))
            .with_max_rounds(u64::MAX / 4);
        let out = elect(&g, &cfg, true);
        assert!(out.election_succeeded());
        assert_eq!(out.leader(), Some(0));
        // Wakeup flood adds 2m; agents stay within the paper's 2D slack.
        let m = g.edge_count() as u64;
        assert!(out.messages <= 6 * m + 2 * 16 + 12);
    }

    #[test]
    fn single_node_is_leader_immediately() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let out = elect(&g, &cfg(1, 0), false);
        assert!(out.election_succeeded());
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn two_nodes() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let out = elect(&g, &cfg(2, 0), false);
        assert!(out.election_succeeded());
        assert_eq!(out.leader(), Some(0));
    }

    #[test]
    fn election_time_matches_2m_times_rate() {
        // Leader decides at ≈ 2m·2^{min id} rounds (the paper's bound).
        let g = gen::cycle(12).unwrap();
        let out = elect(&g, &cfg(12, 0), false);
        let m = g.edge_count() as u64;
        let decided = out.last_status_change.unwrap();
        assert!(
            decided <= 2 * (2 * m) * 2 + 8,
            "decided at {decided}, expected ≲ 4m·2^1"
        );
    }

    #[test]
    fn deterministic_regardless_of_seed() {
        // A deterministic algorithm: different seeds, identical outcome.
        let g = gen::torus(3, 3).unwrap();
        let a = elect(&g, &cfg(9, 1), false);
        let b = elect(&g, &cfg(9, 99), false);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn congest_compliant() {
        let g = gen::complete(10).unwrap();
        let out = elect(&g, &cfg(10, 0), false);
        assert_eq!(out.congest_violations, 0);
    }
}
