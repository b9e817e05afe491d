//! Broadcast — the workload of the Ω(m) broadcast lower bound
//! (Corollary 3.12).
//!
//! A single *source* node must convey a message to all other nodes (or, in
//! the weaker *majority broadcast* problem, to more than `n/2` nodes).
//! The corollary shows any algorithm succeeding with probability
//! `≥ 1 − β`, `β ≤ 3/8`, sends `Ω(m)` messages on some dumbbell graph —
//! because broadcast forces a bridge crossing. [`FloodBroadcast`] is the
//! natural matching upper bound: flooding informs everyone in
//! eccentricity-many rounds with `2m − (n − 1)` messages.
//!
//! Status encoding: the source decides `Leader`, informed nodes decide
//! `NonLeader`, so [`informed_count`] can read coverage off a (possibly
//! truncated) [`RunOutcome`].

use ule_graph::{NodeId, Topology};
use ule_sim::message::{Message, TAG_BITS};
use ule_sim::{Context, Protocol, RunOutcome, SimConfig, Status};

/// The flooded token (an abstract `O(log n)`-bit payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token;

impl Message for Token {
    fn size_bits(&self) -> u64 {
        TAG_BITS
    }
}

/// Flooding broadcast from a designated source.
#[derive(Debug)]
pub struct FloodBroadcast {
    is_source: bool,
    informed: bool,
}

impl FloodBroadcast {
    /// A node instance; `is_source` for exactly one node per run.
    pub fn new(is_source: bool) -> Self {
        FloodBroadcast {
            is_source,
            informed: false,
        }
    }
}

impl Protocol for FloodBroadcast {
    type Msg = Token;

    fn on_round(&mut self, ctx: &mut Context<'_, Token>, inbox: &[(usize, Token)]) {
        if self.informed {
            return;
        }
        if self.is_source {
            self.informed = true;
            ctx.broadcast(Token);
        } else if let Some(&(port, _)) = inbox.first() {
            self.informed = true;
            ctx.broadcast_except(port, Token);
        }
    }

    fn status(&self) -> Status {
        match (self.is_source, self.informed) {
            (true, _) => Status::Leader,
            (false, true) => Status::NonLeader,
            (false, false) => Status::Undecided,
        }
    }
}

/// Number of nodes that have received the broadcast (source included).
pub fn informed_count(outcome: &RunOutcome) -> usize {
    outcome
        .statuses
        .iter()
        .filter(|s| !matches!(s, Status::Undecided))
        .count()
}

/// Whether a strict majority of nodes is informed (the Corollary 3.12
/// success predicate).
pub fn majority_informed(outcome: &RunOutcome) -> bool {
    2 * informed_count(outcome) > outcome.statuses.len()
}

/// Runs flooding broadcast from `source` on `graph`.
///
/// # Examples
///
/// ```
/// use ule_core::broadcast::{flood_broadcast, informed_count};
/// use ule_sim::SimConfig;
/// use ule_graph::gen;
///
/// let g = gen::cycle(10)?;
/// let out = flood_broadcast(&g, &SimConfig::seeded(0), 3);
/// assert_eq!(informed_count(&out), 10);
/// assert_eq!(out.messages, 2 * 10 - (10 - 1)); // 2m − (n−1) on a cycle
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
pub fn flood_broadcast<T: Topology>(graph: &T, sim: &SimConfig, source: NodeId) -> RunOutcome {
    assert!(source < graph.n(), "source out of range");
    ule_sim::Runner::new(graph, sim).run(|v, _, _| FloodBroadcast::new(v == source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ule_graph::{analysis, gen};
    use ule_sim::Termination;

    #[test]
    fn informs_everyone_on_all_families() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(24, &mut rng).unwrap();
            let out = flood_broadcast(&g, &SimConfig::seeded(0), 0);
            assert_eq!(informed_count(&out), g.len(), "family {fam}");
            assert!(majority_informed(&out));
            assert_eq!(out.termination, Termination::Quiescent);
        }
    }

    #[test]
    fn message_count_is_exactly_2m_minus_n_plus_1() {
        let mut rng = StdRng::seed_from_u64(2);
        for fam in [
            gen::Family::Cycle,
            gen::Family::Grid,
            gen::Family::SparseRandom,
        ] {
            let g = fam.build(30, &mut rng).unwrap();
            let out = flood_broadcast(&g, &SimConfig::seeded(0), 0);
            let expected = 2 * g.edge_count() as u64 - (g.len() as u64 - 1);
            assert_eq!(out.messages, expected, "family {fam}");
        }
    }

    #[test]
    fn completes_in_eccentricity_rounds() {
        let g = gen::path(20).unwrap();
        let out = flood_broadcast(&g, &SimConfig::seeded(0), 0);
        let ecc = analysis::eccentricity(&g, 0).unwrap() as u64;
        assert_eq!(out.rounds, ecc + 1);
    }

    #[test]
    fn truncation_interrupts_coverage() {
        let g = gen::path(30).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(5);
        let out = flood_broadcast(&g, &cfg, 0);
        assert!(informed_count(&out) <= 6);
        assert!(!majority_informed(&out));
    }

    #[test]
    fn majority_boundary() {
        // On a 5-path from the end, after 3 rounds exactly 3 of 5 informed.
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(3);
        let out = flood_broadcast(&g, &cfg, 0);
        assert_eq!(informed_count(&out), 3);
        assert!(majority_informed(&out));
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bad_source_panics() {
        let g = gen::cycle(4).unwrap();
        flood_broadcast(&g, &SimConfig::seeded(0), 9);
    }
}
