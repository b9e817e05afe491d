//! Explicit leader election: everyone learns the leader's identity.
//!
//! The paper studies *implicit* election (only statuses must converge) but
//! notes that "our algorithms apply to the explicit version as well", and
//! its footnote 1 observes that the explicit variant seems to require a
//! broadcast of the leader's name — which is why the Ω(m) broadcast bound
//! (Corollary 3.12) matters to it.
//!
//! [`elect_explicit`] composes the Least-El election with exactly that
//! broadcast: the winner floods an `Announce` carrying its identifier,
//! adding `O(m)` messages and `O(D)` rounds on top of the implicit
//! election — asymptotically free next to the election itself. Per-node
//! learned identities are reported through an observational probe (the
//! simulator deliberately gives protocols no other side channel).

use crate::least_el::LeastElConfig;
use crate::wave::{Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use std::sync::{Arc, Mutex};
use ule_graph::{Id, NodeId, Topology};
use ule_sim::message::{id_bits, Message, TAG_BITS};
use ule_sim::{Context, PortOutbox, Protocol, RunOutcome, SimConfig, Status};

/// Messages of the explicit election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExMsg {
    /// The underlying implicit election.
    Le(WaveMsg),
    /// The winner's identity, flooded once.
    Announce(Id),
}

impl Message for ExMsg {
    fn size_bits(&self) -> u64 {
        match self {
            ExMsg::Le(w) => TAG_BITS + w.size_bits(),
            ExMsg::Announce(id) => TAG_BITS + id_bits(*id),
        }
    }
}

/// Observational probe: the leader identity each node has learned.
pub type LeaderProbe = Arc<Mutex<Vec<Option<Id>>>>;

/// The explicit-election protocol: Least-El + leader announcement.
#[derive(Debug)]
pub struct ExplicitElect {
    cfg: LeastElConfig,
    node: NodeId,
    candidate: bool,
    core: WaveCore,
    le_out: PortOutbox<WaveMsg>,
    out: PortOutbox<ExMsg>,
    learned: Option<Id>,
    status: Status,
    probe: Option<LeaderProbe>,
}

impl ExplicitElect {
    /// A node instance (requires unique identifiers in the run config).
    pub fn new(cfg: LeastElConfig, node: NodeId, degree: usize) -> Self {
        ExplicitElect {
            cfg,
            node,
            candidate: false,
            core: WaveCore::new(degree),
            le_out: PortOutbox::new(degree),
            out: PortOutbox::new(degree),
            learned: None,
            status: Status::Undecided,
            probe: None,
        }
    }

    /// Attaches the learned-leader probe.
    pub fn with_probe(mut self, probe: LeaderProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    fn learn(&mut self, id: Id) {
        self.learned = Some(id);
        if let Some(p) = &self.probe {
            p.lock().expect("probe poisoned")[self.node] = Some(id);
        }
    }
}

impl Protocol for ExplicitElect {
    type Msg = ExMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, ExMsg>, inbox: &[(usize, ExMsg)]) {
        let mut le_in: Vec<(usize, WaveMsg)> = Vec::new();
        let mut announce: Option<(usize, Id)> = None;
        for (port, msg) in inbox {
            match msg {
                ExMsg::Le(w) => le_in.push((*port, w.clone())),
                ExMsg::Announce(id) => announce = Some((*port, *id)),
            }
        }
        self.core.on_inbox(&le_in, &mut self.le_out);

        if ctx.first_activation() {
            let n = ctx.require_n();
            let p = self.cfg.candidates.probability(n);
            self.candidate = p >= 1.0 || ctx.rng().gen::<f64>() < p;
            if self.candidate {
                let space = crate::wave::rank_space(n);
                let key = Key {
                    rank: ctx.rng().gen_range(1..=space),
                    tie: ctx.require_id(),
                };
                self.core.start(key, &mut self.le_out);
            } else {
                self.status = Status::NonLeader;
            }
        }

        match self.core.outcome() {
            Some(WaveOutcome::Won) if self.status != Status::Leader => {
                self.status = Status::Leader;
                let id = ctx.require_id();
                self.learn(id);
                self.out.push_all(ExMsg::Announce(id));
            }
            Some(WaveOutcome::Lost) if self.candidate => self.status = Status::NonLeader,
            _ => {}
        }
        if let Some((port, id)) = announce {
            if self.learned.is_none() {
                self.learn(id);
                self.out.push_except(port, ExMsg::Announce(id));
            }
        }

        for p in 0..ctx.degree() {
            while let Some(w) = self.le_out.pop(p) {
                self.out.push(p, ExMsg::Le(w));
            }
        }
        self.out.flush(ctx);
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Runs the explicit election; returns the outcome and, per node, the
/// leader identity that node learned (`None` only on failed runs).
///
/// Requires knowledge of `n` and unique identifiers.
///
/// # Examples
///
/// ```
/// use ule_core::explicit::elect_explicit;
/// use ule_core::least_el::LeastElConfig;
/// use ule_sim::{Knowledge, RuntimeKind, SimConfig};
/// use ule_graph::{gen, IdAssignment};
///
/// let g = gen::grid(4, 4)?;
/// let cfg = SimConfig::seeded(5)
///     .with_ids(IdAssignment::sequential(16))
///     .with_knowledge(Knowledge::n(16));
/// let (out, learned) = elect_explicit(&g, &cfg, &LeastElConfig::all_candidates());
/// let leader = out.leader().unwrap();
/// // Every node knows the leader's identifier (sequential: node v has v+1).
/// assert!(learned.iter().all(|l| *l == Some(leader as u64 + 1)));
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
pub fn elect_explicit<T: Topology>(
    graph: &T,
    sim: &SimConfig,
    cfg: &LeastElConfig,
) -> (RunOutcome, Vec<Option<Id>>) {
    let probe: LeaderProbe = Arc::new(Mutex::new(vec![None; graph.n()]));
    let out = ule_sim::Runner::new(graph, sim).run(|v, setup, _| {
        ExplicitElect::new(cfg.clone(), v, setup.degree).with_probe(Arc::clone(&probe))
    });
    let learned = probe.lock().expect("probe poisoned").clone();
    (out, learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ule_graph::{gen, Graph, IdSpace};
    use ule_sim::{Knowledge, Termination};

    fn cfg(g: &Graph, seed: u64) -> SimConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xEE);
        let ids = IdSpace::standard(g.len()).sample(g.len(), &mut rng);
        SimConfig::seeded(seed)
            .with_ids(ids)
            .with_knowledge(Knowledge::n(g.len()))
    }

    #[test]
    fn everyone_learns_the_same_true_leader_on_all_families() {
        let mut rng = StdRng::seed_from_u64(3);
        for fam in gen::Family::ALL {
            let g = fam.build(24, &mut rng).unwrap();
            let c = cfg(&g, 9);
            let ids = match &c.ids {
                ule_sim::IdMode::Explicit(a) => a.clone(),
                _ => unreachable!(),
            };
            let (out, learned) =
                elect_explicit(&g, &c, &LeastElConfig::all_candidates().with_id_tie_break());
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.termination, Termination::Quiescent);
            let leader = out.leader().unwrap();
            let leader_id = ids.id(leader);
            for (v, l) in learned.iter().enumerate() {
                assert_eq!(*l, Some(leader_id), "node {v} on {fam}");
            }
        }
    }

    #[test]
    fn announcement_costs_o_m_extra() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_connected(60, 200, &mut rng).unwrap();
        let c = cfg(&g, 2);
        let (explicit, _) = elect_explicit(&g, &c, &LeastElConfig::all_candidates());
        let implicit = crate::Algorithm::LeastElAll.run_on(ule_sim::RuntimeKind::Sim, &g, &c);
        assert!(explicit.election_succeeded() && implicit.election_succeeded());
        let extra = explicit.messages.saturating_sub(implicit.messages);
        // The announcement is one flood: ≤ 2m extra messages, and the
        // random draws differ slightly between protocols, so allow slack.
        assert!(
            extra <= 3 * g.edge_count() as u64,
            "announcement cost {extra} not O(m)"
        );
    }

    #[test]
    fn candidate_subset_variant_works() {
        let g = gen::torus(5, 5).unwrap();
        let (out, learned) = elect_explicit(&g, &cfg(&g, 6), &LeastElConfig::whp());
        assert!(out.election_succeeded());
        assert!(learned.iter().all(Option::is_some));
    }

    #[test]
    fn failed_run_leaves_learned_empty() {
        let g = gen::cycle(10).unwrap();
        let (out, learned) =
            elect_explicit(&g, &cfg(&g, 1), &LeastElConfig::expected_candidates(1e-12));
        assert!(!out.election_succeeded());
        assert!(learned.iter().all(Option::is_none));
    }

    #[test]
    fn single_node_learns_itself() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let (out, learned) = elect_explicit(&g, &cfg(&g, 0), &LeastElConfig::all_candidates());
        assert!(out.election_succeeded());
        assert!(learned[0].is_some());
    }
}
