//! Distributed spanner construction and the Corollary 4.2 election.
//!
//! Corollary 4.2: on graphs with `m > n^{1+ε}`, leader election can match
//! **both** lower bounds simultaneously — `O(D)` time and `O(m)`
//! messages, w.h.p. The recipe: build a `(2k−1)`-spanner with
//! `O(n^{1+1/k})` edges using the randomized construction of Baswana &
//! Sen (Random Struct. Algorithms 2007) in `O(k²)` rounds and `O(km)`
//! messages, then run the Least-El election of Theorem 4.4 restricted to
//! spanner edges: `O(n^{1+1/k}·log n) ⊆ O(m)` further messages, and the
//! spanner's diameter is at most `(2k−1)·D`, so the election still ends in
//! `O(D)` rounds for constant `k`.
//!
//! ## The distributed Baswana–Sen construction
//!
//! `k` globally scheduled phases (every node knows `n` and `k`, so every
//! stage boundary is computable from the round number). Initially every
//! node is a singleton cluster. In phase `i`:
//!
//! 1. **Sampling** — each cluster *center* keeps its cluster with
//!    probability `n^{−1/k}` (never in the last phase) and broadcasts the
//!    verdict down its cluster tree (depth `< i ≤ k` rounds).
//! 2. **Announce** — every node tells its neighbours its cluster and the
//!    verdict (one round, `2m` messages).
//! 3. **Resolve** — a node whose cluster was *not* sampled either joins an
//!    adjacent sampled cluster through one new spanner edge (becoming part
//!    of that cluster's tree), or — with no sampled neighbour — adds one
//!    spanner edge to *every* adjacent cluster and retires from
//!    clustering. Spanner marks are made symmetric by `Join`/`Mark`
//!    messages.
//!
//! After the final phase every node has retired and the surviving marks
//! form the spanner. Cluster-tree edges are spanner edges by construction.
//!
//! ## Example
//!
//! [`Algorithm::Spanner`](crate::Algorithm::Spanner) runs the corollary's
//! `k` for `ε = 1/2`; any other `k` goes through a [`Runner`] and
//! [`SpannerElect::new`], with a [`SpannerProbe`] to see the spanner.
//!
//! ```
//! use ule_core::spanner::{probe_edges, SpannerConfig, SpannerElect, SpannerProbe};
//! use ule_core::Algorithm;
//! use ule_sim::{Knowledge, Runner, SimConfig};
//! use ule_graph::gen;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let g = gen::random_dense(60, 0.5, &mut rng)?; // m ≈ n^1.5
//! assert!(Algorithm::Spanner.run(&g, 1).election_succeeded());
//!
//! let (sc, probe) = (SpannerConfig { k: 3 }, SpannerProbe::default());
//! let sim = SimConfig::seeded(1).with_knowledge(Knowledge::n(g.len()));
//! let out = Runner::new(&g, &sim)
//!     .run(|v, s, _| SpannerElect::new(sc, v, s.degree).with_probe(Arc::clone(&probe)));
//! assert!(out.election_succeeded());
//! assert!(probe_edges(&g, &probe).len() < g.edge_count());
//! # Ok::<(), ule_graph::GraphError>(())
//! ```
//!
//! [`Runner`]: ule_sim::Runner

use crate::wave::{rank_space, Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use ule_graph::{Graph, NodeId, Port};
use ule_sim::message::{id_bits, Message, TAG_BITS};
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// Parameters of the spanner construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpannerConfig {
    /// Number of Baswana–Sen phases; the spanner has stretch `2k−1` and
    /// `O(k·n^{1+1/k})` edges w.h.p.
    pub k: u32,
}

impl SpannerConfig {
    /// The parameter choice of Corollary 4.2 for density exponent `ε`
    /// (`m > n^{1+ε}`): `k = ⌈2/ε⌉`, so the spanner has `O(n^{1+ε/2})`
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon <= 1`.
    pub fn for_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        SpannerConfig {
            k: (2.0 / epsilon).ceil() as u32,
        }
    }

    /// Stretch guarantee of the resulting spanner.
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    fn phase_len(&self) -> u64 {
        self.k as u64 + 5
    }

    fn phase_start(&self, i: u64) -> u64 {
        (i - 1) * self.phase_len()
    }

    /// First round of the election (construction finished, all marks
    /// delivered).
    fn election_round(&self) -> u64 {
        self.k as u64 * self.phase_len()
    }
}

/// Test/experiment instrumentation: collects the spanner edges every node
/// marks, as `(node, port)` pairs. Purely observational.
pub type SpannerProbe = Arc<Mutex<BTreeSet<(NodeId, Port)>>>;

/// Converts a probe's `(node, port)` marks into the sorted undirected
/// edges of `g`, checking mark symmetry.
///
/// # Panics
///
/// Panics if a mark is one-sided (a construction bug).
pub fn probe_edges(g: &Graph, probe: &SpannerProbe) -> Vec<(NodeId, NodeId)> {
    let marks = probe.lock().expect("probe poisoned");
    let mut edges = BTreeSet::new();
    for &(v, p) in marks.iter() {
        let (u, q) = g.endpoint(v, p);
        assert!(
            marks.contains(&(u, q)),
            "asymmetric spanner mark on edge ({v}, {u})"
        );
        edges.insert((v.min(u), v.max(u)));
    }
    edges.into_iter().collect()
}

/// Messages of the spanner construction + election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpMsg {
    /// Phase verdict broadcast down a cluster tree.
    Sampled {
        /// Whether the cluster survives this phase.
        sampled: bool,
    },
    /// Per-phase neighbourhood announcement. `cluster == 0` means retired.
    Status {
        /// Sender's cluster tag (0 = retired).
        cluster: u64,
        /// Whether that cluster was sampled this phase.
        sampled: bool,
    },
    /// "This edge joins me to your (sampled) cluster" — marks the edge and
    /// registers the sender as a cluster-tree child.
    Join,
    /// "This edge is a spanner edge" (per-adjacent-cluster retirement
    /// edges).
    Mark,
    /// The Theorem 4.4 election restricted to spanner edges.
    Le(WaveMsg),
}

impl Message for SpMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SpMsg::Sampled { .. } => TAG_BITS + 1,
            SpMsg::Status { cluster, .. } => TAG_BITS + id_bits(*cluster) + 1,
            SpMsg::Join | SpMsg::Mark => TAG_BITS,
            SpMsg::Le(w) => TAG_BITS + w.size_bits(),
        }
    }
}

/// Per-node protocol: Baswana–Sen construction followed by Least-El on
/// the spanner.
#[derive(Debug)]
pub struct SpannerElect {
    cfg: SpannerConfig,
    node: NodeId,
    degree: usize,
    tag: u64,
    cluster: Option<u64>,
    cluster_parent: Option<Port>,
    cluster_children: Vec<Port>,
    sampled: bool,
    retired: bool,
    spanner: Vec<bool>,
    port_status: Vec<Option<(u64, bool)>>,
    core: Option<WaveCore>,
    le_buffer: Vec<(Port, WaveMsg)>,
    le_out: PortOutbox<WaveMsg>,
    out: PortOutbox<SpMsg>,
    probe: Option<SpannerProbe>,
    status: Status,
}

impl SpannerElect {
    /// A node instance.
    pub fn new(cfg: SpannerConfig, node: NodeId, degree: usize) -> Self {
        SpannerElect {
            cfg,
            node,
            degree,
            tag: 0,
            cluster: None,
            cluster_parent: None,
            cluster_children: Vec::new(),
            sampled: false,
            retired: false,
            spanner: vec![false; degree],
            port_status: vec![None; degree],
            core: None,
            le_buffer: Vec::new(),
            le_out: PortOutbox::new(degree),
            out: PortOutbox::new(degree),
            probe: None,
            status: Status::Undecided,
        }
    }

    /// Attaches observational instrumentation (see [`SpannerProbe`]).
    pub fn with_probe(mut self, probe: SpannerProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    fn mark(&mut self, port: Port) {
        if self.core.is_some() {
            // Too late for the wave core's port mask (see `on_round`).
            return;
        }
        self.spanner[port] = true;
        if let Some(probe) = &self.probe {
            probe
                .lock()
                .expect("probe poisoned")
                .insert((self.node, port));
        }
    }

    fn is_center(&self) -> bool {
        !self.retired && self.cluster == Some(self.tag)
    }

    fn resolve(&mut self) {
        // Called at S_i + k + 2, once all Status messages are in.
        if self.retired || self.sampled {
            return;
        }
        // Our cluster was not sampled. Join a sampled neighbour if any.
        if let Some(p) =
            (0..self.degree).find(|&p| matches!(self.port_status[p], Some((c, true)) if c != 0))
        {
            let (c, _) = self.port_status[p].expect("just matched");
            self.mark(p);
            self.out.push(p, SpMsg::Join);
            self.cluster = Some(c);
            self.cluster_parent = Some(p);
            self.cluster_children.clear();
            self.sampled = true; // member of a sampled cluster now
            return;
        }
        // No sampled neighbour: one spanner edge per adjacent cluster,
        // then retire.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        for p in 0..self.degree {
            if let Some((c, _)) = self.port_status[p] {
                if c != 0 && covered.insert(c) {
                    self.mark(p);
                    self.out.push(p, SpMsg::Mark);
                }
            }
        }
        self.retired = true;
        self.cluster = None;
        self.cluster_parent = None;
        self.cluster_children.clear();
    }

    fn start_election(&mut self, ctx: &mut Context<'_, SpMsg>) {
        let mask = self.spanner.clone();
        let mut core = WaveCore::with_allowed(mask);
        let n = ctx.require_n();
        let space = rank_space(n);
        let key = Key {
            rank: ctx.rng().gen_range(1..=space),
            tie: self.tag,
        };
        core.start(key, &mut self.le_out);
        let mut buffered: Vec<(Port, WaveMsg)> = std::mem::take(&mut self.le_buffer);
        buffered.retain(|&(p, _)| self.spanner[p]);
        core.on_inbox(&buffered, &mut self.le_out);
        self.core = Some(core);
    }
}

impl Protocol for SpannerElect {
    type Msg = SpMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, SpMsg>, inbox: &[(usize, SpMsg)]) {
        let n = ctx.require_n();
        let round = ctx.round();
        let k = self.cfg.k as u64;

        if ctx.first_activation() {
            self.tag = ctx.rng().gen_range(1..=rank_space(n));
            self.cluster = Some(self.tag);
        }

        let mut le_in: Vec<(Port, WaveMsg)> = Vec::new();
        for (port, msg) in inbox {
            match msg {
                SpMsg::Sampled { sampled } => {
                    if Some(*port) == self.cluster_parent && !self.retired {
                        self.sampled = *sampled;
                        for &c in &self.cluster_children {
                            self.out.push(c, SpMsg::Sampled { sampled: *sampled });
                        }
                    }
                }
                SpMsg::Status { cluster, sampled } => {
                    self.port_status[*port] = Some((*cluster, *sampled));
                }
                SpMsg::Join => {
                    self.mark(*port);
                    self.cluster_children.push(*port);
                }
                SpMsg::Mark => self.mark(*port),
                SpMsg::Le(w) => le_in.push((*port, w.clone())),
            }
        }

        // Globally scheduled construction stages.
        if round < self.cfg.election_round() {
            let phase = round / self.cfg.phase_len() + 1; // 1-based
            let rel = round - self.cfg.phase_start(phase);
            if rel == 0 {
                // New phase: clear per-phase state.
                self.port_status = vec![None; self.degree];
                if self.is_center() {
                    let p_keep = (n as f64).powf(-1.0 / self.cfg.k as f64);
                    self.sampled = phase < k && ctx.rng().gen::<f64>() < p_keep;
                    for &c in &self.cluster_children {
                        self.out.push(
                            c,
                            SpMsg::Sampled {
                                sampled: self.sampled,
                            },
                        );
                    }
                } else if !self.retired {
                    // Non-center cluster members learn their verdict from
                    // the broadcast; assume not sampled until told.
                    self.sampled = false;
                }
            }
            if rel == k + 1 && !self.retired {
                // Retired ("discarded") nodes left the construction for
                // good — silence on a port means a retired neighbour.
                let status = SpMsg::Status {
                    cluster: self.cluster.unwrap_or(0),
                    sampled: self.sampled,
                };
                self.out.push_all(status);
            }
            if rel == k + 2 {
                self.resolve();
            }
            ctx.wake_next();
        } else if self.core.is_none() {
            self.start_election(ctx);
        }

        // On the synchronous schedule every mark lands before the election
        // starts, so waves travel marked edges only. An adversary's delay
        // can break that schedule: a mark landing after the start is
        // ignored and a wave on a port this node has not marked is
        // dropped. The election may then stall, as any deadline-driven
        // protocol may under delay, but the wave core's port mask holds.
        if let Some(core) = &mut self.core {
            le_in.retain(|&(p, _)| self.spanner[p]);
            core.on_inbox(&le_in, &mut self.le_out);
            match core.outcome() {
                Some(WaveOutcome::Won) => self.status = Status::Leader,
                Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
                None => {}
            }
        } else {
            self.le_buffer.extend(le_in);
        }

        for p in 0..self.degree {
            while let Some(w) = self.le_out.pop(p) {
                self.out.push(p, SpMsg::Le(w));
            }
        }
        self.out.flush(ctx);
    }

    fn status(&self) -> Status {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ule_graph::{analysis, gen, Graph};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{Knowledge, RunOutcome, Runner, RuntimeKind, SimConfig, Termination};

    fn cfg(g: &Graph, seed: u64) -> SimConfig {
        SimConfig::seeded(seed).with_knowledge(Knowledge::n(g.len()))
    }

    fn elect(g: &Graph, sim: &SimConfig, sc: &SpannerConfig) -> RunOutcome {
        Runner::new(g, sim).run(|v, s, _| SpannerElect::new(*sc, v, s.degree))
    }

    fn elect_probed(
        g: &Graph,
        sim: &SimConfig,
        sc: &SpannerConfig,
    ) -> (RunOutcome, Vec<(NodeId, NodeId)>) {
        let probe = SpannerProbe::default();
        let out = Runner::new(g, sim)
            .run(|v, s, _| SpannerElect::new(*sc, v, s.degree).with_probe(Arc::clone(&probe)));
        (out, probe_edges(g, &probe))
    }

    fn spanner_graph(g: &Graph, edges: &[(NodeId, NodeId)]) -> Graph {
        Graph::from_edges(g.len(), edges).expect("probe edges form a graph")
    }

    #[test]
    fn config_math() {
        let c = SpannerConfig::for_epsilon(0.5);
        assert_eq!(c.k, 4);
        assert_eq!(c.stretch(), 7);
        let c = SpannerConfig::for_epsilon(1.0);
        assert_eq!(c.k, 2);
        assert_eq!(c.stretch(), 3);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        SpannerConfig::for_epsilon(0.0);
    }

    #[test]
    fn elects_on_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(30, &mut rng).unwrap();
            let out = elect(&g, &cfg(&g, 3), &SpannerConfig { k: 3 });
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.termination, Termination::Quiescent, "family {fam}");
        }
    }

    #[test]
    fn spanner_is_connected_and_spanning() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_dense(50, 0.5, &mut rng).unwrap();
        let (out, edges) = elect_probed(&g, &cfg(&g, 5), &SpannerConfig { k: 3 });
        assert!(out.election_succeeded());
        let sp = spanner_graph(&g, &edges);
        assert!(sp.is_connected(), "spanner must be connected");
        // Every spanner edge is a graph edge.
        for &(u, v) in &edges {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn stretch_bound_holds() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_dense(40, 0.5, &mut rng).unwrap();
        let sc = SpannerConfig { k: 3 };
        let (_, edges) = elect_probed(&g, &cfg(&g, 7), &sc);
        let sp = spanner_graph(&g, &edges);
        // Stretch: for every edge (u,v) of G, dist_spanner(u,v) <= 2k-1.
        for (u, v) in g.edges() {
            let d = analysis::bfs_distances(&sp, u)[v];
            assert!(
                d <= sc.stretch(),
                "edge ({u},{v}) stretched to {d} > {}",
                sc.stretch()
            );
        }
    }

    #[test]
    fn spanner_is_sparse_on_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_dense(80, 0.5, &mut rng).unwrap(); // m ≈ 716
        let sc = SpannerConfig { k: 4 };
        let (_, edges) = elect_probed(&g, &cfg(&g, 9), &sc);
        let n = g.len() as f64;
        // O(k·n^{1+1/k}): generous constant 4.
        let bound = 4.0 * sc.k as f64 * n.powf(1.0 + 1.0 / sc.k as f64);
        assert!(
            (edges.len() as f64) < bound,
            "spanner {} edges vs bound {bound} (m = {})",
            edges.len(),
            g.edge_count()
        );
        assert!(
            edges.len() < g.edge_count(),
            "spanner must drop edges on dense graphs"
        );
    }

    #[test]
    fn total_messages_linear_in_m_on_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_dense(100, 0.5, &mut rng).unwrap();
        let outs = parallel_trials(10, |t| elect(&g, &cfg(&g, t), &SpannerConfig { k: 4 }));
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 10, "{s}");
        let m = g.edge_count() as f64;
        // Construction O(km) + election O(spanner·log n) ⊆ O(m) here.
        assert!(
            s.mean_messages < 14.0 * m,
            "mean messages {} vs m {m}",
            s.mean_messages
        );
    }

    #[test]
    fn time_stays_linear_in_d() {
        // Election rounds after construction: O(stretch·D) = O(D).
        for n in [16usize, 32, 64] {
            let g = gen::cycle(n).unwrap();
            let sc = SpannerConfig { k: 2 };
            let out = elect(&g, &cfg(&g, 2), &sc);
            assert!(out.election_succeeded());
            let d = (n / 2) as u64;
            let setup = sc.election_round();
            assert!(
                out.rounds <= setup + 2 * sc.stretch() as u64 * d + 16,
                "n={n}: rounds {} (setup {setup})",
                out.rounds
            );
        }
    }

    #[test]
    fn single_node_and_tiny_graphs() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let out = elect(&g, &cfg(&g, 0), &SpannerConfig { k: 2 });
        assert!(out.election_succeeded());
        let g2 = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let out = elect(&g2, &cfg(&g2, 0), &SpannerConfig { k: 2 });
        assert!(out.election_succeeded());
    }

    #[test]
    fn congest_compliant() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gen::random_dense(60, 0.5, &mut rng).unwrap();
        let out = elect(&g, &cfg(&g, 1), &SpannerConfig { k: 3 });
        assert_eq!(out.congest_violations, 0);
    }

    #[test]
    fn deterministic_by_seed() {
        let g = gen::complete(20).unwrap();
        let a = elect(&g, &cfg(&g, 4), &SpannerConfig { k: 2 });
        let b = elect(&g, &cfg(&g, 4), &SpannerConfig { k: 2 });
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn marks_delayed_past_the_schedule_never_trip_the_port_mask() {
        // Under bounded delay a Join / Mark can land after the election
        // starts; the run must still end (possibly without a leader), and
        // identically on both runtimes.
        let mut rng = StdRng::seed_from_u64(8);
        let g = gen::random_dense(40, 0.5, &mut rng).unwrap();
        for seed in 0..4 {
            let sim = cfg(&g, seed)
                .with_adversary(ule_sim::Adversary::BoundedDelay { max_delay: 3 })
                .with_max_rounds(2_000);
            let on = |kind| {
                Runner::new(&g, &sim)
                    .runtime(kind)
                    .run(|v, s, _| SpannerElect::new(SpannerConfig { k: 3 }, v, s.degree))
            };
            assert_eq!(on(RuntimeKind::Sim), on(RuntimeKind::Async), "seed {seed}");
        }
    }

    #[test]
    fn probe_symmetry_checked() {
        let g = gen::complete(5).unwrap();
        let probe = SpannerProbe::default();
        probe.lock().unwrap().insert((0, 0)); // one-sided mark
        let result = std::panic::catch_unwind(|| probe_edges(&g, &probe));
        assert!(result.is_err(), "asymmetric mark must panic");
    }
}
