//! The clustering algorithm — Algorithm 1 / Theorem 4.7.
//!
//! Sparsify first, then elect: `O(D log n)` rounds and `O(m + n log n)`
//! messages, w.h.p., knowing only `n`.
//!
//! **Phase 1 — cluster construction.** Each node becomes a candidate with
//! probability `8·ln n / n` (Θ(log n) candidates w.h.p.) and grows a BFS
//! tree via `Join` floods; a node adopts the first `Join` it receives,
//! `Ack`s its parent, and forwards the `Join` to its other neighbours.
//! Every node therefore sends exactly one message over every incident edge
//! (`Join` to non-parents, `Ack` to the parent) — `O(m)` messages — and
//! every node learns, for each port, whether the neighbour is its parent,
//! a child, or a *peer* in some (possibly different) cluster.
//!
//! **Phase 2 — inter-cluster sparsification.** Each node turns its
//! foreign-cluster ports into edge records `(cluster_a, cluster_b, tag_a,
//! tag_b)`; leaves convergecast records up the BFS tree; inner nodes merge,
//! keep one record per adjacent cluster pair, and pass on; the root merges,
//! dedups, and broadcasts the surviving records back down. Records are
//! `O(log n)` bits and a tree edge carries `O(log n)` of them, so Phase 2
//! costs `O(n log n)` messages and `O(D log n)` rounds. Deduplication keeps
//! the record with the *lexicographically smallest tag pair*, a globally
//! deterministic rule: the roots on both sides of a cluster pair see the
//! same candidate set (every A–B edge is reported into both trees) and
//! therefore keep the *same* edge, which makes the surviving overlay
//! symmetric and connected.
//!
//! **Phase 3 — election on the overlay.** The Theorem 4.4 election with
//! `f(n) = n` runs restricted to tree edges plus surviving inter-cluster
//! edges: `O((n + log² n)·log n)` messages, `O(D log n)` rounds.
//!
//! The CONGEST budget for this protocol is `32·⌈log₂ n⌉` bits (records
//! carry four `O(log n)`-bit fields); [`crate::Algorithm::run_on`]
//! configures it.

use crate::wave::{rank_space, Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use std::collections::BTreeMap;
use ule_sim::message::{id_bits, Message, TAG_BITS};
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// One inter-cluster edge: clusters and endpoint tags, canonicalized so
/// `cluster_a < cluster_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRecord {
    /// Smaller cluster identifier.
    pub cluster_a: u64,
    /// Larger cluster identifier.
    pub cluster_b: u64,
    /// Tag of the endpoint inside `cluster_a`.
    pub tag_a: u64,
    /// Tag of the endpoint inside `cluster_b`.
    pub tag_b: u64,
}

impl EdgeRecord {
    /// Canonicalizes an edge observed from one side.
    pub fn new(my_cluster: u64, my_tag: u64, peer_cluster: u64, peer_tag: u64) -> Self {
        if my_cluster < peer_cluster {
            EdgeRecord {
                cluster_a: my_cluster,
                cluster_b: peer_cluster,
                tag_a: my_tag,
                tag_b: peer_tag,
            }
        } else {
            EdgeRecord {
                cluster_a: peer_cluster,
                cluster_b: my_cluster,
                tag_a: peer_tag,
                tag_b: my_tag,
            }
        }
    }

    /// The deterministic dedup preference: smallest sorted tag pair.
    fn tag_key(&self) -> (u64, u64) {
        (self.tag_a.min(self.tag_b), self.tag_a.max(self.tag_b))
    }
}

/// Keeps one record per cluster pair — the one with the smallest sorted
/// tag pair (a globally agreed choice).
pub fn sparsify(records: impl IntoIterator<Item = EdgeRecord>) -> Vec<EdgeRecord> {
    let mut best: BTreeMap<(u64, u64), EdgeRecord> = BTreeMap::new();
    for r in records {
        best.entry((r.cluster_a, r.cluster_b))
            .and_modify(|cur| {
                if r.tag_key() < cur.tag_key() {
                    *cur = r;
                }
            })
            .or_insert(r);
    }
    // BTreeMap yields ascending (cluster_a, cluster_b) — exactly the
    // order the explicit sort used to impose, so no sort needed.
    best.into_values().collect()
}

/// Messages of the clustering algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClMsg {
    /// BFS growth: the sender belongs to `cluster` and carries `tag`.
    Join {
        /// The sender's cluster (its candidate's tag).
        cluster: u64,
        /// The sender's own tag.
        tag: u64,
    },
    /// "You are my parent."
    Ack,
    /// Convergecast of one inter-cluster edge record.
    Up(EdgeRecord),
    /// End of the child's record stream.
    UpDone,
    /// Broadcast of one surviving record.
    Down(EdgeRecord),
    /// End of the root's record stream.
    DownDone,
    /// Phase 3 election restricted to the overlay.
    Le(WaveMsg),
}

impl Message for ClMsg {
    fn size_bits(&self) -> u64 {
        match self {
            ClMsg::Join { cluster, tag } => TAG_BITS + id_bits(*cluster) + id_bits(*tag),
            ClMsg::Ack | ClMsg::UpDone | ClMsg::DownDone => TAG_BITS,
            ClMsg::Up(r) | ClMsg::Down(r) => {
                TAG_BITS
                    + id_bits(r.cluster_a)
                    + id_bits(r.cluster_b)
                    + id_bits(r.tag_a)
                    + id_bits(r.tag_b)
            }
            ClMsg::Le(w) => TAG_BITS + w.size_bits(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PortState {
    Unresolved,
    Parent,
    Child { done: bool },
    Peer { cluster: u64, tag: u64 },
}

/// Per-node protocol state for Algorithm 1 (requires knowledge of `n`;
/// anonymous-safe).
///
/// Edge records carry four `O(log n)`-bit fields — still `O(log n)` as the
/// theorem requires, but past the default CONGEST factor of 16, so
/// [`crate::Algorithm::run_on`] widens the budget to `32·⌈log₂ n⌉` bits
/// for this algorithm.
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{Knowledge, RuntimeKind, SimConfig};
/// use ule_graph::gen;
///
/// let g = gen::torus(5, 5)?;
/// let cfg = SimConfig::seeded(5).with_knowledge(Knowledge::n(g.len()));
/// let out = Algorithm::Clustering.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// assert_eq!(out.congest_violations, 0);
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct Clustering {
    degree: usize,
    tag: u64,
    candidate: bool,
    cluster: Option<u64>,
    parent: Option<usize>,
    ports: Vec<PortState>,
    up_records: Vec<EdgeRecord>,
    sent_up: bool,
    down_records: Vec<EdgeRecord>,
    got_down: bool,
    entered_phase3: bool,
    le_buffer: Vec<(usize, WaveMsg)>,
    core: Option<WaveCore>,
    le_out: PortOutbox<WaveMsg>,
    out: PortOutbox<ClMsg>,
    status: Status,
}

impl Clustering {
    /// A node instance for the given degree.
    pub fn new(degree: usize) -> Self {
        Clustering {
            degree,
            tag: 0,
            candidate: false,
            cluster: None,
            parent: None,
            ports: vec![PortState::Unresolved; degree],
            up_records: Vec::new(),
            sent_up: false,
            down_records: Vec::new(),
            got_down: false,
            entered_phase3: false,
            le_buffer: Vec::new(),
            core: None,
            le_out: PortOutbox::new(degree),
            out: PortOutbox::new(degree),
            status: Status::Undecided,
        }
    }

    fn all_ports_resolved(&self) -> bool {
        !self.ports.contains(&PortState::Unresolved)
    }

    fn all_children_done(&self) -> bool {
        self.ports
            .iter()
            .all(|p| !matches!(p, PortState::Child { done: false }))
    }

    fn child_ports(&self) -> Vec<usize> {
        (0..self.degree)
            .filter(|&p| matches!(self.ports[p], PortState::Child { .. }))
            .collect()
    }

    /// Local inter-cluster records from this node's foreign peer ports.
    fn own_records(&self) -> Vec<EdgeRecord> {
        let mine = self.cluster.expect("records need a cluster");
        self.ports
            .iter()
            .filter_map(|p| match p {
                PortState::Peer { cluster, tag } if *cluster != mine => {
                    Some(EdgeRecord::new(mine, self.tag, *cluster, *tag))
                }
                _ => None,
            })
            .collect()
    }

    fn try_convergecast(&mut self) {
        if self.sent_up
            || self.cluster.is_none()
            || !self.all_ports_resolved()
            || !self.all_children_done()
        {
            return;
        }
        self.sent_up = true;
        let mut records = self.own_records();
        records.append(&mut self.up_records);
        let merged = sparsify(records);
        match self.parent {
            Some(pp) => {
                for r in &merged {
                    self.out.push(pp, ClMsg::Up(*r));
                }
                self.out.push(pp, ClMsg::UpDone);
            }
            None => {
                // Root: the merged set is final; start the down broadcast.
                self.down_records = merged;
                self.got_down = true;
            }
        }
    }

    fn try_enter_phase3(&mut self, ctx: &mut Context<'_, ClMsg>) {
        if self.entered_phase3 || !self.got_down {
            return;
        }
        self.entered_phase3 = true;
        // Forward the surviving records down the tree.
        for cp in self.child_ports() {
            for r in &self.down_records {
                self.out.push(cp, ClMsg::Down(*r));
            }
            self.out.push(cp, ClMsg::DownDone);
        }
        // Overlay mask: tree edges + surviving inter-cluster edges.
        let mine = self.cluster.expect("phase 3 requires a cluster");
        let mask: Vec<bool> = (0..self.degree)
            .map(|p| match self.ports[p] {
                PortState::Parent | PortState::Child { .. } => true,
                PortState::Peer { cluster, tag } if cluster != mine => {
                    let rec = EdgeRecord::new(mine, self.tag, cluster, tag);
                    self.down_records.contains(&rec)
                }
                _ => false,
            })
            .collect();
        let mut core = WaveCore::with_allowed(mask);
        let n = ctx.require_n();
        let key = Key {
            rank: ctx.rng().gen_range(1..=rank_space(n)),
            tie: self.tag,
        };
        core.start(key, &mut self.le_out);
        let buffered: Vec<(usize, WaveMsg)> = std::mem::take(&mut self.le_buffer);
        core.on_inbox(&buffered, &mut self.le_out);
        self.core = Some(core);
    }
}

impl Protocol for Clustering {
    type Msg = ClMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, ClMsg>, inbox: &[(usize, ClMsg)]) {
        if ctx.first_activation() {
            let n = ctx.require_n();
            let space = rank_space(n);
            self.tag = ctx.rng().gen_range(1..=space);
            let p = (8.0 * (n.max(2) as f64).ln() / n as f64).min(1.0);
            self.candidate = ctx.rng().gen::<f64>() < p;
            if self.candidate {
                self.cluster = Some(self.tag);
                self.out.push_all(ClMsg::Join {
                    cluster: self.tag,
                    tag: self.tag,
                });
                // A degree-0 candidate is already a complete root.
            }
        }

        // Joins first (adoption), then structure, then election traffic.
        let mut le_in: Vec<(usize, WaveMsg)> = Vec::new();
        for (port, msg) in inbox {
            match msg {
                ClMsg::Join { cluster, tag } => {
                    if self.cluster.is_none() {
                        // Adopt: first join wins (lowest port on ties,
                        // because the inbox is port-ordered).
                        self.cluster = Some(*cluster);
                        self.parent = Some(*port);
                        self.ports[*port] = PortState::Parent;
                        self.out.push(*port, ClMsg::Ack);
                        for p in 0..self.degree {
                            if p != *port {
                                self.out.push(
                                    p,
                                    ClMsg::Join {
                                        cluster: *cluster,
                                        tag: self.tag,
                                    },
                                );
                            }
                        }
                    } else {
                        self.ports[*port] = PortState::Peer {
                            cluster: *cluster,
                            tag: *tag,
                        };
                    }
                }
                ClMsg::Ack => self.ports[*port] = PortState::Child { done: false },
                ClMsg::Up(r) => self.up_records.push(*r),
                ClMsg::UpDone => {
                    debug_assert!(matches!(self.ports[*port], PortState::Child { .. }));
                    self.ports[*port] = PortState::Child { done: true };
                }
                ClMsg::Down(r) => self.down_records.push(*r),
                ClMsg::DownDone => self.got_down = true,
                ClMsg::Le(w) => le_in.push((*port, w.clone())),
            }
        }

        self.try_convergecast();
        self.try_enter_phase3(ctx);

        match &mut self.core {
            Some(core) => {
                core.on_inbox(&le_in, &mut self.le_out);
                match core.outcome() {
                    Some(WaveOutcome::Won) => self.status = Status::Leader,
                    Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
                    None => {}
                }
            }
            None => self.le_buffer.extend(le_in),
        }

        for p in 0..self.degree {
            while let Some(w) = self.le_out.pop(p) {
                self.out.push(p, ClMsg::Le(w));
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
    use ule_graph::{gen, Graph};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{Knowledge, RunOutcome, SimConfig, Termination};

    fn elect(g: &Graph, cfg: &SimConfig) -> RunOutcome {
        crate::Algorithm::Clustering.run_on(ule_sim::RuntimeKind::Sim, g, cfg)
    }

    fn cfg(g: &Graph, seed: u64) -> SimConfig {
        SimConfig::seeded(seed).with_knowledge(Knowledge::n(g.len()))
    }

    #[test]
    fn record_canonicalization() {
        let a = EdgeRecord::new(5, 100, 2, 200);
        assert_eq!(a.cluster_a, 2);
        assert_eq!(a.tag_a, 200);
        assert_eq!(a.cluster_b, 5);
        assert_eq!(a.tag_b, 100);
        let b = EdgeRecord::new(2, 200, 5, 100);
        assert_eq!(a, b, "both sides canonicalize identically");
    }

    #[test]
    fn sparsify_keeps_min_tag_pair_per_cluster_pair() {
        let recs = vec![
            EdgeRecord::new(1, 50, 2, 60),
            EdgeRecord::new(1, 10, 2, 99),
            EdgeRecord::new(1, 30, 3, 30),
        ];
        let s = sparsify(recs);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&EdgeRecord::new(1, 10, 2, 99)));
        assert!(s.contains(&EdgeRecord::new(1, 30, 3, 30)));
    }

    #[test]
    fn elects_on_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(30, &mut rng).unwrap();
            let out = elect(&g, &cfg(&g, 17));
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.termination, Termination::Quiescent, "family {fam}");
            assert_eq!(out.congest_violations, 0, "family {fam}");
        }
    }

    #[test]
    fn succeeds_whp_over_seeds() {
        let g = gen::grid(6, 6).unwrap();
        let outs = parallel_trials(40, |t| elect(&g, &cfg(&g, t)));
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 40, "{s}");
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, &[]).unwrap();
        // p = min(1, 8·ln2) = 1: the lone node is always a candidate.
        let out = elect(&g, &cfg(&g, 2));
        assert!(out.election_succeeded());
    }

    #[test]
    fn message_bound_m_plus_n_log_n() {
        // O(m + n log n) with a generous constant, against the Least-El
        // f(n)=n cost of O(m log n): on a dense graph clustering must be
        // cheaper.
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_connected(150, 2000, &mut rng).unwrap();
        let out = elect(&g, &cfg(&g, 23));
        assert!(out.election_succeeded());
        let n = g.len() as f64;
        let m = g.edge_count() as f64;
        let bound = 8.0 * (m + n * n.ln());
        assert!(
            (out.messages as f64) < bound,
            "messages {} vs bound {bound}",
            out.messages
        );
    }

    #[test]
    fn beats_least_el_on_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_connected(120, 3000, &mut rng).unwrap();
        let cl: u64 = (0..5).map(|t| elect(&g, &cfg(&g, t)).messages).sum();
        let le: u64 = (0..5)
            .map(|t| {
                crate::Algorithm::LeastElAll
                    .run_on(ule_sim::RuntimeKind::Sim, &g, &cfg(&g, t))
                    .messages
            })
            .sum();
        assert!(
            cl < le,
            "clustering ({cl}) should beat f(n)=n Least-El ({le}) when m ≫ n"
        );
    }

    #[test]
    fn rounds_within_d_log_n() {
        for n in [16usize, 36, 64] {
            let side = (n as f64).sqrt() as usize;
            let g = gen::grid(side, side).unwrap();
            let d = (2 * (side - 1)) as f64;
            let out = elect(&g, &cfg(&g, 5));
            assert!(out.election_succeeded(), "grid {side}x{side}");
            let bound = 10.0 * d * (n as f64).ln() + 40.0;
            assert!(
                (out.rounds as f64) < bound,
                "grid {side}x{side}: rounds {} vs bound {bound}",
                out.rounds
            );
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let g = gen::cycle(30).unwrap();
        let a = elect(&g, &cfg(&g, 9));
        let b = elect(&g, &cfg(&g, 9));
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn many_seeds_on_star_and_path() {
        // Extreme shapes: hub-dominated and maximum-diameter.
        for (fam, n) in [(gen::Family::Star, 40), (gen::Family::Path, 40)] {
            let mut rng = StdRng::seed_from_u64(6);
            let g = fam.build(n, &mut rng).unwrap();
            let outs = parallel_trials(20, |t| elect(&g, &cfg(&g, 400 + t)));
            let s = Summary::from_outcomes(&outs);
            assert_eq!(s.successes, 20, "{fam}: {s}");
        }
    }
}
