//! The dumbbell-graph family of Theorem 3.1 (message lower bound).
//!
//! Given a 2-connected base graph `G0`, an *open graph* `G[e]` is `G0` with
//! one edge `e` erased, leaving its two ports dangling.
//! `Dumbbell(G'[e'], G''[e''])` takes one copy of each open graph and joins
//! the dangling ports with two *bridge* edges. The lower-bound proof rests
//! on the observation that an execution on the dumbbell is
//! indistinguishable, at every node of either half, from an execution on
//! that half alone — until a message crosses a bridge. We reproduce that
//! property exactly by splicing the bridges into the port positions the
//! erased edges vacated ([`Graph::from_adjacency`]).
//!
//! The module also builds the paper's *fixed-diameter* base graph
//! (`K_κ` + path, Section 3.1's "weaker algorithms" fix): whichever clique
//! edges are opened, every resulting dumbbell has the same diameter, so
//! knowledge of `D` cannot help an algorithm distinguish inputs.

use crate::graph::{Graph, GraphError, NodeId};

/// How the four dangling ports are paired into two bridges.
///
/// The paper notes "strictly speaking, there could be two such graphs" and
/// picks one by ID order; we expose both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BridgeOrientation {
    /// `v' – v''` and `w' – w''` (first endpoints together).
    #[default]
    Straight,
    /// `v' – w''` and `w' – v''`.
    Crossed,
}

/// Which half of a dumbbell a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left open graph (`G'[e']` — node indices `0..n_left`).
    Left,
    /// The right open graph (`G''[e'']` — node indices `n_left..`).
    Right,
}

/// A constructed dumbbell graph together with its bridge bookkeeping.
///
/// # Examples
///
/// ```
/// use ule_graph::{dumbbell::Dumbbell, gen};
///
/// let g0 = gen::complete(4)?;
/// let d = Dumbbell::build(&g0, (0, 1), &g0, (2, 3), Default::default())?;
/// assert_eq!(d.graph.len(), 8);
/// // Two bridges replace the two erased edges: edge count is conserved ×2.
/// assert_eq!(d.graph.edge_count(), 2 * g0.edge_count());
/// assert!(d.is_bridge(0, 4 + 2));
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dumbbell {
    /// The combined `2n`-node graph.
    pub graph: Graph,
    /// The two bridge edges (endpoint pairs, left node first).
    pub bridges: [(NodeId, NodeId); 2],
    /// Size of the left half; left nodes are `0..n_left`.
    pub n_left: usize,
}

impl Dumbbell {
    /// Builds `Dumbbell(left[e_left], right[e_right])`.
    ///
    /// The two erased edges' port positions are reused for the bridges, so
    /// each node keeps its exact degree and port numbering from its half.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if either edge is missing from its
    /// graph, or if erasing it would disconnect the half (the paper demands
    /// 2-connected base graphs precisely so this cannot happen; we check).
    pub fn build(
        left: &Graph,
        e_left: (NodeId, NodeId),
        right: &Graph,
        e_right: (NodeId, NodeId),
        orientation: BridgeOrientation,
    ) -> Result<Self, GraphError> {
        let (lv, lw) = e_left;
        let (rv, rw) = e_right;
        for (g, (a, b), side) in [(left, e_left, "left"), (right, e_right, "right")] {
            if !g.has_edge(a, b) {
                return Err(GraphError::InvalidParameters(format!(
                    "{side} edge ({a}, {b}) not present"
                )));
            }
            if !g.remove_edge(a, b)?.is_connected() {
                return Err(GraphError::InvalidParameters(format!(
                    "{side} edge ({a}, {b}) is a cut edge; open graph would be disconnected"
                )));
            }
        }
        let shift = left.len();
        let mut adj = left.to_adjacency();
        adj.extend(
            right
                .to_adjacency()
                .into_iter()
                .map(|nbrs| nbrs.into_iter().map(|u| u + shift).collect::<Vec<_>>()),
        );
        let p_lv = left.port_to(lv, lw).expect("edge checked above");
        let p_lw = left.port_to(lw, lv).expect("edge checked above");
        let p_rv = right.port_to(rv, rw).expect("edge checked above");
        let p_rw = right.port_to(rw, rv).expect("edge checked above");
        let (mate_lv, mate_lw) = match orientation {
            BridgeOrientation::Straight => (rv + shift, rw + shift),
            BridgeOrientation::Crossed => (rw + shift, rv + shift),
        };
        adj[lv][p_lv] = mate_lv;
        adj[lw][p_lw] = mate_lw;
        match orientation {
            BridgeOrientation::Straight => {
                adj[rv + shift][p_rv] = lv;
                adj[rw + shift][p_rw] = lw;
            }
            BridgeOrientation::Crossed => {
                adj[rv + shift][p_rv] = lw;
                adj[rw + shift][p_rw] = lv;
            }
        }
        let graph = Graph::from_adjacency(adj)?;
        debug_assert!(graph.is_connected());
        Ok(Dumbbell {
            graph,
            bridges: [(lv, mate_lv), (lw, mate_lw)],
            n_left: shift,
        })
    }

    /// Which half `v` lies in.
    pub fn side(&self, v: NodeId) -> Side {
        if v < self.n_left {
            Side::Left
        } else {
            Side::Right
        }
    }

    /// Whether `(u, v)` is one of the two bridges.
    pub fn is_bridge(&self, u: NodeId, v: NodeId) -> bool {
        self.bridges
            .iter()
            .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
    }
}

/// The paper's fixed-diameter base graph: `K_κ` on nodes `0..κ`, a path
/// `b_1 … b_{n-κ}` on nodes `κ..n`, and `κ` edges joining `b_1` (node `κ`)
/// to every clique node. `κ` is the largest integer with
/// `κ(κ-1)/2 + κ <= m` (capped at `n-1` so the path is non-empty).
///
/// Returns the graph together with the list of *openable* edges — exactly
/// the clique-internal edges, as in the proof (opening only these keeps the
/// dumbbell diameter independent of the choice).
///
/// # Errors
///
/// Requires `n >= 4` and `n <= m` (the theorem's range is
/// `n <= m <= n(n-1)/2`).
///
/// # Examples
///
/// ```
/// use ule_graph::dumbbell::{clique_path_base, Dumbbell};
/// use ule_graph::analysis::diameter_exact;
///
/// let (g0, openable) = clique_path_base(12, 24)?;
/// // Every choice of opened clique edges yields the same diameter.
/// let d1 = Dumbbell::build(&g0, openable[0], &g0, openable[1], Default::default())?;
/// let d2 = Dumbbell::build(&g0, openable[2], &g0, openable[0], Default::default())?;
/// assert_eq!(diameter_exact(&d1.graph), diameter_exact(&d2.graph));
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
pub fn clique_path_base(n: usize, m: usize) -> Result<(Graph, Vec<(NodeId, NodeId)>), GraphError> {
    if n < 4 {
        return Err(GraphError::InvalidParameters(format!(
            "clique_path_base needs n >= 4, got {n}"
        )));
    }
    if m < n || m > n * (n - 1) / 2 {
        return Err(GraphError::InvalidParameters(format!(
            "clique_path_base needs n <= m <= n(n-1)/2, got n={n}, m={m}"
        )));
    }
    // Largest κ with κ(κ-1)/2 + κ = κ(κ+1)/2 <= m, capped to keep >= 1 path node.
    let mut kappa = 2usize;
    while kappa + 1 < n && (kappa + 1) * (kappa + 2) / 2 <= m {
        kappa += 1;
    }
    let mut edges = Vec::new();
    let mut openable = Vec::new();
    for u in 0..kappa {
        for v in (u + 1)..kappa {
            edges.push((u, v));
            openable.push((u, v));
        }
    }
    // b_1 is node κ; it joins every clique node.
    for u in 0..kappa {
        edges.push((u, kappa));
    }
    for i in kappa..(n - 1) {
        edges.push((i, i + 1));
    }
    let g = Graph::from_edges_connected(n, &edges)?;
    Ok((g, openable))
}

/// Convenience: builds a full dumbbell instance from the fixed-diameter
/// base, choosing the opened edges by index into the openable list.
///
/// # Errors
///
/// Propagates [`clique_path_base`] and [`Dumbbell::build`] errors; the edge
/// indices are taken modulo the openable count, so any index is valid.
pub fn clique_path_dumbbell(
    n: usize,
    m: usize,
    e_left_idx: usize,
    e_right_idx: usize,
) -> Result<Dumbbell, GraphError> {
    let (g0, openable) = clique_path_base(n, m)?;
    let e_left = openable[e_left_idx % openable.len()];
    let e_right = openable[e_right_idx % openable.len()];
    Dumbbell::build(&g0, e_left, &g0, e_right, BridgeOrientation::Straight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diameter_exact;
    use crate::gen;

    #[test]
    fn dumbbell_preserves_ports_outside_bridges() {
        let g0 = gen::complete(5).unwrap();
        let d = Dumbbell::build(&g0, (0, 1), &g0, (3, 4), BridgeOrientation::Straight).unwrap();
        // Node 2 is untouched in the left half: identical neighbour list.
        assert!(d.graph.neighbors_of(2).eq(g0.neighbors_of(2)));
        // Node 0's port to 1 now leads to the right half's node 3 (3 + 5).
        let p = g0.port_to(0, 1).unwrap();
        assert_eq!(d.graph.neighbor(0, p), 5 + 3);
        // Degrees all preserved.
        for v in 0..5 {
            assert_eq!(d.graph.degree(v), g0.degree(v));
            assert_eq!(d.graph.degree(v + 5), g0.degree(v));
        }
    }

    #[test]
    fn dumbbell_edge_count_and_connectivity() {
        let g0 = gen::complete(6).unwrap();
        let d = Dumbbell::build(&g0, (0, 1), &g0, (0, 1), BridgeOrientation::Straight).unwrap();
        assert_eq!(d.graph.len(), 12);
        assert_eq!(d.graph.edge_count(), 2 * g0.edge_count());
        assert!(d.graph.is_connected());
    }

    #[test]
    fn crossed_orientation_differs() {
        let g0 = gen::complete(4).unwrap();
        let s = Dumbbell::build(&g0, (0, 1), &g0, (2, 3), BridgeOrientation::Straight).unwrap();
        let c = Dumbbell::build(&g0, (0, 1), &g0, (2, 3), BridgeOrientation::Crossed).unwrap();
        assert!(s.is_bridge(0, 4 + 2));
        assert!(c.is_bridge(0, 4 + 3));
        assert!(!c.is_bridge(0, 4 + 2));
    }

    #[test]
    fn sides_classified() {
        let g0 = gen::complete(4).unwrap();
        let d = Dumbbell::build(&g0, (0, 1), &g0, (0, 1), BridgeOrientation::Straight).unwrap();
        assert_eq!(d.side(3), Side::Left);
        assert_eq!(d.side(4), Side::Right);
    }

    #[test]
    fn cut_edge_rejected() {
        // In a lollipop, the tail edges are cut edges.
        let g = gen::lollipop(4, 2).unwrap();
        let err = Dumbbell::build(&g, (4, 5), &g, (0, 1), BridgeOrientation::Straight);
        assert!(err.is_err());
    }

    #[test]
    fn missing_edge_rejected() {
        let g0 = gen::cycle(5).unwrap();
        assert!(Dumbbell::build(&g0, (0, 2), &g0, (0, 1), BridgeOrientation::Straight).is_err());
    }

    #[test]
    fn clique_path_base_sizes() {
        let (g, openable) = clique_path_base(20, 60).unwrap();
        assert_eq!(g.len(), 20);
        // κ should satisfy κ(κ+1)/2 <= 60 < (κ+1)(κ+2)/2 → κ = 10.
        assert_eq!(openable.len(), 10 * 9 / 2);
        // m = C(10,2) + 10 + 9 = 45 + 19 = 64 ∈ Θ(m).
        assert_eq!(g.edge_count(), 64);
        assert!(g.is_connected());
    }

    #[test]
    fn clique_path_base_rejects_bad_params() {
        assert!(clique_path_base(3, 10).is_err());
        assert!(clique_path_base(10, 5).is_err());
        assert!(clique_path_base(10, 100).is_err());
    }

    #[test]
    fn fixed_diameter_property() {
        // The whole point of the clique+path base: the dumbbell's diameter
        // does not depend on which clique edges were opened.
        let (g0, openable) = clique_path_base(14, 30).unwrap();
        let mut diameters = std::collections::HashSet::new();
        for i in [0usize, 3, 7] {
            for j in [1usize, 5] {
                let d = Dumbbell::build(
                    &g0,
                    openable[i % openable.len()],
                    &g0,
                    openable[j % openable.len()],
                    BridgeOrientation::Straight,
                )
                .unwrap();
                diameters.insert(diameter_exact(&d.graph).unwrap());
            }
        }
        assert_eq!(diameters.len(), 1, "diameter varied: {diameters:?}");
    }

    #[test]
    fn convenience_builder() {
        let d = clique_path_dumbbell(16, 40, 0, 5).unwrap();
        assert_eq!(d.graph.len(), 32);
        assert!(d.graph.is_connected());
    }

    #[test]
    fn dense_case_kappa_capped() {
        // With m near the maximum, κ caps at n-1 and one path node remains.
        let (g, _) = clique_path_base(6, 15).unwrap();
        assert_eq!(g.len(), 6);
        assert!(g.is_connected());
    }
}
