//! The port-numbered graph type underlying every simulation.
//!
//! The model of the paper (Section 2) gives each node a *port numbering*:
//! node `v` of degree `d` has ports `0..d`, each connected to one incident
//! edge, and `v` has no knowledge of which node sits at the far end of a
//! port. [`Graph`] stores exactly this structure: a CSR adjacency whose
//! per-node neighbour order *is* the port numbering, plus the precomputed
//! reverse ports so the simulator can deliver a message sent on `(v, p)` to
//! the correct port of the far endpoint.

use std::collections::HashSet;
use std::fmt;

/// Index of a node, `0..n`. Distinct from the *identifier* a node carries
/// during an execution (see [`crate::ids::IdAssignment`]): node indices are
/// simulation bookkeeping, identifiers are protocol-visible values chosen by
/// an adversary from `Z = [1, n^4]`.
pub type NodeId = usize;

/// A port index local to one node, `0..deg(v)`.
pub type Port = usize;

/// An undirected edge identified by its position in [`Graph::edges`].
pub type EdgeId = usize;

/// Errors raised while building or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The edge list contained `(v, v)`.
    SelfLoop(NodeId),
    /// The edge list contained the same undirected edge twice.
    DuplicateEdge(NodeId, NodeId),
    /// An endpoint index was `>= n`.
    NodeOutOfRange(NodeId, usize),
    /// A graph with zero nodes was requested.
    Empty,
    /// The graph is not connected but the construction requires it.
    Disconnected,
    /// A generator was asked for parameters it cannot satisfy
    /// (e.g. `m > n(n-1)/2`).
    InvalidParameters(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::NodeOutOfRange(v, n) => {
                write!(f, "node index {v} out of range for {n} nodes")
            }
            GraphError::Empty => write!(f, "graph must have at least one node"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::InvalidParameters(s) => write!(f, "invalid parameters: {s}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// An undirected, simple, connected graph with explicit port numbering.
///
/// Construction goes through [`Graph::from_edges`] (or a generator in
/// [`crate::gen`]); the resulting object is immutable. Ports of node `v` are
/// `0..deg(v)` and correspond to positions in `v`'s neighbour slice; use
/// [`Graph::shuffle_ports`] to obtain the same topology under a different
/// port mapping (the paper's lower bound quantifies over all of these).
///
/// # Examples
///
/// ```
/// use ule_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.edge_count(), 3);
/// assert_eq!(g.degree(0), 2);
/// // Port round-trip: the far end of (v, p) hears us on `reverse_port`.
/// let (u, q) = g.endpoint(0, 0);
/// assert_eq!(g.endpoint(u, q), (0, 0));
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets, `offsets.len() == n + 1`.
    offsets: Vec<usize>,
    /// Neighbour of each `(node, port)` pair, port order = slice order.
    neighbors: Vec<NodeId>,
    /// For the port `(v, p)` at flat index `offsets[v] + p`: the port at
    /// which the far endpoint sees this edge.
    rev_ports: Vec<Port>,
    /// Canonical edge list, `u < v`, sorted lexicographically.
    edges: Vec<(NodeId, NodeId)>,
}

impl Graph {
    /// Builds a graph on `n` nodes from an undirected edge list.
    ///
    /// Edge direction and order are irrelevant for the topology but fix the
    /// initial port numbering: ports of `v` enumerate `v`'s neighbours in
    /// first-appearance order over the input list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on self loops, duplicate edges, out-of-range
    /// endpoints, or `n == 0`. Connectivity is *not* required here; use
    /// [`Graph::from_edges_connected`] when it is.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut seen = HashSet::with_capacity(edges.len());
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange(u, n));
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange(v, n));
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(GraphError::DuplicateEdge(key.0, key.1));
            }
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0usize; 2 * edges.len()];
        for &(u, v) in edges {
            neighbors[cursor[u]] = v;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            cursor[v] += 1;
        }
        let mut canonical: Vec<(NodeId, NodeId)> =
            edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        canonical.sort_unstable();
        let mut g = Graph {
            offsets,
            neighbors,
            rev_ports: Vec::new(),
            edges: canonical,
        };
        g.rebuild_rev_ports();
        Ok(g)
    }

    /// Builds a graph from explicit port-ordered adjacency lists.
    ///
    /// `adj[v][p]` is the neighbour behind port `p` of `v`. This is the
    /// constructor for callers that must control port numbering exactly —
    /// the dumbbell builder splices bridge edges into the *vacated* port
    /// positions so that executions on the dumbbell are indistinguishable
    /// from executions on the open halves until a bridge is crossed
    /// (the heart of Lemma 3.5).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the lists are asymmetric, contain self
    /// loops or duplicates, or reference out-of-range nodes.
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let n = adj.len();
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut seen = HashSet::new();
        for (v, nbrs) in adj.iter().enumerate() {
            let mut local = HashSet::with_capacity(nbrs.len());
            for &u in nbrs {
                if u >= n {
                    return Err(GraphError::NodeOutOfRange(u, n));
                }
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
                if !local.insert(u) {
                    return Err(GraphError::DuplicateEdge(v.min(u), v.max(u)));
                }
                if !adj[u].contains(&v) {
                    return Err(GraphError::InvalidParameters(format!(
                        "asymmetric adjacency: {v} lists {u} but not vice versa"
                    )));
                }
                seen.insert((v.min(u), v.max(u)));
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + adj[v].len();
        }
        let neighbors: Vec<NodeId> = adj.into_iter().flatten().collect();
        let mut edges: Vec<(NodeId, NodeId)> = seen.into_iter().collect();
        edges.sort_unstable();
        let mut g = Graph {
            offsets,
            neighbors,
            rev_ports: Vec::new(),
            edges,
        };
        g.rebuild_rev_ports();
        Ok(g)
    }

    /// Port-ordered adjacency lists, the inverse of [`Graph::from_adjacency`].
    pub fn to_adjacency(&self) -> Vec<Vec<NodeId>> {
        self.nodes()
            .map(|v| self.neighbors_of(v).to_vec())
            .collect()
    }

    /// Like [`Graph::from_edges`] but additionally requires connectivity.
    ///
    /// # Errors
    ///
    /// All of [`Graph::from_edges`]'s errors, plus
    /// [`GraphError::Disconnected`].
    pub fn from_edges_connected(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let g = Self::from_edges(n, edges)?;
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    fn rebuild_rev_ports(&mut self) {
        let n = self.len();
        self.rev_ports = vec![0; self.neighbors.len()];
        for v in 0..n {
            for p in 0..self.degree(v) {
                let u = self.neighbor(v, p);
                // Position of v in u's neighbour list. Simple graphs have at
                // most one such position.
                let q = self
                    .neighbors_of(u)
                    .iter()
                    .position(|&w| w == v)
                    .expect("edge must appear in both endpoints' lists");
                self.rev_ports[self.offsets[v] + p] = q;
            }
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` iff the graph has no nodes. Never true for constructed graphs
    /// (construction rejects `n == 0`) but required by convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of `v` (also the number of ports of `v`).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The neighbour reached from `v` through port `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, p: Port) -> NodeId {
        debug_assert!(p < self.degree(v), "port {p} out of range at node {v}");
        self.neighbors[self.offsets[v] + p]
    }

    /// The far endpoint of port `(v, p)` together with the port at which
    /// that endpoint sees the same edge.
    #[inline]
    pub fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let idx = self.offsets[v] + p;
        (self.neighbors[idx], self.rev_ports[idx])
    }

    /// [`Graph::endpoint`] and [`Graph::directed_index`] in one CSR lookup:
    /// `(far endpoint, reverse port, directed index)`.
    ///
    /// The simulator's message fan-out needs all three per sent message;
    /// resolving them from a single offset computation keeps the sharded
    /// engine's per-message work (and cross-thread cache traffic on the
    /// CSR arrays) minimal.
    #[inline]
    pub fn endpoint_indexed(&self, v: NodeId, p: Port) -> (NodeId, Port, usize) {
        let idx = self.offsets[v] + p;
        (self.neighbors[idx], self.rev_ports[idx], idx)
    }

    /// Port-ordered neighbour slice of `v`.
    #[inline]
    pub fn neighbors_of(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Flat index of the *directed* edge `(v, p)` in `0..2m`, stable for a
    /// given graph. Used by the simulator to record per-directed-edge
    /// statistics (e.g. the first round each edge carried a message, as in
    /// the experiment of Lemma 3.5).
    #[inline]
    pub fn directed_index(&self, v: NodeId, p: Port) -> usize {
        debug_assert!(p < self.degree(v));
        self.offsets[v] + p
    }

    /// Number of directed edges, `2m`.
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// The port of `v` that leads to `u`, if the edge exists.
    ///
    /// Scans the *sparser* endpoint's neighbour list and resolves through
    /// `rev_ports`, so the cost is `O(min(deg(v), deg(u)))` — on dense
    /// families (stars, cliques) asking a leaf/hub question no longer pays
    /// the hub's full degree.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        if u >= self.len() {
            return None;
        }
        if self.degree(u) < self.degree(v) {
            let q = self.neighbors_of(u).iter().position(|&w| w == v)?;
            Some(self.rev_ports[self.offsets[u] + q])
        } else {
            self.neighbors_of(v).iter().position(|&w| w == u)
        }
    }

    /// Canonical sorted edge list (`u < v` within each pair).
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Looks up the [`EdgeId`] of `(u, v)` in the canonical list.
    pub fn edge_id(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let key = (u.min(v), u.max(v));
        self.edges.binary_search(&key).ok()
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_id(u, v).is_some()
    }

    /// Iterator over node indices `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.len()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the graph is connected (singleton graphs are connected).
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for &u in self.neighbors_of(v) {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == n
    }

    /// Returns the same topology with every node's port numbering
    /// independently permuted, using `rng`.
    ///
    /// The paper's lower bounds quantify over all port mappings
    /// (Fact 3.3(a) counts them); sweeping seeds through this method samples
    /// that space.
    pub fn shuffle_ports<R: rand::Rng>(&self, rng: &mut R) -> Graph {
        use rand::seq::SliceRandom;
        let mut out = self.clone();
        for v in 0..self.len() {
            let lo = self.offsets[v];
            let hi = self.offsets[v + 1];
            out.neighbors[lo..hi].shuffle(rng);
        }
        out.rebuild_rev_ports();
        out
    }

    /// Removes one undirected edge, returning the smaller graph.
    ///
    /// Used by the dumbbell construction to produce "open graphs" `G[e]`.
    /// Note the resulting port numbering of the two endpoints *shifts down*
    /// for ports above the removed one; the dumbbell builder compensates by
    /// splicing the bridge into the vacated position instead
    /// (see [`crate::dumbbell`]).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if the edge does not exist.
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> Result<Graph, GraphError> {
        if !self.has_edge(u, v) {
            return Err(GraphError::InvalidParameters(format!(
                "edge ({u}, {v}) not present"
            )));
        }
        let edges: Vec<(NodeId, NodeId)> = self
            .edges
            .iter()
            .copied()
            .filter(|&e| e != (u.min(v), u.max(v)))
            .collect();
        Graph::from_edges(self.len(), &edges)
    }

    /// Builds the disjoint union of two graphs; nodes of `other` are
    /// shifted by `self.len()`.
    ///
    /// The result is disconnected — this is the "illegal input" `G'^2` used
    /// by the experiment of Lemma 3.5 (running an algorithm on two
    /// disconnected copies of the same open graph).
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.len();
        let mut edges: Vec<(NodeId, NodeId)> = self.edges.clone();
        edges.extend(other.edges.iter().map(|&(u, v)| (u + shift, v + shift)));
        Graph::from_edges(self.len() + other.len(), &edges).expect("union of valid graphs is valid")
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.len())
            .field("m", &self.edge_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn builds_csr_correctly() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors_of(0), &[1, 2]);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 0)]).unwrap_err(),
            GraphError::SelfLoop(0)
        );
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap_err(),
            GraphError::DuplicateEdge(0, 1)
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 5)]).unwrap_err(),
            GraphError::NodeOutOfRange(5, 2)
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Graph::from_edges(0, &[]).unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn connectivity_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert!(triangle().is_connected());
        assert!(Graph::from_edges_connected(4, &[(0, 1), (2, 3)]).is_err());
    }

    #[test]
    fn ports_round_trip() {
        let g = triangle();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = g.endpoint(v, p);
                assert_eq!(g.endpoint(u, q), (v, p));
            }
        }
    }

    #[test]
    fn shuffled_ports_preserve_topology_and_round_trip() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let h = g.shuffle_ports(&mut rng);
        assert_eq!(g.edges(), h.edges());
        for v in h.nodes() {
            let mut a: Vec<_> = g.neighbors_of(v).to_vec();
            let mut b: Vec<_> = h.neighbors_of(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
            for p in 0..h.degree(v) {
                let (u, q) = h.endpoint(v, p);
                assert_eq!(h.endpoint(u, q), (v, p));
            }
        }
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        assert!(g.has_edge(0, 2));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.edge_id(1, 0), Some(0));
        assert_eq!(g.port_to(0, 2), Some(1));
        assert_eq!(g.port_to(1, 1), None);
        assert_eq!(g.port_to(1, 9), None);
    }

    #[test]
    fn port_to_resolves_through_the_sparser_endpoint() {
        // Star: the hub query takes the leaf's O(1) list either way around.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        for leaf in 1..5 {
            let p = g.port_to(0, leaf).unwrap();
            assert_eq!(g.neighbor(0, p), leaf);
            assert_eq!(g.port_to(leaf, 0), Some(0));
        }
        assert_eq!(g.port_to(1, 2), None);
    }

    #[test]
    fn remove_edge_works() {
        let g = triangle();
        let h = g.remove_edge(1, 2).unwrap();
        assert_eq!(h.edge_count(), 2);
        assert!(!h.has_edge(1, 2));
        assert!(h.has_edge(0, 1));
        assert!(g.remove_edge(1, 1).is_err());
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = triangle();
        let u = g.disjoint_union(&g);
        assert_eq!(u.len(), 6);
        assert_eq!(u.edge_count(), 6);
        assert!(u.has_edge(3, 4));
        assert!(!u.has_edge(0, 3));
        assert!(!u.is_connected());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", triangle()).is_empty());
    }

    #[test]
    fn directed_index_round_trip() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]).unwrap();
        // Indices enumerate the `(node, port)` pairs in order, densely.
        let mut next = 0;
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                assert_eq!(g.directed_index(v, p), next);
                next += 1;
            }
        }
        assert_eq!(next, g.directed_edge_count());
        assert_eq!(next, 10);
    }

    #[test]
    fn endpoint_indexed_agrees_with_split_accessors() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (3, 4), (2, 3)]).unwrap();
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q, idx) = g.endpoint_indexed(v, p);
                assert_eq!((u, q), g.endpoint(v, p));
                assert_eq!(idx, g.directed_index(v, p));
            }
        }
    }

    #[test]
    fn adjacency_round_trip() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let h = Graph::from_adjacency(g.to_adjacency()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn adjacency_rejects_asymmetry() {
        let err = Graph::from_adjacency(vec![vec![1], vec![]]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters(_)));
    }

    #[test]
    fn adjacency_rejects_self_loop_and_dup() {
        assert!(matches!(
            Graph::from_adjacency(vec![vec![0]]).unwrap_err(),
            GraphError::SelfLoop(0)
        ));
        assert!(matches!(
            Graph::from_adjacency(vec![vec![1, 1], vec![0, 0]]).unwrap_err(),
            GraphError::DuplicateEdge(0, 1)
        ));
    }

    #[test]
    fn adjacency_controls_port_order() {
        let g = Graph::from_adjacency(vec![vec![2, 1], vec![0, 2], vec![1, 0]]).unwrap();
        assert_eq!(g.neighbor(0, 0), 2);
        assert_eq!(g.neighbor(0, 1), 1);
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let (u, q) = g.endpoint(v, p);
                assert_eq!(g.endpoint(u, q), (v, p));
            }
        }
    }
}
