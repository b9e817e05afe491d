//! The port-numbered graph type underlying every simulation.
//!
//! The model of the paper (Section 2) gives each node a *port numbering*:
//! node `v` of degree `d` has ports `0..d`, each connected to one incident
//! edge, and `v` has no knowledge of which node sits at the far end of a
//! port. [`Graph`] stores exactly this structure: a CSR adjacency whose
//! per-node neighbour order *is* the port numbering, plus the precomputed
//! reverse ports so the simulator can deliver a message sent on `(v, p)` to
//! the correct port of the far endpoint.

use std::fmt;

/// Index of a node, `0..n`. Distinct from the *identifier* a node carries
/// during an execution (see [`crate::ids::IdAssignment`]): node indices are
/// simulation bookkeeping, identifiers are protocol-visible values chosen by
/// an adversary from `Z = [1, n^4]`.
pub type NodeId = usize;

/// A port index local to one node, `0..deg(v)`.
pub type Port = usize;

/// The most nodes a [`Graph`] holds: its columns store node indices and
/// ports as `u32`.
const MAX_NODES: usize = u32::MAX as usize;

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
    /// A graph with more than `u32::MAX` nodes was requested.
    TooManyNodes(usize),
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
            GraphError::TooManyNodes(n) => write!(f, "{n} nodes exceed the limit of {MAX_NODES}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::InvalidParameters(s) => write!(f, "invalid parameters: {s}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Refuses a node count no [`Graph`] can hold, before anything is
/// allocated for it.
pub(crate) fn check_node_count(n: usize) -> Result<(), GraphError> {
    match n {
        0 => Err(GraphError::Empty),
        n if n > MAX_NODES => Err(GraphError::TooManyNodes(n)),
        _ => Ok(()),
    }
}

/// An undirected, simple, connected graph with explicit port numbering.
///
/// Construction goes through [`Graph::from_edges`] (or a generator in
/// [`crate::gen`]); the resulting object is immutable. Ports of node `v` are
/// `0..deg(v)` and correspond to positions in `v`'s neighbour list; use
/// [`Graph::shuffle_ports`] to obtain the same topology under a different
/// port mapping (the paper's lower bound quantifies over all of these).
/// The graph holds its CSR columns only, `8 + 16·(m/n)` bytes a node:
/// node indices and ports are stored as `u32`, so a graph has at most
/// `u32::MAX` nodes ([`GraphError::TooManyNodes`]).
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
    neighbors: Vec<u32>,
    /// For the port `(v, p)` at flat index `offsets[v] + p`: the port at
    /// which the far endpoint sees this edge.
    rev_ports: Vec<u32>,
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
    /// endpoints, `n == 0` or `n > u32::MAX`. Connectivity is *not*
    /// required here; use [`Graph::from_edges_connected`] when it is.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        check_node_count(n)?;
        // Duplicates sit side by side in the sorted canonical list, which
        // is dropped before the CSR is allocated.
        let mut canonical = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if let Some(w) = [u, v].into_iter().find(|&w| w >= n) {
                return Err(GraphError::NodeOutOfRange(w, n));
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            canonical.push((u.min(v) as u32, u.max(v) as u32));
        }
        canonical.sort_unstable();
        if let Some(pair) = canonical.windows(2).find(|pair| pair[0] == pair[1]) {
            let (u, v) = pair[0];
            return Err(GraphError::DuplicateEdge(u as usize, v as usize));
        }
        drop(canonical);

        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `next[v]` is `v`'s next free port: placing an edge hands out one
        // port at each end, so each end learns the other's port right away.
        let mut next = vec![0u32; n];
        let mut neighbors = vec![0u32; offsets[n]];
        let mut rev_ports = vec![0u32; offsets[n]];
        for &(u, v) in edges {
            let (p, q) = (next[u], next[v]);
            neighbors[offsets[u] + p as usize] = v as u32;
            rev_ports[offsets[u] + p as usize] = q;
            neighbors[offsets[v] + q as usize] = u as u32;
            rev_ports[offsets[v] + q as usize] = p;
            next[u] += 1;
            next[v] += 1;
        }
        Ok(Graph {
            offsets,
            neighbors,
            rev_ports,
        })
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
    /// loops or duplicates, reference out-of-range nodes, or number zero or
    /// more than `u32::MAX`.
    pub fn from_adjacency(adj: Vec<Vec<NodeId>>) -> Result<Self, GraphError> {
        let n = adj.len();
        check_node_count(n)?;
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        for (v, nbrs) in adj.into_iter().enumerate() {
            for u in nbrs {
                if u >= n {
                    return Err(GraphError::NodeOutOfRange(u, n));
                }
                if u == v {
                    return Err(GraphError::SelfLoop(v));
                }
                neighbors.push(u as u32);
            }
            offsets.push(neighbors.len());
        }
        let rev_ports = reverse_ports(&offsets, &neighbors)?;
        Ok(Graph {
            offsets,
            neighbors,
            rev_ports,
        })
    }

    /// Port-ordered adjacency lists, the inverse of [`Graph::from_adjacency`].
    pub fn to_adjacency(&self) -> Vec<Vec<NodeId>> {
        self.nodes()
            .map(|v| self.neighbors_of(v).collect())
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
        self.directed_edge_count() / 2
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
        self.neighbors[self.offsets[v] + p] as NodeId
    }

    /// The far endpoint of port `(v, p)` together with the port at which
    /// that endpoint sees the same edge.
    #[inline]
    pub fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let idx = self.offsets[v] + p;
        (self.neighbors[idx] as NodeId, self.rev_ports[idx] as Port)
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
        (
            self.neighbors[idx] as NodeId,
            self.rev_ports[idx] as Port,
            idx,
        )
    }

    /// `v`'s neighbours in port order.
    #[inline]
    pub fn neighbors_of(&self, v: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.neighbors[self.offsets[v]..self.offsets[v + 1]]
            .iter()
            .map(|&u| u as NodeId)
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
        if u >= self.len() || v >= self.len() {
            return None;
        }
        if self.degree(u) < self.degree(v) {
            let q = self.neighbors_of(u).position(|w| w == v)?;
            Some(self.rev_ports[self.offsets[u] + q] as Port)
        } else {
            self.neighbors_of(v).position(|w| w == u)
        }
    }

    /// Canonical sorted edge list (`u < v` within each pair), built on
    /// demand from the ports.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut edges = Vec::with_capacity(self.edge_count());
        for v in self.nodes() {
            edges.extend(self.neighbors_of(v).filter(|&u| v < u).map(|u| (v, u)));
        }
        edges.sort_unstable();
        edges
    }

    /// Whether the undirected edge `(u, v)` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.port_to(u, v).is_some()
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
        crate::analysis::eccentricity(self, 0).is_some()
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
        for v in self.nodes() {
            out.neighbors[self.offsets[v]..self.offsets[v + 1]].shuffle(rng);
        }
        out.rev_ports = reverse_ports(&out.offsets, &out.neighbors)
            .expect("permuting ports keeps the graph simple and symmetric");
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
        let mut edges = self.edges();
        edges.retain(|&e| e != (u.min(v), u.max(v)));
        Graph::from_edges(self.len(), &edges)
    }

    /// Builds the disjoint union of two graphs; nodes of `other` are
    /// shifted by `self.len()`.
    ///
    /// The result is disconnected — this is the "illegal input" `G'^2` used
    /// by the experiment of Lemma 3.5 (running an algorithm on two
    /// disconnected copies of the same open graph).
    ///
    /// # Errors
    ///
    /// [`GraphError::TooManyNodes`] if the two hold more than `u32::MAX`
    /// nodes together.
    pub fn disjoint_union(&self, other: &Graph) -> Result<Graph, GraphError> {
        let shift = self.len();
        check_node_count(shift + other.len())?;
        let mut edges = self.edges();
        edges.extend(
            other
                .edges()
                .into_iter()
                .map(|(u, v)| (u + shift, v + shift)),
        );
        Graph::from_edges(shift + other.len(), &edges)
    }
}

/// The reverse port of every port of a port-ordered CSR, or the first
/// duplicate or one-sided edge: sorted by edge and then by the end they
/// sit at, the two ports of each edge lie side by side.
fn reverse_ports(offsets: &[usize], neighbors: &[u32]) -> Result<Vec<u32>, GraphError> {
    let mut ports = Vec::with_capacity(neighbors.len());
    for (v, range) in offsets.windows(2).enumerate() {
        let v = v as u32;
        for (p, &u) in neighbors[range[0]..range[1]].iter().enumerate() {
            ports.push(((u.min(v), u.max(v), v), p as u32));
        }
    }
    ports.sort_unstable();
    if let Some(pair) = ports.windows(2).find(|pair| pair[0].0 == pair[1].0) {
        let (lo, hi, _) = pair[0].0;
        return Err(GraphError::DuplicateEdge(lo as usize, hi as usize));
    }
    let mut rev_ports = vec![0u32; neighbors.len()];
    for pair in ports.chunks(2) {
        let ((lo, hi, v), p) = pair[0];
        match pair.get(1) {
            Some(&((lo2, hi2, _), q)) if (lo2, hi2) == (lo, hi) => {
                rev_ports[offsets[lo as usize] + p as usize] = q;
                rev_ports[offsets[hi as usize] + q as usize] = p;
            }
            _ => {
                let u = if v == lo { hi } else { lo };
                return Err(GraphError::InvalidParameters(format!(
                    "asymmetric adjacency: {v} lists {u} but not vice versa"
                )));
            }
        }
    }
    Ok(rev_ports)
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
        assert_eq!(g.neighbors_of(0).collect::<Vec<_>>(), [1, 2]);
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
    fn rejects_more_nodes_than_u32_indices_reach() {
        let n = u32::MAX as usize + 1;
        assert_eq!(
            Graph::from_edges(n, &[]).unwrap_err(),
            GraphError::TooManyNodes(n)
        );
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
            let mut a: Vec<_> = g.neighbors_of(v).collect();
            let mut b: Vec<_> = h.neighbors_of(v).collect();
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
        let u = g.disjoint_union(&g).unwrap();
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
