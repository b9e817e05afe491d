//! Procedural (implicit) topologies.
//!
//! A materialized [`Graph`] stores the CSR neighbour/reverse-port arrays —
//! `2m` entries each — which at 10⁸ nodes is the dominant memory cost of a
//! simulation. Every *structured* generator family, however, has a closed
//! form for "who is behind port `p` of node `v`", so the simulator never
//! needs the arrays at all: the [`Topology`] trait abstracts exactly the
//! lookups the execution core performs per message, and
//! [`ImplicitTopology`] answers them in O(1) time and O(1) memory for the
//! structured families (cycle, path, star, complete, grid, torus,
//! hypercube, complete binary tree, clique-cycle).
//!
//! The contract is strict: an implicit topology must be *indistinguishable*
//! from the materialized graph the corresponding generator builds — same
//! node numbering, same port numbering (first-appearance order over the
//! generator's edge list), same reverse ports, and same directed-edge
//! indices (`degree-prefix-sum(v) + p`, matching [`Graph::directed_index`]).
//! That makes `RunOutcome`s byte-identical between the two representations,
//! including adversarial message fates keyed by directed-edge index.

use crate::gen::{self, Family};
use crate::graph::{Graph, NodeId, Port};

/// The topology lookups the execution core performs, abstracted over the
/// representation (materialized CSR arrays or closed-form arithmetic).
///
/// Implementors must satisfy the port-numbering round trip: if
/// `endpoint(v, p) == (u, q)` then `endpoint(u, q) == (v, p)`, and
/// `endpoint_indexed(v, p).2` must equal `Σ_{w<v} degree(w) + p` (the flat
/// directed-edge index [`Graph::directed_index`] computes).
pub trait Topology: Sync {
    /// Number of nodes `n`.
    fn n(&self) -> usize;

    /// Degree of `v` (also the number of ports of `v`).
    fn degree(&self, v: NodeId) -> usize;

    /// The far endpoint of port `(v, p)` together with the port at which
    /// that endpoint sees the same edge.
    fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port);

    /// [`Topology::endpoint`] plus the flat directed-edge index in `0..2m`.
    fn endpoint_indexed(&self, v: NodeId, p: Port) -> (NodeId, Port, usize);

    /// Flat index of the directed edge `(v, p)` in `0..2m`.
    fn directed_index(&self, v: NodeId, p: Port) -> usize {
        self.endpoint_indexed(v, p).2
    }

    /// Number of directed edges, `2m`.
    fn directed_edge_count(&self) -> usize;

    /// Whether the undirected edge `(u, v)` is present.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// Maximum degree over all nodes.
    fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Exact diameter when the representation knows it in closed form
    /// (`None` otherwise — callers fall back to BFS on a materialized
    /// graph).
    fn diameter_hint(&self) -> Option<usize> {
        None
    }
}

impl Topology for Graph {
    #[inline]
    fn n(&self) -> usize {
        self.len()
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        Graph::endpoint(self, v, p)
    }

    #[inline]
    fn endpoint_indexed(&self, v: NodeId, p: Port) -> (NodeId, Port, usize) {
        Graph::endpoint_indexed(self, v, p)
    }

    #[inline]
    fn directed_index(&self, v: NodeId, p: Port) -> usize {
        Graph::directed_index(self, v, p)
    }

    #[inline]
    fn directed_edge_count(&self) -> usize {
        Graph::directed_edge_count(self)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }

    fn max_degree(&self) -> usize {
        Graph::max_degree(self)
    }
}

/// A structured-family topology answered by arithmetic instead of arrays.
///
/// Construct via [`ImplicitTopology::from_family`] (mirroring
/// [`Family::build`]'s size rounding exactly) or
/// [`ImplicitTopology::clique_cycle`] (mirroring
/// [`crate::clique_cycle::CliqueCycle::build`]). [`materialize`] builds the
/// byte-identical CSR graph for cross-checking.
///
/// [`materialize`]: ImplicitTopology::materialize
///
/// # Examples
///
/// ```
/// use ule_graph::{gen, ImplicitTopology, Topology};
///
/// let t = ImplicitTopology::from_family(gen::Family::Cycle, 1_000_000).unwrap();
/// assert_eq!(t.n(), 1_000_000);
/// assert_eq!(t.degree(0), 2);
/// // The far end of (v, p) hears us on the reverse port, with no CSR arrays.
/// let (u, q) = t.endpoint(0, 1);
/// assert_eq!((u, q), (999_999, 1));
/// assert_eq!(t.endpoint(u, q), (0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplicitTopology {
    /// Ring `0 - 1 - … - (n-1) - 0`, `n >= 3` ([`crate::gen::cycle`]).
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// Path `0 - 1 - … - (n-1)` ([`crate::gen::path`]).
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Star with hub 0 ([`crate::gen::star`]), `n >= 2`.
    Star {
        /// Number of nodes.
        n: usize,
    },
    /// Complete graph `K_n` ([`crate::gen::complete`]).
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// `rows × cols` grid, row-major node numbering ([`crate::gen::grid`]).
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// `rows × cols` torus, `rows, cols >= 3` ([`crate::gen::torus`]).
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// `dim`-dimensional hypercube on `2^dim` nodes
    /// ([`crate::gen::hypercube`]), `dim >= 1`.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Complete binary tree of the given depth on `2^{depth+1} - 1` nodes
    /// in heap order ([`crate::gen::complete_binary_tree`]).
    CompleteBinaryTree {
        /// Depth (`0` is a single node).
        depth: usize,
    },
    /// The Theorem 3.13 clique-cycle: `d_prime` cliques of size
    /// `gamma >= 2` in a ring, single connector edges between consecutive
    /// cliques ([`crate::clique_cycle::CliqueCycle`]). The degenerate
    /// `gamma == 1` case is normalized to [`ImplicitTopology::Cycle`] at
    /// construction.
    CliqueCycle {
        /// Number of cliques (a multiple of 4).
        d_prime: usize,
        /// Clique size (`>= 2`).
        gamma: usize,
    },
}

impl ImplicitTopology {
    /// The implicit counterpart of [`Family::build`] at (roughly) `n`
    /// nodes, with identical size rounding — `None` for the random
    /// families (and for sizes the generator rejects), which have no
    /// closed form.
    pub fn from_family(family: Family, n: usize) -> Option<ImplicitTopology> {
        match family {
            Family::Path if n >= 1 => Some(ImplicitTopology::Path { n }),
            Family::Cycle if n >= 3 => Some(ImplicitTopology::Cycle { n }),
            Family::Star if n >= 2 => Some(ImplicitTopology::Star { n }),
            Family::Complete if n >= 1 => Some(ImplicitTopology::Complete { n }),
            Family::Grid => {
                let side = gen::square_side(n, 1);
                Some(ImplicitTopology::Grid {
                    rows: side,
                    cols: side,
                })
            }
            Family::Torus => {
                let side = gen::square_side(n, 3);
                Some(ImplicitTopology::Torus {
                    rows: side,
                    cols: side,
                })
            }
            Family::Hypercube => Some(ImplicitTopology::Hypercube {
                dim: gen::hypercube_dim(n),
            }),
            Family::CompleteBinaryTree if n >= 1 => Some(ImplicitTopology::CompleteBinaryTree {
                depth: gen::bintree_depth(n),
            }),
            _ => None,
        }
    }

    /// The implicit counterpart of
    /// [`crate::clique_cycle::CliqueCycle::build`] for `n` nodes and
    /// diameter parameter `d` (requires `2 < d < n`, like the builder).
    pub fn clique_cycle(n: usize, d: usize) -> Option<ImplicitTopology> {
        if d <= 2 || d >= n {
            return None;
        }
        let d_prime = 4 * d.div_ceil(4);
        let gamma = n.div_ceil(d_prime).max(1);
        if gamma == 1 {
            Some(ImplicitTopology::Cycle { n: d_prime })
        } else {
            Some(ImplicitTopology::CliqueCycle { d_prime, gamma })
        }
    }

    /// Builds the byte-identical materialized [`Graph`] (same node and
    /// port numbering). Intended for conformance testing and for callers
    /// that need full-graph analyses; at scale the whole point is *not*
    /// to call this.
    ///
    /// # Panics
    ///
    /// Panics if the generator rejects the stored parameters — impossible
    /// for values produced by the constructors.
    pub fn materialize(&self) -> Graph {
        match *self {
            ImplicitTopology::Cycle { n } => gen::cycle(n),
            ImplicitTopology::Path { n } => gen::path(n),
            ImplicitTopology::Star { n } => gen::star(n),
            ImplicitTopology::Complete { n } => gen::complete(n),
            ImplicitTopology::Grid { rows, cols } => gen::grid(rows, cols),
            ImplicitTopology::Torus { rows, cols } => gen::torus(rows, cols),
            ImplicitTopology::Hypercube { dim } => gen::hypercube(dim),
            ImplicitTopology::CompleteBinaryTree { depth } => gen::balanced_tree(2, depth),
            ImplicitTopology::CliqueCycle { d_prime, gamma } => {
                // Mirror clique_cycle.rs exactly: all clique-internal edges
                // (clique-major, nested a < b), then the connector ring.
                let mut edges = Vec::new();
                for c in 0..d_prime {
                    let base = c * gamma;
                    for a in 0..gamma {
                        for b in (a + 1)..gamma {
                            edges.push((base + a, base + b));
                        }
                    }
                }
                for c in 0..d_prime {
                    edges.push((c * gamma + (gamma - 1), ((c + 1) % d_prime) * gamma));
                }
                Graph::from_edges(d_prime * gamma, &edges)
            }
        }
        .expect("implicit topology parameters are generator-valid")
    }

    /// Exact diameter in closed form (`None` only for the clique-cycle,
    /// whose diameter the harness measures on a materialized instance).
    pub fn diameter(&self) -> Option<usize> {
        match *self {
            ImplicitTopology::Cycle { n } => Some(n / 2),
            ImplicitTopology::Path { n } => Some(n - 1),
            ImplicitTopology::Star { n } => Some(match n {
                1 => 0,
                2 => 1,
                _ => 2,
            }),
            ImplicitTopology::Complete { n } => Some(if n == 1 { 0 } else { 1 }),
            ImplicitTopology::Grid { rows, cols } => Some(rows + cols - 2),
            ImplicitTopology::Torus { rows, cols } => Some(rows / 2 + cols / 2),
            ImplicitTopology::Hypercube { dim } => Some(dim as usize),
            ImplicitTopology::CompleteBinaryTree { depth } => Some(2 * depth),
            ImplicitTopology::CliqueCycle { .. } => None,
        }
    }

    /// Sum of degrees of all nodes `< v` — the base of `v`'s directed-edge
    /// index block, in closed form per family.
    fn degree_prefix(&self, v: NodeId) -> usize {
        match *self {
            ImplicitTopology::Cycle { .. } => 2 * v,
            ImplicitTopology::Path { n } => {
                if n == 1 || v == 0 {
                    0
                } else {
                    2 * v - 1
                }
            }
            ImplicitTopology::Star { n } => {
                if v == 0 {
                    0
                } else {
                    (n - 1) + (v - 1)
                }
            }
            ImplicitTopology::Complete { n } => (n - 1) * v,
            ImplicitTopology::Grid { rows, cols } => {
                let (r, c) = (v / cols, v % cols);
                // Full rows 0..r: `cols` vertical stubs per present side
                // plus the row's horizontal stubs (2·cols - 2).
                let mut sum = 0;
                if r > 0 {
                    let interior_rows = r.saturating_sub(1).min(rows.saturating_sub(2));
                    let edge_rows = r - interior_rows; // rows with one vertical side
                    let hor = if cols > 1 { 2 * cols - 2 } else { 0 };
                    sum += interior_rows * (2 * cols + hor) + edge_rows * (cols + hor);
                }
                // Partial row r: columns 0..c.
                let vert = usize::from(r > 0) + usize::from(r + 1 < rows);
                sum += c * vert + c.saturating_sub(1) + c.min(cols.saturating_sub(1));
                sum
            }
            ImplicitTopology::Torus { .. } => 4 * v,
            ImplicitTopology::Hypercube { dim } => dim as usize * v,
            ImplicitTopology::CompleteBinaryTree { depth } => {
                if depth == 0 || v == 0 {
                    0
                } else {
                    let internal = (1usize << depth) - 1;
                    2 + 3 * (v.min(internal) - 1) + v.saturating_sub(internal)
                }
            }
            ImplicitTopology::CliqueCycle { gamma, .. } => {
                let (c, a) = (v / gamma, v % gamma);
                c * (gamma * (gamma - 1) + 2) + a * (gamma - 1) + usize::from(a > 0)
            }
        }
    }
}

/// The ordered (by edge-insertion position) incident edges of a torus
/// node: `(global edge position, neighbour row, neighbour col)`. The
/// generator pushes each node's right edge then down edge in row-major
/// node order, so the edge at `(r, c)`→right has global position
/// `2·(r·cols + c)` and →down `2·(r·cols + c) + 1`.
fn torus_incident(rows: usize, cols: usize, r: usize, c: usize) -> [(usize, usize, usize); 4] {
    let lc = (c + cols - 1) % cols;
    let ur = (r + rows - 1) % rows;
    let mut e = [
        (2 * (r * cols + lc), r, lc),            // left neighbour's right edge
        (2 * (ur * cols + c) + 1, ur, c),        // up neighbour's down edge
        (2 * (r * cols + c), r, (c + 1) % cols), // own right edge
        (2 * (r * cols + c) + 1, (r + 1) % rows, c), // own down edge
    ];
    e.sort_unstable_by_key(|&(pos, _, _)| pos);
    e
}

impl Topology for ImplicitTopology {
    fn n(&self) -> usize {
        match *self {
            ImplicitTopology::Cycle { n }
            | ImplicitTopology::Path { n }
            | ImplicitTopology::Star { n }
            | ImplicitTopology::Complete { n } => n,
            ImplicitTopology::Grid { rows, cols } | ImplicitTopology::Torus { rows, cols } => {
                rows * cols
            }
            ImplicitTopology::Hypercube { dim } => 1usize << dim,
            ImplicitTopology::CompleteBinaryTree { depth } => (1usize << (depth + 1)) - 1,
            ImplicitTopology::CliqueCycle { d_prime, gamma } => d_prime * gamma,
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        debug_assert!(v < self.n(), "node {v} out of range");
        match *self {
            ImplicitTopology::Cycle { .. } => 2,
            ImplicitTopology::Path { n } => {
                if n == 1 {
                    0
                } else if v == 0 || v == n - 1 {
                    1
                } else {
                    2
                }
            }
            ImplicitTopology::Star { n } => {
                if v == 0 {
                    n - 1
                } else {
                    1
                }
            }
            ImplicitTopology::Complete { n } => n - 1,
            ImplicitTopology::Grid { rows, cols } => {
                let (r, c) = (v / cols, v % cols);
                usize::from(r > 0)
                    + usize::from(c > 0)
                    + usize::from(c + 1 < cols)
                    + usize::from(r + 1 < rows)
            }
            ImplicitTopology::Torus { .. } => 4,
            ImplicitTopology::Hypercube { dim } => dim as usize,
            ImplicitTopology::CompleteBinaryTree { depth } => {
                if depth == 0 {
                    0
                } else if v == 0 {
                    2
                } else if v < (1usize << depth) - 1 {
                    3
                } else {
                    1
                }
            }
            ImplicitTopology::CliqueCycle { gamma, .. } => {
                let a = v % gamma;
                (gamma - 1) + usize::from(a == 0 || a == gamma - 1)
            }
        }
    }

    fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        debug_assert!(
            p < self.degree(v),
            "port {p} out of range at node {v} (degree {})",
            self.degree(v)
        );
        match *self {
            ImplicitTopology::Cycle { n } => match (v, p) {
                (0, 0) => (1, 0),
                (0, 1) => (n - 1, 1),
                (v, 0) => (v - 1, if v == 1 { 0 } else { 1 }),
                (v, _) => {
                    if v + 1 < n {
                        (v + 1, 0)
                    } else {
                        (0, 1)
                    }
                }
            },
            ImplicitTopology::Path { .. } => {
                if v == 0 {
                    (1, 0)
                } else if p == 0 {
                    // Toward the root end: node v-1 hears us on its last
                    // port (its only port when it is node 0).
                    (v - 1, usize::from(v > 1))
                } else {
                    (v + 1, 0)
                }
            }
            ImplicitTopology::Star { .. } => {
                if v == 0 {
                    (p + 1, 0)
                } else {
                    (0, v - 1)
                }
            }
            ImplicitTopology::Complete { .. } => {
                // Ports of v enumerate 0..n-1 skipping v itself; the
                // reverse port applies the same rule at the neighbour.
                if p < v {
                    (p, v - 1)
                } else {
                    (p + 1, v)
                }
            }
            ImplicitTopology::Grid { rows, cols } => {
                let (r, c) = (v / cols, v % cols);
                // Port order at (r, c): up, left, right, down — the
                // first-appearance order of the generator's row-major
                // right-then-down edge pushes.
                let has = [r > 0, c > 0, c + 1 < cols, r + 1 < rows];
                let mut k = 0usize;
                for (dir, &present) in has.iter().enumerate() {
                    if !present {
                        continue;
                    }
                    if k == p {
                        return match dir {
                            // Up neighbour hears us on its down port (its
                            // last: after its own up/left/right).
                            0 => (
                                v - cols,
                                usize::from(r > 1) + usize::from(c > 0) + usize::from(c + 1 < cols),
                            ),
                            // Left neighbour hears us on its right port.
                            1 => (v - 1, usize::from(r > 0) + usize::from(c > 1)),
                            // Right neighbour hears us on its left port.
                            2 => (v + 1, usize::from(r > 0)),
                            // Down neighbour hears us on its up port, 0.
                            _ => (v + cols, 0),
                        };
                    }
                    k += 1;
                }
                unreachable!("port {p} out of range at grid node {v}")
            }
            ImplicitTopology::Torus { rows, cols } => {
                let (r, c) = (v / cols, v % cols);
                let (pos, nr, nc) = torus_incident(rows, cols, r, c)[p];
                let q = torus_incident(rows, cols, nr, nc)
                    .iter()
                    .position(|&(np, _, _)| np == pos)
                    .expect("shared edge appears at both torus endpoints");
                (nr * cols + nc, q)
            }
            ImplicitTopology::Hypercube { dim } => {
                let k = v.count_ones() as usize;
                let bit = if p < k {
                    // Set bits in descending order: their edges were
                    // pushed by the smaller endpoint v - 2^bit, and a
                    // larger bit means a smaller (earlier) owner.
                    let mut seen = 0usize;
                    let mut found = 0;
                    for b in (0..dim).rev() {
                        if v >> b & 1 == 1 {
                            if seen == p {
                                found = b;
                                break;
                            }
                            seen += 1;
                        }
                    }
                    found
                } else {
                    // Then unset bits in ascending order (own pushes).
                    let mut seen = k;
                    let mut found = 0;
                    for b in 0..dim {
                        if v >> b & 1 == 0 {
                            if seen == p {
                                found = b;
                                break;
                            }
                            seen += 1;
                        }
                    }
                    found
                };
                let u = v ^ (1usize << bit);
                let q = if u >> bit & 1 == 1 {
                    // Bit set at u: rank among u's set bits, descending.
                    (u >> (bit + 1)).count_ones() as usize
                } else {
                    // Bit unset at u: after u's set-bit ports, ascending.
                    u.count_ones() as usize + bit as usize
                        - (u & ((1usize << bit) - 1)).count_ones() as usize
                };
                (u, q)
            }
            ImplicitTopology::CompleteBinaryTree { .. } => {
                if v == 0 {
                    // Root: ports 0, 1 to children 1, 2, each hearing us
                    // on their parent port 0... except the children's
                    // parent port is 0 only because the parent edge is
                    // pushed first; see below.
                    (p + 1, 0)
                } else if p == 0 {
                    // Parent edge (pushed at the parent, hence port 0
                    // here). The parent's port for child c is c - 2p' for
                    // internal parents (after their own parent port).
                    let parent = (v - 1) / 2;
                    let q = if parent == 0 { v - 1 } else { v - 2 * parent };
                    (parent, q)
                } else {
                    // Own child edges: port 1 → left child, 2 → right.
                    (2 * v + p, 0)
                }
            }
            ImplicitTopology::CliqueCycle { d_prime, gamma } => {
                let (c, a) = (v / gamma, v % gamma);
                if p < gamma - 1 {
                    // Clique-internal: the Complete rule on local indices.
                    let b = if p < a { p } else { p + 1 };
                    let q = if a < b { a } else { a - 1 };
                    (c * gamma + b, q)
                } else if a == gamma - 1 {
                    // Outgoing connector to the next clique's first node;
                    // both connector endpoints use their last port.
                    (((c + 1) % d_prime) * gamma, gamma - 1)
                } else {
                    // a == 0: incoming connector from the previous
                    // clique's last node.
                    (
                        ((c + d_prime - 1) % d_prime) * gamma + (gamma - 1),
                        gamma - 1,
                    )
                }
            }
        }
    }

    fn endpoint_indexed(&self, v: NodeId, p: Port) -> (NodeId, Port, usize) {
        let (u, q) = self.endpoint(v, p);
        (u, q, self.degree_prefix(v) + p)
    }

    fn directed_index(&self, v: NodeId, p: Port) -> usize {
        debug_assert!(p < self.degree(v));
        self.degree_prefix(v) + p
    }

    fn directed_edge_count(&self) -> usize {
        match *self {
            ImplicitTopology::Cycle { n } => 2 * n,
            ImplicitTopology::Path { n } => 2 * (n - 1),
            ImplicitTopology::Star { n } => 2 * (n - 1),
            ImplicitTopology::Complete { n } => n * (n - 1),
            ImplicitTopology::Grid { rows, cols } => 2 * (rows * (cols - 1) + cols * (rows - 1)),
            ImplicitTopology::Torus { rows, cols } => 4 * rows * cols,
            ImplicitTopology::Hypercube { dim } => dim as usize * (1usize << dim),
            ImplicitTopology::CompleteBinaryTree { depth } => 2 * ((1usize << (depth + 1)) - 2),
            ImplicitTopology::CliqueCycle { d_prime, gamma } => d_prime * (gamma * (gamma - 1) + 2),
        }
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.n() || v >= self.n() {
            return false;
        }
        let (a, b) = (u.min(v), u.max(v));
        match *self {
            ImplicitTopology::Cycle { n } => b - a == 1 || (a == 0 && b == n - 1),
            ImplicitTopology::Path { .. } => b - a == 1,
            ImplicitTopology::Star { .. } => a == 0,
            ImplicitTopology::Complete { .. } => true,
            ImplicitTopology::Grid { cols, .. } => {
                (b - a == cols) || (b - a == 1 && a / cols == b / cols)
            }
            ImplicitTopology::Torus { rows, cols } => {
                let (ar, ac) = (a / cols, a % cols);
                let (br, bc) = (b / cols, b % cols);
                (ar == br && (bc == (ac + 1) % cols || ac == (bc + 1) % cols))
                    || (ac == bc && (br == (ar + 1) % rows || ar == (br + 1) % rows))
            }
            ImplicitTopology::Hypercube { .. } => (u ^ v).count_ones() == 1,
            ImplicitTopology::CompleteBinaryTree { .. } => a == (b - 1) / 2,
            ImplicitTopology::CliqueCycle { d_prime, gamma } => {
                let (ca, la) = (a / gamma, a % gamma);
                let (cb, lb) = (b / gamma, b % gamma);
                if ca == cb {
                    return true;
                }
                // Connector: last node of clique c to first of clique c+1.
                ((cb == (ca + 1) % d_prime) && la == gamma - 1 && lb == 0)
                    || ((ca == (cb + 1) % d_prime) && lb == gamma - 1 && la == 0)
            }
        }
    }

    fn max_degree(&self) -> usize {
        match *self {
            ImplicitTopology::Cycle { .. } => 2,
            ImplicitTopology::Path { n } => match n {
                1 => 0,
                2 => 1,
                _ => 2,
            },
            ImplicitTopology::Star { n } | ImplicitTopology::Complete { n } => n - 1,
            ImplicitTopology::Grid { rows, cols } => 2.min(rows - 1) + 2.min(cols - 1),
            ImplicitTopology::Torus { .. } => 4,
            ImplicitTopology::Hypercube { dim } => dim as usize,
            ImplicitTopology::CompleteBinaryTree { depth } => match depth {
                0 => 0,
                1 => 2,
                _ => 3,
            },
            ImplicitTopology::CliqueCycle { gamma, .. } => gamma,
        }
    }

    fn diameter_hint(&self) -> Option<usize> {
        self.diameter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique_cycle::CliqueCycle;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Full structural equality against the materialized graph: n,
    /// degrees, endpoints, reverse ports, directed indices, 2m, has_edge,
    /// max_degree.
    fn assert_conforms(t: &ImplicitTopology, g: &Graph) {
        assert_eq!(t.n(), g.len(), "{t:?}: node count");
        assert_eq!(
            t.directed_edge_count(),
            g.directed_edge_count(),
            "{t:?}: 2m"
        );
        assert_eq!(
            Topology::max_degree(t),
            Graph::max_degree(g),
            "{t:?}: max degree"
        );
        for v in g.nodes() {
            assert_eq!(t.degree(v), g.degree(v), "{t:?}: degree({v})");
            for p in 0..g.degree(v) {
                assert_eq!(
                    t.endpoint_indexed(v, p),
                    g.endpoint_indexed(v, p),
                    "{t:?}: endpoint_indexed({v}, {p})"
                );
            }
        }
        let probe = g.len().min(24);
        for u in 0..probe {
            for v in 0..probe {
                assert_eq!(
                    Topology::has_edge(t, u, v),
                    g.has_edge(u, v),
                    "{t:?}: has_edge({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn cycle_conforms() {
        for n in [3, 4, 5, 8, 17, 64] {
            let t = ImplicitTopology::Cycle { n };
            assert_conforms(&t, &gen::cycle(n).unwrap());
        }
    }

    #[test]
    fn path_conforms() {
        for n in [1, 2, 3, 4, 9, 33] {
            let t = ImplicitTopology::Path { n };
            assert_conforms(&t, &gen::path(n).unwrap());
        }
    }

    #[test]
    fn star_conforms() {
        for n in [2, 3, 4, 10, 41] {
            let t = ImplicitTopology::Star { n };
            assert_conforms(&t, &gen::star(n).unwrap());
        }
    }

    #[test]
    fn complete_conforms() {
        for n in [1, 2, 3, 4, 7, 20] {
            let t = ImplicitTopology::Complete { n };
            assert_conforms(&t, &gen::complete(n).unwrap());
        }
    }

    #[test]
    fn grid_conforms() {
        for (rows, cols) in [(1, 1), (1, 5), (5, 1), (2, 2), (3, 4), (4, 3), (6, 6)] {
            let t = ImplicitTopology::Grid { rows, cols };
            assert_conforms(&t, &gen::grid(rows, cols).unwrap());
        }
    }

    #[test]
    fn torus_conforms() {
        for (rows, cols) in [(3, 3), (3, 4), (4, 3), (5, 7), (6, 6)] {
            let t = ImplicitTopology::Torus { rows, cols };
            assert_conforms(&t, &gen::torus(rows, cols).unwrap());
        }
    }

    #[test]
    fn hypercube_conforms() {
        for dim in 1..=7 {
            let t = ImplicitTopology::Hypercube { dim };
            assert_conforms(&t, &gen::hypercube(dim).unwrap());
        }
    }

    #[test]
    fn complete_binary_tree_conforms() {
        for depth in 0..=6 {
            let t = ImplicitTopology::CompleteBinaryTree { depth };
            assert_conforms(&t, &gen::balanced_tree(2, depth).unwrap());
        }
    }

    #[test]
    fn clique_cycle_conforms() {
        for (n, d) in [(24, 8), (100, 10), (48, 12), (20, 4), (16, 3)] {
            let t = ImplicitTopology::clique_cycle(n, d).unwrap();
            let cc = CliqueCycle::build(n, d).unwrap();
            assert_conforms(&t, &cc.graph);
        }
    }

    #[test]
    fn clique_cycle_gamma_one_degenerates_to_ring() {
        // gamma == 1 (n <= D'): the construction is a plain cycle on D'
        // nodes and the implicit constructor normalizes accordingly.
        let t = ImplicitTopology::clique_cycle(8, 7).unwrap();
        assert_eq!(t, ImplicitTopology::Cycle { n: 8 });
        let cc = CliqueCycle::build(8, 7).unwrap();
        assert_conforms(&t, &cc.graph);
        assert!(ImplicitTopology::clique_cycle(10, 2).is_none());
        assert!(ImplicitTopology::clique_cycle(10, 10).is_none());
    }

    #[test]
    fn from_family_mirrors_build_rounding() {
        let mut rng = StdRng::seed_from_u64(99);
        let structured = [
            Family::Path,
            Family::Cycle,
            Family::Star,
            Family::Complete,
            Family::Grid,
            Family::Torus,
            Family::Hypercube,
            Family::CompleteBinaryTree,
        ];
        for family in structured {
            for n in [1usize, 2, 3, 4, 5, 9, 16, 24, 31, 60, 100] {
                match ImplicitTopology::from_family(family, n) {
                    Some(t) => {
                        let g = family.build(n, &mut rng).unwrap_or_else(|e| {
                            panic!("{family} at n={n}: implicit Some but build failed: {e}")
                        });
                        assert_conforms(&t, &g);
                    }
                    None => assert!(
                        family.build(n, &mut rng).is_err(),
                        "{family} at n={n}: implicit None but build succeeded"
                    ),
                }
            }
        }
        // Random families have no closed form.
        for family in [
            Family::SparseRandom,
            Family::DenseRandom,
            Family::Expander,
            Family::Lollipop,
        ] {
            assert_eq!(ImplicitTopology::from_family(family, 32), None);
        }
    }

    #[test]
    fn materialize_round_trips() {
        for t in [
            ImplicitTopology::Cycle { n: 12 },
            ImplicitTopology::Grid { rows: 4, cols: 5 },
            ImplicitTopology::Hypercube { dim: 4 },
            ImplicitTopology::CliqueCycle {
                d_prime: 8,
                gamma: 3,
            },
        ] {
            assert_conforms(&t, &t.materialize());
        }
    }

    #[test]
    fn diameter_closed_forms_match_bfs() {
        use crate::analysis::diameter_exact;
        let cases = [
            ImplicitTopology::Cycle { n: 9 },
            ImplicitTopology::Path { n: 7 },
            ImplicitTopology::Star { n: 6 },
            ImplicitTopology::Complete { n: 5 },
            ImplicitTopology::Grid { rows: 3, cols: 5 },
            ImplicitTopology::Torus { rows: 4, cols: 5 },
            ImplicitTopology::Hypercube { dim: 4 },
            ImplicitTopology::CompleteBinaryTree { depth: 3 },
        ];
        for t in cases {
            assert_eq!(
                t.diameter(),
                diameter_exact(&t.materialize()).map(|d| d as usize),
                "{t:?}"
            );
            assert_eq!(t.diameter_hint(), t.diameter());
        }
        assert_eq!(
            ImplicitTopology::CliqueCycle {
                d_prime: 8,
                gamma: 3
            }
            .diameter(),
            None
        );
    }

    #[test]
    fn graph_blanket_impl_delegates() {
        // Exercise a materialized Graph exclusively through the trait.
        fn probe<T: Topology>(t: &T, want_diameter_hint: Option<usize>) {
            assert_eq!(t.n(), 6);
            assert_eq!(t.degree(0), 2);
            assert_eq!(t.endpoint(0, 1), (5, 1));
            assert_eq!(t.endpoint_indexed(2, 0).2, t.directed_index(2, 0));
            assert_eq!(t.directed_edge_count(), 12);
            assert!(t.has_edge(5, 0));
            assert_eq!(t.max_degree(), 2);
            assert_eq!(t.diameter_hint(), want_diameter_hint);
        }
        probe(&gen::cycle(6).unwrap(), None);
        probe(&ImplicitTopology::Cycle { n: 6 }, Some(3));
    }
}
