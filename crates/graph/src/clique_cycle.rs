//! The clique-cycle construction of Theorem 3.13 (time lower bound),
//! depicted in the paper's Figure 1.
//!
//! For target size `n` and diameter parameter `D` the construction sets
//! `D' = 4⌈D/4⌉` and `γ = min{g : g·D' >= n}`, then arranges `D'` cliques of
//! size `γ` in a cycle, partitioned into four *arcs* `C_0..C_3` of `D'/4`
//! cliques each. Consecutive cliques are joined by single edges
//! (last node of one clique to first node of the next), wrapping between
//! arcs. The resulting graph has `n' = γ·D' ∈ Θ(n)` nodes and diameter
//! `Θ(D)`, and is invariant under the rotation
//! `φ(v_{i,j,k}) = v_{(i+1 mod 4), j, k}` — the symmetry at the heart of
//! the lower-bound proof: an algorithm truncated to `o(D')` rounds cannot
//! break the symmetry between opposite arcs, so with constant probability
//! it elects zero or two leaders.

use crate::graph::{Graph, GraphError, NodeId};

/// A constructed clique-cycle with its coordinate bookkeeping.
///
/// # Examples
///
/// ```
/// use ule_graph::clique_cycle::CliqueCycle;
/// use ule_graph::analysis::diameter_exact;
///
/// let cc = CliqueCycle::build(24, 8)?;
/// assert_eq!(cc.d_prime, 8);
/// assert_eq!(cc.gamma, 3);
/// assert_eq!(cc.graph.len(), 24);
/// let d = diameter_exact(&cc.graph).unwrap();
/// assert!(d >= 8, "diameter {d} should be Θ(D')");
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CliqueCycle {
    /// The constructed graph on `γ·D'` nodes.
    pub graph: Graph,
    /// Number of cliques around the cycle (a multiple of 4).
    pub d_prime: usize,
    /// Clique size.
    pub gamma: usize,
}

impl CliqueCycle {
    /// Builds the clique-cycle for `n` nodes and diameter parameter `d`
    /// (the paper's `D(n)`, required to satisfy `2 < d < n`).
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameters`] if `d <= 2` or `d >= n`.
    pub fn build(n: usize, d: usize) -> Result<Self, GraphError> {
        if d <= 2 || d >= n {
            return Err(GraphError::InvalidParameters(format!(
                "clique-cycle needs 2 < d < n, got n={n}, d={d}"
            )));
        }
        let d_prime = 4 * d.div_ceil(4);
        let gamma = n.div_ceil(d_prime).max(1);
        let n_actual = gamma * d_prime;
        let mut edges = Vec::new();
        // Clique-internal edges.
        for c in 0..d_prime {
            let base = c * gamma;
            for a in 0..gamma {
                for b in (a + 1)..gamma {
                    edges.push((base + a, base + b));
                }
            }
        }
        // Connectors: last node of clique c to first node of clique c+1.
        for c in 0..d_prime {
            let last = c * gamma + (gamma - 1);
            let first = ((c + 1) % d_prime) * gamma;
            edges.push((last, first));
        }
        let graph = Graph::from_edges_connected(n_actual, &edges)?;
        Ok(CliqueCycle {
            graph,
            d_prime,
            gamma,
        })
    }

    /// Number of cliques per arc (`D'/4`).
    pub fn cliques_per_arc(&self) -> usize {
        self.d_prime / 4
    }

    /// The node `v_{i,j,k}`: `k`-th node of the `j`-th clique of arc `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`, `j >= D'/4`, or `k >= γ`.
    pub fn node(&self, i: usize, j: usize, k: usize) -> NodeId {
        assert!(i < 4 && j < self.cliques_per_arc() && k < self.gamma);
        (i * self.cliques_per_arc() + j) * self.gamma + k
    }

    /// Inverse of [`CliqueCycle::node`]: the `(arc, clique, slot)`
    /// coordinates of `v`.
    pub fn coords(&self, v: NodeId) -> (usize, usize, usize) {
        let clique = v / self.gamma;
        let k = v % self.gamma;
        let per_arc = self.cliques_per_arc();
        (clique / per_arc, clique % per_arc, k)
    }

    /// The rotation automorphism `φ(v_{i,j,k}) = v_{(i+1 mod 4), j, k}`
    /// used by the proof of Claim 3.14.
    pub fn rotate(&self, v: NodeId) -> NodeId {
        let (i, j, k) = self.coords(v);
        self.node((i + 1) % 4, j, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diameter_exact;

    #[test]
    fn figure_one_instance() {
        // The paper's Figure 1: D' = 8, γ = 3, n' = 24.
        let cc = CliqueCycle::build(24, 8).unwrap();
        assert_eq!(cc.d_prime, 8);
        assert_eq!(cc.gamma, 3);
        assert_eq!(cc.graph.len(), 24);
        // m = D'·C(γ,2) + D' = 8·3 + 8 = 32.
        assert_eq!(cc.graph.edge_count(), 32);
        assert_eq!(cc.cliques_per_arc(), 2);
    }

    #[test]
    fn d_rounded_to_multiple_of_four() {
        let cc = CliqueCycle::build(100, 10).unwrap();
        assert_eq!(cc.d_prime, 12);
        assert_eq!(cc.graph.len(), cc.gamma * 12);
        assert!(cc.graph.len() >= 100);
    }

    #[test]
    fn gamma_one_degenerates_to_ring() {
        let cc = CliqueCycle::build(8, 7).unwrap();
        assert_eq!(cc.gamma, 1);
        assert_eq!(cc.d_prime, 8);
        assert!(cc.graph.nodes().all(|v| cc.graph.degree(v) == 2));
        assert_eq!(diameter_exact(&cc.graph), Some(4));
    }

    #[test]
    fn diameter_is_theta_d() {
        for (n, d) in [(60, 12), (60, 20), (120, 16)] {
            let cc = CliqueCycle::build(n, d).unwrap();
            let diam = diameter_exact(&cc.graph).unwrap() as usize;
            // Crossing the ring of D' cliques takes between D'/2 and 2·D' hops.
            assert!(diam >= cc.d_prime / 2, "diam {diam} vs D'={}", cc.d_prime);
            assert!(diam <= 2 * cc.d_prime, "diam {diam} vs D'={}", cc.d_prime);
        }
    }

    #[test]
    fn rejects_bad_params() {
        assert!(CliqueCycle::build(10, 2).is_err());
        assert!(CliqueCycle::build(10, 10).is_err());
    }

    #[test]
    fn coords_round_trip() {
        let cc = CliqueCycle::build(48, 12).unwrap();
        for v in cc.graph.nodes() {
            let (i, j, k) = cc.coords(v);
            assert_eq!(cc.node(i, j, k), v);
        }
    }

    #[test]
    fn rotation_is_an_automorphism() {
        let cc = CliqueCycle::build(24, 8).unwrap();
        let g = &cc.graph;
        for (u, v) in g.edges() {
            assert!(
                g.has_edge(cc.rotate(u), cc.rotate(v)),
                "rotation broke edge ({u}, {v})"
            );
        }
        // Order 4: rotating four times is the identity.
        for v in g.nodes() {
            let r4 = cc.rotate(cc.rotate(cc.rotate(cc.rotate(v))));
            assert_eq!(r4, v);
        }
    }
}
