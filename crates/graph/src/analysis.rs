//! Graph analysis helpers used by the experiment harnesses: BFS distances,
//! exact and estimated diameter, and structural statistics.
//!
//! These run *outside* the distributed model (the harness may inspect the
//! whole graph; the simulated nodes may not).

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance label meaning "unreached".
pub const UNREACHED: u32 = u32::MAX;

/// BFS distances from `src`; unreachable nodes get [`UNREACHED`].
///
/// # Examples
///
/// ```
/// use ule_graph::{analysis, gen};
///
/// let g = gen::path(5)?;
/// assert_eq!(analysis::bfs_distances(&g, 0)[4], 4);
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.len()];
    let mut queue = VecDeque::new();
    dist[src] = 0;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for u in g.neighbors_of(v) {
            if dist[u] == UNREACHED {
                dist[u] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Eccentricity of `src`: the maximum BFS distance to any node.
///
/// Returns `None` if some node is unreachable.
pub fn eccentricity(g: &Graph, src: NodeId) -> Option<u32> {
    let dist = bfs_distances(g, src);
    let mut max = 0;
    for &d in &dist {
        if d == UNREACHED {
            return None;
        }
        max = max.max(d);
    }
    Some(max)
}

/// Exact diameter via all-pairs BFS — `O(n·m)`, intended for experiment
/// setup on graphs up to a few thousand nodes.
///
/// Returns `None` for disconnected graphs.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    let mut diam = 0;
    for v in g.nodes() {
        diam = diam.max(eccentricity(g, v)?);
    }
    Some(diam)
}

/// Double-sweep lower bound on the diameter: BFS from `src`, then from the
/// farthest node found. Exact on trees; a fast, usually tight estimate
/// elsewhere.
pub fn diameter_double_sweep(g: &Graph, src: NodeId) -> Option<u32> {
    let d1 = bfs_distances(g, src);
    let (far, &best) = d1.iter().enumerate().max_by_key(|&(_, d)| d)?;
    if best == UNREACHED {
        return None;
    }
    eccentricity(g, far)
}

/// Summary statistics used in experiment reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of nodes.
    pub n: usize,
    /// Number of undirected edges.
    pub m: usize,
    /// Exact diameter (`None` when disconnected).
    pub diameter: Option<u32>,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
}

impl GraphStats {
    /// Computes all statistics (runs all-pairs BFS; see [`diameter_exact`]).
    pub fn compute(g: &Graph) -> GraphStats {
        GraphStats {
            n: g.len(),
            m: g.edge_count(),
            diameter: diameter_exact(g),
            min_degree: g.nodes().map(|v| g.degree(v)).min().unwrap_or(0),
            max_degree: g.max_degree(),
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} D={} deg=[{},{}]",
            self.n,
            self.m,
            self.diameter.map_or("∞".into(), |d| d.to_string()),
            self.min_degree,
            self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(6).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        let d2 = bfs_distances(&g, 3);
        assert_eq!(d2, vec![3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter_exact(&gen::path(10).unwrap()), Some(9));
        assert_eq!(diameter_exact(&gen::cycle(10).unwrap()), Some(5));
        assert_eq!(diameter_exact(&gen::cycle(11).unwrap()), Some(5));
        assert_eq!(diameter_exact(&gen::complete(7).unwrap()), Some(1));
        assert_eq!(diameter_exact(&gen::star(8).unwrap()), Some(2));
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = crate::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
        assert_eq!(bfs_distances(&g, 0)[2], UNREACHED);
    }

    #[test]
    fn double_sweep_exact_on_paths_and_trees() {
        let g = gen::path(17).unwrap();
        assert_eq!(diameter_double_sweep(&g, 8), Some(16));
        let t = gen::balanced_tree(2, 4).unwrap();
        assert_eq!(diameter_double_sweep(&t, 0), diameter_exact(&t));
    }

    #[test]
    fn stats_display() {
        let s = GraphStats::compute(&gen::cycle(6).unwrap());
        assert_eq!(s.n, 6);
        assert_eq!(s.m, 6);
        assert_eq!(s.diameter, Some(3));
        assert_eq!(s.min_degree, 2);
        assert!(format!("{s}").contains("D=3"));
    }
}
