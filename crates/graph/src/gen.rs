//! Standard graph generators.
//!
//! A *universal* leader election algorithm must work on every graph; the
//! experiment harness sweeps over these families (matching the graphs the
//! paper's discussion names: rings, stars, cliques, paths, expanders,
//! plus random graphs of prescribed density for the `m > n^{1+ε}` regime of
//! Corollary 4.2).

use crate::graph::{Graph, GraphError, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Path `0 - 1 - … - (n-1)`; diameter `n-1`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let edges: Vec<_> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
    Graph::from_edges(n, &edges)
}

/// Cycle (ring) on `n >= 3` nodes; the classical leader-election topology
/// of Frederickson–Lynch \[8\]; diameter `⌊n/2⌋`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters(format!(
            "cycle needs n >= 3, got {n}"
        )));
    }
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// Star: node 0 is the hub; the paper's example of a graph where `O(n)`
/// messages might suffice even though `Ω(n log n)` holds on rings.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidParameters(format!(
            "star needs n >= 2, got {n}"
        )));
    }
    let edges: Vec<_> = (1..n).map(|i| (0, i)).collect();
    Graph::from_edges(n, &edges)
}

/// Complete graph `K_n`; the topology of \[14\]'s sublinear result.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// `rows × cols` grid; diameter `rows + cols - 2`. A stand-in for planar
/// sensor deployments.
pub fn grid(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::Empty);
    }
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((idx(r, c), idx(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((idx(r, c), idx(r + 1, c)));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// `rows × cols` torus (grid with wraparound); vertex-transitive, so a good
/// symmetry stressor for anonymous algorithms. Requires `rows, cols >= 3`
/// to stay a simple graph.
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidParameters(
            "torus needs rows, cols >= 3".into(),
        ));
    }
    let idx = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((idx(r, c), idx(r, (c + 1) % cols)));
            edges.push((idx(r, c), idx((r + 1) % rows, c)));
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// `d`-dimensional hypercube on `2^d` nodes; one of the high-expansion
/// families for which \[14\] beats `Ω(n)` messages.
pub fn hypercube(d: u32) -> Result<Graph, GraphError> {
    if d == 0 {
        return Err(GraphError::InvalidParameters(
            "hypercube needs d >= 1".into(),
        ));
    }
    let n = 1usize << d;
    let mut edges = Vec::with_capacity(n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Complete binary tree with `n` nodes closest to the request (rounded to
/// `2^{d+1} - 1`); diameter `2d`. The extreme low-expansion counterpart to
/// [`hypercube`]/[`random_regular`] in campaign sweeps: every
/// root-crossing message funnels through one node.
pub fn complete_binary_tree(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    balanced_tree(2, bintree_depth(n))
}

/// The one size-rounding rule of each rigid family, shared by
/// [`Family::build`] and [`crate::topo::ImplicitTopology::from_family`]:
/// the side of the square grid / torus nearest to `n` nodes (at least
/// `min`), …
pub(crate) fn square_side(n: usize, min: usize) -> usize {
    ((n as f64).sqrt().round() as usize).max(min)
}

/// … the hypercube dimension `⌊log2 n⌋` (at least 1), …
pub(crate) fn hypercube_dim(n: usize) -> u32 {
    (n.max(2) as f64).log2().floor() as u32
}

/// … and the binary-tree depth whose size `2^{d+1} - 1` is nearest to `n`.
pub(crate) fn bintree_depth(n: usize) -> usize {
    ((n as f64 + 1.0).log2().round() as usize).max(1) - 1
}

/// Balanced `arity`-ary tree of the given `depth` (root at 0);
/// `depth = 0` is a single node.
pub fn balanced_tree(arity: usize, depth: usize) -> Result<Graph, GraphError> {
    if arity == 0 {
        return Err(GraphError::InvalidParameters("arity must be >= 1".into()));
    }
    let mut edges = Vec::new();
    let mut level: Vec<NodeId> = vec![0];
    let mut next_id = 1usize;
    for _ in 0..depth {
        let mut next_level = Vec::with_capacity(level.len() * arity);
        for &parent in &level {
            for _ in 0..arity {
                edges.push((parent, next_id));
                next_level.push(next_id);
                next_id += 1;
            }
        }
        level = next_level;
    }
    Graph::from_edges(next_id, &edges)
}

/// Lollipop: a clique of `clique` nodes with a path of `tail` extra nodes
/// hanging off node 0. High-m, high-D in one graph — a useful stressor for
/// message/time trade-offs (and the shape of the fixed-diameter dumbbell
/// halves of Theorem 3.1).
pub fn lollipop(clique: usize, tail: usize) -> Result<Graph, GraphError> {
    if clique < 2 {
        return Err(GraphError::InvalidParameters(
            "lollipop needs clique >= 2".into(),
        ));
    }
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    for i in 0..tail {
        let a = if i == 0 { 0 } else { clique + i - 1 };
        edges.push((a, clique + i));
    }
    Graph::from_edges(clique + tail, &edges)
}

/// Connected Erdős–Rényi-style `G(n, m)`: a uniform random spanning tree
/// (random-walk based) plus `m - (n-1)` uniformly random extra edges.
///
/// # Errors
///
/// `m` must satisfy `n - 1 <= m <= n(n-1)/2`.
pub fn random_connected<R: Rng>(n: usize, m: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let max_m = n * n.saturating_sub(1) / 2;
    if m + 1 < n || m > max_m {
        return Err(GraphError::InvalidParameters(format!(
            "G(n={n}, m={m}) needs n-1 <= m <= {max_m}"
        )));
    }
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(m);
    let mut present: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(m);
    // Random spanning tree: attach each node (in shuffled order) to a
    // uniformly random earlier node. This samples a random recursive tree —
    // not uniform over all trees, but unbiased across seeds and cheap.
    let mut order: Vec<NodeId> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let v = order[i];
        let u = order[rng.gen_range(0..i)];
        let key = (u.min(v), u.max(v));
        present.insert(key);
        edges.push(key);
    }
    while edges.len() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if present.insert(key) {
            edges.push(key);
        }
    }
    Graph::from_edges(n, &edges)
}

/// Random `d`-regular simple graph via the pairing (configuration) model
/// with double-edge-swap repair; asymptotically an expander for `d >= 3`.
///
/// Rejecting whole pairings is hopeless beyond small `d` (the probability
/// of a simple outcome decays like `e^{-Θ(d²)}`), so defective pairs
/// (self-loops, duplicates) are repaired by swapping against random good
/// edges — the standard practical sampler.
///
/// # Errors
///
/// Requires `n·d` even, `d < n`, and `d >= 1`; fails only on adversarially
/// tiny inputs (then returns [`GraphError::InvalidParameters`]).
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if d == 0 || d >= n || (n * d) % 2 != 0 {
        return Err(GraphError::InvalidParameters(format!(
            "random_regular(n={n}, d={d}) needs 1 <= d < n and n*d even"
        )));
    }
    'attempt: for _ in 0..50 {
        let mut stubs: Vec<NodeId> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
        stubs.shuffle(rng);
        let mut good: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
        let mut present: HashSet<(NodeId, NodeId)> = HashSet::with_capacity(n * d / 2);
        let mut defects: Vec<(NodeId, NodeId)> = Vec::new();
        for pair in stubs.chunks(2) {
            let (u, v) = (pair[0], pair[1]);
            let key = (u.min(v), u.max(v));
            if u == v || !present.insert(key) {
                defects.push((u, v));
            } else {
                good.push(key);
            }
        }
        // Repair each defect by a double-edge swap with a random good edge:
        // (u,v) + (x,y) → (u,x) + (v,y).
        let budget = 200 * (defects.len() + 1);
        let mut tries = 0;
        while let Some(&(u, v)) = defects.last() {
            tries += 1;
            if tries > budget {
                continue 'attempt;
            }
            let idx = rng.gen_range(0..good.len());
            let (x, y) = good[idx];
            let (a, b) = ((u.min(x), u.max(x)), (v.min(y), v.max(y)));
            if u == x || v == y || present.contains(&a) || present.contains(&b) || a == b {
                continue;
            }
            defects.pop();
            present.remove(&(x.min(y), x.max(y)));
            good.swap_remove(idx);
            present.insert(a);
            present.insert(b);
            good.push(a);
            good.push(b);
        }
        let g = Graph::from_edges(n, &good)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::InvalidParameters(format!(
        "failed to sample a connected {d}-regular simple graph on {n} nodes"
    )))
}

/// Dense random graph with `m ≈ n^{1+eps}` edges (clamped to the simple-graph
/// maximum) — the regime where Corollary 4.2 matches both lower bounds.
pub fn random_dense<R: Rng>(n: usize, eps: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&eps) {
        return Err(GraphError::InvalidParameters(format!(
            "eps must be in [0, 1], got {eps}"
        )));
    }
    let target = (n as f64).powf(1.0 + eps).round() as usize;
    let max_m = n * n.saturating_sub(1) / 2;
    let m = target.clamp(n.saturating_sub(1), max_m);
    random_connected(n, m, rng)
}

/// The named families swept by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`path`]
    Path,
    /// [`cycle`]
    Cycle,
    /// [`star`]
    Star,
    /// [`complete`]
    Complete,
    /// [`grid`] (square-ish)
    Grid,
    /// [`torus`] (square-ish)
    Torus,
    /// [`hypercube`] of dimension `⌊log2 n⌋`
    Hypercube,
    /// [`random_connected`] with `m = 3n`
    SparseRandom,
    /// [`random_dense`] with `eps = 0.5`
    DenseRandom,
    /// [`random_regular`] with `d = 4`
    Expander,
    /// [`lollipop`] with clique `n/2`
    Lollipop,
    /// [`complete_binary_tree`]
    CompleteBinaryTree,
}

impl Family {
    /// All families, in harness order.
    pub const ALL: [Family; 12] = [
        Family::Path,
        Family::Cycle,
        Family::Star,
        Family::Complete,
        Family::Grid,
        Family::Torus,
        Family::Hypercube,
        Family::SparseRandom,
        Family::DenseRandom,
        Family::Expander,
        Family::Lollipop,
        Family::CompleteBinaryTree,
    ];

    /// Instantiates the family at (roughly) `n` nodes.
    ///
    /// Families with rigid sizes (grid, torus, hypercube) round `n` to the
    /// nearest realizable value, so check `Graph::len` on the result.
    ///
    /// # Errors
    ///
    /// Propagates generator errors (e.g. `n` too small for the family).
    pub fn build<R: Rng>(self, n: usize, rng: &mut R) -> Result<Graph, GraphError> {
        match self {
            Family::Path => path(n),
            Family::Cycle => cycle(n),
            Family::Star => star(n),
            Family::Complete => complete(n),
            Family::Grid => {
                let side = square_side(n, 1);
                grid(side, side)
            }
            Family::Torus => {
                let side = square_side(n, 3);
                torus(side, side)
            }
            Family::Hypercube => hypercube(hypercube_dim(n)),
            Family::SparseRandom => {
                let m = (3 * n)
                    .min(n * n.saturating_sub(1) / 2)
                    .max(n.saturating_sub(1));
                random_connected(n, m, rng)
            }
            Family::DenseRandom => random_dense(n, 0.5, rng),
            Family::Expander => {
                let n = if n % 2 == 1 { n + 1 } else { n };
                random_regular(n, 4, rng)
            }
            Family::Lollipop => {
                let clique = (n / 2).max(2);
                let tail = n.checked_sub(clique).ok_or_else(|| {
                    GraphError::InvalidParameters(format!("lollipop needs n >= 2, got {n}"))
                })?;
                lollipop(clique, tail)
            }
            Family::CompleteBinaryTree => complete_binary_tree(n),
        }
    }

    /// The O(1)-memory procedural counterpart of [`Family::build`], when
    /// the family has one: same node count (after size rounding), same
    /// port numbering, same directed-edge indices, no CSR arrays. `None`
    /// for the random families and sizes the generator rejects.
    pub fn implicit(self, n: usize) -> Option<crate::topo::ImplicitTopology> {
        crate::topo::ImplicitTopology::from_family(self, n)
    }

    /// Short human-readable name for tables. [`Family::from_name`] accepts
    /// exactly these strings, so campaign specs can sweep families by name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Cycle => "cycle",
            Family::Star => "star",
            Family::Complete => "complete",
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::Hypercube => "hypercube",
            Family::SparseRandom => "sparse-rnd",
            Family::DenseRandom => "dense-rnd",
            Family::Expander => "expander",
            Family::Lollipop => "lollipop",
            Family::CompleteBinaryTree => "bintree",
        }
    }

    /// Looks a family up by its [`Family::name`] string (the registry the
    /// campaign runner sweeps by name).
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }
}

impl std::str::FromStr for Family {
    type Err = GraphError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Family::from_name(s)
            .ok_or_else(|| GraphError::InvalidParameters(format!("unknown graph family `{s}`")))
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The base seed every standard sweep (Table 1, campaigns) derives
/// per-cell graph seeds from (the paper's PODC 2013 submission date).
pub const WORKLOAD_BASE_SEED: u64 = 20130722;

/// The FNV-1a 64-bit offset basis (the starting `h` for [`fnv1a64`]).
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64-bit round over `bytes`, continuing from `h` — the one
/// string/byte hash the workspace uses for derived seeds and spec hashes
/// (start from [`FNV_OFFSET_BASIS`], chain calls to hash multiple fields).
pub fn fnv1a64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable per-cell seed for workload construction: mixes a campaign-level
/// base seed with the family name and size ([`fnv1a64`]), so the graph
/// built for one `(family, n)` cell never depends on which *other* cells a
/// sweep contains or the order they are built in. (The original harness
/// threaded one `StdRng` through the whole family×size loop, so extending
/// or reordering a sweep silently changed every later graph.)
pub fn workload_seed(base: u64, family: Family, n: usize) -> u64 {
    let h = fnv1a64(FNV_OFFSET_BASIS ^ base, family.name().as_bytes());
    let h = fnv1a64(h, b"/");
    fnv1a64(h, &(n as u64).to_le_bytes())
}

/// Builds `family` at size `n` from the derived [`workload_seed`] — the
/// one way every sweep (Table 1, campaigns, figures) instantiates a cell,
/// so identical cells are byte-identical graphs everywhere.
///
/// # Errors
///
/// Propagates generator errors (e.g. `n` too small for the family).
pub fn workload_graph(base: u64, family: Family, n: usize) -> Result<Graph, GraphError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(workload_seed(base, family, n));
    family.build(n, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diameter_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5).unwrap();
        assert_eq!((p.len(), p.edge_count()), (5, 4));
        let c = cycle(5).unwrap();
        assert_eq!((c.len(), c.edge_count()), (5, 5));
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_and_complete_shapes() {
        let s = star(6).unwrap();
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.edge_count(), 5);
        let k = complete(6).unwrap();
        assert_eq!(k.edge_count(), 15);
        assert!(k.nodes().all(|v| k.degree(v) == 5));
    }

    #[test]
    fn grid_torus_shapes() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.len(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(diameter_exact(&g), Some(5));
        let t = torus(4, 4).unwrap();
        assert_eq!(t.edge_count(), 32);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert!(torus(2, 4).is_err());
    }

    #[test]
    fn hypercube_shape() {
        let h = hypercube(4).unwrap();
        assert_eq!(h.len(), 16);
        assert_eq!(h.edge_count(), 32);
        assert_eq!(diameter_exact(&h), Some(4));
        assert!(hypercube(0).is_err());
    }

    #[test]
    fn tree_shape() {
        let t = balanced_tree(3, 2).unwrap();
        assert_eq!(t.len(), 1 + 3 + 9);
        assert_eq!(t.edge_count(), 12);
        assert!(t.is_connected());
        let single = balanced_tree(2, 0).unwrap();
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn lollipop_shape() {
        let l = lollipop(4, 3).unwrap();
        assert_eq!(l.len(), 7);
        assert_eq!(l.edge_count(), 6 + 3);
        assert_eq!(diameter_exact(&l), Some(4));
        // The family's smallest instance is a single edge; below that
        // `n - clique` has no value and the build must say so.
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(Family::Lollipop.build(2, &mut rng).unwrap().len(), 2);
        for n in [0, 1] {
            assert!(matches!(
                Family::Lollipop.build(n, &mut rng),
                Err(GraphError::InvalidParameters(_))
            ));
        }
    }

    #[test]
    fn random_connected_is_connected_with_exact_m() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(n, m) in &[(10, 9), (10, 20), (40, 100), (7, 21)] {
            let g = random_connected(n, m, &mut rng).unwrap();
            assert_eq!(g.len(), n);
            assert_eq!(g.edge_count(), m);
            assert!(g.is_connected());
        }
        assert!(random_connected(10, 5, &mut rng).is_err());
        assert!(random_connected(10, 100, &mut rng).is_err());
    }

    #[test]
    fn random_regular_is_regular_connected() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = random_regular(30, 4, &mut rng).unwrap();
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(g.is_connected());
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
    }

    #[test]
    fn random_dense_has_target_density() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = random_dense(50, 0.5, &mut rng).unwrap();
        let target = (50f64).powf(1.5).round() as usize;
        assert_eq!(g.edge_count(), target);
        assert!(random_dense(50, 1.5, &mut rng).is_err());
    }

    #[test]
    fn all_families_build() {
        let mut rng = StdRng::seed_from_u64(14);
        for fam in Family::ALL {
            let g = fam.build(24, &mut rng).unwrap();
            assert!(g.is_connected(), "{fam} not connected");
            assert!(g.len() >= 9, "{fam} too small: {}", g.len());
        }
    }

    #[test]
    fn complete_binary_tree_shape() {
        let t = complete_binary_tree(31).unwrap();
        assert_eq!(t.len(), 31);
        assert_eq!(t.edge_count(), 30);
        assert_eq!(diameter_exact(&t), Some(8));
        // Rounds to the nearest realizable 2^{d+1} - 1.
        assert_eq!(complete_binary_tree(24).unwrap().len(), 31);
        assert_eq!(complete_binary_tree(20).unwrap().len(), 15);
        assert_eq!(complete_binary_tree(1).unwrap().len(), 1);
        assert!(complete_binary_tree(0).is_err());
    }

    #[test]
    fn family_names_round_trip() {
        for fam in Family::ALL {
            assert_eq!(Family::from_name(fam.name()), Some(fam), "{fam}");
            assert_eq!(fam.name().parse::<Family>().unwrap(), fam);
        }
        assert_eq!(Family::from_name("no-such-family"), None);
        assert!("no-such-family".parse::<Family>().is_err());
    }

    #[test]
    fn workload_seeds_are_cell_local_and_distinct() {
        // The fix for the threaded-RNG workload bug: a cell's graph depends
        // only on (base, family, n), never on sweep order or extension.
        let a = workload_graph(7, Family::SparseRandom, 40).unwrap();
        let b = workload_graph(7, Family::SparseRandom, 40).unwrap();
        assert_eq!(a.edges(), b.edges());
        // Distinct cells get distinct seeds (spot-check the mixer).
        let mut seeds: Vec<u64> = Family::ALL
            .iter()
            .flat_map(|&f| [32, 64].map(|n| workload_seed(7, f, n)))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 2 * Family::ALL.len());
        // Pin the derivation itself: a silent change to the mixer would
        // re-randomize every checked-in baseline and golden fixture.
        assert_eq!(workload_seed(20130722, Family::Cycle, 48), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ 20130722;
            for b in b"cycle/".iter().chain(48u64.to_le_bytes().iter()) {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
    }
}
