//! The CSR builder against its contract, on every generator family at a
//! few sizes and on the graphs `shuffle_ports`, `remove_edge`,
//! `disjoint_union` and `from_adjacency` derive from them: every port
//! round-trips, `edges()` is the sorted canonical input set with
//! `edge_count()` its length, `has_edge` agrees with it, ports follow
//! first appearance in the input, and a seeded port shuffle draws the same
//! port maps as it always has.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_graph::gen::{fnv1a64, workload_graph, Family, FNV_OFFSET_BASIS};
use ule_graph::{Graph, NodeId};

const SIZES: [usize; 3] = [5, 16, 40];

/// Per family, a hash of the port maps `shuffle_ports` draws with seed 7 on
/// the family's workload graphs at [`SIZES`], recorded before the CSR
/// moved to `u32` columns.
const SHUFFLED_PORT_MAPS: [u64; 12] = [
    16_955_061_922_533_569_573,
    10_628_740_595_028_738_277,
    1_265_741_013_778_370_725,
    3_195_483_801_045_615_589,
    5_873_391_764_428_916_453,
    10_365_426_464_807_575_397,
    8_241_564_591_291_817_381,
    14_710_401_870_922_158_373,
    9_929_694_520_440_907_813,
    15_256_446_928_079_755_365,
    11_754_839_944_096_691_621,
    11_760_735_629_876_587_173,
];

/// Checks `g` against the undirected edge list it was built from (any
/// order, either orientation, no duplicates).
fn check(g: &Graph, input: &[(NodeId, NodeId)]) {
    for v in g.nodes() {
        for p in 0..g.degree(v) {
            let (u, q) = g.endpoint(v, p);
            assert_eq!(g.endpoint(u, q), (v, p), "{g:?}: port ({v}, {p})");
        }
    }
    let edges = g.edges();
    assert!(edges.iter().all(|&(u, v)| u < v), "{g:?}: not canonical");
    assert!(edges.windows(2).all(|w| w[0] < w[1]), "{g:?}: not sorted");
    let mut expected: Vec<_> = input.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
    expected.sort_unstable();
    assert_eq!(edges, expected, "{g:?}: edge set");
    assert_eq!(g.edge_count(), edges.len(), "{g:?}: edge count");
    for u in g.nodes() {
        for v in g.nodes() {
            let listed = edges.binary_search(&(u.min(v), u.max(v))).is_ok();
            assert_eq!(g.has_edge(u, v), listed, "{g:?}: has_edge({u}, {v})");
        }
    }
}

/// `g`'s port map: every `(v, p, u, q)` with `endpoint(v, p) == (u, q)`.
fn port_map_hash(h: u64, g: &Graph) -> u64 {
    g.nodes().fold(h, |h, v| {
        (0..g.degree(v)).fold(h, |h, p| {
            let (u, q) = g.endpoint(v, p);
            [v, p, u, q]
                .iter()
                .fold(h, |h, x| fnv1a64(h, &(*x as u64).to_le_bytes()))
        })
    })
}

#[test]
fn every_family_and_derived_graph_keeps_the_csr_contract() {
    let mut shuffled = [FNV_OFFSET_BASIS; 12];
    for (family, hash) in Family::ALL.into_iter().zip(&mut shuffled) {
        for n in SIZES {
            let Ok(g) = workload_graph(1, family, n) else {
                continue;
            };
            let edges = g.edges();
            check(&g, &edges);
            assert_eq!(Graph::from_adjacency(g.to_adjacency()), Ok(g.clone()));

            // The same edges, last first, every other one reversed: each
            // node's ports follow its first appearance in the input.
            let input: Vec<_> = (edges.iter().rev().enumerate())
                .map(|(i, &(u, v))| if i % 2 == 0 { (v, u) } else { (u, v) })
                .collect();
            let h = Graph::from_edges(g.len(), &input).unwrap();
            check(&h, &input);
            for v in h.nodes() {
                let appearances = (input.iter())
                    .filter_map(|&(a, b)| (a == v).then_some(b).or((b == v).then_some(a)));
                assert!(
                    h.neighbors_of(v).eq(appearances),
                    "{family}/{n}: ports of {v}"
                );
            }

            let s = g.shuffle_ports(&mut StdRng::seed_from_u64(7));
            check(&s, &edges);
            *hash = port_map_hash(*hash, &s);

            let (u, v) = edges[edges.len() / 2];
            let r = g.remove_edge(u, v).unwrap();
            let rest: Vec<_> = edges.iter().copied().filter(|&e| e != (u, v)).collect();
            check(&r, &rest);

            let d = g.disjoint_union(&g).unwrap();
            let shift = g.len();
            let both: Vec<_> = (edges.iter().copied())
                .chain(edges.iter().map(|&(u, v)| (u + shift, v + shift)))
                .collect();
            check(&d, &both);
        }
    }
    assert_eq!(
        shuffled, SHUFFLED_PORT_MAPS,
        "a seeded shuffle drew other port maps"
    );
}
