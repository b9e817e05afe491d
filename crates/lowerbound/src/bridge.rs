//! Bridge-crossing experiments on dumbbell graphs — Theorem 3.1 and
//! Lemma 3.5, empirically.
//!
//! The message lower bound works through the *bridge crossing* (BC)
//! problem: on `Dumbbell(G'[e'], G''[e''])`, any correct leader election
//! must send a message over one of the two bridges, and — the counting
//! heart of Lemma 3.5 — an execution that crosses over the edge ranked
//! `j`-th in the *edge first-use order* of the experiment `EX(G')` (the
//! algorithm run on two disconnected copies of `G'`) must already have
//! sent at least `j` messages. Averaged over the `m²` choices of opened
//! edges, that forces `Ω(m)` messages.
//!
//! [`crossing_run`] measures actual crossing costs (the simulator watches
//! the bridges); [`edge_order`] reproduces `EX(G')` and the first-use
//! ranking; [`equivalence_check`] verifies the indistinguishability that
//! the proof rests on: the dumbbell execution and the `EX(G')` execution
//! are *identical* until the crossing round.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_core::Algorithm;
use ule_graph::dumbbell::{clique_path_base, BridgeOrientation, Dumbbell};
use ule_graph::{Graph, IdAssignment, NodeId};
use ule_sim::{RunOutcome, RuntimeKind, WatchHit};

/// One measured dumbbell run.
#[derive(Debug, Clone)]
pub struct CrossingOutcome {
    /// Nodes in the dumbbell (2n of the base graph).
    pub n: usize,
    /// Edges in the dumbbell.
    pub m: usize,
    /// Messages sent anywhere in rounds up to and including the first
    /// bridge crossing — the Lemma 3.5 quantity (`None` if no bridge was
    /// ever crossed, i.e. the algorithm failed BC).
    pub messages_through_crossing: Option<u64>,
    /// Round of the first crossing.
    pub crossing_round: Option<u64>,
    /// Total messages of the full run.
    pub total_messages: u64,
    /// Whether the election succeeded.
    pub elected: bool,
}

fn earliest(hits: &[Option<WatchHit>]) -> Option<WatchHit> {
    hits.iter()
        .flatten()
        .min_by_key(|h| (h.round, h.messages_before))
        .copied()
}

/// Builds the Theorem 3.1 dumbbell for `(n, m)` (per half) with the opened
/// clique edges chosen by `e_left`/`e_right` index, assigns ID-disjoint
/// identifier sets, and runs `alg` with the bridges watched.
///
/// # Panics
///
/// Panics if `(n, m)` violate the [`clique_path_base`] preconditions.
pub fn crossing_run(
    n: usize,
    m: usize,
    e_left: usize,
    e_right: usize,
    alg: Algorithm,
    seed: u64,
) -> CrossingOutcome {
    let (g0, openable) = clique_path_base(n, m).expect("valid (n, m)");
    let d = Dumbbell::build(
        &g0,
        openable[e_left % openable.len()],
        &g0,
        openable[e_right % openable.len()],
        BridgeOrientation::Straight,
    )
    .expect("openable edges are never cut edges");
    let mut cfg = alg.config_for(&d.graph, seed);
    cfg.watch_edges = d.bridges.to_vec();
    let out = alg.run_on(RuntimeKind::Sim, &d.graph, &cfg);
    summarize(&d, out)
}

fn summarize(d: &Dumbbell, out: RunOutcome) -> CrossingOutcome {
    let hit = earliest(&out.watch_hits);
    CrossingOutcome {
        n: d.graph.len(),
        m: d.graph.edge_count(),
        messages_through_crossing: hit.map(|h| out.messages_through(h.round)),
        crossing_round: hit.map(|h| h.round),
        total_messages: out.messages,
        elected: out.election_succeeded(),
    }
}

/// A sweep row: crossing costs on dumbbells of growing `m`, averaged over
/// opened-edge choices and seeds.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Nodes per half.
    pub half_n: usize,
    /// Requested edges per half.
    pub half_m: usize,
    /// Actual dumbbell edge count.
    pub m_actual: usize,
    /// Mean messages through the first crossing round (Lemma 3.5).
    pub mean_through: f64,
    /// Minimum observed messages through the crossing round.
    pub min_through: u64,
    /// Mean total messages.
    pub mean_total: f64,
    /// Fraction of runs that elected a leader.
    pub success: f64,
    /// Trials aggregated.
    pub trials: usize,
}

/// Sweeps dumbbell sizes for one algorithm: for each `(n, m)` in
/// `sizes`, `trials` runs with varying opened edges and seeds.
///
/// Opened edges are sampled (pseudo-)uniformly over the openable set —
/// the averaging at the heart of Lemma 3.5. Sampling only "early" edge
/// indices would bias towards cheap crossings: for walk-based algorithms
/// like the DFS agents, the opened edge's position in the execution's own
/// edge order *is* the crossing cost.
pub fn crossing_sweep(sizes: &[(usize, usize)], alg: Algorithm, trials: usize) -> Vec<SweepRow> {
    sizes
        .iter()
        .map(|&(n, m)| {
            let outs: Vec<CrossingOutcome> = (0..trials)
                .map(|t| {
                    // Cheap multiplicative hash to spread edge choices.
                    let a = t.wrapping_mul(2654435761).wrapping_add(97);
                    let b = t.wrapping_mul(40503).wrapping_add(55441);
                    crossing_run(n, m, a, b, alg, t as u64)
                })
                .collect();
            let crossed: Vec<u64> = outs
                .iter()
                .filter_map(|o| o.messages_through_crossing)
                .collect();
            SweepRow {
                half_n: n,
                half_m: m,
                m_actual: outs[0].m,
                mean_through: crossed.iter().sum::<u64>() as f64 / crossed.len().max(1) as f64,
                min_through: crossed.iter().copied().min().unwrap_or(0),
                mean_total: outs.iter().map(|o| o.total_messages as f64).sum::<f64>()
                    / outs.len() as f64,
                success: outs.iter().filter(|o| o.elected).count() as f64 / outs.len() as f64,
                trials,
            }
        })
        .collect()
}

/// The `EX(G')` experiment of Lemma 3.5: runs `alg` on two disconnected
/// copies of `g` (an illegal input — no termination or output guarantees)
/// and returns the directed edges of the *left copy* ordered by first use,
/// together with the outcome.
///
/// The run is capped at `max_rounds` because nothing guarantees
/// quiescence on an illegal input.
///
/// # Panics
///
/// Panics if `g` has more than `u32::MAX / 2` nodes.
pub fn edge_order(
    g: &Graph,
    alg: Algorithm,
    seed: u64,
    max_rounds: u64,
) -> (Vec<(NodeId, usize, u64)>, RunOutcome) {
    let union = g
        .disjoint_union(g)
        .expect("two copies of `g` fit in u32 nodes");
    let mut cfg = alg.config_for(&union, seed);
    cfg.max_rounds = max_rounds;
    let out = alg.run_on(RuntimeKind::Sim, &union, &cfg);
    let mut order: Vec<(NodeId, usize, u64)> = Vec::new();
    for v in 0..g.len() {
        for p in 0..g.degree(v) {
            let idx = union.directed_index(v, p);
            let t = out.first_directed_use[idx];
            if t != u64::MAX {
                order.push((v, p, t));
            }
        }
    }
    order.sort_by_key(|&(v, p, t)| (t, v, p));
    (order, out)
}

/// Verification of the indistinguishability argument: the dumbbell
/// execution restricted to the left half is identical to `EX(G')` until
/// the crossing. Returns `(crossing_round, ex_round)` where `ex_round` is
/// the first round `EX(G')` uses one of the opened edge's ports — the
/// proof predicts the two are equal whenever the first crossing originates
/// on the left.
///
/// Uses identical identifier assignments and seeds for both runs so the
/// executions correspond 1:1.
pub fn equivalence_check(
    n: usize,
    m: usize,
    e_idx: usize,
    alg: Algorithm,
    seed: u64,
) -> (Option<u64>, Option<u64>) {
    let (g0, openable) = clique_path_base(n, m).expect("valid (n, m)");
    let e = openable[e_idx % openable.len()];
    let d = Dumbbell::build(&g0, e, &g0, e, BridgeOrientation::Straight)
        .expect("openable edges are never cut edges");

    // Shared identifier assignment for the 2n nodes of both runs: a
    // shuffled permutation of 1..=2n keeps the halves ID-disjoint and the
    // DFS agents' clocks small enough to matter.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE0E0);
    let mut pool: Vec<u64> = (1..=2 * n as u64).collect();
    use rand::seq::SliceRandom;
    pool.shuffle(&mut rng);
    let ids = IdAssignment::new(pool);

    let mut cfg = alg.config_for(&d.graph, seed);
    cfg.ids = ule_sim::IdMode::Explicit(ids.clone());
    cfg.watch_edges = d.bridges.to_vec();
    cfg.max_rounds = u64::MAX / 4;
    let dumbbell_out = alg.run_on(RuntimeKind::Sim, &d.graph, &cfg);
    let crossing = earliest(&dumbbell_out.watch_hits).map(|h| h.round);

    let union = g0
        .disjoint_union(&g0)
        .expect("the dumbbell on 2n nodes built");
    let mut ucfg = alg.config_for(&union, seed);
    ucfg.ids = ule_sim::IdMode::Explicit(ids);
    ucfg.max_rounds = u64::MAX / 4;
    let ex_out = alg.run_on(RuntimeKind::Sim, &union, &ucfg);

    // First use of the opened edge's four directed ports in EX(G'²):
    // left copy (v,w) and right copy (v+n, w+n).
    let (v, w) = e;
    let mut ex_round = u64::MAX;
    for (a, b) in [(v, w), (w, v), (v + n, w + n), (w + n, v + n)] {
        let p = union.port_to(a, b).expect("edge exists in closed copies");
        let t = ex_out.first_directed_use[union.directed_index(a, p)];
        ex_round = ex_round.min(t);
    }
    let ex_round = (ex_round != u64::MAX).then_some(ex_round);
    (crossing, ex_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_always_happens_for_correct_algorithms() {
        for alg in [
            Algorithm::LeastElAll,
            Algorithm::KingdomKnownD,
            Algorithm::DfsAgent,
        ] {
            let o = crossing_run(12, 24, 0, 3, alg, 1);
            assert!(o.elected, "{alg}");
            assert!(
                o.messages_through_crossing.is_some(),
                "{alg} never crossed a bridge yet elected a leader"
            );
        }
    }

    #[test]
    fn crossing_cost_grows_with_m() {
        let rows = crossing_sweep(&[(14, 20), (14, 60), (14, 90)], Algorithm::LeastElAll, 6);
        assert!(
            rows[0].mean_through < rows[2].mean_through,
            "crossing cost must grow with m: {rows:?}"
        );
        // Shape: Ω(m) — the round-0 flood alone is ≈ 2m messages.
        for r in &rows {
            assert!(
                r.mean_through >= r.m_actual as f64 / 2.0,
                "m={}: mean {} too small",
                r.m_actual,
                r.mean_through
            );
        }
    }

    #[test]
    fn dfs_crossing_cost_is_omega_m_on_average() {
        // For the DFS agents the crossing cost varies wildly with the
        // opened edge (that is the proof's averaging!); the mean over
        // opened-edge choices must still be Ω(m).
        let rows = crossing_sweep(&[(12, 30), (12, 60)], Algorithm::DfsAgent, 8);
        for r in &rows {
            assert!(
                r.mean_through >= r.m_actual as f64 / 8.0,
                "m={}: mean {}",
                r.m_actual,
                r.mean_through
            );
            assert!((r.success - 1.0).abs() < 1e-9, "DFS must always elect");
        }
    }

    #[test]
    fn edge_order_covers_used_edges() {
        let (g0, _) = clique_path_base(10, 20).unwrap();
        let (order, _) = edge_order(&g0, Algorithm::LeastElAll, 3, 10_000);
        assert!(!order.is_empty());
        // Rounds must be nondecreasing in the ranking.
        for pair in order.windows(2) {
            assert!(pair[0].2 <= pair[1].2);
        }
    }

    #[test]
    fn indistinguishability_until_crossing() {
        // The proof's key step, verified in code: with matched seeds and
        // identifiers, the dumbbell run first touches a bridge exactly
        // when EX(G'²) first touches the opened edge. The DFS agents make
        // this non-trivial: their crossing rounds vary over thousands of
        // rounds with the opened edge, yet the equality is exact.
        for seed in 0..4 {
            for alg in [Algorithm::LeastElAll, Algorithm::DfsAgent] {
                let (crossing, ex) = equivalence_check(12, 30, seed as usize, alg, seed);
                assert!(crossing.is_some(), "{alg}");
                assert_eq!(
                    crossing, ex,
                    "{alg} seed {seed}: dumbbell crossed at {crossing:?} but EX(G') used the opened edge at {ex:?}"
                );
            }
        }
    }

    #[test]
    fn coin_flip_never_crosses() {
        // The zero-message algorithm never crosses a bridge — and
        // correspondingly only succeeds with small constant probability.
        let o = crossing_run(12, 24, 0, 1, Algorithm::CoinFlip, 5);
        assert_eq!(o.messages_through_crossing, None);
        assert_eq!(o.total_messages, 0);
    }
}
