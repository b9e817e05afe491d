//! Fast registry-wide smoke test: every [`Algorithm`] on a small cycle and
//! grid, seconds instead of the 48-case proptest sweep. This is the first
//! test to run after touching the engine or any protocol — a regression in
//! basic election or CONGEST compliance surfaces here immediately.

use ule_core::Algorithm;
use ule_graph::{gen, Graph};

/// Runs `alg` on `g` with a fixed seed and checks the two invariants the
/// rest of the suite relies on: exactly one leader, and no message over
/// the CONGEST budget.
///
/// Runs are seeded and deterministic, so even the Monte Carlo algorithms
/// (`CoinFlip` succeeds only with constant probability) either always pass
/// or always fail here; the seed below is chosen so every registry
/// algorithm passes under the current per-node RNG derivation
/// ([`ule_sim::node_rng_seed`]), and any behavioral drift shows up as a
/// hard failure.
fn smoke(alg: Algorithm, g: &Graph, label: &str) {
    let out = alg.run(g, 2);
    assert!(
        out.election_succeeded(),
        "{} failed to elect on {label}: statuses {:?}",
        alg.spec().name,
        out.statuses
    );
    assert_eq!(
        out.congest_violations,
        0,
        "{} violated CONGEST on {label}",
        alg.spec().name
    );
}

#[test]
fn every_algorithm_on_small_cycle() {
    let g = gen::cycle(12).unwrap();
    for alg in Algorithm::ALL {
        smoke(alg, &g, "cycle(12)");
    }
}

#[test]
fn every_algorithm_on_small_grid() {
    let g = gen::grid(3, 4).unwrap();
    for alg in Algorithm::ALL {
        smoke(alg, &g, "grid(3x4)");
    }
}

#[test]
fn campaign_families_build_and_elect_at_scale() {
    // The four families campaigns sweep beyond the Table 1 set — star,
    // hypercube, expander (random 4-regular), and the complete binary
    // tree — instantiated through the same per-(family, n) seed
    // derivation campaigns use, at n up to 10⁴. A cheap deterministic
    // election (TOLE: no n/D knowledge, O(m·min(n, D)) messages) checks
    // election + CONGEST compliance end to end at sizes where a
    // scheduler or generator regression would actually show.
    for fam in [
        gen::Family::Star,
        gen::Family::Hypercube,
        gen::Family::Expander,
        gen::Family::CompleteBinaryTree,
    ] {
        for n in [100, 10_000] {
            let g = gen::workload_graph(gen::WORKLOAD_BASE_SEED, fam, n).unwrap();
            assert!(g.is_connected(), "{fam}/{n} not connected");
            assert!(
                g.len() >= n / 2,
                "{fam}/{n} rounded too far down: {}",
                g.len()
            );
            smoke(Algorithm::Tole, &g, &format!("{fam}/{n}"));
        }
    }
}
