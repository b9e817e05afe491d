//! Implicit-topology determinism contract, end to end.
//!
//! The procedural [`ule_graph::Topology`] implementations promise to be
//! *indistinguishable* from the materialized CSR graph: same node and port
//! numbering, same directed-edge indices. This suite checks the promise at
//! the only level that matters — the full [`ule_sim::RunOutcome`] struct,
//! every field, for every registry algorithm, under the lockstep and
//! bounded-delay adversaries, at every parallelism setting. A single
//! mis-numbered port would desynchronize the per-node RNG streams or the
//! adversary's directed-edge fate streams and show up here as a hard
//! inequality.

use ule_core::Algorithm;
use ule_graph::gen::Family;
use ule_graph::{Graph, ImplicitTopology, Topology};
use ule_sim::{Adversary, Parallelism, RunOutcome, RuntimeKind, SimConfig};

/// The two structured shapes the acceptance contract names: a cycle and a
/// torus, implicit next to their byte-identical materializations.
fn shapes() -> Vec<(&'static str, ImplicitTopology, Graph)> {
    [(Family::Cycle, 24), (Family::Torus, 16)]
        .into_iter()
        .map(|(fam, n)| {
            let topo = fam.implicit(n).expect("structured family");
            let g = topo.materialize();
            (fam.name(), topo, g)
        })
        .collect()
}

fn adversaries() -> [(&'static str, Adversary); 2] {
    [
        ("lockstep", Adversary::Lockstep),
        ("bounded-delay", Adversary::BoundedDelay { max_delay: 3 }),
    ]
}

#[test]
fn run_outcomes_are_identical_implicit_vs_materialized() {
    for (shape, topo, g) in shapes() {
        for alg in Algorithm::ALL {
            for (adv_name, adv) in adversaries() {
                let cfg = alg
                    .config_for(&g, 5)
                    .with_adversary(adv.clone())
                    .with_parallelism(Parallelism::Off);
                // One materialized sequential run is the reference; every
                // other (representation × parallelism) combination must
                // reproduce it field for field.
                let reference = alg.run_on(RuntimeKind::Sim, &g, &cfg);
                for par in [
                    Parallelism::Off,
                    Parallelism::Threads(2),
                    Parallelism::Threads(4),
                ] {
                    let mut c = cfg.clone();
                    c.parallelism = par;
                    let mat = alg.run_on(RuntimeKind::Sim, &g, &c);
                    let imp = alg.run_on(RuntimeKind::Sim, &topo, &c);
                    assert_eq!(
                        mat, reference,
                        "{alg} on materialized {shape} under {adv_name} drifted at {par:?}"
                    );
                    assert_eq!(
                        imp, reference,
                        "{alg} on implicit {shape} under {adv_name} drifted at {par:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn config_from_diameter_hint_agrees_with_materialized_config() {
    // The closed-form diameter (`Topology::diameter_hint`) feeds the same
    // knowledge into configs as the BFS on the materialized graph.
    for (shape, topo, g) in shapes() {
        for alg in Algorithm::ALL {
            let a = alg.config_for(&g, 9);
            let b = alg.config(topo.n(), topo.diameter_hint(), 9);
            assert_eq!(a, b, "{alg} on {shape}");
        }
    }
}

#[test]
fn disabling_edge_stats_changes_only_the_per_edge_columns() {
    // The memory diet's `edge_stats: false` (what implicit campaign groups
    // run) must not perturb the simulation itself: every scalar and
    // per-node field of the outcome is unchanged; only the O(m) per-edge
    // vectors come back empty.
    let (_, topo, g) = shapes().remove(0);
    for alg in Algorithm::ALL {
        let cfg = alg.config_for(&g, 5);
        let mut diet = cfg.clone();
        diet.edge_stats = false;
        let full = alg.run_on(RuntimeKind::Sim, &topo, &cfg);
        let lean = alg.run_on(RuntimeKind::Sim, &topo, &diet);
        assert!(lean.first_directed_use.is_empty(), "{alg}");
        assert!(lean.directed_message_counts.is_empty(), "{alg}");
        let strip = |o: &RunOutcome| {
            let mut o = o.clone();
            o.first_directed_use = Vec::new();
            o.directed_message_counts = Vec::new();
            o
        };
        assert_eq!(strip(&full), lean, "{alg} diverged with edge stats off");
    }
}

#[test]
fn watch_edges_still_work_without_edge_stats() {
    // Watch hits are their own small column, not part of the O(m) ledger;
    // the diet must leave them alive.
    let topo = Family::Cycle.implicit(16).expect("cycle");
    let g = topo.materialize();
    let mut cfg = SimConfig::seeded(3)
        .with_ids(ule_graph::IdAssignment::sequential(16))
        .with_knowledge(ule_sim::Knowledge::n_and_diameter(16, 8));
    cfg.watch_edges = vec![(0, 1)];
    let mut diet = cfg.clone();
    diet.edge_stats = false;
    let full = Algorithm::FloodMax.run_on(RuntimeKind::Sim, &g, &cfg);
    let lean = Algorithm::FloodMax.run_on(RuntimeKind::Sim, &topo, &diet);
    assert_eq!(full.watch_hits, lean.watch_hits);
    assert!(full.watch_hits[0].is_some());
}
