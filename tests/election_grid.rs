//! The correctness grid: every algorithm × every graph family × several
//! seeds, plus the cross-cutting guarantees (CONGEST compliance, seeded
//! determinism, explicit knowledge handling).

use ule_core::spanner::{SpannerConfig, SpannerElect};
use ule_core::Algorithm;
use ule_graph::{analysis, gen, Graph, IdAssignment, IdSpace};
use ule_sim::{Knowledge, Model, Runner, RuntimeKind, SimConfig, Termination};

fn families(n: usize, seed: u64) -> Vec<(String, Graph)> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    gen::Family::ALL
        .iter()
        .map(|fam| (fam.to_string(), fam.build(n, &mut rng).unwrap()))
        .collect()
}

/// Algorithms that elect exactly one leader on every run (deterministic,
/// Las Vegas, or whp-with-all-candidates — seeds below are fixed, so whp
/// failures would be reproducible and indicate bugs).
const RELIABLE: [Algorithm; 11] = [
    Algorithm::LeastElAll,
    Algorithm::LeastElWhp,
    Algorithm::SizeEstimate,
    Algorithm::LasVegas,
    Algorithm::Clustering,
    Algorithm::DfsAgent,
    Algorithm::KingdomKnownD,
    Algorithm::KingdomDoubling,
    Algorithm::FloodMax,
    Algorithm::Tole,
    Algorithm::LeastElConstant,
];

#[test]
fn every_algorithm_on_every_family() {
    for (name, g) in families(26, 1) {
        for alg in RELIABLE {
            for seed in [0u64, 7] {
                let out = alg.run(&g, seed);
                assert!(
                    out.election_succeeded(),
                    "{alg} failed on {name} (seed {seed}): {} leaders, {} undecided",
                    out.leader_count(),
                    out.undecided_count()
                );
                assert_eq!(
                    out.termination,
                    Termination::Quiescent,
                    "{alg} on {name} hit the round cap"
                );
            }
        }
    }
}

#[test]
fn congest_budget_respected_everywhere() {
    for (name, g) in families(24, 2) {
        for alg in RELIABLE {
            let out = alg.run(&g, 3);
            assert_eq!(
                out.congest_violations, 0,
                "{alg} on {name}: {} oversized messages (max {} bits)",
                out.congest_violations, out.max_message_bits
            );
        }
    }
}

#[test]
fn seeded_runs_are_reproducible() {
    let g = gen::torus(5, 5).unwrap();
    for alg in RELIABLE {
        let a = alg.run(&g, 11);
        let b = alg.run(&g, 11);
        assert_eq!(a.messages, b.messages, "{alg}");
        assert_eq!(a.rounds, b.rounds, "{alg}");
        assert_eq!(a.statuses, b.statuses, "{alg}");
    }
}

#[test]
fn port_numbering_is_irrelevant_to_correctness() {
    // The same topology under different port permutations (the paper's
    // lower bounds quantify over port mappings) must still elect.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g = gen::random_connected(30, 80, &mut rng).unwrap();
    for perm_seed in 0..4 {
        let mut prng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let h = g.shuffle_ports(&mut prng);
        for alg in [
            Algorithm::LeastElAll,
            Algorithm::KingdomKnownD,
            Algorithm::DfsAgent,
        ] {
            let out = alg.run(&h, 2);
            assert!(
                out.election_succeeded(),
                "{alg} under permutation {perm_seed}"
            );
        }
    }
}

#[test]
fn adversarial_id_assignments() {
    // Sorted, reversed, and min-at-the-far-end assignments.
    let g = gen::path(24).unwrap();
    let d = analysis::diameter_exact(&g).unwrap() as usize;
    let sequential = IdAssignment::sequential(24);
    let reversed = IdAssignment::new((1..=24u64).rev().collect());
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let min_far = IdAssignment::min_at(24, 23, &IdSpace::standard(24), &mut rng);
    for ids in [sequential, reversed, min_far] {
        for alg in [
            Algorithm::KingdomKnownD,
            Algorithm::DfsAgent,
            Algorithm::FloodMax,
        ] {
            let mut cfg = SimConfig::seeded(1)
                .with_ids(ids.clone())
                .with_max_rounds(u64::MAX / 4);
            cfg.knowledge = Knowledge {
                n: Some(24),
                m: None,
                diameter: Some(d),
            };
            let out = alg.run_on(RuntimeKind::Sim, &g, &cfg);
            assert!(out.election_succeeded(), "{alg} with adversarial ids");
        }
    }
}

#[test]
fn local_model_also_works() {
    // The algorithms run in CONGEST; running them under LOCAL (no size
    // limit) must be identical in outcome and message count.
    let g = gen::grid(5, 5).unwrap();
    for alg in [Algorithm::LeastElAll, Algorithm::Clustering] {
        let cfg = alg.config_for(&g, 4);
        let local = {
            let mut c = cfg.clone();
            c.model = Model::Local;
            c
        };
        let a = alg.run_on(RuntimeKind::Sim, &g, &cfg);
        let b = alg.run_on(RuntimeKind::Sim, &g, &local);
        assert_eq!(a.messages, b.messages, "{alg}");
        assert_eq!(a.statuses, b.statuses, "{alg}");
        assert_eq!(b.congest_violations, 0);
    }
}

#[test]
fn spanner_election_on_families() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    for fam in gen::Family::ALL {
        let g = fam.build(28, &mut rng).unwrap();
        let sim = SimConfig::seeded(3).with_knowledge(Knowledge::n(g.len()));
        let sc = SpannerConfig { k: 3 };
        let out = Runner::new(&g, &sim).run(|v, s, _| SpannerElect::new(sc, v, s.degree));
        assert!(out.election_succeeded(), "spanner on {fam}");
    }
}

#[test]
fn larger_scale_sanity() {
    // One bigger instance per headline algorithm, to catch scaling bugs
    // that small fixtures miss.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let g = gen::random_connected(400, 1600, &mut rng).unwrap();
    for alg in [
        Algorithm::LeastElAll,
        Algorithm::LeastElConstant,
        Algorithm::Clustering,
        Algorithm::KingdomKnownD,
        Algorithm::SizeEstimate,
    ] {
        let out = alg.run(&g, 0);
        assert!(out.election_succeeded(), "{alg} at n=400");
    }
}

#[test]
fn explicit_leader_identity_consistency() {
    // Deterministic algorithms: the leader is the id-extremal node.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let g = gen::random_connected(40, 120, &mut rng).unwrap();
    let cfg = Algorithm::KingdomKnownD.config_for(&g, 5);
    let ids = match &cfg.ids {
        ule_sim::IdMode::Explicit(a) => a.clone(),
        _ => unreachable!(),
    };
    let out = Algorithm::KingdomKnownD.run_on(RuntimeKind::Sim, &g, &cfg);
    assert_eq!(out.leader(), Some(ids.argmax()), "kingdom elects max id");

    let cfg = Algorithm::DfsAgent.config_for(&g, 5);
    let out = Algorithm::DfsAgent.run_on(RuntimeKind::Sim, &g, &cfg);
    assert_eq!(out.leader(), Some(0), "dfs elects min id (sequential)");
}
