//! Cross-runtime conformance: the async threads+channels runtime
//! (`ule_sim::rt`) must reproduce the synchronous simulator exactly.
//!
//! Message fates are a pure function of `(run seed, directed edge,
//! per-edge send index)`, so the async runtime is a conservative
//! re-execution of the same computation under **every** adversary — same
//! per-node RNG streams, same inbox ordering, same activation rounds, same
//! drops, delays, and crash horizons — and its [`RunOutcome`] is asserted
//! **equal**, field for field, to the engine's: same leader, same message
//! and bit totals (exact, not within tolerance — every registry algorithm
//! is deterministic given its seed), same rounds, same per-edge
//! statistics. Any divergence is a bug in one of the runtimes.

use ule_core::Algorithm;
use ule_graph::dumbbell::Dumbbell;
use ule_graph::{gen, Graph};
use ule_sim::{replay, Adversary, AsyncRuntime, Parallelism, RuntimeKind, SimConfig};

/// The three conformance workloads: a cycle, a torus, and the Theorem 3.1
/// dumbbell (two complete halves joined by bridges — the least symmetric
/// small graph the repo builds, so port-numbering mistakes would show).
fn workloads() -> Vec<(String, Graph)> {
    let dumbbell = {
        let half = gen::complete(4).unwrap();
        Dumbbell::build(&half, (0, 1), &half, (2, 3), Default::default())
            .unwrap()
            .graph
    };
    vec![
        ("cycle/12".into(), gen::cycle(12).unwrap()),
        ("torus/4x4".into(), gen::torus(4, 4).unwrap()),
        ("dumbbell/8".into(), dumbbell),
    ]
}

/// Every adversary model, with schedules valid on a 4×4 torus (nodes
/// 0..16; (r, c) and (r, c+1 mod 4) are adjacent).
fn adversaries() -> Vec<(&'static str, Adversary)> {
    vec![
        ("delay", Adversary::BoundedDelay { max_delay: 2 }),
        (
            "crash",
            Adversary::CrashStop {
                schedule: vec![(3, 4), (10, 6)],
            },
        ),
        (
            "link",
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 3), ((4, 5), 0)],
            },
        ),
        (
            "compose",
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 2 },
                Adversary::CrashStop {
                    schedule: vec![(5, 5)],
                },
                Adversary::LinkFailure {
                    schedule: vec![((0, 4), 2)],
                },
            ]),
        ),
    ]
}

#[test]
fn every_algorithm_conforms_on_every_workload() {
    for (label, g) in workloads() {
        for alg in Algorithm::ALL {
            let cfg = alg.config_for(&g, 2);
            let sim = alg.run_on(RuntimeKind::Sim, &g, &cfg);
            let over_channels = alg.run_on(RuntimeKind::Async, &g, &cfg);
            assert_eq!(
                over_channels,
                sim,
                "{} diverges between runtimes on {label}",
                alg.spec().name
            );
            // The equality above subsumes these, but state the headline
            // claims explicitly so a failure names what broke.
            assert_eq!(over_channels.leader(), sim.leader(), "{alg} on {label}");
            assert_eq!(over_channels.messages, sim.messages, "{alg} on {label}");
        }
    }
}

#[test]
fn every_algorithm_conforms_under_every_adversary() {
    // The acceptance bar of the per-edge fate-stream refactor: every
    // registry algorithm, under every adversary model, produce
    // field-for-field equal outcomes on the engine (sequential and
    // sharded at 2 and 4 threads) and on the async runtime. The round cap
    // keeps crash-stalled deadline algorithms (kingdom under a dead king)
    // fast: conformance is asserted on the truncated run all the same.
    let g = gen::torus(4, 4).unwrap();
    for alg in Algorithm::ALL {
        for (name, adv) in adversaries() {
            // The watch set carries a reversed and a duplicated edge:
            // `messages_before` is the one order-dependent quantity, and
            // both runtimes must resolve every spelling identically.
            let mut cfg =
                alg.config_for(&g, 2)
                    .with_adversary(adv)
                    .watching(&[(1, 0), (4, 5), (4, 5)]);
            let cap = cfg.max_rounds.min(4_000);
            cfg = cfg.with_max_rounds(cap);
            let reference = {
                let mut sequential = cfg.clone();
                sequential.parallelism = Parallelism::Off;
                alg.run_on(RuntimeKind::Sim, &g, &sequential)
            };
            for threads in [2usize, 4] {
                let mut sharded = cfg.clone();
                sharded.parallelism = Parallelism::Threads(threads);
                assert_eq!(
                    alg.run_on(RuntimeKind::Sim, &g, &sharded),
                    reference,
                    "{alg} x {name}: engine diverges at {threads} threads"
                );
            }
            assert_eq!(
                alg.run_on(RuntimeKind::Async, &g, &cfg),
                reference,
                "{alg} x {name}: async runtime diverges from the engine"
            );
        }
    }
}

#[test]
fn round_limit_truncation_conforms() {
    // Truncating a run mid-flood must snapshot the same state and report
    // the same RoundLimit verdict on both runtimes.
    let g = gen::torus(4, 4).unwrap();
    let mut cfg = Algorithm::FloodMax.config_for(&g, 0);
    cfg = cfg.with_max_rounds(2);
    let sim = Algorithm::FloodMax.run_on(RuntimeKind::Sim, &g, &cfg);
    let over_channels = Algorithm::FloodMax.run_on(RuntimeKind::Async, &g, &cfg);
    assert_eq!(over_channels, sim);
    assert_eq!(sim.termination, ule_sim::Termination::RoundLimit);
}

#[test]
fn recorded_trace_replays_byte_for_byte() {
    // A deterministic-seed async run logs its delivery trace; replaying
    // the trace sequentially must verify every delivery and rebuild the
    // identical outcome *and* trace — under lockstep and under a
    // composed adversary alike.
    let g = gen::torus(4, 4).unwrap();
    let factory = |_: usize, _: &ule_sim::NodeSetup, _: &mut rand::rngs::StdRng| {
        ule_core::baseline::FloodMax::new()
    };
    let lockstep = Algorithm::FloodMax.config_for(&g, 7);
    let composed = lockstep.clone().with_adversary(Adversary::Compose(vec![
        Adversary::BoundedDelay { max_delay: 2 },
        Adversary::CrashStop {
            schedule: vec![(3, 3)],
        },
    ]));
    for cfg in [lockstep, composed] {
        let recorded = AsyncRuntime::new().run(&g, &cfg, factory);
        assert!(!recorded.trace.events.is_empty());
        let replayed = replay(&g, &cfg, factory, &recorded.trace);
        assert_eq!(replayed, recorded);
        // And the recorded run itself conforms to the simulator.
        assert_eq!(
            recorded.outcome,
            Algorithm::FloodMax.run_on(RuntimeKind::Sim, &g, &cfg)
        );
    }
}

#[test]
fn single_source_wakeup_conforms() {
    // Adversarial wakeup exercises message-triggered first activations
    // and the wake-timer path together.
    let g = gen::cycle(12).unwrap();
    let mut cfg = SimConfig::seeded(3).with_knowledge(ule_sim::Knowledge::n(12));
    cfg.wakeup = ule_sim::Wakeup::Adversarial(vec![0]);
    let sim = Algorithm::LeastElAll.run_on(RuntimeKind::Sim, &g, &cfg);
    let over_channels = Algorithm::LeastElAll.run_on(RuntimeKind::Async, &g, &cfg);
    assert_eq!(over_channels, sim);
    assert!(sim.election_succeeded());
}
