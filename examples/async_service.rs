//! Async service: elect a leader over real channels, no round barrier.
//!
//! ```text
//! cargo run --release --example async_service
//! ```
//!
//! Spins up the threads+channels runtime (`ule_sim::rt`) on a small
//! peer-to-peer overlay: every node runs on a worker thread pool, every
//! protocol message crosses an `mpsc` channel as a sequence-numbered
//! [`ule_sim::transport::Frame`], and idle stretches are crossed by the
//! arbiter handshake instead of a global clock. The service elects a
//! coordinator with the paper's size-estimate algorithm (Corollary 4.5 —
//! zero knowledge of `n`, `m`, or `D`), prints who won, then demonstrates
//! the deterministic-seed contract: the delivery trace replays byte for
//! byte, and the same election on the synchronous simulator produces the
//! identical outcome — leader, rounds, messages, bits, everything.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_core::Algorithm;
use ule_graph::gen;
use ule_sim::{replay, AsyncRuntime, NodeSetup, RuntimeKind};

fn main() {
    // A 64-node random overlay, as a membership service might form.
    let mut rng = StdRng::seed_from_u64(7);
    let g = gen::random_connected(64, 160, &mut rng).expect("valid parameters");
    let alg = Algorithm::SizeEstimate;
    let cfg = alg.config_for(&g, 42);

    println!(
        "overlay: {} nodes, {} links; electing with `{}` ({}) over channels",
        g.len(),
        g.edge_count(),
        alg.spec().name,
        alg.spec().reference
    );

    // Run the election on the async runtime. `Algorithm::run_on` is the
    // registry door and `Runner` the plain entrypoint; here we drive
    // `AsyncRuntime` directly to keep the delivery trace.
    let factory = |_: usize, setup: &NodeSetup, _: &mut StdRng| {
        ule_core::size_estimate::SizeEstimateElect::new(setup.degree)
    };
    let service = AsyncRuntime::new().run(&g, &cfg, factory);
    let leader = service
        .outcome
        .leader()
        .expect("Corollary 4.5 elects with probability 1");
    assert!(service.outcome.election_succeeded());

    println!(
        "elected leader: node {leader} (id {:?})",
        match &cfg.ids {
            ule_sim::IdMode::Explicit(ids) => Some(ids.id(leader)),
            ule_sim::IdMode::Anonymous => None,
        }
    );
    println!(
        "cost: {} rounds, {} messages, {} bits; {} activations traced",
        service.outcome.rounds,
        service.outcome.messages,
        service.outcome.bits,
        service.trace.events.len()
    );

    // Deterministic-seed mode: the recorded delivery trace replays byte
    // for byte — same activations, same frames, same outcome.
    let replayed = replay(&g, &cfg, factory, &service.trace);
    assert_eq!(replayed, service);
    println!("replay: delivery trace verified byte for byte");

    // And the channel execution reproduces the synchronous simulator
    // exactly — the cross-runtime conformance contract.
    let reference = alg.run_on(RuntimeKind::Sim, &g, &cfg);
    assert_eq!(service.outcome, reference);
    println!("conformance: outcome equals the synchronous simulator's, field for field");
}
