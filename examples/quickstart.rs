//! Quickstart: elect a leader on a random network with every algorithm.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random connected graph, runs each of the paper's election
//! algorithms under the knowledge assumptions of Table 1, and prints what
//! each one paid in rounds and messages.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_core::Algorithm;
use ule_graph::{analysis, gen};

fn main() {
    let mut rng = StdRng::seed_from_u64(2013);
    let g = gen::random_connected(200, 800, &mut rng).expect("valid parameters");
    let stats = analysis::GraphStats::compute(&g);
    println!("network: {stats}");
    println!();
    println!(
        "{:<16} {:>8} {:>10}  {:<10} {:<28} reference",
        "algorithm", "rounds", "messages", "leader", "claimed bounds"
    );
    println!("{}", "-".repeat(100));

    for alg in Algorithm::ALL {
        let spec = alg.spec();
        let out = alg.run(&g, 42);
        let leader = match out.leader() {
            Some(v) if out.election_succeeded() => format!("node {v}"),
            _ => "— failed".to_string(),
        };
        println!(
            "{:<16} {:>8} {:>10}  {:<10} {:<28} {}",
            spec.name,
            out.rounds,
            out.messages,
            leader,
            format!("{} / {}", spec.time, spec.messages),
            spec.reference
        );
    }

    println!();
    println!(
        "note: coin-flip legitimately fails with probability ≈ 1 − 1/e; every\n\
         other algorithm above elects exactly one leader on this run."
    );
}
