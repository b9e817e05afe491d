//! Quickstart: elect a leader on a random network with every algorithm.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random connected graph, runs each of the paper's election
//! algorithms under the knowledge assumptions of Table 1, and prints what
//! each one paid in rounds and messages — raw, and normalized as
//! `rounds/D` and `msgs/m`: the §1.1.2 message/time trade-off frontier on
//! one graph (`ule-xp run --campaign fig-tradeoff` sweeps it over three
//! workloads).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_core::Algorithm;
use ule_graph::{analysis, gen};

fn main() {
    let mut rng = StdRng::seed_from_u64(2013);
    let g = gen::random_connected(200, 800, &mut rng).expect("valid parameters");
    let stats = analysis::GraphStats::compute(&g);
    let d = stats.diameter.expect("connected").max(1) as f64;
    println!("network: {stats}");
    println!();
    println!(
        "{:<16} {:>8} {:>10} {:>9} {:>7}  {:<10} {:<28} reference",
        "algorithm", "rounds", "messages", "rounds/D", "msgs/m", "leader", "claimed bounds"
    );
    println!("{}", "-".repeat(118));

    for alg in Algorithm::ALL {
        let spec = alg.spec();
        let out = alg.run(&g, 42);
        let leader = match out.leader() {
            Some(v) if out.election_succeeded() => format!("node {v}"),
            _ => "— failed".to_string(),
        };
        println!(
            "{:<16} {:>8} {:>10} {:>9.2} {:>7.2}  {:<10} {:<28} {}",
            spec.name,
            out.rounds,
            out.messages,
            out.rounds as f64 / d,
            out.messages as f64 / stats.m as f64,
            leader,
            format!("{} / {}", spec.time, spec.messages),
            spec.reference
        );
    }

    println!();
    println!(
        "note: coin-flip legitimately fails with probability ≈ 1 − 1/e; every\n\
         other algorithm above elects exactly one leader on this run.\n\
         reading: no row has both rounds/D and msgs/m at O(1) unconditionally.\n\
         Rows that get both small either know (n, D) [Cor 4.6], tolerate\n\
         constant failure [Thm 4.4(B)], or need density [Cor 4.2]."
    );
}
