//! Sensor-network scenario: message count is battery life.
//!
//! ```text
//! cargo run --release --example sensor_network
//! ```
//!
//! The paper's introduction motivates message-frugal election with ad hoc
//! and sensor networks, where every transmission costs energy. This
//! example deploys a grid-shaped sensor field (a torus, approximating a
//! dense planar deployment without boundary effects) and compares the
//! energy (messages) and latency (rounds) of electing a coordinator with:
//!
//! * FloodMax — the naive baseline every practitioner writes first,
//! * Least-El with all candidates ([11]),
//! * Theorem 4.4(B) — the O(m)-message Monte Carlo election,
//! * Corollary 4.6 — the Las Vegas election (nodes know n and D).
//!
//! It also reports the *maximum per-node* energy (the hottest sensor),
//! which is what actually kills a battery.

use ule_core::Algorithm;
use ule_graph::{analysis, gen, Graph};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::RunOutcome;

fn hottest_node(g: &Graph, out: &RunOutcome) -> (usize, u64) {
    let mut best = (0, 0u64);
    for v in g.nodes() {
        let sent: u64 = (0..g.degree(v))
            .map(|p| out.directed_message_counts[g.directed_index(v, p)])
            .sum();
        if sent > best.1 {
            best = (v, sent);
        }
    }
    best
}

fn main() {
    let side = 20;
    let g = gen::torus(side, side).expect("valid torus");
    let d = analysis::diameter_exact(&g).expect("connected") as f64;
    println!(
        "sensor field: {side}x{side} torus, n = {}, m = {}, D = {d}",
        g.len(),
        g.edge_count(),
    );
    println!();
    println!(
        "{:<16} {:>9} {:>12} {:>14} {:>12} {:>9}",
        "algorithm", "rounds", "messages", "hottest node", "msgs/m", "success"
    );
    println!("{}", "-".repeat(78));

    let algorithms = [
        Algorithm::FloodMax,
        Algorithm::LeastElAll,
        Algorithm::LeastElConstant,
        Algorithm::LasVegas,
    ];
    let trials = 20u64;
    for alg in algorithms {
        let outs = parallel_trials(trials, |t| alg.run(&g, t));
        let s = Summary::from_outcomes(&outs);
        let hot = outs
            .iter()
            .map(|o| hottest_node(&g, o).1)
            .max()
            .unwrap_or(0);
        println!(
            "{:<16} {:>9.1} {:>12.1} {:>14} {:>12.2} {:>8.0}%",
            alg.spec().name,
            s.mean_rounds,
            s.mean_messages,
            hot,
            s.mean_messages / g.edge_count() as f64,
            100.0 * s.success_rate()
        );
    }

    println!();
    println!(
        "reading: FloodMax burns ≈ m·D messages; the Theorem 4.4(B) election\n\
         brings the field's total energy to a small constant per link while\n\
         staying within O(D) latency — the paper's point, measured."
    );
}
