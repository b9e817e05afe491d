//! A guided tour of both lower-bound constructions.
//!
//! ```text
//! cargo run --release --example lower_bound_tour
//! ```
//!
//! Part 1 (Theorem 3.1, messages): builds dumbbell graphs of growing
//! density, watches their bridges, and shows that every correct election
//! spends Ω(m) messages by the time a bridge is crossed — while the
//! zero-message coin-flip algorithm never crosses and pays for it with a
//! ≈ 63% failure rate.
//!
//! Part 2 (Theorem 3.13, time): builds the Figure 1 clique-cycle, then
//! truncates an O(D)-time election at increasing round budgets. Success
//! probability is ≈ 0 until the budget reaches Θ(D) — the symmetry between
//! opposite arcs cannot be broken faster.

use ule_core::Algorithm;
use ule_graph::clique_cycle::CliqueCycle;
use ule_lowerbound::{bridge, time_lb};

fn main() {
    println!("== Part 1: Ω(m) messages (Theorem 3.1, dumbbell graphs) ==\n");
    let sizes = [(16usize, 24usize), (16, 60), (16, 100), (16, 120)];
    println!(
        "{:>6} {:>10} {:>22} {:>14} {:>9}",
        "m(half)", "m(total)", "msgs thru crossing", "total msgs", "success"
    );
    for alg in [Algorithm::LeastElAll, Algorithm::DfsAgent] {
        println!("--- {}", alg.spec().name);
        for row in bridge::crossing_sweep(&sizes, alg, 6) {
            println!(
                "{:>6} {:>10} {:>22.1} {:>14.1} {:>8.0}%",
                row.half_m,
                row.m_actual,
                row.mean_through,
                row.mean_total,
                100.0 * row.success
            );
        }
    }
    let coin = bridge::crossing_run(16, 60, 0, 1, Algorithm::CoinFlip, 3);
    println!(
        "--- coin-flip: crossed = {}, messages = {} (and it fails ≈ 63% of runs)",
        coin.messages_through_crossing.is_some(),
        coin.total_messages
    );

    println!("\n== Part 2: Ω(D) time (Theorem 3.13, clique-cycle of Figure 1) ==\n");
    let (n, d) = (48, 16);
    let cc = CliqueCycle::build(n, d).expect("valid parameters");
    println!(
        "clique-cycle: n' = {}, D' = {}, γ = {} (4 arcs of {} cliques)",
        cc.graph.len(),
        cc.d_prime,
        cc.gamma,
        cc.cliques_per_arc()
    );
    let ts: Vec<u64> = vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 96];
    println!(
        "\n{:>7} {:>8} {:>10} {:>14}",
        "T", "T/D'", "success", "mean leaders"
    );
    for p in time_lb::truncated_success(n, d, Algorithm::LeastElAll, &ts, 60) {
        println!(
            "{:>7} {:>8.2} {:>9.0}% {:>14.2}",
            p.t,
            p.t_over_d,
            100.0 * p.success,
            p.mean_leaders
        );
    }
    println!(
        "\nreading: below T ≈ D' the wave cannot have circled the arcs, so no\n\
         node can safely elect itself; success jumps to 100% only once the\n\
         budget passes Θ(D) — exactly the lower bound's prediction."
    );
}
