//! A guided tour of both lower-bound constructions, with every series of
//! the paper's lower-bound figures.
//!
//! ```text
//! cargo run --release --example lower_bound_tour
//! ```
//!
//! Part 1 (Theorem 3.1, messages): builds dumbbell graphs of growing
//! density, watches their bridges, and shows that every correct election
//! spends Ω(m) messages by the time a bridge is crossed — while the
//! zero-message coin-flip algorithm never crosses and pays for it with a
//! ≈ 63% failure rate. The Lemma 3.5 experiment then runs each algorithm
//! on `EX(G')` (two disconnected copies of the closed base graph) and
//! asserts the proof's indistinguishability step: the dumbbell run first
//! crosses a bridge exactly when `EX(G')` first uses the opened edge.
//! Corollary 3.12 closes the part: majority broadcast costs Θ(m) too.
//!
//! Part 2 (Theorem 3.13, time): builds the Figure 1 clique-cycle, then
//! truncates an O(D)-time election at increasing round budgets. Success
//! probability is ≈ 0 until the budget reaches Θ(D) — the symmetry between
//! opposite arcs cannot be broken faster. The coin-flip row shows why the
//! theorem needs success probability `> 15/16`, and the untruncated
//! rounds-vs-`D'` series shows the bound is tight.

use ule_core::Algorithm;
use ule_graph::clique_cycle::CliqueCycle;
use ule_lowerbound::{bridge, broadcast_lb, time_lb};

fn main() {
    println!("== Part 1: Ω(m) messages (Theorem 3.1, dumbbell graphs) ==\n");
    let sizes = [(16usize, 24usize), (16, 40), (16, 60), (16, 90), (16, 120)];
    for alg in [
        Algorithm::LeastElAll,
        Algorithm::LeastElConstant,
        Algorithm::KingdomKnownD,
        Algorithm::DfsAgent,
    ] {
        println!("--- {}", alg.spec().name);
        println!(
            "{:>8} {:>9} {:>22} {:>10} {:>13} {:>9}",
            "m(half)", "m(total)", "msgs thru crossing", "…/m", "total msgs", "success"
        );
        for row in bridge::crossing_sweep(&sizes, alg, 12) {
            println!(
                "{:>8} {:>9} {:>22.1} {:>10.2} {:>13.1} {:>8.0}%",
                row.half_m,
                row.m_actual,
                row.mean_through,
                row.mean_through / row.m_actual as f64,
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

    println!("\n--- Lemma 3.5: indistinguishability of EX(G') and the dumbbell run");
    println!(
        "{:<14} {:>6} {:>18} {:>18}",
        "algorithm", "seed", "crossing round", "EX first-use"
    );
    for alg in [Algorithm::LeastElAll, Algorithm::DfsAgent] {
        for seed in 0..6u64 {
            let (crossing, ex) = bridge::equivalence_check(14, 40, seed as usize, alg, seed);
            let show = |r: Option<u64>| r.map_or("—".into(), |r| r.to_string());
            println!(
                "{:<14} {:>6} {:>18} {:>18}",
                alg.spec().name,
                seed,
                show(crossing),
                show(ex)
            );
            assert_eq!(
                crossing, ex,
                "Lemma 3.5 violated: {alg} seed {seed} crosses a bridge in round {crossing:?} \
                 but first uses the opened edge of EX(G') in round {ex:?}"
            );
        }
    }
    println!("the executions are identical until the crossing — the proof's Lemma 3.5 step.");

    println!("\n--- Corollary 3.12: Ω(m) messages for majority broadcast");
    println!(
        "{:>8} {:>9} {:>16} {:>16} {:>12} {:>10}",
        "m(half)", "m(total)", "msgs@crossing", "msgs@majority", "total msgs", "maj/m"
    );
    let sizes = [(16, 24), (16, 40), (16, 60), (16, 80), (16, 100), (16, 120)];
    for row in broadcast_lb::broadcast_sweep(&sizes, 1) {
        println!(
            "{:>8} {:>9} {:>16} {:>16} {:>12} {:>10.2}",
            row.half_m,
            row.m_actual,
            row.messages_through_crossing,
            row.messages_at_majority,
            row.total_messages,
            row.messages_at_majority as f64 / row.m_actual as f64
        );
    }
    println!(
        "flat maj/m column ⇒ majority broadcast costs Θ(m) on dumbbells, as\n\
         Corollary 3.12 proves it must (for success probability > 5/8)."
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
    println!(
        "\n--- success vs truncation budget T — {}",
        Algorithm::LeastElAll.spec().name
    );
    println!(
        "{:>7} {:>8} {:>10} {:>14}",
        "T", "T/D'", "success", "mean leaders"
    );
    let ts = [1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 64, 96];
    for p in time_lb::truncated_success(n, d, Algorithm::LeastElAll, &ts, 200) {
        println!(
            "{:>7} {:>8.2} {:>9.1}% {:>14.2}",
            p.t,
            p.t_over_d,
            100.0 * p.success,
            p.mean_leaders
        );
    }
    println!(
        "below T ≈ D' the wave cannot have circled the arcs, so no node can\n\
         safely elect itself; success reaches 100% only once the budget\n\
         passes Θ(D) — exactly the lower bound's prediction."
    );

    let coin = time_lb::truncated_success(n, d, Algorithm::CoinFlip, &[1], 800);
    println!(
        "\n--- the §1 contrast: coin-flip at T = 1\n\
         success {:.1}% (≈ 1/e = 36.8%) with zero messages — why the bound\n\
         only holds above success 15/16",
        100.0 * coin[0].success
    );

    println!("\n--- rounds vs D' (fixed n, untruncated, tightness of the bound)");
    println!(
        "{:>6} {:>6} {:>8} {:>12} {:>12} {:>9} {:>12}",
        "D", "D'", "n'", "rounds", "rounds/D'", "success", "messages"
    );
    for p in time_lb::rounds_vs_diameter(96, &[4, 8, 16, 32, 64], Algorithm::LeastElAll, 10) {
        println!(
            "{:>6} {:>6} {:>8} {:>12.1} {:>12.2} {:>8.0}% {:>12.1}",
            p.d,
            p.d_prime,
            p.n_actual,
            p.mean_rounds,
            p.mean_rounds / p.d_prime as f64,
            100.0 * p.success,
            p.mean_messages
        );
    }
    println!("flat rounds/D' column ⇒ the algorithm runs in Θ(D): the Ω(D) bound is tight.");
}
