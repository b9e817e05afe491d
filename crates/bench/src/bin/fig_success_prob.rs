//! Theorem 4.4's success-probability trade-off: `P(success) ≈ 1 − e^{−f}`
//! as a function of the expected candidate count `f(n)`, plus the §1
//! coin-flip example.
//!
//! ```text
//! cargo run --release -p ule-bench --bin fig_success_prob [-- --quick]
//! ```

use ule_core::least_el::{LeastEl, LeastElConfig};
use ule_core::Algorithm;
use ule_graph::{gen, Graph};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{Knowledge, RunOutcome, Runner, SimConfig};

/// One Least-El run under a custom candidate policy (not a registry row).
fn elect(g: &Graph, sim: &SimConfig, lcfg: &LeastElConfig) -> RunOutcome {
    Runner::new(g, sim).run(|_, setup, _| LeastEl::new(lcfg.clone(), setup.degree))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 120 } else { 600 };
    let g = gen::torus(8, 8).expect("valid torus");
    let n = g.len();

    println!("# Theorem 4.4 — success probability vs f(n) (n = {n}, torus)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12}",
        "f", "measured", "1-e^-f", "mean msgs", "msgs/m"
    );
    for f in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let lcfg = LeastElConfig::expected_candidates(f);
        let outs = parallel_trials(trials, |t| {
            let cfg = SimConfig::seeded(t).with_knowledge(Knowledge::n(n));
            elect(&g, &cfg, &lcfg)
        });
        let s = Summary::from_outcomes(&outs);
        println!(
            "{:>8.2} {:>11.1}% {:>11.1}% {:>14.1} {:>12.2}",
            f,
            100.0 * s.success_rate(),
            100.0 * (1.0 - (-f).exp()),
            s.mean_messages,
            s.mean_messages / g.edge_count() as f64
        );
    }

    println!("\n# Theorem 4.4(B) — ε-calibrated: f = 4·ln(1/ε)\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "ε", "f", "measured", "target ≥"
    );
    for eps in [0.5, 0.25, 0.1, 0.05] {
        let lcfg = LeastElConfig::constant_error(eps);
        let outs = parallel_trials(trials, |t| {
            let cfg = SimConfig::seeded(7000 + t).with_knowledge(Knowledge::n(n));
            elect(&g, &cfg, &lcfg)
        });
        let s = Summary::from_outcomes(&outs);
        println!(
            "{:>8.2} {:>10.2} {:>11.1}% {:>11.1}%",
            eps,
            4.0 * (1.0 / eps).ln(),
            100.0 * s.success_rate(),
            100.0 * (1.0 - eps)
        );
    }

    println!("\n# §1 — the coin-flip algorithm (1 round, 0 messages)\n");
    let outs = parallel_trials(4 * trials, |t| Algorithm::CoinFlip.run(&g, t));
    let s = Summary::from_outcomes(&outs);
    println!(
        "measured success {:.1}% vs 1/e = 36.8% — constant success is free;\n\
         the paper's lower bounds kick in only above it.",
        100.0 * s.success_rate()
    );
}
