//! Regenerates **Table 1** of the paper: every upper-bound row, measured.
//!
//! ```text
//! cargo run --release -p ule-bench --bin table1 [-- --quick]
//! ```
//!
//! Thin wrapper over the `table1` built-in campaign of `ule-xp`: the
//! campaign runner sweeps every algorithm over four graph families at
//! several sizes and this binary prints the per-algorithm blocks (mean
//! rounds/messages plus the *normalized ratios*, measured ÷ claimed
//! shape). For the machine-readable form of the same numbers, run
//! `ule-xp run --campaign table1` — both views come from one execution
//! path, so they always agree. The paper's claims hold if the ratios stay
//! flat (bounded by a constant) as `n` grows.
//!
//! The spanner row (Corollary 4.2) is included via `ule-spanner` on dense
//! workloads only (its claim is conditional on `m > n^{1+ε}`).

use ule_graph::analysis;
use ule_graph::gen::{workload_graph, Family};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{Knowledge, SimConfig};
use ule_xp::report::{format_row, render, row_header};
use ule_xp::{builtin, execute, RunMeta};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = builtin("table1", quick).expect("table1 is built in");
    let trials = spec.groups[0].trials;

    println!("# Table 1 — universal leader election algorithms, measured\n");
    println!(
        "sizes: {:?}, trials per cell: {trials}\n",
        spec.groups[0].sizes
    );

    let result = execute(&spec, RunMeta::capture(), false).expect("campaign runs");
    print!("{}", render(&result));

    // Corollary 4.2 (spanner) on the dense workloads only (the spanner
    // election layers on `ule-core` and is not a registry algorithm, so
    // campaigns cannot sweep it).
    println!("### spanner (4.2) — Cor 4.2 | claimed: time O(D), messages O(m) for m > n^(1+ε), success whp");
    println!("{}", row_header(false));
    let sc = ule_spanner::SpannerConfig::for_epsilon(0.5);
    for &size in &spec.groups[0].sizes {
        let g = workload_graph(spec.graph_seed, Family::DenseRandom, size).expect("family builds");
        let (n, m) = (g.len(), g.edge_count());
        let d = analysis::diameter_exact(&g).expect("connected").max(1) as usize;
        let outs = parallel_trials(trials, |t| {
            let sim = SimConfig::seeded(t).with_knowledge(Knowledge::n(n));
            ule_spanner::elect(&g, &sim, &sc)
        });
        let s = Summary::from_outcomes(&outs);
        let ratios = (s.mean_rounds / d as f64, s.mean_messages / m as f64);
        let label = format!("{}/{n}", Family::DenseRandom);
        println!("{}", format_row(&label, (n, m, d), &s, ratios, None));
    }
    println!();
    println!(
        "reading guide: `t/shape` and `msg/shape` are measured cost divided by\n\
         the claimed bound's shape (e.g. m·min(log n, D) for least-el(n)).\n\
         Flat columns across sizes ⇒ the Table 1 claim's shape holds."
    );
}
