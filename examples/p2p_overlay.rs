//! Peer-to-peer overlay scenario: dense graphs and the Corollary 4.2
//! spanner election.
//!
//! ```text
//! cargo run --release --example p2p_overlay
//! ```
//!
//! Overlay networks (the paper cites Akamai's) are *dense*: every peer
//! maintains many links, so `m ≫ n` and message-optimal election matters.
//! On graphs with `m > n^{1+ε}`, Corollary 4.2 matches both lower bounds
//! simultaneously: sparsify through a Baswana–Sen spanner, then elect on
//! the spanner. This example compares, on a dense random overlay and on
//! an expander:
//!
//! * Least-El over the full graph (messages ∝ m·log n),
//! * the clustering algorithm of Theorem 4.7 (m + n·log n),
//! * the spanner election of Corollary 4.2 (O(m), and the spanner size is
//!   printed so you can see where the savings come from).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use ule_core::spanner::{probe_edges, SpannerConfig, SpannerElect, SpannerProbe};
use ule_core::Algorithm;
use ule_graph::{gen, Graph};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{Knowledge, Runner, SimConfig};

fn report(name: &str, g: &Graph, s: &Summary) {
    println!(
        "{:<18} {:>9.1} {:>12.1} {:>10.2} {:>9.0}%",
        name,
        s.mean_rounds,
        s.mean_messages,
        s.mean_messages / g.edge_count() as f64,
        100.0 * s.success_rate()
    );
}

fn run_overlay(label: &str, g: &Graph) {
    println!(
        "== {label}: n = {}, m = {} (m/n = {:.1})",
        g.len(),
        g.edge_count(),
        g.edge_count() as f64 / g.len() as f64
    );
    println!(
        "{:<18} {:>9} {:>12} {:>10} {:>9}",
        "algorithm", "rounds", "messages", "msgs/m", "success"
    );
    let trials = 4u64;
    for alg in [
        Algorithm::LeastElAll,
        Algorithm::Clustering,
        Algorithm::Spanner,
    ] {
        let outs = parallel_trials(trials, |t| alg.run(g, t));
        report(alg.spec().name, g, &Summary::from_outcomes(&outs));
    }
    // The spanner `Algorithm::Spanner` builds, observed through a probe.
    let (sc, probe) = (SpannerConfig::for_epsilon(0.5), SpannerProbe::default());
    let sim = SimConfig::seeded(0).with_knowledge(Knowledge::n(g.len()));
    Runner::new(g, &sim)
        .run(|v, s, _| SpannerElect::new(sc, v, s.degree).with_probe(Arc::clone(&probe)));
    println!(
        "   spanner kept {} of {} edges (stretch ≤ {})",
        probe_edges(g, &probe).len(),
        g.edge_count(),
        sc.stretch()
    );
    println!();
}

fn main() {
    // Large enough that the asymptotics show: least-el's log n factor
    // (≈ 2·ln n per edge) must exceed the spanner's ≈ 2k per edge.
    let mut rng = StdRng::seed_from_u64(7);
    let dense = gen::random_dense(2000, 0.5, &mut rng).expect("valid parameters");
    run_overlay("dense random overlay (m ≈ n^1.5)", &dense);

    let expander = gen::random_regular(2000, 8, &mut rng).expect("valid parameters");
    run_overlay("8-regular expander overlay", &expander);

    println!(
        "reading: on the dense overlay the spanner election beats full-graph\n\
         Least-El and its per-edge cost is a constant (vs. Least-El's ln n,\n\
         which keeps growing) — Corollary 4.2 made concrete. On the sparse\n\
         expander the spanner keeps nearly every edge and helps nobody:\n\
         exactly the m > n^(1+ε) precondition of the corollary. The\n\
         clustering algorithm (Theorem 4.7) is the practical winner at\n\
         these sizes; its extra D·log n latency is the price."
    );
}
