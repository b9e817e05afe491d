//! Ablations: the paper's tunable parameters and the design choices
//! behind the registry's defaults, measured.
//!
//! ```text
//! cargo run --release --example ablations
//! ```
//!
//! * **Theorem 4.4's success trade-off**: `P(success) ≈ 1 − e^{−f}` as a
//!   function of the expected candidate count `f(n)`, and the
//!   ε-calibrated `f = 4·ln(1/ε)` of Theorem 4.4(B).
//! * **A. Spanner parameter `k`** (Corollary 4.2): construction sweeps
//!   cost `2k` announcements per edge while the spanner (and the election
//!   bill on it) shrinks as `n^{1+1/k}` — the sweet spot is data, not
//!   folklore.
//! * **B. Las Vegas lottery** (Corollary 4.6): expected candidates `f` and
//!   epoch length trade expected time (restarts) against expected
//!   messages (parallel waves).
//! * **C. Tie-break source** (Least-El): node identifiers (probability-1
//!   uniqueness) vs. fresh randomness (anonymous-safe, unique w.h.p.) —
//!   measurably identical cost, which is *why* the paper's algorithms can
//!   run on anonymous networks.
//! * **D. Kingdom radius schedule** (Theorem 4.10): known-`D` fixed radius
//!   vs. the knowledge-free doubling schedule — the price of not knowing
//!   `D`, per graph shape.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use ule_core::las_vegas::{LasVegasConfig, LasVegasElect};
use ule_core::least_el::{LeastEl, LeastElConfig};
use ule_core::spanner::{probe_edges, SpannerConfig, SpannerElect, SpannerProbe};
use ule_core::Algorithm;
use ule_graph::{analysis, gen, Graph, IdSpace};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{Knowledge, RunOutcome, Runner, SimConfig};

/// One Least-El run under a custom candidate policy (not a registry row).
fn least_el(g: &Graph, sim: &SimConfig, lcfg: &LeastElConfig) -> RunOutcome {
    Runner::new(g, sim).run(|_, setup, _| LeastEl::new(lcfg.clone(), setup.degree))
}

fn main() {
    success_probability();
    parameters();
}

fn success_probability() {
    let trials = 600;
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
            least_el(&g, &cfg, &lcfg)
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
            least_el(&g, &cfg, &lcfg)
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
}

fn parameters() {
    let trials = 10;
    let mut rng = StdRng::seed_from_u64(4242);

    println!("\n# A. Spanner parameter k (dense graph, m ≈ n^1.5)\n");
    let g = gen::random_dense(400, 0.5, &mut rng).unwrap();
    println!("graph: n = {}, m = {}", g.len(), g.edge_count());
    println!(
        "{:>4} {:>9} {:>14} {:>12} {:>10} {:>9}",
        "k", "stretch", "spanner edges", "messages", "rounds", "success"
    );
    for k in [2u32, 3, 4, 6] {
        let sc = SpannerConfig { k };
        let probe = SpannerProbe::default();
        let sim = SimConfig::seeded(1).with_knowledge(Knowledge::n(g.len()));
        Runner::new(&g, &sim)
            .run(|v, s, _| SpannerElect::new(sc, v, s.degree).with_probe(Arc::clone(&probe)));
        let outs = parallel_trials(trials, |t| {
            let sim = SimConfig::seeded(t).with_knowledge(Knowledge::n(g.len()));
            Runner::new(&g, &sim).run(|v, s, _| SpannerElect::new(sc, v, s.degree))
        });
        let s = Summary::from_outcomes(&outs);
        println!(
            "{:>4} {:>9} {:>14} {:>12.1} {:>10.1} {:>8.0}%",
            k,
            sc.stretch(),
            probe_edges(&g, &probe).len(),
            s.mean_messages,
            s.mean_rounds,
            100.0 * s.success_rate()
        );
    }

    println!("\n# B. Las Vegas lottery (torus, n = 100)\n");
    let g = gen::torus(10, 10).unwrap();
    let d = analysis::diameter_exact(&g).unwrap() as usize;
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>9}",
        "f", "epoch·D", "messages", "rounds", "success"
    );
    for f in [0.5, 1.0, 4.0, 16.0] {
        for epoch_factor in [2u64, 3, 5] {
            let lv = LasVegasConfig {
                expected_candidates: f,
                epoch_factor,
            };
            let outs = parallel_trials(4 * trials, |t| {
                let cfg =
                    SimConfig::seeded(t).with_knowledge(Knowledge::n_and_diameter(g.len(), d));
                Runner::new(&g, &cfg).run(|_, s, _| LasVegasElect::new(lv, s.degree))
            });
            let s = Summary::from_outcomes(&outs);
            println!(
                "{:>6.1} {:>8} {:>12.1} {:>10.1} {:>8.0}%",
                f,
                epoch_factor,
                s.mean_messages,
                s.mean_rounds,
                100.0 * s.success_rate()
            );
        }
    }
    println!("(small f ⇒ silent-epoch restarts inflate rounds but not messages;");
    println!(" large f ⇒ more concurrent waves inflate messages but not rounds)");

    println!("\n# C. Tie-break source (Least-El f(n)=n, random graph)\n");
    let g = gen::random_connected(150, 600, &mut rng).unwrap();
    println!(
        "{:<22} {:>12} {:>10} {:>9}",
        "tie-break", "messages", "rounds", "success"
    );
    for (label, id_tie) in [("random (anonymous)", false), ("node identifiers", true)] {
        let outs = parallel_trials(trials, |t| {
            let mut irng = StdRng::seed_from_u64(t ^ 0xBEEF);
            let ids = IdSpace::standard(g.len()).sample(g.len(), &mut irng);
            let cfg = SimConfig::seeded(t)
                .with_ids(ids)
                .with_knowledge(Knowledge::n(g.len()));
            let mut lcfg = LeastElConfig::all_candidates();
            lcfg.id_tie_break = id_tie;
            least_el(&g, &cfg, &lcfg)
        });
        let s = Summary::from_outcomes(&outs);
        println!(
            "{:<22} {:>12.1} {:>10.1} {:>8.0}%",
            label,
            s.mean_messages,
            s.mean_rounds,
            100.0 * s.success_rate()
        );
    }

    println!("\n# D. Kingdom radius schedule (known-D vs doubling)\n");
    println!(
        "{:<12} {:>5} {:>5} {:>13} {:>13} {:>12} {:>12}",
        "graph", "n", "D", "rounds(D)", "rounds(2^p)", "msgs(D)", "msgs(2^p)"
    );
    for fam in [
        gen::Family::Cycle,
        gen::Family::Star,
        gen::Family::Torus,
        gen::Family::DenseRandom,
    ] {
        let g = fam.build(96, &mut rng).unwrap();
        let d = analysis::diameter_exact(&g).unwrap() as usize;
        let known = parallel_trials(trials, |t| Algorithm::KingdomKnownD.run(&g, t));
        let doubling = parallel_trials(trials, |t| Algorithm::KingdomDoubling.run(&g, t));
        let (sk, sd) = (
            Summary::from_outcomes(&known),
            Summary::from_outcomes(&doubling),
        );
        assert_eq!(sk.successes, trials);
        assert_eq!(sd.successes, trials);
        println!(
            "{:<12} {:>5} {:>5} {:>13.1} {:>13.1} {:>12.1} {:>12.1}",
            fam.name(),
            g.len(),
            d,
            sk.mean_rounds,
            sd.mean_rounds,
            sk.mean_messages,
            sd.mean_messages
        );
    }
    println!("(doubling wins on small-D graphs — early phases are short — and");
    println!(" loses when D is large relative to the doubling ladder's overshoot)");
}
