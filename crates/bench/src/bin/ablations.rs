//! Ablations over the design choices DESIGN.md calls out.
//!
//! ```text
//! cargo run --release -p ule-bench --bin ablations [-- --quick]
//! ```
//!
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

use ule_core::las_vegas::{LasVegasConfig, LasVegasElect};
use ule_core::least_el::{LeastEl, LeastElConfig};
use ule_core::Algorithm;
use ule_graph::{analysis, gen, IdSpace};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{Knowledge, Runner, SimConfig};
use ule_spanner::{elect_probed, SpannerConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let trials: u64 = if quick { 4 } else { 10 };
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);

    println!("# A. Spanner parameter k (dense graph, m ≈ n^1.5)\n");
    let g = gen::random_dense(if quick { 200 } else { 400 }, 0.5, &mut rng).unwrap();
    println!("graph: n = {}, m = {}", g.len(), g.edge_count());
    println!(
        "{:>4} {:>9} {:>14} {:>12} {:>10} {:>9}",
        "k", "stretch", "spanner edges", "messages", "rounds", "success"
    );
    for k in [2u32, 3, 4, 6] {
        let sc = SpannerConfig { k };
        let sim = SimConfig::seeded(1).with_knowledge(Knowledge::n(g.len()));
        let (_, edges) = elect_probed(&g, &sim, &sc);
        let outs = parallel_trials(trials, |t| {
            let sim = SimConfig::seeded(t).with_knowledge(Knowledge::n(g.len()));
            ule_spanner::elect(&g, &sim, &sc)
        });
        let s = Summary::from_outcomes(&outs);
        println!(
            "{:>4} {:>9} {:>14} {:>12.1} {:>10.1} {:>8.0}%",
            k,
            sc.stretch(),
            edges.len(),
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
            let mut irng = rand::rngs::StdRng::seed_from_u64(t ^ 0xBEEF);
            let ids = IdSpace::standard(g.len()).sample(g.len(), &mut irng);
            let cfg = SimConfig::seeded(t)
                .with_ids(ids)
                .with_knowledge(Knowledge::n(g.len()));
            let mut lcfg = LeastElConfig::all_candidates();
            lcfg.id_tie_break = id_tie;
            Runner::new(&g, &cfg).run(|_, s, _| LeastEl::new(lcfg.clone(), s.degree))
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
