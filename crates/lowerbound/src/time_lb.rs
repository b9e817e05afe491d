//! Time-lower-bound experiments on the clique-cycle — Theorem 3.13,
//! empirically.
//!
//! The theorem: any universal election succeeding with probability above
//! `15/16 (+ O(n⁻²))` needs `Ω(D)` rounds on the clique-cycle graph of
//! Figure 1. The argument is symmetry: within `o(D')` rounds, opposite
//! arcs have causally independent, identically distributed executions, so
//! with constant probability the number of leaders is 0 or 2.
//!
//! [`truncated_success`] measures the empirical success probability of an
//! algorithm stopped after exactly `T` rounds, sweeping `T` against the
//! construction's `D'`; the resulting curve collapses for `T = o(D)` and
//! saturates only at `T = Θ(D)`. [`rounds_vs_diameter`] measures the
//! untruncated election time as `D` grows with `n` fixed, exhibiting the
//! matching `O(D)` upper bound of the Least-El family.

use ule_core::Algorithm;
use ule_graph::clique_cycle::CliqueCycle;
use ule_sim::harness::parallel_trials;

/// One point of the success-vs-truncation curve.
#[derive(Debug, Clone)]
pub struct TruncationPoint {
    /// Truncation budget in rounds.
    pub t: u64,
    /// `T / D'` (how far along the lower-bound scale the budget sits).
    pub t_over_d: f64,
    /// Empirical success probability (exactly one leader, all decided).
    pub success: f64,
    /// Mean leaders elected (diagnoses the 0-vs-2 symmetry failure mode).
    pub mean_leaders: f64,
    /// Trials.
    pub trials: u64,
}

/// Success probability of `alg` truncated at each `t ∈ ts` on the
/// clique-cycle with parameters `(n, d)`.
pub fn truncated_success(
    n: usize,
    d: usize,
    alg: Algorithm,
    ts: &[u64],
    trials: u64,
) -> Vec<TruncationPoint> {
    let cc = CliqueCycle::build(n, d).expect("valid clique-cycle parameters");
    let g = &cc.graph;
    ts.iter()
        .map(|&t| {
            let outs = parallel_trials(trials, |trial| {
                let mut cfg = alg.config_for(g, trial);
                cfg.max_rounds = t;
                alg.run_on(ule_sim::RuntimeKind::Sim, g, &cfg)
            });
            let successes = outs.iter().filter(|o| o.election_succeeded()).count();
            let leaders: usize = outs.iter().map(|o| o.leader_count()).sum();
            TruncationPoint {
                t,
                t_over_d: t as f64 / cc.d_prime as f64,
                success: successes as f64 / trials as f64,
                mean_leaders: leaders as f64 / trials as f64,
                trials,
            }
        })
        .collect()
}

/// One point of the rounds-vs-diameter curve.
#[derive(Debug, Clone)]
pub struct DiameterPoint {
    /// Requested diameter parameter `D`.
    pub d: usize,
    /// The construction's `D'` (`4⌈D/4⌉`).
    pub d_prime: usize,
    /// Actual node count `γ·D'`.
    pub n_actual: usize,
    /// Mean rounds to (successful) election.
    pub mean_rounds: f64,
    /// Mean messages.
    pub mean_messages: f64,
    /// Success rate (sanity check — should be ≈ 1 for the Least-El
    /// family).
    pub success: f64,
}

/// Untruncated election cost on clique-cycles of growing `d` (fixed `n`).
pub fn rounds_vs_diameter(
    n: usize,
    ds: &[usize],
    alg: Algorithm,
    trials: u64,
) -> Vec<DiameterPoint> {
    ds.iter()
        .map(|&d| {
            let cc = CliqueCycle::build(n, d).expect("valid parameters");
            let g = &cc.graph;
            let outs = parallel_trials(trials, |t| alg.run(g, t));
            let ok: Vec<_> = outs.iter().filter(|o| o.election_succeeded()).collect();
            DiameterPoint {
                d,
                d_prime: cc.d_prime,
                n_actual: g.len(),
                mean_rounds: ok.iter().map(|o| o.rounds as f64).sum::<f64>()
                    / ok.len().max(1) as f64,
                mean_messages: ok.iter().map(|o| o.messages as f64).sum::<f64>()
                    / ok.len().max(1) as f64,
                success: ok.len() as f64 / outs.len() as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_collapses_below_theta_d() {
        // n = 48, D = 16 → D' = 16. Truncating at T = 2 must fail (the
        // wave cannot have spread); T = 8·D' must succeed for Least-El.
        let pts = truncated_success(48, 16, Algorithm::LeastElAll, &[2, 8 * 16], 30);
        assert!(
            pts[0].success < 0.2,
            "T=2 should almost always fail: {}",
            pts[0].success
        );
        assert!(
            pts[1].success > 0.9,
            "T=8D' should almost always succeed: {}",
            pts[1].success
        );
    }

    #[test]
    fn truncation_monotonicity_rough() {
        let pts = truncated_success(24, 8, Algorithm::LeastElAll, &[1, 4, 64], 20);
        assert!(pts[0].success <= pts[2].success + 1e-9);
        assert!(pts[0].t_over_d < 1.0);
    }

    #[test]
    fn coin_flip_beats_truncation_at_one_round() {
        // The §1 observation: at T = 1 the coin-flip algorithm already
        // succeeds with probability ≈ 1/e, while message-based algorithms
        // are at 0 — why the lower bound needs success > 15/16.
        let coin = truncated_success(24, 8, Algorithm::CoinFlip, &[1], 400);
        assert!(
            (coin[0].success - 0.368).abs() < 0.08,
            "coin flip at T=1: {}",
            coin[0].success
        );
        let le = truncated_success(24, 8, Algorithm::LeastElAll, &[1], 30);
        assert_eq!(le[0].success, 0.0);
    }

    #[test]
    fn rounds_scale_linearly_with_d() {
        let pts = rounds_vs_diameter(32, &[4, 8, 16], Algorithm::LeastElAll, 8);
        assert!(pts.iter().all(|p| p.success > 0.9));
        // Θ(D): the 16-diameter instance takes measurably longer than the
        // 4-diameter one, and stays within a constant factor of D'.
        assert!(pts[2].mean_rounds > pts[0].mean_rounds);
        for p in &pts {
            assert!(
                p.mean_rounds <= 6.0 * p.d_prime as f64 + 10.0,
                "D'={}: rounds {}",
                p.d_prime,
                p.mean_rounds
            );
        }
    }
}
