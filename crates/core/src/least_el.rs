//! The Least-El list election — Theorem 4.4 and its instantiations.
//!
//! Section 4.2 of the paper: every node becomes a *candidate* with
//! probability `f(n)/n`; candidates draw a random rank from `[1, n⁴]` and
//! flood it; the smallest rank wins; echo messages detect termination.
//! The expected Least-El list length (Lemma 4.3) bounds the per-node work
//! by `O(min(log f(n), D))` adoptions, giving
//! `O(m · min(log f(n), D))` expected messages and `O(D)` rounds, with
//! success probability `1 − e^{−Θ(f(n))}` (at least one candidate must
//! exist).
//!
//! Instantiations:
//! * [`LeastElConfig::all_candidates`] — `f(n) = n`, the algorithm of \[11\]:
//!   probability 1 given unique keys, `O(m·min(log n, D))` messages;
//! * [`LeastElConfig::whp`] — `f(n) = Θ(log n)`, Theorem 4.4(A):
//!   `O(m·min(log log n, D))` messages, success w.h.p.;
//! * [`LeastElConfig::constant_error`] — `f(n) = 4·ln(1/ε)`,
//!   Theorem 4.4(B): `O(m)` messages, success `≥ 1 − ε`;
//! * [`LeastElConfig::expected_candidates`] — any `f`.
//!
//! Knowledge requirements: `n` (for the candidacy probability and the rank
//! space). Identifiers are optional — anonymous networks use random tie
//! breakers, unique w.h.p., exactly as the paper notes ("the randomized
//! algorithms in this paper also apply for anonymous networks").

use crate::wave::{Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// How many candidates to expect (the paper's `f(n)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateCount {
    /// Every node is a candidate (`f(n) = n`).
    All,
    /// `f(n) = scale · ln n` — Theorem 4.4(A) with `scale` controlling the
    /// "high probability" constant.
    LogN {
        /// Multiplier on `ln n`.
        scale: f64,
    },
    /// A constant expected number of candidates — Theorem 4.4(B).
    Constant(f64),
}

impl CandidateCount {
    /// The candidacy probability `min(1, f(n)/n)`.
    pub fn probability(&self, n: usize) -> f64 {
        let f = match *self {
            CandidateCount::All => return 1.0,
            CandidateCount::LogN { scale } => scale * (n.max(2) as f64).ln(),
            CandidateCount::Constant(f) => f,
        };
        (f / n as f64).min(1.0)
    }
}

/// Configuration of one Least-El run.
#[derive(Debug, Clone, PartialEq)]
pub struct LeastElConfig {
    /// Candidate policy (`f(n)`).
    pub candidates: CandidateCount,
    /// Use node identifiers as tie breakers (probability-1 uniqueness,
    /// requires IDs) instead of random ties (unique w.h.p., works
    /// anonymously).
    pub id_tie_break: bool,
}

impl LeastElConfig {
    /// The \[11\] algorithm: every node a candidate. `O(m·min(log n, D))`
    /// messages, `O(D)` time, success w.h.p. (probability 1 with ID ties).
    pub fn all_candidates() -> Self {
        LeastElConfig {
            candidates: CandidateCount::All,
            id_tie_break: false,
        }
    }

    /// Theorem 4.4(A): `f(n) = Θ(log n)` candidates;
    /// `O(m·min(log log n, D))` messages; success w.h.p.
    pub fn whp() -> Self {
        LeastElConfig {
            candidates: CandidateCount::LogN { scale: 2.0 },
            id_tie_break: false,
        }
    }

    /// Theorem 4.4(B): for target error `ε`, `f(n) = 4·ln(1/ε)`;
    /// `O(m)` messages; success probability at least `1 − ε`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon < 1`.
    pub fn constant_error(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        LeastElConfig {
            candidates: CandidateCount::Constant(4.0 * (1.0 / epsilon).ln()),
            id_tie_break: false,
        }
    }

    /// Theorem 4.4 with an arbitrary expected candidate count `f`.
    pub fn expected_candidates(f: f64) -> Self {
        LeastElConfig {
            candidates: CandidateCount::Constant(f),
            id_tie_break: false,
        }
    }

    /// Builder-style: break rank ties by node identifier.
    pub fn with_id_tie_break(mut self) -> Self {
        self.id_tie_break = true;
        self
    }
}

/// The per-node protocol state. Runs under a [`ule_sim::SimConfig`] that
/// grants knowledge of `n` (see [`LeastElConfig`] for what each variant
/// assumes).
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{Knowledge, RuntimeKind, SimConfig};
/// use ule_graph::gen;
///
/// let g = gen::torus(5, 5)?;
/// let cfg = SimConfig::seeded(7).with_knowledge(Knowledge::n(g.len()));
/// // `LeastElConfig::all_candidates()`; a custom config goes through
/// // `ule_sim::Runner` and `LeastEl::new`.
/// let out = Algorithm::LeastElAll.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct LeastEl {
    cfg: LeastElConfig,
    core: WaveCore,
    out: PortOutbox<WaveMsg>,
    candidate: bool,
    status: Status,
}

impl LeastEl {
    /// A node instance for a node of the given degree.
    pub fn new(cfg: LeastElConfig, degree: usize) -> Self {
        LeastEl {
            cfg,
            core: WaveCore::new(degree),
            out: PortOutbox::new(degree),
            candidate: false,
            status: Status::Undecided,
        }
    }

    fn draw_key(cfg: &LeastElConfig, ctx: &mut Context<'_, WaveMsg>) -> Key {
        let n = ctx.require_n();
        let space = crate::wave::rank_space(n);
        let rank = ctx.rng().gen_range(1..=space);
        let tie = if cfg.id_tie_break {
            ctx.require_id()
        } else {
            ctx.rng().gen_range(1..=space)
        };
        Key { rank, tie }
    }
}

impl Protocol for LeastEl {
    type Msg = WaveMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, WaveMsg>, inbox: &[(usize, WaveMsg)]) {
        // Process arrivals first: a message-triggered wakeup may already
        // carry a smaller key, which suppresses our own wave.
        self.core.on_inbox(inbox, &mut self.out);

        if ctx.first_activation() {
            let n = ctx.require_n();
            let p = self.cfg.candidates.probability(n);
            self.candidate = p >= 1.0 || ctx.rng().gen::<f64>() < p;
            if self.candidate {
                let key = Self::draw_key(&self.cfg, ctx);
                self.core.start(key, &mut self.out);
            } else {
                // Non-candidates can never become leader; in the implicit
                // variant they may decide immediately.
                self.status = Status::NonLeader;
            }
        }

        if self.candidate {
            match self.core.outcome() {
                Some(WaveOutcome::Won) => self.status = Status::Leader,
                Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
                None => {}
            }
        }

        self.out.flush(ctx);
    }

    fn status(&self) -> Status {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ule_graph::{gen, Graph, IdAssignment, IdSpace};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{Knowledge, Model, RunOutcome, Runner, SimConfig, Termination, Wakeup};

    fn elect(g: &Graph, sim: &SimConfig, cfg: &LeastElConfig) -> RunOutcome {
        Runner::new(g, sim).run(|_, setup, _| LeastEl::new(cfg.clone(), setup.degree))
    }

    fn cfg_for(g: &Graph, seed: u64) -> SimConfig {
        SimConfig::seeded(seed).with_knowledge(Knowledge::n(g.len()))
    }

    #[test]
    fn elects_on_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(30, &mut rng).unwrap();
            let out = elect(&g, &cfg_for(&g, 11), &LeastElConfig::all_candidates());
            assert!(
                out.election_succeeded(),
                "family {fam}: statuses {:?}",
                out.leader_count()
            );
            assert_eq!(out.termination, Termination::Quiescent);
            assert_eq!(out.congest_violations, 0, "family {fam}");
        }
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let out = elect(&g, &cfg_for(&g, 0), &LeastElConfig::all_candidates());
        assert!(out.election_succeeded());
        assert_eq!(out.messages, 0);
        assert_eq!(out.leader(), Some(0));
    }

    #[test]
    fn two_node_graph() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let out = elect(&g, &cfg_for(&g, 3), &LeastElConfig::all_candidates());
        assert!(out.election_succeeded());
    }

    #[test]
    fn time_is_linear_in_diameter() {
        // O(D) rounds: sweep cycles of growing diameter, require
        // rounds <= c·D for a modest c.
        for n in [16usize, 32, 64, 128] {
            let g = gen::cycle(n).unwrap();
            let d = (n / 2) as u64;
            let out = elect(&g, &cfg_for(&g, 5), &LeastElConfig::all_candidates());
            assert!(out.election_succeeded());
            assert!(
                out.rounds <= 4 * d + 8,
                "n={n}: rounds {} vs D={d}",
                out.rounds
            );
        }
    }

    #[test]
    fn message_bound_all_candidates() {
        // O(m·min(log n, D)) with a generous constant, over several seeds.
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_connected(100, 300, &mut rng).unwrap();
        let m = g.edge_count() as f64;
        let bound = 8.0 * m * (100f64).ln();
        let outs = parallel_trials(10, |t| {
            elect(&g, &cfg_for(&g, t), &LeastElConfig::all_candidates())
        });
        for out in &outs {
            assert!(out.election_succeeded());
            assert!(
                (out.messages as f64) < bound,
                "messages {} vs bound {bound}",
                out.messages
            );
        }
    }

    #[test]
    fn constant_candidates_use_fewer_messages() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_connected(200, 1000, &mut rng).unwrap();
        let all: u64 = (0..8)
            .map(|t| elect(&g, &cfg_for(&g, t), &LeastElConfig::all_candidates()).messages)
            .sum();
        let few: u64 = (0..8)
            .map(|t| elect(&g, &cfg_for(&g, t), &LeastElConfig::constant_error(0.05)).messages)
            .sum();
        assert!(
            few < all,
            "constant-candidate variant should send fewer messages ({few} vs {all})"
        );
    }

    #[test]
    fn theorem_44b_success_rate_and_linear_messages() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_connected(80, 240, &mut rng).unwrap();
        let eps = 0.1;
        let lcfg = LeastElConfig::constant_error(eps);
        let outs = parallel_trials(200, |t| elect(&g, &cfg_for(&g, 1000 + t), &lcfg));
        let s = Summary::from_outcomes(&outs);
        assert!(
            s.success_rate() >= 1.0 - eps,
            "success rate {} below 1-ε",
            s.success_rate()
        );
        // O(m) messages: the constant is ≈ 4·(ln f + 1) ≈ 13 for ε = 0.1
        // (forward + echo per adoption); assert a safely larger cap that a
        // log n–factor algorithm would blow through at larger n.
        let m = g.edge_count() as f64;
        assert!(
            s.mean_messages < 16.0 * m,
            "mean messages {} not O(m)",
            s.mean_messages
        );
    }

    #[test]
    fn whp_variant_succeeds_every_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_connected(120, 360, &mut rng).unwrap();
        let outs = parallel_trials(50, |t| {
            elect(&g, &cfg_for(&g, 50 + t), &LeastElConfig::whp())
        });
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 50, "whp variant failed: {s}");
    }

    #[test]
    fn zero_candidates_fail_cleanly() {
        // Force zero candidates via an (adversarially tiny) f; the run
        // must terminate with everyone NonLeader and no leader — the
        // Monte Carlo failure mode the paper's success probability counts.
        let g = gen::cycle(12).unwrap();
        let lcfg = LeastElConfig::expected_candidates(1e-12);
        let out = elect(&g, &cfg_for(&g, 8), &lcfg);
        assert_eq!(out.leader_count(), 0);
        assert!(!out.election_succeeded());
        assert_eq!(out.messages, 0);
        assert_eq!(out.termination, Termination::Quiescent);
    }

    #[test]
    fn id_tie_break_requires_and_uses_ids() {
        let g = gen::cycle(10).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let ids = IdSpace::standard(10).sample(10, &mut rng);
        let cfg = SimConfig::seeded(4)
            .with_knowledge(Knowledge::n(10))
            .with_ids(ids);
        let out = elect(
            &g,
            &cfg,
            &LeastElConfig::all_candidates().with_id_tie_break(),
        );
        assert!(out.election_succeeded());
    }

    #[test]
    fn congest_compliant_under_default_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_connected(64, 160, &mut rng).unwrap();
        let cfg = cfg_for(&g, 1).with_model(Model::Congest { factor: 16 });
        let out = elect(&g, &cfg, &LeastElConfig::all_candidates());
        assert_eq!(out.congest_violations, 0);
        assert!(out.election_succeeded());
    }

    #[test]
    fn adversarial_wakeup_still_elects() {
        let g = gen::grid(6, 6).unwrap();
        let cfg = cfg_for(&g, 2).with_wakeup(Wakeup::Adversarial(vec![0]));
        let out = elect(&g, &cfg, &LeastElConfig::all_candidates());
        assert!(out.election_succeeded());
    }

    #[test]
    fn adversarial_wakeup_multiple_initiators() {
        let g = gen::cycle(20).unwrap();
        let cfg = cfg_for(&g, 9).with_wakeup(Wakeup::Adversarial(vec![0, 10, 15]));
        let out = elect(&g, &cfg, &LeastElConfig::all_candidates());
        assert!(out.election_succeeded());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = gen::torus(4, 4).unwrap();
        let a = elect(&g, &cfg_for(&g, 77), &LeastElConfig::whp());
        let b = elect(&g, &cfg_for(&g, 77), &LeastElConfig::whp());
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.statuses, b.statuses);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn candidate_probability_math() {
        assert_eq!(CandidateCount::All.probability(10), 1.0);
        let p = CandidateCount::Constant(5.0).probability(10);
        assert!((p - 0.5).abs() < 1e-12);
        assert_eq!(CandidateCount::Constant(100.0).probability(10), 1.0);
        let p = CandidateCount::LogN { scale: 1.0 }.probability(100);
        assert!((p - (100f64).ln() / 100.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_panics() {
        LeastElConfig::constant_error(1.5);
    }

    #[test]
    fn success_probability_tracks_f() {
        // P(success) ≈ P(≥1 candidate) = 1 − e^{−f}: verify the ordering
        // across f ∈ {0.5, 2, 8} empirically.
        let g = gen::cycle(40).unwrap();
        let rates: Vec<f64> = [0.5, 2.0, 8.0]
            .iter()
            .map(|&f| {
                let lcfg = LeastElConfig::expected_candidates(f);
                let outs = parallel_trials(120, |t| elect(&g, &cfg_for(&g, 31 * 1000 + t), &lcfg));
                Summary::from_outcomes(&outs).success_rate()
            })
            .collect();
        assert!(rates[0] < rates[1], "rates {rates:?}");
        assert!(rates[1] < rates[2], "rates {rates:?}");
        assert!(rates[2] > 0.95, "f=8 should almost always succeed");
    }

    #[test]
    fn works_with_sequential_adversarial_ids() {
        // Adversarial ID assignment must not matter: ranks are random.
        let g = gen::path(30).unwrap();
        let cfg = SimConfig::seeded(12)
            .with_knowledge(Knowledge::n(30))
            .with_ids(IdAssignment::sequential(30));
        let out = elect(
            &g,
            &cfg,
            &LeastElConfig::all_candidates().with_id_tie_break(),
        );
        assert!(out.election_succeeded());
    }
}
