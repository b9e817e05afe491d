//! The known-`(n, D)` Las Vegas election — Corollary 4.6.
//!
//! With `n` and `D` common knowledge, the Monte Carlo election of
//! Theorem 4.4 (constant expected candidates) becomes Las Vegas by
//! *restarting*: time is divided into epochs of `Θ(D)` rounds; a node that
//! heard **nothing** during an entire epoch re-enters the candidacy lottery
//! with fresh coins (the paper: "instructing nodes to restart the algorithm
//! if no messages were received during `Θ(D)` rounds").
//!
//! A subtle race makes naive per-epoch elections unsound: a straggling
//! wave from epoch `e` may still be in flight while a node that heard
//! nothing starts epoch `e+1`, and two epochs could then elect
//! independently. We close the race *structurally*: every wave key is
//! prefixed by its epoch (`rank' = epoch·n⁴ + rank`), and all epochs share
//! **one** wave engine. The globally minimal key across all epochs is
//! unique, so exactly one candidate ever completes clean — probability 1,
//! no timing assumptions. Earlier epochs dominate later ones, so the first
//! epoch with a candidate produces the leader.
//!
//! Expected cost: an epoch without candidates is *silent* (zero messages),
//! the lottery succeeds with constant probability per epoch, and the
//! winning epoch costs `O(m·log f) = O(m)` messages and `O(D)` rounds —
//! expected `O(D)` time and `O(m)` messages, success probability 1.

use crate::wave::{rank_space, Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// Configuration of the Las Vegas election.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LasVegasConfig {
    /// Expected number of candidates per epoch (the paper's `f(n) ∈ Θ(1)`).
    pub expected_candidates: f64,
    /// Epoch length as a multiple of `D` (the `Θ(D)` constant); the epoch
    /// must out-last one wave round trip, so values below 2 are rejected.
    pub epoch_factor: u64,
}

impl Default for LasVegasConfig {
    fn default() -> Self {
        LasVegasConfig {
            expected_candidates: 4.0,
            epoch_factor: 3,
        }
    }
}

/// Per-node protocol state for Corollary 4.6: success probability 1,
/// expected `O(D)` rounds and `O(m)` messages. The run must grant both `n`
/// and `D`.
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{Knowledge, RuntimeKind, SimConfig};
/// use ule_graph::gen;
///
/// let g = gen::cycle(12)?;
/// let cfg = SimConfig::seeded(2).with_knowledge(Knowledge::n_and_diameter(12, 6));
/// // `LasVegasConfig::default()`; a custom config goes through
/// // `ule_sim::Runner` and `LasVegasElect::new`.
/// let out = Algorithm::LasVegas.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct LasVegasElect {
    cfg: LasVegasConfig,
    core: WaveCore,
    out: PortOutbox<WaveMsg>,
    heard_any: bool,
    participated: bool,
    status: Status,
}

impl LasVegasElect {
    /// A node instance for the given degree.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.epoch_factor < 2` or the expected candidate count is
    /// not positive.
    pub fn new(cfg: LasVegasConfig, degree: usize) -> Self {
        assert!(cfg.epoch_factor >= 2, "epoch must be at least 2D rounds");
        assert!(
            cfg.expected_candidates > 0.0,
            "expected candidate count must be positive"
        );
        LasVegasElect {
            cfg,
            core: WaveCore::new(degree),
            out: PortOutbox::new(degree),
            heard_any: false,
            participated: false,
            status: Status::Undecided,
        }
    }

    fn epoch_len(&self, ctx: &Context<'_, WaveMsg>) -> u64 {
        self.cfg.epoch_factor * (ctx.diameter().expect("requires D") as u64).max(1) + 4
    }

    fn try_enter_lottery(&mut self, ctx: &mut Context<'_, WaveMsg>) {
        let n = ctx.require_n();
        let epoch = ctx.round() / self.epoch_len(ctx);
        let p = (self.cfg.expected_candidates / n as f64).min(1.0);
        if ctx.rng().gen::<f64>() < p {
            self.participated = true;
            // Epoch-prefixed rank: earlier epochs dominate. All fields stay
            // within O(log n) bits (epoch counts are tiny in expectation);
            // saturation at u64::MAX would only blur *astronomically* late
            // epochs, where the tie breaker still keeps keys unique.
            let space = rank_space(n);
            let draw = ctx.rng().gen_range(1..=space);
            let rank = epoch.saturating_mul(space).saturating_add(draw);
            let tie = match ctx.id() {
                Some(id) => id,
                None => ctx.rng().gen_range(1..=space),
            };
            self.core.start(Key { rank, tie }, &mut self.out);
        } else {
            // Re-check at the next epoch boundary, unless something is
            // heard meanwhile.
            let next = (epoch + 1) * self.epoch_len(ctx);
            ctx.wake_at(next);
        }
    }
}

impl Protocol for LasVegasElect {
    type Msg = WaveMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, WaveMsg>, inbox: &[(usize, WaveMsg)]) {
        if !inbox.is_empty() {
            self.heard_any = true;
        }
        self.core.on_inbox(inbox, &mut self.out);

        if ctx.first_activation() {
            self.try_enter_lottery(ctx);
        } else if !self.participated && !self.heard_any && ctx.round() % self.epoch_len(ctx) == 0 {
            // Epoch boundary after a completely silent epoch: restart.
            self.try_enter_lottery(ctx);
        }

        // Hearing any message means some epoch has a candidate, whose
        // minimal key will deterministically produce a leader — stop
        // scheduling restarts (the boundary wake is simply not renewed).
        match self.core.outcome() {
            Some(WaveOutcome::Won) => self.status = Status::Leader,
            Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
            None => {}
        }
        if self.status == Status::Undecided && self.heard_any && !self.participated {
            // A wave is flooding; we are not its origin, so we can decide.
            self.status = Status::NonLeader;
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
    use ule_graph::{analysis, gen, Graph};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{Knowledge, RunOutcome, Runner, SimConfig, Termination};

    fn elect(g: &Graph, sim: &SimConfig, cfg: &LasVegasConfig) -> RunOutcome {
        Runner::new(g, sim).run(|_, setup, _| LasVegasElect::new(*cfg, setup.degree))
    }

    fn cfg(g: &Graph, seed: u64) -> SimConfig {
        let d = analysis::diameter_exact(g).unwrap().max(1) as usize;
        SimConfig::seeded(seed).with_knowledge(Knowledge::n_and_diameter(g.len(), d))
    }

    #[test]
    fn elects_on_every_family() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(26, &mut rng).unwrap();
            let out = elect(&g, &cfg(&g, 7), &LasVegasConfig::default());
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.termination, Termination::Quiescent, "family {fam}");
        }
    }

    #[test]
    fn probability_one_over_many_seeds() {
        let g = gen::torus(4, 4).unwrap();
        let outs = parallel_trials(80, |t| elect(&g, &cfg(&g, t), &LasVegasConfig::default()));
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 80, "Las Vegas must never fail: {s}");
    }

    #[test]
    fn restarts_observed_with_tiny_candidate_rate() {
        // Force empty epochs: tiny f ⇒ every epoch silent until the rare
        // lottery win. The run still elects (probability 1), and the round
        // count reveals that restarts happened (≥ 2 epochs).
        let g = gen::cycle(10).unwrap();
        let lv = LasVegasConfig {
            expected_candidates: 0.02,
            epoch_factor: 3,
        };
        let mut restarted = 0;
        for seed in 0..12 {
            let out = elect(&g, &cfg(&g, seed), &lv);
            assert!(out.election_succeeded(), "seed {seed}");
            let epoch_len = 3 * 5 + 4;
            if out.rounds > epoch_len {
                restarted += 1;
            }
        }
        assert!(restarted > 0, "tiny f must cause at least one silent epoch");
    }

    #[test]
    fn silent_epochs_cost_nothing() {
        // With f small, measure that message totals stay O(m·log f) despite
        // many silent epochs: silence is free.
        let g = gen::cycle(16).unwrap();
        let lv = LasVegasConfig {
            expected_candidates: 0.05,
            epoch_factor: 3,
        };
        let outs = parallel_trials(12, |t| elect(&g, &cfg(&g, 100 + t), &lv));
        for out in &outs {
            assert!(out.election_succeeded());
            assert!(
                out.messages <= 20 * g.edge_count() as u64,
                "messages {} despite silent epochs",
                out.messages
            );
        }
    }

    #[test]
    fn expected_messages_linear_in_m() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gen::random_connected(120, 600, &mut rng).unwrap();
        let outs = parallel_trials(30, |t| elect(&g, &cfg(&g, t), &LasVegasConfig::default()));
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 30);
        let m = g.edge_count() as f64;
        assert!(
            s.mean_messages < 12.0 * m,
            "expected O(m): mean {} vs m {}",
            s.mean_messages,
            m
        );
    }

    #[test]
    fn expected_time_linear_in_d() {
        for n in [12usize, 24, 48] {
            let g = gen::cycle(n).unwrap();
            let d = (n / 2) as u64;
            let outs = parallel_trials(20, |t| elect(&g, &cfg(&g, t), &LasVegasConfig::default()));
            let s = Summary::from_outcomes(&outs);
            assert_eq!(s.successes, 20);
            // Expected O(D): allow a handful of epochs of slack.
            assert!(
                s.mean_rounds < (8 * d + 40) as f64,
                "n={n}: mean rounds {} vs D={d}",
                s.mean_rounds
            );
        }
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let c = SimConfig::seeded(5).with_knowledge(Knowledge::n_and_diameter(1, 1));
        let out = elect(&g, &c, &LasVegasConfig::default());
        assert!(out.election_succeeded());
    }

    #[test]
    fn anonymous_network_supported() {
        // Without IDs the tie is random: success probability 1 − O(2⁻⁶⁴),
        // observationally indistinguishable from 1.
        let g = gen::grid(5, 5).unwrap();
        let out = elect(&g, &cfg(&g, 9), &LasVegasConfig::default());
        assert!(out.election_succeeded());
    }

    #[test]
    fn no_congest_violations() {
        let g = gen::complete(20).unwrap();
        let out = elect(&g, &cfg(&g, 3), &LasVegasConfig::default());
        assert_eq!(out.congest_violations, 0);
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn rejects_tiny_epoch_factor() {
        LasVegasElect::new(
            LasVegasConfig {
                expected_candidates: 1.0,
                epoch_factor: 1,
            },
            3,
        );
    }
}
