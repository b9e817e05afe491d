//! Baseline protocols the paper's discussion builds on.
//!
//! * [`FloodMax`] — the classical `O(D)`-time flooding election (nodes
//!   know `D`, flood the maximum identifier for `D` rounds); message cost
//!   `O(m·D)` is what the Least-El family improves on.
//! * [`Tole`] — a **t**ime-**o**ptimal **l**eader **e**lection in the
//!   spirit of Peleg \[20\]: deterministic, `O(D)` rounds, **no knowledge of
//!   `n`, `m`, or `D`**, termination detected by echoes instead of a round
//!   deadline. Realized as the wave/echo engine run under the *maximize*
//!   objective on identifier keys: every node starts a wave, the maximum
//!   identifier's wave is the unique clean completion. This is the concrete
//!   implementation behind the paper's "an `O(D)` time algorithm is
//!   already known \[20\]"; its worst-case message cost is
//!   `O(m·min(n, D))` (each node forwards once per strict improvement of
//!   its known maximum).
//! * [`CoinFlip`] — the Section 1 example: every node self-elects with
//!   probability `1/n`, zero messages, one round, success probability
//!   `≈ 1/e ≈ 0.368`. It exists to make the paper's point that constant
//!   (but small) success probability is *cheap*, so the lower bounds must
//!   assume a sufficiently large constant.

use crate::wave::{Key, Objective, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use ule_graph::Id;
use ule_sim::message::{id_bits, Message, TAG_BITS};
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// FloodMax message: the largest identifier seen so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxMsg(pub Id);

impl Message for MaxMsg {
    fn size_bits(&self) -> u64 {
        TAG_BITS + id_bits(self.0)
    }
}

/// The FloodMax protocol. Requires unique identifiers and knowledge of `D`
/// (or any upper bound on it).
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{Knowledge, RuntimeKind, SimConfig};
/// use ule_graph::{gen, IdAssignment};
///
/// let g = gen::cycle(10)?;
/// let cfg = SimConfig::seeded(0)
///     .with_ids(IdAssignment::sequential(10))
///     .with_knowledge(Knowledge::n_and_diameter(10, 5));
/// let out = Algorithm::FloodMax.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct FloodMax {
    best: Id,
    status: Status,
}

impl FloodMax {
    /// A fresh instance.
    pub fn new() -> Self {
        FloodMax {
            best: 0,
            status: Status::Undecided,
        }
    }
}

impl Default for FloodMax {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for FloodMax {
    type Msg = MaxMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, MaxMsg>, inbox: &[(usize, MaxMsg)]) {
        let deadline = ctx.require_diameter() as u64;
        if ctx.first_activation() {
            self.best = ctx.require_id();
            ctx.broadcast(MaxMsg(self.best));
        }
        let mut improved = false;
        for (_, MaxMsg(x)) in inbox {
            if *x > self.best {
                self.best = *x;
                improved = true;
            }
        }
        if improved && ctx.round() < deadline {
            ctx.broadcast(MaxMsg(self.best));
        }
        if ctx.round() >= deadline {
            self.status = if self.best == ctx.require_id() {
                Status::Leader
            } else {
                Status::NonLeader
            };
        } else {
            // Sleep until the decision round: arriving messages still wake
            // this node, so forwarding is unaffected, but idle nodes cost
            // the engine nothing (the scheduler fast-forwards them).
            ctx.wake_at(deadline);
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// Time-optimal election à la Peleg \[20\]: deterministic, `O(D)` rounds,
/// no knowledge, echo-terminated.
///
/// Every node starts a wave keyed by its identifier under the *maximize*
/// objective; exactly the maximum identifier's wave completes clean (see
/// [`crate::wave`]), electing it without any round deadline.
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{RuntimeKind, SimConfig};
/// use ule_graph::{gen, IdAssignment};
///
/// let g = gen::path(12)?;
/// let cfg = SimConfig::seeded(0).with_ids(IdAssignment::sequential(12));
/// let out = Algorithm::Tole.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// assert_eq!(out.leader(), Some(11)); // maximum identifier
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct Tole {
    core: WaveCore,
    out: PortOutbox<WaveMsg>,
    status: Status,
}

impl Tole {
    /// A node instance for the given degree.
    pub fn new(degree: usize) -> Self {
        Tole {
            core: WaveCore::new(degree).with_objective(Objective::Maximize),
            out: PortOutbox::new(degree),
            status: Status::Undecided,
        }
    }
}

impl Protocol for Tole {
    type Msg = WaveMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, WaveMsg>, inbox: &[(usize, WaveMsg)]) {
        self.core.on_inbox(inbox, &mut self.out);
        if ctx.first_activation() {
            let id = ctx.require_id();
            let key = Key { rank: id, tie: id };
            self.core.start(key, &mut self.out);
        }
        match self.core.outcome() {
            Some(WaveOutcome::Won) => self.status = Status::Leader,
            Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
            None => {}
        }
        self.out.flush(ctx);
    }

    fn status(&self) -> Status {
        self.status
    }
}

/// The 1/n coin-flip "algorithm": self-elect with probability `1/n`,
/// decide in one round, send nothing. Succeeds with probability
/// `n·(1/n)·(1−1/n)^{n−1} → 1/e`.
#[derive(Debug)]
pub struct CoinFlip {
    status: Status,
}

impl CoinFlip {
    /// A fresh instance.
    pub fn new() -> Self {
        CoinFlip {
            status: Status::Undecided,
        }
    }
}

impl Default for CoinFlip {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for CoinFlip {
    type Msg = ule_sim::message::Signal;

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, _inbox: &[(usize, Self::Msg)]) {
        if ctx.first_activation() {
            let n = ctx.require_n();
            self.status = if ctx.rng().gen::<f64>() < 1.0 / n as f64 {
                Status::Leader
            } else {
                Status::NonLeader
            };
        }
    }

    fn status(&self) -> Status {
        self.status
    }
}

#[cfg(test)]
mod tests {
    use crate::Algorithm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ule_graph::{analysis, gen, Graph, IdSpace};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{Knowledge, RunOutcome, SimConfig};

    fn flood_max(g: &Graph, cfg: &SimConfig) -> RunOutcome {
        Algorithm::FloodMax.run_on(ule_sim::RuntimeKind::Sim, g, cfg)
    }

    fn tole(g: &Graph, cfg: &SimConfig) -> RunOutcome {
        Algorithm::Tole.run_on(ule_sim::RuntimeKind::Sim, g, cfg)
    }

    fn coin_flip(g: &Graph, cfg: &SimConfig) -> RunOutcome {
        Algorithm::CoinFlip.run_on(ule_sim::RuntimeKind::Sim, g, cfg)
    }

    fn flood_cfg(g: &Graph, seed: u64) -> SimConfig {
        let d = analysis::diameter_exact(g).unwrap() as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let ids = IdSpace::standard(g.len()).sample(g.len(), &mut rng);
        SimConfig::seeded(seed)
            .with_ids(ids)
            .with_knowledge(Knowledge::n_and_diameter(g.len(), d.max(1)))
    }

    #[test]
    fn floodmax_elects_max_on_all_families() {
        let mut rng = StdRng::seed_from_u64(1);
        for fam in gen::Family::ALL {
            let g = fam.build(25, &mut rng).unwrap();
            let cfg = flood_cfg(&g, 3);
            let out = flood_max(&g, &cfg);
            assert!(out.election_succeeded(), "family {fam}");
            let ids = match &cfg.ids {
                ule_sim::IdMode::Explicit(a) => a.clone(),
                _ => unreachable!(),
            };
            assert_eq!(out.leader(), Some(ids.argmax()), "family {fam}");
        }
    }

    #[test]
    fn floodmax_rounds_close_to_d() {
        for n in [10usize, 20, 40] {
            let g = gen::cycle(n).unwrap();
            let out = flood_max(&g, &flood_cfg(&g, 0));
            let d = (n / 2) as u64;
            assert!(out.rounds <= d + 2, "rounds {} vs D {}", out.rounds, d);
            assert!(out.election_succeeded());
        }
    }

    #[test]
    fn floodmax_messages_scale_with_m_times_d() {
        // Upper bound O(m·D); also at least 2m (the initial broadcast).
        let g = gen::grid(5, 5).unwrap();
        let out = flood_max(&g, &flood_cfg(&g, 1));
        let m = g.edge_count() as u64;
        let d = analysis::diameter_exact(&g).unwrap() as u64;
        assert!(out.messages >= 2 * m);
        assert!(out.messages <= 2 * m * (d + 1));
    }

    #[test]
    fn tole_elects_max_on_all_families_without_knowledge() {
        let mut rng = StdRng::seed_from_u64(21);
        for fam in gen::Family::ALL {
            let g = fam.build(25, &mut rng).unwrap();
            let mut irng = StdRng::seed_from_u64(7);
            let ids = IdSpace::standard(g.len()).sample(g.len(), &mut irng);
            let argmax = ids.argmax();
            let cfg = SimConfig::seeded(1).with_ids(ids);
            let out = tole(&g, &cfg);
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.leader(), Some(argmax), "family {fam}");
            assert_eq!(out.congest_violations, 0, "family {fam}");
        }
    }

    #[test]
    fn tole_time_is_linear_in_d() {
        for n in [16usize, 32, 64, 128] {
            let g = gen::cycle(n).unwrap();
            let cfg = SimConfig::seeded(0).with_ids(ule_graph::IdAssignment::sequential(n));
            let out = tole(&g, &cfg);
            assert!(out.election_succeeded());
            let d = (n / 2) as u64;
            assert!(
                out.rounds <= 4 * d + 8,
                "n={n}: rounds {} vs D={d}",
                out.rounds
            );
        }
    }

    #[test]
    fn tole_worst_case_messages_on_sorted_ring() {
        // Sorted identifiers around a cycle: each node improves its
        // maximum Θ(D) times — the Θ(m·D) worst case, still elected.
        let g = gen::cycle(24).unwrap();
        let cfg = SimConfig::seeded(0).with_ids(ule_graph::IdAssignment::sequential(24));
        let out = tole(&g, &cfg);
        assert!(out.election_succeeded());
        assert_eq!(out.leader(), Some(23));
        let m = g.edge_count() as u64;
        assert!(out.messages <= 4 * m * 13, "messages {}", out.messages);
        assert!(out.messages >= m, "flooding must touch every edge");
    }

    #[test]
    fn coinflip_success_rate_near_one_over_e() {
        let g = gen::cycle(64).unwrap();
        let cfg_base = SimConfig::seeded(0).with_knowledge(Knowledge::n(64));
        let outs = parallel_trials(3000, |t| {
            let cfg = SimConfig::seeded(t).with_knowledge(cfg_base.knowledge);
            coin_flip(&g, &cfg)
        });
        let s = Summary::from_outcomes(&outs);
        let rate = s.success_rate();
        assert!(
            (rate - (-1.0f64).exp()).abs() < 0.05,
            "rate {rate} should be ≈ 1/e ≈ 0.368"
        );
        assert_eq!(s.mean_messages, 0.0, "coin flip sends nothing");
        assert_eq!(s.max_rounds, 1);
    }

    #[test]
    fn coinflip_always_terminates_decided() {
        let g = gen::star(20).unwrap();
        let cfg = SimConfig::seeded(5).with_knowledge(Knowledge::n(20));
        let out = coin_flip(&g, &cfg);
        assert_eq!(out.undecided_count(), 0);
    }
}
