//! Network-size estimation + election without any knowledge — Corollary 4.5.
//!
//! No node knows `n`, `m`, or `D`. Each node `u` flips a fair coin until
//! heads and records the count `X_u` (geometric); the global maximum `X̄`
//! satisfies `X̄ ∈ [log₂ n − log₂ log n, 2·log₂ n]` w.h.p., so `n̂ = 2^X̄`
//! estimates `n` within the polynomial slack the rank space needs. The
//! maximum is flooded with the same echo discipline as the election itself
//! (realized by running [`crate::wave::WaveCore`] on the *descending* key
//! `K − X`), the unique maximiser detects completion, broadcasts `X̄`, and
//! everybody runs the Least-El election with every node a candidate
//! (`f = n̂`), rank space `[1, n̂⁴]`, and node identifiers breaking rank
//! ties — which makes the composition a **Las Vegas** algorithm: success
//! probability 1, `O(D)` rounds, `O(m·min(log n, D))` messages w.h.p.
//!
//! Requires unique identifiers (for the probability-1 tie break, exactly as
//! the corollary states); requires **no** knowledge of global parameters.

use crate::wave::{Key, WaveCore, WaveMsg, WaveOutcome};
use rand::Rng;
use ule_sim::message::{uint_bits, Message, TAG_BITS};
use ule_sim::{Context, PortOutbox, Protocol, Status};

/// Cap on the geometric draw (`P(X > 60) < 2⁻⁶⁰`).
const X_CAP: u32 = 60;
/// Rank base for the descending max-flood key: key rank is `K − X`.
const K: u64 = 1 << 20;
/// Cap on the derived rank space (`n̂⁴` can overflow for large `X̄`).
const RANK_SPACE_CAP: u64 = 1 << 60;

/// Messages of the size-estimation election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeMsg {
    /// Max-flood of the coin-flip counts (estimation phase).
    Est(WaveMsg),
    /// The winner's broadcast of `X̄`, starting phase 2.
    Start(u32),
    /// The Least-El election over ranks from `[1, n̂⁴]` (phase 2).
    Le(WaveMsg),
}

impl Message for SeMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SeMsg::Est(w) => TAG_BITS + w.size_bits(),
            SeMsg::Start(x) => TAG_BITS + uint_bits(*x as u64),
            SeMsg::Le(w) => TAG_BITS + w.size_bits(),
        }
    }
}

/// Per-node protocol state for Corollary 4.5: probability 1, `O(D)` time,
/// `O(m·min(log n, D))` messages w.h.p., **no** knowledge of `n`, `m`, `D`.
/// Requires unique identifiers.
///
/// # Examples
///
/// ```
/// use ule_core::Algorithm;
/// use ule_sim::{RuntimeKind, SimConfig};
/// use ule_graph::{gen, IdAssignment};
///
/// let g = gen::grid(4, 4)?;
/// let cfg = SimConfig::seeded(3).with_ids(IdAssignment::sequential(16));
/// let out = Algorithm::SizeEstimate.run_on(RuntimeKind::Sim, &g, &cfg);
/// assert!(out.election_succeeded());
/// # Ok::<(), ule_graph::GraphError>(())
/// ```
#[derive(Debug)]
pub struct SizeEstimateElect {
    degree: usize,
    x: u32,
    est: WaveCore,
    le: WaveCore,
    est_out: PortOutbox<WaveMsg>,
    le_out: PortOutbox<WaveMsg>,
    out: PortOutbox<SeMsg>,
    phase2: bool,
    status: Status,
}

impl SizeEstimateElect {
    /// A node instance for the given degree.
    pub fn new(degree: usize) -> Self {
        SizeEstimateElect {
            degree,
            x: 0,
            est: WaveCore::new(degree),
            le: WaveCore::new(degree),
            est_out: PortOutbox::new(degree),
            le_out: PortOutbox::new(degree),
            out: PortOutbox::new(degree),
            phase2: false,
            status: Status::Undecided,
        }
    }

    fn begin_phase2(&mut self, x_bar: u32, ctx: &mut Context<'_, SeMsg>) {
        self.phase2 = true;
        // n̂ = 2^X̄; rank space [1, n̂⁴] capped to stay in u64.
        let nhat_log2 = x_bar.min(X_CAP);
        let space = if nhat_log2 >= 15 {
            RANK_SPACE_CAP
        } else {
            1u64 << (4 * nhat_log2).max(1)
        };
        let rank = ctx.rng().gen_range(1..=space);
        let tie = ctx.require_id();
        self.le.start(Key { rank, tie }, &mut self.le_out);
    }

    /// Moves every queued wave-engine message into the tagged main outbox.
    fn gather(&mut self) {
        for p in 0..self.degree {
            while let Some(m) = self.est_out.pop(p) {
                self.out.push(p, SeMsg::Est(m));
            }
            while let Some(m) = self.le_out.pop(p) {
                self.out.push(p, SeMsg::Le(m));
            }
        }
    }
}

impl Protocol for SizeEstimateElect {
    type Msg = SeMsg;

    fn on_round(&mut self, ctx: &mut Context<'_, SeMsg>, inbox: &[(usize, SeMsg)]) {
        let mut est_in: Vec<(usize, WaveMsg)> = Vec::new();
        let mut le_in: Vec<(usize, WaveMsg)> = Vec::new();
        let mut start: Option<(usize, u32)> = None;
        for (port, msg) in inbox {
            match msg {
                SeMsg::Est(w) => est_in.push((*port, w.clone())),
                SeMsg::Le(w) => le_in.push((*port, w.clone())),
                SeMsg::Start(x) => start = Some((*port, *x)),
            }
        }
        self.est.on_inbox(&est_in, &mut self.est_out);
        self.le.on_inbox(&le_in, &mut self.le_out);

        if ctx.first_activation() {
            // Geometric draw: flips until heads, capped.
            self.x = 1;
            while self.x < X_CAP && !ctx.coin() {
                self.x += 1;
            }
            let key = Key {
                rank: K - self.x as u64,
                tie: ctx.require_id(),
            };
            self.est.start(key, &mut self.est_out);
        }

        // Estimation winner: the unique maximiser of X (ties by ID) sees
        // its descending-key wave complete clean.
        if !self.phase2 && self.est.outcome() == Some(WaveOutcome::Won) {
            let x_bar = self.x;
            self.out.push_all(SeMsg::Start(x_bar));
            self.begin_phase2(x_bar, ctx);
        }
        if let Some((port, x_bar)) = start {
            if !self.phase2 {
                self.out.push_except(port, SeMsg::Start(x_bar));
                self.begin_phase2(x_bar, ctx);
            }
        }

        if self.phase2 {
            match self.le.outcome() {
                Some(WaveOutcome::Won) => self.status = Status::Leader,
                Some(WaveOutcome::Lost) => self.status = Status::NonLeader,
                None => {}
            }
        }

        self.gather();
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
    use ule_graph::{gen, Graph, IdSpace};
    use ule_sim::harness::{parallel_trials, Summary};
    use ule_sim::{RunOutcome, SimConfig, Termination, Wakeup};

    fn elect(g: &Graph, cfg: &SimConfig) -> RunOutcome {
        crate::Algorithm::SizeEstimate.run_on(ule_sim::RuntimeKind::Sim, g, cfg)
    }

    fn cfg(g: &Graph, seed: u64) -> SimConfig {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let ids = IdSpace::standard(g.len()).sample(g.len(), &mut rng);
        SimConfig::seeded(seed).with_ids(ids)
    }

    #[test]
    fn elects_on_every_family_with_zero_knowledge() {
        let mut rng = StdRng::seed_from_u64(2);
        for fam in gen::Family::ALL {
            let g = fam.build(28, &mut rng).unwrap();
            let out = elect(&g, &cfg(&g, 21));
            assert!(out.election_succeeded(), "family {fam}");
            assert_eq!(out.termination, Termination::Quiescent, "family {fam}");
        }
    }

    #[test]
    fn probability_one_over_many_seeds() {
        let g = gen::cycle(24).unwrap();
        let outs = parallel_trials(60, |t| elect(&g, &cfg(&g, t)));
        let s = Summary::from_outcomes(&outs);
        assert_eq!(s.successes, 60, "Las Vegas algorithm must never fail: {s}");
    }

    #[test]
    fn single_node() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let out = elect(&g, &cfg(&g, 1));
        assert!(out.election_succeeded());
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn time_linear_in_diameter() {
        for n in [16usize, 32, 64] {
            let g = gen::cycle(n).unwrap();
            let d = (n / 2) as u64;
            let out = elect(&g, &cfg(&g, 5));
            assert!(out.election_succeeded());
            // Estimation (≈2D) + start broadcast (≈D) + election (≈2D).
            assert!(
                out.rounds <= 8 * d + 16,
                "n={n}: rounds {} vs D={d}",
                out.rounds
            );
        }
    }

    #[test]
    fn message_bound_m_log_n() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gen::random_connected(100, 400, &mut rng).unwrap();
        let out = elect(&g, &cfg(&g, 9));
        assert!(out.election_succeeded());
        let m = g.edge_count() as f64;
        let bound = 16.0 * m * (100f64).ln();
        assert!(
            (out.messages as f64) < bound,
            "messages {} vs bound {bound}",
            out.messages
        );
    }

    #[test]
    fn no_congest_violations() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gen::random_connected(64, 128, &mut rng).unwrap();
        let out = elect(&g, &cfg(&g, 13));
        assert_eq!(out.congest_violations, 0);
    }

    #[test]
    fn adversarial_wakeup_supported() {
        let g = gen::path(20).unwrap();
        let c = cfg(&g, 6).with_wakeup(Wakeup::Adversarial(vec![19]));
        let out = elect(&g, &c);
        assert!(out.election_succeeded());
    }

    #[test]
    fn deterministic_by_seed() {
        let g = gen::star(15).unwrap();
        let a = elect(&g, &cfg(&g, 33));
        let b = elect(&g, &cfg(&g, 33));
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn message_sizes_accounted() {
        let m = SeMsg::Start(12);
        assert_eq!(m.size_bits(), 4 + 4);
        let w = SeMsg::Est(WaveMsg::Wave(Key { rank: 3, tie: 1 }));
        assert!(w.size_bits() > 4);
    }
}
