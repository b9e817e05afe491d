//! Run configuration: communication model, identifiers, knowledge, wakeup,
//! and the execution-model adversary.

use crate::adversary::Adversary;
use crate::protocol::Knowledge;
use ule_graph::{IdAssignment, NodeId};

/// The communication model of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// CONGEST: one message of `O(log n)` bits per edge per round. The
    /// per-message budget is `factor × ⌈log₂(n+1)⌉` bits; oversized
    /// messages are delivered but counted as violations
    /// ([`crate::RunOutcome::congest_violations`]).
    Congest {
        /// Multiplier on `⌈log₂(n+1)⌉`; the paper's identifiers come from
        /// `[1, n⁴]` (4 log n bits), so budgets below 4 are unusable. The
        /// default is 16, roomy enough for a few fields per message.
        factor: u64,
    },
    /// LOCAL: unbounded message size (the lower bounds hold even here).
    Local,
}

impl Default for Model {
    fn default() -> Self {
        Model::Congest { factor: 16 }
    }
}

impl Model {
    /// The per-message bit budget on a graph of `n` nodes
    /// (`u64::MAX` for LOCAL).
    pub fn bit_budget(&self, n: usize) -> u64 {
        match *self {
            Model::Congest { factor } => {
                let log_n = (usize::BITS - n.leading_zeros()) as u64;
                factor * log_n.max(1)
            }
            Model::Local => u64::MAX,
        }
    }
}

/// Identifier mode of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdMode {
    /// Every node starts in the same state (no identifiers). The paper's
    /// randomized algorithms run here too.
    Anonymous,
    /// Unique identifiers chosen (adversarially or at random) before the
    /// run.
    Explicit(IdAssignment),
}

/// Intra-run parallelism of the engine.
///
/// A run can be executed by several threads: the nodes are divided into
/// contiguous ranges, each owned by one shard thread for the whole run —
/// node state, accounting of the nodes' sends, their inboxes and timers —
/// and a round is a step phase followed by a deliver phase in which every
/// shard takes in what the others sent to its nodes, in sender order, so
/// every inbox reads exactly as the sequential engine would have filled
/// it. The determinism contract is therefore **byte-for-byte**: for a
/// fixed graph and [`SimConfig`], the [`crate::RunOutcome`] is identical at
/// *any* thread count (enforced by `tests/scheduler_equivalence.rs` and a
/// property test).
///
/// This knob only changes wall-clock, never semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Pick a thread count automatically: all available cores on runs
    /// large enough to amortize the per-round coordination
    /// (`n >= `[`Parallelism::AUTO_MIN_NODES`]), one thread otherwise —
    /// and always one thread inside a
    /// [`crate::harness::parallel_trials`] worker, where the cores are
    /// already saturated by the trial fan-out and nested sharding would
    /// oversubscribe quadratically.
    #[default]
    Auto,
    /// Single-threaded: one shard owns every node and sends are delivered
    /// the moment they are made; bit-identical to the historical
    /// sequential engine.
    Off,
    /// Exactly this many shard threads (must be nonzero), clamped to the
    /// node count — a shard's range is never empty.
    Threads(usize),
}

impl Parallelism {
    /// Below this node count [`Parallelism::Auto`] stays sequential: tiny
    /// runs are dominated by per-round coordination, not node stepping.
    pub const AUTO_MIN_NODES: usize = 65_536;

    /// Under [`Parallelism::Auto`], the minimum active nodes per shard
    /// before a round runs on the shard threads: a round needs two such
    /// shards' worth. The threads are spawned once per run; what a
    /// parallel round costs is its four channel hand-offs per worker
    /// (step, done, deliver, done), measured on the 2-vCPU reference box
    /// at 25 – 75 µs a round — a step/done pair is ≈ 12 µs when the
    /// worker's answer is already waiting and ≈ 35 µs when both sides had
    /// to park — against ~0.1 – 0.3 µs to step one cheap protocol node and
    /// route its sends. A round of 512 active nodes is therefore about
    /// where splitting it in two starts to pay, which is the value the
    /// spawn-per-round engine had settled on for its ~10 µs spawns;
    /// sparser rounds are run by the control thread alone (same code, so
    /// the choice never shows in the outcome).
    pub const AUTO_MIN_SHARD_NODES: usize = 256;

    /// Resolves the knob to a concrete shard-thread count for a run on `n`
    /// nodes (always `>= 1`).
    ///
    /// # Panics
    ///
    /// Panics on `Parallelism::Threads(0)`, which is a configuration bug.
    pub fn effective_threads(self, n: usize) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Threads(t) => {
                assert!(t > 0, "Parallelism::Threads(0) is not a thread count");
                t
            }
            Parallelism::Auto => {
                if n < Self::AUTO_MIN_NODES {
                    1
                } else {
                    crate::harness::host_cores()
                }
            }
        }
    }

    /// Minimum active nodes per shard for a round to run on the shard
    /// threads (a round needs twice this many). `Auto` applies the
    /// economic threshold ([`Parallelism::AUTO_MIN_SHARD_NODES`]); an
    /// explicit [`Parallelism::Threads`] request goes parallel eagerly —
    /// every round with at least two active nodes — so determinism tests
    /// on small graphs genuinely exercise the hand-offs. Either way the
    /// outcome is identical; this only moves wall-clock.
    pub fn min_shard_nodes(self) -> usize {
        match self {
            Parallelism::Auto => Self::AUTO_MIN_SHARD_NODES,
            Parallelism::Off | Parallelism::Threads(_) => 1,
        }
    }
}

/// Wakeup discipline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Wakeup {
    /// All nodes wake at round 0 (the lower bounds hold even here).
    #[default]
    Simultaneous,
    /// Only the listed nodes wake at round 0; everyone else wakes on first
    /// message receipt. The list must be non-empty; order and repeats are
    /// immaterial.
    Adversarial(Vec<NodeId>),
}

/// Full configuration of one simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Communication model (default CONGEST with factor 16).
    pub model: Model,
    /// What the nodes know (default: nothing).
    pub knowledge: Knowledge,
    /// Identifiers (default: anonymous).
    pub ids: IdMode,
    /// Wakeup discipline (default: simultaneous).
    pub wakeup: Wakeup,
    /// Seed for all node RNG streams; two runs with equal seeds and
    /// configs are identical.
    pub seed: u64,
    /// Hard cap on simulated rounds; used both as a safety net and to
    /// truncate runs for the Theorem 3.13 experiment.
    pub max_rounds: u64,
    /// Undirected edges to watch for first crossing (the dumbbell bridges
    /// in the bridge-crossing experiments).
    pub watch_edges: Vec<(NodeId, NodeId)>,
    /// Intra-run parallelism (default [`Parallelism::Auto`]). Never affects
    /// the [`crate::RunOutcome`] — only wall-clock.
    pub parallelism: Parallelism,
    /// The execution-model adversary (default [`Adversary::Lockstep`], the
    /// synchronous model): message delays, fail-stop crashes, link
    /// failures. Seeded by [`SimConfig::seed`] and deterministic at any
    /// thread count — see [`crate::adversary`].
    pub adversary: Adversary,
    /// Whether to materialize the per-directed-edge statistics arrays
    /// ([`crate::RunOutcome::first_directed_use`] and
    /// [`crate::RunOutcome::directed_message_counts`], `O(m)` memory
    /// each). Default `true` — the historical behaviour. Disabling them
    /// empties both arrays in the outcome and is the memory-diet setting
    /// for runs whose graph is too large to afford `2m` extra words;
    /// everything else in the outcome is unaffected.
    pub edge_stats: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            model: Model::default(),
            knowledge: Knowledge::NONE,
            ids: IdMode::Anonymous,
            wakeup: Wakeup::Simultaneous,
            seed: 0,
            max_rounds: 1_000_000,
            watch_edges: Vec::new(),
            parallelism: Parallelism::Auto,
            adversary: Adversary::Lockstep,
            edge_stats: true,
        }
    }
}

impl SimConfig {
    /// Default config with the given seed.
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ..SimConfig::default()
        }
    }

    /// Builder-style: set knowledge.
    pub fn with_knowledge(mut self, k: Knowledge) -> Self {
        self.knowledge = k;
        self
    }

    /// Builder-style: set identifiers.
    pub fn with_ids(mut self, ids: IdAssignment) -> Self {
        self.ids = IdMode::Explicit(ids);
        self
    }

    /// Builder-style: set the round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Builder-style: set the model.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Builder-style: set wakeup.
    pub fn with_wakeup(mut self, wakeup: Wakeup) -> Self {
        self.wakeup = wakeup;
        self
    }

    /// Builder-style: watch an edge for first crossing.
    pub fn watching(mut self, edges: &[(NodeId, NodeId)]) -> Self {
        self.watch_edges.extend_from_slice(edges);
        self
    }

    /// Builder-style: set intra-run parallelism.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder-style: set the execution-model adversary.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = adversary;
        self
    }

    /// Builder-style: enable or disable the per-directed-edge statistics
    /// arrays (default on; see [`SimConfig::edge_stats`]).
    pub fn with_edge_stats(mut self, edge_stats: bool) -> Self {
        self.edge_stats = edge_stats;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_budget_scales_with_n() {
        let m = Model::Congest { factor: 16 };
        assert_eq!(m.bit_budget(15), 16 * 4);
        assert_eq!(m.bit_budget(16), 16 * 5);
        assert_eq!(Model::Local.bit_budget(10), u64::MAX);
    }

    #[test]
    fn builder_chain() {
        let cfg = SimConfig::seeded(9)
            .with_knowledge(Knowledge::n(4))
            .with_max_rounds(10)
            .with_model(Model::Local)
            .with_wakeup(Wakeup::Adversarial(vec![0]))
            .with_adversary(Adversary::BoundedDelay { max_delay: 3 })
            .with_edge_stats(false)
            .watching(&[(0, 1)]);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.adversary, Adversary::BoundedDelay { max_delay: 3 });
        assert!(!cfg.edge_stats);
        assert_eq!(cfg.knowledge.n, Some(4));
        assert_eq!(cfg.max_rounds, 10);
        assert_eq!(cfg.model, Model::Local);
        assert_eq!(cfg.watch_edges, vec![(0, 1)]);
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = SimConfig::default();
        assert!(matches!(cfg.model, Model::Congest { factor: 16 }));
        assert!(matches!(cfg.wakeup, Wakeup::Simultaneous));
        assert!(matches!(cfg.ids, IdMode::Anonymous));
        assert_eq!(cfg.parallelism, Parallelism::Auto);
        assert_eq!(cfg.adversary, Adversary::Lockstep);
        assert!(cfg.edge_stats);
    }

    #[test]
    fn parallelism_resolves() {
        assert_eq!(Parallelism::Off.effective_threads(1 << 30), 1);
        assert_eq!(Parallelism::Threads(4).effective_threads(3), 4);
        // Auto is sequential below the engagement threshold …
        assert_eq!(
            Parallelism::Auto.effective_threads(Parallelism::AUTO_MIN_NODES - 1),
            1
        );
        // … and resolves to at least one thread above it.
        assert!(Parallelism::Auto.effective_threads(Parallelism::AUTO_MIN_NODES) >= 1);
        let cfg = SimConfig::seeded(0).with_parallelism(Parallelism::Threads(2));
        assert_eq!(cfg.parallelism, Parallelism::Threads(2));
    }

    #[test]
    fn shard_size_policy() {
        // Auto demands an economic shard; explicit requests shard eagerly.
        assert_eq!(
            Parallelism::Auto.min_shard_nodes(),
            Parallelism::AUTO_MIN_SHARD_NODES
        );
        assert_eq!(Parallelism::Threads(8).min_shard_nodes(), 1);
    }

    #[test]
    #[should_panic(expected = "Parallelism::Threads(0)")]
    fn zero_threads_panics() {
        Parallelism::Threads(0).effective_threads(10);
    }
}
