//! The seven workloads, and how a `--seed` becomes the inputs of one.
//!
//! Six workloads are single engine cells built the way `ule-xp`'s
//! `engine-scale` campaign builds them (see [`Cell::setup`]); the seventh
//! is a whole campaign handed to `ule_xp::execute`. Sizes are the full
//! sizes of the issue that defined the benchmark times [`SCALE`]: one
//! common factor, chosen so a run stays near two seconds and a five-child
//! invocation fits the driver's per-run budget on the 2-core reference box.

use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ule_core::Algorithm;
use ule_graph::gen::{workload_graph, Family};
use ule_graph::{analysis, Graph, IdAssignment, IdSpace, ImplicitTopology, NodeId, Topology};
use ule_sim::{Adversary, Knowledge, Parallelism, RuntimeKind, SimConfig};
use ule_xp::json::Json;
use ule_xp::CampaignSpec;

/// The seed every pinned simulated statistic refers to.
pub const DEFAULT_SEED: u64 = ule_graph::gen::WORKLOAD_BASE_SEED;

/// The common factor applied to every full-size `n` below.
pub const SCALE: f64 = 0.0625;

/// Threads the sharded engine and the async runtime are pinned to: the
/// reference box has two cores, and a thread count that followed the host
/// would make the same commit measure differently on another box.
pub const THREADS: usize = 2;

/// `--smoke` divides every (already scaled) size by this.
pub const SMOKE_DIV: usize = 100;

/// The campaign behind `table1-sweep`, compiled in so a run reads nothing
/// but its own binary. `graph_seed` and the sizes are overwritten from
/// `--seed`, [`SCALE`] and `--smoke`.
const SWEEP_SPEC: &str = include_str!("../workloads/table1-sweep.json");

/// One engine cell: algorithm × family × size × execution model.
#[derive(Debug, Clone)]
pub struct Cell {
    pub algorithm: Algorithm,
    pub family: Family,
    /// Full size, before [`SCALE`].
    pub full_n: usize,
    /// Procedural topology with `edge_stats` off (the memory diet) instead
    /// of a CSR graph with per-edge outcome columns.
    pub implicit: bool,
    pub parallelism: Parallelism,
    pub adversary: Adversary,
    pub runtime: RuntimeKind,
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Kind {
    Cell(Cell),
    Sweep,
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

impl Workload {
    /// Threads the workload keeps busy: the shard threads, the async
    /// workers, or the sweep's trial fan-out.
    pub fn threads(&self) -> usize {
        match &self.kind {
            Kind::Cell(c) if c.runtime == RuntimeKind::Async => THREADS,
            Kind::Cell(c) => match c.parallelism {
                Parallelism::Threads(k) => k,
                _ => 1,
            },
            Kind::Sweep => THREADS,
        }
    }
}

/// All workloads, in reporting order.
pub fn all() -> Vec<Workload> {
    let flood_torus = |full_n| Cell {
        algorithm: Algorithm::FloodMax,
        family: Family::Torus,
        full_n,
        implicit: false,
        parallelism: Parallelism::Off,
        adversary: Adversary::Lockstep,
        runtime: RuntimeKind::Sim,
    };
    let cell = |name, cell| Workload {
        name,
        kind: Kind::Cell(cell),
    };
    vec![
        cell("dense-torus", flood_torus(1_000_000)),
        cell(
            "sharded-torus",
            Cell {
                parallelism: Parallelism::Threads(THREADS),
                ..flood_torus(1_000_000)
            },
        ),
        cell(
            "delay-torus",
            Cell {
                adversary: Adversary::BoundedDelay { max_delay: 2 },
                ..flood_torus(490_000)
            },
        ),
        cell(
            "sparse-cycle",
            Cell {
                family: Family::Cycle,
                implicit: true,
                ..flood_torus(1_000_000)
            },
        ),
        cell(
            "agent-path",
            Cell {
                algorithm: Algorithm::DfsAgent,
                family: Family::Path,
                ..flood_torus(400_000)
            },
        ),
        cell(
            "async-torus",
            Cell {
                runtime: RuntimeKind::Async,
                ..flood_torus(160_000)
            },
        ),
        Workload {
            name: "table1-sweep",
            kind: Kind::Sweep,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// `full_n` × [`SCALE`] ÷ `div`, never below `floor`.
fn scaled(full_n: usize, div: usize, floor: usize) -> usize {
    (((full_n as f64 * SCALE) as usize) / div).max(floor)
}

/// A cell's topology: the CSR graph or its procedural counterpart.
#[derive(Debug)]
pub enum Topo {
    Csr(Graph),
    Implicit(ImplicitTopology),
}

/// Everything the program under test receives for one cell.
#[derive(Debug)]
pub struct Inputs {
    pub topo: Topo,
    pub cfg: SimConfig,
    /// Where the unique leader must end up: argmax id for FloodMax, argmin
    /// for the DFS agent.
    pub expected_leader: NodeId,
}

impl Cell {
    /// Node count requested from the family at this `div`.
    pub fn n(&self, div: usize) -> usize {
        scaled(self.full_n, div, 16)
    }

    /// Builds the inputs the way `ule-xp`'s `engine-scale` groups do:
    /// `workload_graph` (or `Family::implicit`), a double-sweep upper bound
    /// on the diameter (closed form when implicit), identifiers sampled
    /// from `seed ^ 0x1D5` (sequential for the DFS agent, whose time is
    /// exponential in the smallest identifier), and an explicit
    /// `SimConfig`. `seed` is the only source of variation. Each phase is
    /// a span under the caller's open span.
    pub fn setup(&self, seed: u64, div: usize, rec: &mut Recorder) -> Result<Inputs, String> {
        let n = self.n(div);
        let topo = rec.span("graph.gen.build", |_| {
            if self.implicit {
                self.family
                    .implicit(n)
                    .map(Topo::Implicit)
                    .ok_or_else(|| format!("{}/{n} has no implicit form", self.family))
            } else {
                workload_graph(seed, self.family, n)
                    .map(Topo::Csr)
                    .map_err(|e| format!("building {}/{n}: {e}", self.family))
            }
        })?;
        let (n, d) = rec.span("graph.analysis.diameter", |_| match &topo {
            Topo::Csr(g) => {
                let ecc = analysis::diameter_double_sweep(g, 0)
                    .ok_or_else(|| format!("{}/{n} is disconnected", self.family))?;
                Ok::<_, String>((g.len(), (2 * ecc).max(1) as usize))
            }
            Topo::Implicit(t) => {
                let d = t
                    .diameter_hint()
                    .ok_or("implicit topology without a closed-form diameter")?;
                Ok((t.n(), d.max(1)))
            }
        })?;
        let (ids, expected_leader) = rec.span("graph.ids.sample", |_| {
            if self.algorithm == Algorithm::DfsAgent {
                let ids = IdAssignment::sequential(n);
                let leader = ids.argmin();
                (ids, leader)
            } else {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x1D5);
                let ids = IdSpace::standard(n).sample(n, &mut rng);
                let leader = ids.argmax();
                (ids, leader)
            }
        });
        let cfg = rec.span("sim.config.build", |_| {
            let cfg = SimConfig::seeded(seed)
                .with_ids(ids)
                .with_max_rounds(u64::MAX / 4)
                .with_parallelism(self.parallelism)
                .with_adversary(self.adversary.clone())
                .with_edge_stats(!self.implicit);
            if self.algorithm.spec().needs_diameter {
                cfg.with_knowledge(Knowledge::n_and_diameter(n, d))
            } else {
                cfg
            }
        });
        Ok(Inputs {
            topo,
            cfg,
            expected_leader,
        })
    }
}

/// The `table1-sweep` campaign for this `seed` and `div`: `--seed` is the
/// campaign's graph seed (trial seeds, and with them the identifier
/// samples, are the trial indices `ule-xp` always uses).
pub fn sweep_spec(seed: u64, div: usize) -> Result<CampaignSpec, String> {
    let json = Json::parse(SWEEP_SPEC).map_err(|e| format!("table1-sweep.json: {e}"))?;
    let mut spec = CampaignSpec::from_json(&json).map_err(|e| format!("table1-sweep.json: {e}"))?;
    spec.graph_seed = seed;
    for group in &mut spec.groups {
        for n in &mut group.sizes {
            *n = scaled(*n, div, 12);
        }
        group.sizes.dedup();
    }
    Ok(spec)
}
