//! Declarative campaign specifications.
//!
//! A [`CampaignSpec`] is the machine-checkable description of one
//! experiment campaign: which algorithms run on which graph families at
//! which sizes, how many seeded trials per cell, and under which knowledge
//! / wakeup / diameter regimes. Specs expand into a flat job grid
//! ([`CampaignSpec::jobs`]), serialize to JSON (so campaigns can live in
//! files and result records can embed the spec that produced them), and
//! hash canonically (so two results are comparable only when their grids
//! agree).

use crate::json::Json;
use crate::XpError;
use ule_core::Algorithm;
use ule_graph::gen::{Family, WORKLOAD_BASE_SEED};
use ule_sim::RuntimeKind;

/// Upper sanity bound on a group's `threads`: the engine honors whatever
/// it is told and spawns up to `min(threads, active nodes)` OS threads per
/// message-dense round, so an absurd request (say 100 000) would abort
/// mid-campaign on thread-creation failure rather than fail fast. 512 is
/// far above any machine this runs on while still rejecting typos.
pub const MAX_THREADS: u64 = 512;

/// How a cell obtains the diameter its config and normalization use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiameterMode {
    /// Exact diameter via all-pairs BFS — `O(n·m)`, fine at Table 1 sizes
    /// and required for claimed-shape normalization to be exact.
    Exact,
    /// `2 ×` double-sweep eccentricity — a valid upper bound anywhere at
    /// `O(m)` cost; the only feasible choice at engine-scale `n`.
    UpperBound,
}

/// What the nodes are told, beyond each algorithm's declared needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnowledgeMode {
    /// Exactly what [`Algorithm::config_for`] grants: `n` iff the spec
    /// needs it, the diameter iff the spec needs it.
    AlgorithmDefault,
    /// Every node knows `n` and the (mode-dependent) diameter — the
    /// paper's "full knowledge" column, and what the engine-scale baseline
    /// has always used.
    NAndDiameter,
}

/// Wakeup discipline for every cell in a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeupMode {
    /// All nodes wake at round 0.
    Simultaneous,
    /// Only node 0 wakes at round 0; the rest wake on first message
    /// receipt (the adversarial single-source regime of §2). The paper's
    /// algorithms handle this; the simple `floodmax`/`tole` baselines
    /// assume simultaneous wakeup and panic under it.
    SingleSource,
}

/// Named execution-model (adversary) profile for every cell in a group —
/// the campaign-level face of [`ule_sim::Adversary`].
///
/// Profiles are *rate-based* where the sim-level adversary is explicit:
/// a campaign sweeps graph sizes, so a crash profile names a probability
/// and horizon and each cell materializes a concrete fail-stop schedule
/// deterministically from its trial seed
/// ([`ule_sim::adversary::sampled_crashes`]). The profile's
/// [`AdversaryProfile::name`] is stamped into each result cell so
/// `compare` can refuse to silently diff costs measured under different
/// execution models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryProfile {
    /// The synchronous baseline (the default; omitted in JSON).
    Lockstep,
    /// Bounded-delay asynchrony: each message delayed by up to
    /// `max_delay` extra rounds.
    BoundedDelay {
        /// Maximum extra delivery delay in rounds.
        max_delay: u64,
    },
    /// Sampled fail-stop crashes: each node crashes independently with
    /// probability `permille / 1000`, at a round in `[1, horizon]`.
    Crash {
        /// Crash probability per node, in thousandths.
        permille: u64,
        /// Latest possible crash round.
        horizon: u64,
    },
}

impl AdversaryProfile {
    /// The profile's stable name, stamped into result cells
    /// (`"lockstep"`, `"delay-2"`, `"crash-100pm-32r"`, …).
    pub fn name(&self) -> String {
        match *self {
            AdversaryProfile::Lockstep => "lockstep".into(),
            AdversaryProfile::BoundedDelay { max_delay } => format!("delay-{max_delay}"),
            AdversaryProfile::Crash { permille, horizon } => {
                format!("crash-{permille}pm-{horizon}r")
            }
        }
    }

    /// Materializes the sim-level adversary for one trial of a cell on
    /// `n` nodes. Crash profiles sample per trial, so Monte Carlo
    /// aggregates average over crash placements as well as coin flips.
    pub fn materialize(&self, trial: u64, n: usize) -> ule_sim::Adversary {
        use ule_sim::Adversary;
        match *self {
            AdversaryProfile::Lockstep => Adversary::Lockstep,
            AdversaryProfile::BoundedDelay { max_delay } => Adversary::BoundedDelay { max_delay },
            AdversaryProfile::Crash { permille, horizon } => Adversary::CrashStop {
                schedule: ule_sim::adversary::sampled_crashes(trial, n, permille, horizon),
            },
        }
    }
}

/// One rectangular block of the job grid: `algorithms × families × sizes`,
/// all sharing trial count and execution modes. A campaign is a union of
/// groups, so non-rectangular sweeps (different sizes per algorithm, as in
/// the engine-scale baseline) stay declarative.
#[derive(Debug, Clone, PartialEq)]
pub struct JobGroup {
    /// Algorithms to run, in report order.
    pub algorithms: Vec<Algorithm>,
    /// Graph families to sweep.
    pub families: Vec<Family>,
    /// Requested sizes (families with rigid sizes round, e.g. torus).
    pub sizes: Vec<usize>,
    /// Seeded trials per cell; trial index `t ∈ 0..trials` is the seed.
    pub trials: u64,
    /// Diameter computation mode.
    pub diameter: DiameterMode,
    /// Knowledge regime.
    pub knowledge: KnowledgeMode,
    /// Wakeup regime.
    pub wakeup: WakeupMode,
    /// Record wall-clock and derived throughput per cell (the engine-scale
    /// metrics the perf gate compares).
    pub timed: bool,
    /// Intra-run shard threads for every cell in this group: `None` runs
    /// the sequential reference engine (`Parallelism::Off`, the historical
    /// behaviour and what untimed baselines should use), `Some(k)` runs
    /// `Parallelism::Threads(k)`; on an async group they are the worker
    /// count (one worker when `None`). Outcomes are identical either way
    /// (the determinism contract); only wall-clock and throughput differ,
    /// which is the point of the parallel engine-scale groups.
    pub threads: Option<u64>,
    /// Execution-model profile for every cell in this group
    /// ([`AdversaryProfile::Lockstep`] when omitted — the synchronous
    /// model, and the only profile pre-adversary specs could express, so
    /// legacy spec files serialize and hash byte-identically).
    pub adversary: AdversaryProfile,
    /// Which runtime executes every cell in this group:
    /// [`RuntimeKind::Sim`] (the round engine; the default, omitted in
    /// JSON so legacy spec files serialize and hash byte-identically) or
    /// [`RuntimeKind::Async`] (the threads+channels runtime — same
    /// outcomes under every profile by the conformance contract).
    pub runtime: RuntimeKind,
    /// Run every cell on the family's O(1)-memory procedural topology
    /// ([`ule_graph::ImplicitTopology`]) instead of materializing CSR
    /// adjacency arrays, and drop the `O(m)` per-directed-edge outcome
    /// arrays too (`SimConfig::edge_stats = false`) — the memory-diet
    /// regime for node counts where adjacency and side arrays dominate
    /// RSS. Summaries are identical to the materialized run (the topology
    /// conformance contract); only memory and the diameter discovery
    /// differ (implicit cells use the family's closed form instead of a
    /// BFS sweep). Only structured families have implicit forms;
    /// [`crate::execute`] refuses the random ones. Default `false`
    /// (omitted in JSON, so legacy spec files serialize and hash
    /// byte-identically).
    pub implicit: bool,
}

/// A whole campaign: named, seeded, and a union of job groups.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (result files default to `results/<name>.json`).
    pub name: String,
    /// Base seed for per-(family, n) graph derivation
    /// ([`ule_graph::gen::workload_seed`]).
    pub graph_seed: u64,
    /// The job groups; the grid is their concatenation.
    pub groups: Vec<JobGroup>,
}

/// One expanded cell of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The group this cell came from (modes + trial count).
    pub group: &'a JobGroup,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Graph family.
    pub family: Family,
    /// Requested size.
    pub n: usize,
}

impl CampaignSpec {
    /// Expands the declarative spec into the flat job grid, in
    /// group-major, then family × size, then algorithm order (so one
    /// graph is built once and reused across algorithms).
    pub fn jobs(&self) -> Vec<Job<'_>> {
        let mut out = Vec::new();
        for group in &self.groups {
            for &family in &group.families {
                for &n in &group.sizes {
                    for &algorithm in &group.algorithms {
                        out.push(Job {
                            group,
                            algorithm,
                            family,
                            n,
                        });
                    }
                }
            }
        }
        out
    }

    /// FNV-1a hash of the canonical (compact JSON) spec serialization,
    /// rendered as 16 hex digits. Two results are grid-comparable when
    /// their hashes agree.
    pub fn hash(&self) -> String {
        let h = ule_graph::gen::fnv1a64(
            ule_graph::gen::FNV_OFFSET_BASIS,
            self.to_json().compact().as_bytes(),
        );
        format!("{h:016x}")
    }

    /// Serializes the spec (embeddable in result records, writable to a
    /// campaign file).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("graph_seed".into(), Json::Num(self.graph_seed as f64)),
            (
                "groups".into(),
                Json::Arr(self.groups.iter().map(group_to_json).collect()),
            ),
        ])
    }

    /// Parses a spec from its JSON form.
    ///
    /// # Errors
    ///
    /// Rejects unknown algorithm/family names, missing fields, and empty
    /// grids, with a message naming the offender.
    pub fn from_json(v: &Json) -> Result<CampaignSpec, XpError> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| XpError::new("spec: missing `name`"))?
            .to_string();
        let graph_seed = match v.get("graph_seed") {
            None => WORKLOAD_BASE_SEED,
            Some(s) => {
                let seed = s.as_u64().ok_or_else(|| {
                    XpError::new("spec: `graph_seed` must be a non-negative integer")
                })?;
                // JSON numbers travel as f64: a seed above 2^53 would be
                // silently rounded in transit (the campaign would run with
                // a different seed than the author wrote), so refuse it.
                if seed >= (1 << 53) {
                    return Err(XpError::new(
                        "spec: `graph_seed` must be < 2^53 to survive the JSON round trip",
                    ));
                }
                seed
            }
        };
        let groups = v
            .get("groups")
            .and_then(Json::as_arr)
            .ok_or_else(|| XpError::new("spec: missing `groups` array"))?
            .iter()
            .map(group_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let spec = CampaignSpec {
            name,
            graph_seed,
            groups,
        };
        if spec.jobs().is_empty() {
            return Err(XpError::new("spec: expands to an empty job grid"));
        }
        Ok(spec)
    }
}

fn group_to_json(g: &JobGroup) -> Json {
    let mut fields = vec![
        (
            "algorithms".into(),
            Json::Arr(
                g.algorithms
                    .iter()
                    .map(|a| Json::Str(a.spec().name.into()))
                    .collect(),
            ),
        ),
        (
            "families".into(),
            Json::Arr(
                g.families
                    .iter()
                    .map(|f| Json::Str(f.name().into()))
                    .collect(),
            ),
        ),
        (
            "sizes".into(),
            Json::Arr(g.sizes.iter().map(|&n| Json::Num(n as f64)).collect()),
        ),
        ("trials".into(), Json::Num(g.trials as f64)),
        (
            "diameter".into(),
            Json::Str(
                match g.diameter {
                    DiameterMode::Exact => "exact",
                    DiameterMode::UpperBound => "upper-bound",
                }
                .into(),
            ),
        ),
        (
            "knowledge".into(),
            Json::Str(
                match g.knowledge {
                    KnowledgeMode::AlgorithmDefault => "algorithm-default",
                    KnowledgeMode::NAndDiameter => "n-and-diameter",
                }
                .into(),
            ),
        ),
        (
            "wakeup".into(),
            Json::Str(
                match g.wakeup {
                    WakeupMode::Simultaneous => "simultaneous",
                    WakeupMode::SingleSource => "single-source",
                }
                .into(),
            ),
        ),
        ("timed".into(), Json::Bool(g.timed)),
    ];
    // Emitted only when set: groups without the field serialize exactly as
    // they did before the knob existed, so pre-existing spec files, spec
    // hashes, and golden fixtures stay byte-stable.
    if let Some(t) = g.threads {
        fields.push(("threads".into(), Json::Num(t as f64)));
    }
    // Same byte-stability rule: the sim runtime is the default and is
    // never emitted.
    if g.runtime == RuntimeKind::Async {
        fields.push(("runtime".into(), Json::Str("async".into())));
    }
    // Same byte-stability rule: materialized graphs are the default and
    // the knob is never emitted when off.
    if g.implicit {
        fields.push(("implicit".into(), Json::Bool(true)));
    }
    // Same byte-stability rule: lockstep (the only pre-adversary model) is
    // the default and is never emitted.
    match g.adversary {
        AdversaryProfile::Lockstep => {}
        AdversaryProfile::BoundedDelay { max_delay } => fields.push((
            "adversary".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str("bounded-delay".into())),
                ("max_delay".into(), Json::Num(max_delay as f64)),
            ]),
        )),
        AdversaryProfile::Crash { permille, horizon } => fields.push((
            "adversary".into(),
            Json::Obj(vec![
                ("kind".into(), Json::Str("crash".into())),
                ("permille".into(), Json::Num(permille as f64)),
                ("horizon".into(), Json::Num(horizon as f64)),
            ]),
        )),
    }
    Json::Obj(fields)
}

fn adversary_from_json(v: &Json) -> Result<AdversaryProfile, XpError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| XpError::new("adversary: missing `kind` string"))?;
    let num = |field: &str| {
        v.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| XpError::new(format!("adversary: missing integer `{field}`")))
    };
    match kind {
        "lockstep" => Ok(AdversaryProfile::Lockstep),
        "bounded-delay" => Ok(AdversaryProfile::BoundedDelay {
            max_delay: num("max_delay")?,
        }),
        "crash" => {
            let permille = num("permille")?;
            if permille > 1000 {
                return Err(XpError::new(format!(
                    "adversary: `permille` = {permille} is not a probability (max 1000)"
                )));
            }
            let horizon = num("horizon")?;
            if horizon == 0 {
                return Err(XpError::new("adversary: `horizon` must be >= 1"));
            }
            Ok(AdversaryProfile::Crash { permille, horizon })
        }
        other => Err(XpError::new(format!(
            "adversary: unknown kind `{other}` (lockstep | bounded-delay | crash)"
        ))),
    }
}

fn group_from_json(v: &Json) -> Result<JobGroup, XpError> {
    let algorithms = v
        .get("algorithms")
        .and_then(Json::as_arr)
        .ok_or_else(|| XpError::new("group: missing `algorithms` array"))?
        .iter()
        .map(|a| {
            let name = a
                .as_str()
                .ok_or_else(|| XpError::new("group: algorithm names must be strings"))?;
            Algorithm::by_name(name)
                .ok_or_else(|| XpError::new(format!("group: unknown algorithm `{name}`")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let families = v
        .get("families")
        .and_then(Json::as_arr)
        .ok_or_else(|| XpError::new("group: missing `families` array"))?
        .iter()
        .map(|f| {
            let name = f
                .as_str()
                .ok_or_else(|| XpError::new("group: family names must be strings"))?;
            Family::from_name(name)
                .ok_or_else(|| XpError::new(format!("group: unknown family `{name}`")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sizes = v
        .get("sizes")
        .and_then(Json::as_arr)
        .ok_or_else(|| XpError::new("group: missing `sizes` array"))?
        .iter()
        .map(|s| {
            s.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| XpError::new("group: sizes must be non-negative integers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let trials = v
        .get("trials")
        .and_then(Json::as_u64)
        .ok_or_else(|| XpError::new("group: missing integer `trials`"))?;
    if trials == 0 {
        return Err(XpError::new("group: `trials` must be >= 1"));
    }
    let diameter = match v.get("diameter").and_then(Json::as_str) {
        None | Some("exact") => DiameterMode::Exact,
        Some("upper-bound") => DiameterMode::UpperBound,
        Some(other) => {
            return Err(XpError::new(format!(
                "group: unknown diameter mode `{other}` (exact | upper-bound)"
            )))
        }
    };
    let knowledge = match v.get("knowledge").and_then(Json::as_str) {
        None | Some("algorithm-default") => KnowledgeMode::AlgorithmDefault,
        Some("n-and-diameter") => KnowledgeMode::NAndDiameter,
        Some(other) => {
            return Err(XpError::new(format!(
                "group: unknown knowledge mode `{other}` (algorithm-default | n-and-diameter)"
            )))
        }
    };
    let wakeup = match v.get("wakeup").and_then(Json::as_str) {
        None | Some("simultaneous") => WakeupMode::Simultaneous,
        Some("single-source") => WakeupMode::SingleSource,
        Some(other) => {
            return Err(XpError::new(format!(
                "group: unknown wakeup mode `{other}` (simultaneous | single-source)"
            )))
        }
    };
    let timed = v.get("timed").and_then(Json::as_bool).unwrap_or(false);
    let threads = match v.get("threads") {
        None => None,
        Some(t) => {
            let t = t
                .as_u64()
                .ok_or_else(|| XpError::new("group: `threads` must be a positive integer"))?;
            if t == 0 {
                return Err(XpError::new(
                    "group: `threads` must be >= 1 (omit the field for the sequential engine)",
                ));
            }
            if t > MAX_THREADS {
                return Err(XpError::new(format!(
                    "group: `threads` = {t} is not a sane thread count (max {MAX_THREADS})"
                )));
            }
            Some(t)
        }
    };
    let adversary = match v.get("adversary") {
        None => AdversaryProfile::Lockstep,
        Some(a) => adversary_from_json(a)?,
    };
    let runtime = match v.get("runtime").and_then(Json::as_str) {
        None | Some("sim") => RuntimeKind::Sim,
        Some("async") => RuntimeKind::Async,
        Some(other) => {
            return Err(XpError::new(format!(
                "group: unknown runtime `{other}` (sim | async)"
            )))
        }
    };
    let implicit = v.get("implicit").and_then(Json::as_bool).unwrap_or(false);
    Ok(JobGroup {
        algorithms,
        families,
        sizes,
        trials,
        diameter,
        knowledge,
        wakeup,
        timed,
        threads,
        adversary,
        runtime,
        implicit,
    })
}

/// Names and one-line descriptions of the built-in campaigns, in listing
/// order.
pub const BUILTIN_CAMPAIGNS: [(&str, &str); 4] = [
    (
        "table1",
        "Table 1: every registry algorithm × {cycle, torus, sparse-rnd, dense-rnd}",
    ),
    (
        "fig-tradeoff",
        "§1.1.2 message/time frontier: all communicating algorithms on three mid-size workloads",
    ),
    (
        "engine-scale",
        "engine-throughput baseline: FloodMax up to n = 10^6 (sequential + sharded-parallel + bounded-delay), DFS agent on paths, implicit-topology 10^7 cycle headline (perf gate)",
    ),
    (
        "resilience",
        "execution-model sweep: floodmax/las-vegas/kingdom(D) on cycle/torus/expander under delay 0/2/8 and 1%/10% crashes, on both runtimes",
    ),
];

/// Returns the built-in campaign of the given name, if any. `quick`
/// shrinks sizes and trials for a fast smoke run.
pub fn builtin(name: &str, quick: bool) -> Option<CampaignSpec> {
    let standard =
        |algorithms: Vec<Algorithm>, families: Vec<Family>, sizes: Vec<usize>, trials| JobGroup {
            algorithms,
            families,
            sizes,
            trials,
            diameter: DiameterMode::Exact,
            knowledge: KnowledgeMode::AlgorithmDefault,
            wakeup: WakeupMode::Simultaneous,
            timed: false,
            threads: None,
            adversary: AdversaryProfile::Lockstep,
            runtime: RuntimeKind::Sim,
            implicit: false,
        };
    let spec = match name {
        "table1" => CampaignSpec {
            name: "table1".into(),
            graph_seed: WORKLOAD_BASE_SEED,
            groups: vec![standard(
                Algorithm::ALL.to_vec(),
                vec![
                    Family::Cycle,
                    Family::Torus,
                    Family::SparseRandom,
                    Family::DenseRandom,
                ],
                if quick {
                    vec![48, 96]
                } else {
                    vec![48, 96, 192]
                },
                if quick { 3 } else { 5 },
            )],
        },
        "fig-tradeoff" => {
            let algorithms: Vec<Algorithm> = Algorithm::ALL
                .into_iter()
                .filter(|&a| a != Algorithm::CoinFlip)
                .collect();
            let trials = if quick { 3 } else { 8 };
            CampaignSpec {
                name: "fig-tradeoff".into(),
                graph_seed: WORKLOAD_BASE_SEED,
                groups: vec![
                    standard(algorithms.clone(), vec![Family::Torus], vec![100], trials),
                    standard(
                        algorithms,
                        vec![Family::SparseRandom, Family::DenseRandom],
                        vec![128],
                        trials,
                    ),
                ],
            }
        }
        "engine-scale" => {
            let mut groups = vec![
                JobGroup {
                    algorithms: vec![Algorithm::FloodMax],
                    families: vec![Family::Cycle, Family::Torus, Family::SparseRandom],
                    sizes: if quick {
                        vec![10_000, 100_000]
                    } else {
                        vec![10_000, 100_000, 1_000_000]
                    },
                    trials: 1,
                    diameter: DiameterMode::UpperBound,
                    knowledge: KnowledgeMode::NAndDiameter,
                    wakeup: WakeupMode::Simultaneous,
                    timed: true,
                    threads: None,
                    adversary: AdversaryProfile::Lockstep,
                    runtime: RuntimeKind::Sim,
                    implicit: false,
                },
                JobGroup {
                    algorithms: vec![Algorithm::DfsAgent],
                    families: vec![Family::Path],
                    sizes: if quick {
                        vec![1_000, 10_000]
                    } else {
                        vec![1_000, 10_000, 100_000]
                    },
                    trials: 1,
                    diameter: DiameterMode::UpperBound,
                    knowledge: KnowledgeMode::AlgorithmDefault,
                    wakeup: WakeupMode::Simultaneous,
                    timed: true,
                    threads: None,
                    adversary: AdversaryProfile::Lockstep,
                    runtime: RuntimeKind::Sim,
                    implicit: false,
                },
                // The sharded-parallel counterpart of the FloodMax torus
                // cells above: identical outcomes (the engine's
                // determinism contract), so the only delta the result
                // records is the measured single-run wall-clock effect of
                // intra-run parallelism on the message-densest workload —
                // a speedup on multicore hardware, pure coordination
                // overhead when the recording box has one core. The 10⁵
                // size is in both the quick and full grids on purpose:
                // the quick run's parallel cell then has a same-key
                // baseline counterpart (occurrence #2 in both), so CI's
                // zero-tolerance count gate covers this group too.
                JobGroup {
                    algorithms: vec![Algorithm::FloodMax],
                    families: vec![Family::Torus],
                    sizes: if quick {
                        vec![100_000]
                    } else {
                        vec![100_000, 1_000_000]
                    },
                    trials: 1,
                    diameter: DiameterMode::UpperBound,
                    knowledge: KnowledgeMode::NAndDiameter,
                    wakeup: WakeupMode::Simultaneous,
                    timed: true,
                    threads: Some(2),
                    adversary: AdversaryProfile::Lockstep,
                    runtime: RuntimeKind::Sim,
                    implicit: false,
                },
                // The bounded-delay counterpart (occurrence #3 of the
                // torus key in both grids): same workload, sequential
                // engine, delay adversary — the recorded throughput delta
                // against occurrence #1 is the measured overhead of the
                // adversary layer's per-message fate decisions plus the
                // extra rounds asynchrony stretches the flood over.
                JobGroup {
                    algorithms: vec![Algorithm::FloodMax],
                    families: vec![Family::Torus],
                    sizes: if quick {
                        vec![100_000]
                    } else {
                        vec![100_000, 1_000_000]
                    },
                    trials: 1,
                    diameter: DiameterMode::UpperBound,
                    knowledge: KnowledgeMode::NAndDiameter,
                    wakeup: WakeupMode::Simultaneous,
                    timed: true,
                    threads: None,
                    adversary: AdversaryProfile::BoundedDelay { max_delay: 2 },
                    runtime: RuntimeKind::Sim,
                    implicit: false,
                },
            ];
            // The flat-memory headline cell, full grid only: FloodMax on a
            // 10⁷-node cycle with *no adjacency arrays at all* — the
            // topology is procedural (`implicit: true`) and the per-edge
            // outcome arrays are off, so what the run holds is the
            // engine's own per-node state. Its wall clock is recorded
            // here; its memory ceiling is `tests/scale_smoke.rs`'s 10⁷
            // run.
            if !quick {
                groups.push(JobGroup {
                    algorithms: vec![Algorithm::FloodMax],
                    families: vec![Family::Cycle],
                    sizes: vec![10_000_000],
                    trials: 1,
                    diameter: DiameterMode::UpperBound,
                    knowledge: KnowledgeMode::NAndDiameter,
                    wakeup: WakeupMode::Simultaneous,
                    timed: true,
                    threads: None,
                    adversary: AdversaryProfile::Lockstep,
                    runtime: RuntimeKind::Sim,
                    implicit: true,
                });
            }
            CampaignSpec {
                name: "engine-scale".into(),
                graph_seed: WORKLOAD_BASE_SEED,
                groups,
            }
        }
        "resilience" => {
            // The execution-model sweep the adversary layer exists for:
            // deadline-driven (floodmax, kingdom(D)) and restart-driven
            // (las-vegas) algorithms under growing asynchrony and crash
            // rates. Delay 0 is the sanity anchor — its cells must equal a
            // lockstep run of the same grid byte-for-byte. Each profile
            // runs on both runtimes: fates are a pure function of
            // `(seed, directed edge, per-edge send index)`, so the async
            // groups must reproduce the sim groups' summaries exactly.
            let algorithms = || {
                vec![
                    Algorithm::FloodMax,
                    Algorithm::LasVegas,
                    Algorithm::KingdomKnownD,
                ]
            };
            let families = || vec![Family::Cycle, Family::Torus, Family::Expander];
            let group = |adversary: AdversaryProfile, runtime: RuntimeKind| JobGroup {
                algorithms: algorithms(),
                families: families(),
                sizes: if quick { vec![64] } else { vec![64, 256] },
                trials: if quick { 2 } else { 5 },
                diameter: DiameterMode::Exact,
                knowledge: KnowledgeMode::NAndDiameter,
                wakeup: WakeupMode::Simultaneous,
                timed: false,
                threads: None,
                adversary,
                runtime,
                implicit: false,
            };
            let profiles = || {
                vec![
                    AdversaryProfile::BoundedDelay { max_delay: 0 },
                    AdversaryProfile::BoundedDelay { max_delay: 2 },
                    AdversaryProfile::BoundedDelay { max_delay: 8 },
                    AdversaryProfile::Crash {
                        permille: 10,
                        horizon: 32,
                    },
                    AdversaryProfile::Crash {
                        permille: 100,
                        horizon: 32,
                    },
                ]
            };
            let mut groups: Vec<JobGroup> = profiles()
                .into_iter()
                .map(|p| group(p, RuntimeKind::Sim))
                .collect();
            groups.extend(profiles().into_iter().map(|p| group(p, RuntimeKind::Async)));
            CampaignSpec {
                name: "resilience".into(),
                graph_seed: WORKLOAD_BASE_SEED,
                groups,
            }
        }
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_expand_and_round_trip() {
        for (name, _) in BUILTIN_CAMPAIGNS {
            for quick in [false, true] {
                let spec = builtin(name, quick).unwrap();
                assert!(!spec.jobs().is_empty(), "{name}");
                let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
                assert_eq!(back, spec, "{name} quick={quick}");
                assert_eq!(back.hash(), spec.hash());
            }
        }
        assert!(builtin("no-such-campaign", false).is_none());
    }

    #[test]
    fn table1_grid_shape_matches_legacy_sweep() {
        let spec = builtin("table1", true).unwrap();
        let jobs = spec.jobs();
        // Every registry algorithm × 4 families × 2 quick sizes.
        assert_eq!(jobs.len(), Algorithm::ALL.len() * 4 * 2);
        assert!(jobs
            .iter()
            .all(|j| j.group.diameter == DiameterMode::Exact && j.group.trials == 3));
    }

    #[test]
    fn quick_and_full_specs_hash_differently() {
        let full = builtin("engine-scale", false).unwrap();
        let quick = builtin("engine-scale", true).unwrap();
        assert_ne!(full.hash(), quick.hash());
    }

    #[test]
    fn spec_parser_rejects_bad_input() {
        use crate::json::Json;
        let bad_alg = r#"{"name":"x","groups":[{"algorithms":["nope"],"families":["cycle"],"sizes":[10],"trials":1}]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(bad_alg).unwrap()).is_err());
        let bad_family = r#"{"name":"x","groups":[{"algorithms":["floodmax"],"families":["nope"],"sizes":[10],"trials":1}]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(bad_family).unwrap()).is_err());
        let zero_trials = r#"{"name":"x","groups":[{"algorithms":["floodmax"],"families":["cycle"],"sizes":[10],"trials":0}]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(zero_trials).unwrap()).is_err());
        let empty = r#"{"name":"x","groups":[]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(empty).unwrap()).is_err());
        // Seeds above 2^53 would be silently rounded by the f64 JSON
        // round trip; the parser must refuse rather than corrupt.
        let big_seed = r#"{"name":"x","graph_seed":9007199254740993,
            "groups":[{"algorithms":["floodmax"],"families":["cycle"],"sizes":[10],"trials":1}]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(big_seed).unwrap()).is_err());
    }

    #[test]
    fn threads_field_round_trips_and_rejects_zero() {
        let text = r#"{"name":"t","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],
            "trials":1,"timed":true,"threads":4}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(spec.groups[0].threads, Some(4));
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let zero = r#"{"name":"t","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],
            "trials":1,"threads":0}]}"#;
        assert!(CampaignSpec::from_json(&Json::parse(zero).unwrap()).is_err());
        let absurd = r#"{"name":"t","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],
            "trials":1,"threads":100000}]}"#;
        let err = CampaignSpec::from_json(&Json::parse(absurd).unwrap()).unwrap_err();
        assert!(err.to_string().contains("sane thread count"), "{err}");
    }

    #[test]
    fn omitted_threads_keeps_legacy_serialization_stable() {
        // Specs that never mention the knob must serialize (and therefore
        // hash) exactly as they did before it existed — baselines and
        // golden fixtures recorded pre-knob stay comparable.
        let spec = builtin("table1", true).unwrap();
        assert!(spec.groups.iter().all(|g| g.threads.is_none()));
        assert!(!spec.to_json().compact().contains("threads"));
    }

    #[test]
    fn runtime_field_round_trips_and_validates() {
        let text = r#"{"name":"r","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],
            "trials":1,"runtime":"async"}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(spec.groups[0].runtime, RuntimeKind::Async);
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // `"sim"` is accepted explicitly and is the default.
        let explicit = text.replace("async", "sim");
        let spec = CampaignSpec::from_json(&Json::parse(&explicit).unwrap()).unwrap();
        assert_eq!(spec.groups[0].runtime, RuntimeKind::Sim);
        // Unknown runtimes are refused.
        let bad = text.replace("async", "tokio");
        let err = CampaignSpec::from_json(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.to_string().contains("sim | async"), "{err}");
        // Async + adversary is a supported combination: fates are a pure
        // function of the seed and the edge, not of runtime scheduling.
        let combined = r#"{"name":"r","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],"trials":1,
            "runtime":"async","adversary":{"kind":"bounded-delay","max_delay":2}}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(combined).unwrap()).unwrap();
        assert_eq!(spec.groups[0].runtime, RuntimeKind::Async);
        assert_eq!(
            spec.groups[0].adversary,
            AdversaryProfile::BoundedDelay { max_delay: 2 }
        );
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn implicit_field_round_trips_and_defaults_off() {
        let text = r#"{"name":"i","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],
            "trials":1,"timed":true,"implicit":true}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        assert!(spec.groups[0].implicit);
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Specs that never mention the knob serialize without it, so
        // legacy files and their hashes stay byte-stable.
        let spec = builtin("table1", true).unwrap();
        assert!(spec.groups.iter().all(|g| !g.implicit));
        assert!(!spec.to_json().compact().contains("implicit"));
        // The full engine-scale grid carries the implicit headline cell.
        let full = builtin("engine-scale", false).unwrap();
        assert!(full.groups.iter().any(|g| g.implicit));
        assert!(full.to_json().compact().contains("\"implicit\":true"));
    }

    #[test]
    fn omitted_runtime_keeps_legacy_serialization_stable() {
        // Pre-runtime specs must serialize (and hash) byte-identically:
        // the sim runtime is the default and is never emitted.
        let spec = builtin("engine-scale", true).unwrap();
        assert!(spec.groups.iter().all(|g| g.runtime == RuntimeKind::Sim));
        assert!(!spec.to_json().compact().contains("runtime"));
    }

    #[test]
    fn adversary_profiles_round_trip_and_validate() {
        let text = r#"{"name":"a","groups":[
            {"algorithms":["floodmax"],"families":["cycle"],"sizes":[16],"trials":1,
             "adversary":{"kind":"bounded-delay","max_delay":2}},
            {"algorithms":["floodmax"],"families":["cycle"],"sizes":[16],"trials":1,
             "adversary":{"kind":"crash","permille":100,"horizon":32}},
            {"algorithms":["floodmax"],"families":["cycle"],"sizes":[16],"trials":1,
             "adversary":{"kind":"lockstep"}}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(
            spec.groups[0].adversary,
            AdversaryProfile::BoundedDelay { max_delay: 2 }
        );
        assert_eq!(
            spec.groups[1].adversary,
            AdversaryProfile::Crash {
                permille: 100,
                horizon: 32
            }
        );
        assert_eq!(spec.groups[2].adversary, AdversaryProfile::Lockstep);
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        // Profile names are stable (compare matches on them).
        assert_eq!(spec.groups[0].adversary.name(), "delay-2");
        assert_eq!(spec.groups[1].adversary.name(), "crash-100pm-32r");
        assert_eq!(spec.groups[2].adversary.name(), "lockstep");
        // Bad inputs are refused with a useful message.
        for bad in [
            r#"{"kind":"nope"}"#,
            r#"{"kind":"bounded-delay"}"#,
            r#"{"kind":"crash","permille":1001,"horizon":4}"#,
            r#"{"kind":"crash","permille":10,"horizon":0}"#,
        ] {
            let spec_text = format!(
                r#"{{"name":"b","groups":[{{"algorithms":["floodmax"],"families":["cycle"],
                    "sizes":[16],"trials":1,"adversary":{bad}}}]}}"#
            );
            assert!(
                CampaignSpec::from_json(&Json::parse(&spec_text).unwrap()).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn omitted_adversary_keeps_legacy_serialization_stable() {
        // Pre-adversary specs must serialize (and hash) byte-identically:
        // lockstep is the default and is never emitted.
        let spec = builtin("table1", true).unwrap();
        assert!(spec
            .groups
            .iter()
            .all(|g| g.adversary == AdversaryProfile::Lockstep));
        assert!(!spec.to_json().compact().contains("adversary"));
    }

    #[test]
    fn resilience_campaign_shape() {
        let spec = builtin("resilience", true).unwrap();
        // 5 execution models × 2 runtimes × 3 algorithms × 3 families ×
        // 1 quick size.
        assert_eq!(spec.jobs().len(), 5 * 2 * 3 * 3);
        let expected_profiles = vec![
            "delay-0",
            "delay-2",
            "delay-8",
            "crash-10pm-32r",
            "crash-100pm-32r",
        ];
        let (sim, asynch): (Vec<_>, Vec<_>) = spec
            .groups
            .iter()
            .partition(|g| g.runtime == RuntimeKind::Sim);
        for half in [&sim, &asynch] {
            let profiles: Vec<String> = half.iter().map(|g| g.adversary.name()).collect();
            assert_eq!(profiles, expected_profiles);
        }
        assert!(spec.groups.iter().all(|g| !g.timed && g.threads.is_none()));
    }

    #[test]
    fn crash_profile_materializes_per_trial_schedules() {
        let p = AdversaryProfile::Crash {
            permille: 500,
            horizon: 8,
        };
        let a = p.materialize(1, 100);
        assert_eq!(a, p.materialize(1, 100), "deterministic in the trial");
        assert_ne!(a, p.materialize(2, 100), "trials sample fresh crashes");
        match a {
            ule_sim::Adversary::CrashStop { schedule } => {
                assert!(!schedule.is_empty());
                assert!(schedule
                    .iter()
                    .all(|&(v, r)| v < 100 && (1..=8).contains(&r)));
            }
            other => panic!("expected CrashStop, got {other:?}"),
        }
        assert_eq!(
            AdversaryProfile::Lockstep.materialize(0, 10),
            ule_sim::Adversary::Lockstep
        );
        assert_eq!(
            AdversaryProfile::BoundedDelay { max_delay: 3 }.materialize(0, 10),
            ule_sim::Adversary::BoundedDelay { max_delay: 3 }
        );
    }

    #[test]
    fn modes_default_and_parse() {
        let text = r#"{"name":"m","groups":[{
            "algorithms":["floodmax"],"families":["cycle"],"sizes":[16],"trials":2,
            "diameter":"upper-bound","knowledge":"n-and-diameter","wakeup":"single-source","timed":true}]}"#;
        let spec = CampaignSpec::from_json(&Json::parse(text).unwrap()).unwrap();
        let g = &spec.groups[0];
        assert_eq!(g.diameter, DiameterMode::UpperBound);
        assert_eq!(g.knowledge, KnowledgeMode::NAndDiameter);
        assert_eq!(g.wakeup, WakeupMode::SingleSource);
        assert!(g.timed);
        assert_eq!(spec.graph_seed, WORKLOAD_BASE_SEED);
    }
}
