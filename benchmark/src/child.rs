//! One run, in a process of its own: set-up, the run, verification, and a
//! one-line JSON report on stdout. The parent only waits for it.
//!
//! An untraced child runs the program the way a `ule-xp run` user does and
//! reports the end-to-end timings. A traced child runs the same inputs
//! through the [`crate::trace`] decorators and the [`crate::replay`]
//! kernels and reports the per-layer numbers; it also holds the
//! in-process checks that need two full `RunOutcome`s side by side.

use crate::procstat::{peak_rss_mib, rss_mib};
use crate::replay;
use crate::trace::{take_counters, Counted, Recorder, Traced};
use crate::workloads::{self, Cell, Inputs, Kind, Topo, Workload, THREADS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use ule_core::baseline::FloodMax;
use ule_core::dfs_agent::DfsAgent;
use ule_core::Algorithm;
use ule_graph::gen::{fnv1a64, workload_graph, FNV_OFFSET_BASIS};
use ule_graph::{analysis, IdAssignment, IdSpace, NodeId, Topology};
use ule_sim::harness::{parallel_trials, Summary};
use ule_sim::{
    Adversary, AsyncRuntime, Knowledge, NodeSetup, Parallelism, Protocol, RunOutcome, Runner,
    RuntimeKind, SimConfig, Termination,
};
use ule_xp::json::Json;
use ule_xp::spec::{AdversaryProfile, DiameterMode, KnowledgeMode, WakeupMode};
use ule_xp::{CampaignResult, CampaignSpec, CellResult, RunMeta, Tolerances, Verdict};

/// What the parent asked this child to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Size divisor: 1, or [`workloads::SMOKE_DIV`] under `--smoke`.
    pub div: usize,
    pub traced: bool,
    pub run_id: u64,
    pub out_dir: String,
}

/// The simulated statistics of a run: exact, and identical on every commit
/// that claims only speed. `witness` is the leader's node index for a
/// cell, and a digest of per-cell `(mean_rounds, mean_messages)` for the
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Simulated {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub witness: u64,
}

/// A child's report: named numbers, plus the verdict of its own checks.
#[derive(Debug, Default)]
struct Report {
    values: Vec<(String, f64)>,
    errors: Vec<String>,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.into(), value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn simulated(&mut self, sim: Simulated) {
        self.set("rounds", sim.rounds as f64);
        self.set("messages", sim.messages as f64);
        self.set("bits", sim.bits as f64);
        self.set("witness", sim.witness as f64);
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ok".into(), Json::Bool(self.errors.is_empty())),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "values".into(),
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Entry point of `--child`: runs, prints the report line, and returns
/// whether the run itself could be carried out (a failed *check* is a
/// report with `ok: false`, not an error here).
pub fn main(args: &ChildArgs) -> Result<(), String> {
    let workload = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut report = Report::default();
    match (&workload.kind, args.traced) {
        (Kind::Cell(cell), false) => cell_untraced(cell, args, &mut report)?,
        (Kind::Cell(cell), true) => cell_traced(&workload, cell, args, &mut report)?,
        (Kind::Sweep, false) => sweep_untraced(args, &mut report)?,
        (Kind::Sweep, true) => sweep_traced(&workload, args, &mut report)?,
    }
    if let Some(peak) = peak_rss_mib() {
        report.set("peak_rss_mib", peak);
    }
    println!("{}", report.to_json().compact());
    Ok(())
}

// ---------------------------------------------------------------- cells

fn dfs_agent(setup: &NodeSetup) -> DfsAgent {
    DfsAgent::new(
        setup.id.expect("DFS agents require unique identifiers"),
        setup.degree,
        false,
    )
}

/// `Runner::new(..).runtime(kind).run(factory)` — the call `run_on`
/// forwards to — except that the async pool is pinned to [`THREADS`]
/// workers instead of following the host's core count.
fn drive<T, P, F>(cell: &Cell, topo: &T, cfg: &SimConfig, factory: F) -> RunOutcome
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    match cell.runtime {
        RuntimeKind::Sim => Runner::new(topo, cfg).run(factory),
        RuntimeKind::Async => {
            AsyncRuntime::new()
                .with_workers(THREADS)
                .without_trace()
                .run(topo, cfg, factory)
                .outcome
        }
    }
}

/// Runs the cell from the public protocol structs, decorated or not.
fn run_from_structs<T: Topology>(
    cell: &Cell,
    topo: &T,
    cfg: &SimConfig,
    traced: bool,
) -> RunOutcome {
    match (cell.algorithm, traced) {
        (Algorithm::FloodMax, false) => drive(cell, topo, cfg, |_, _, _| FloodMax::new()),
        (Algorithm::FloodMax, true) => drive(cell, topo, cfg, |_, _, _| Traced(FloodMax::new())),
        (Algorithm::DfsAgent, false) => drive(cell, topo, cfg, |_, s, _| dfs_agent(s)),
        (Algorithm::DfsAgent, true) => drive(cell, topo, cfg, |_, s, _| Traced(dfs_agent(s))),
        (other, _) => panic!("no protocol constructor wired for {other}"),
    }
}

/// The untimed-by-tracing run a user gets: `Algorithm::run_on` on the
/// engine; on the async runtime the same call with the pool pinned.
fn run_plain<T: Topology>(cell: &Cell, topo: &T, cfg: &SimConfig) -> RunOutcome {
    match cell.runtime {
        RuntimeKind::Sim => cell.algorithm.run_on(RuntimeKind::Sim, topo, cfg),
        RuntimeKind::Async => run_from_structs(cell, topo, cfg, false),
    }
}

/// `witness` of an outcome without a unique leader (reports travel as
/// JSON numbers, so it has to be exactly representable).
const NO_LEADER: u64 = (1 << 53) - 1;

fn simulated_of(out: &RunOutcome) -> Simulated {
    Simulated {
        rounds: out.rounds,
        messages: out.messages,
        bits: out.bits,
        witness: out.leader().map_or(NO_LEADER, |v| v as u64),
    }
}

/// The property checks every cell outcome must pass.
fn verify_outcome(out: &RunOutcome, inputs: &Inputs, report: &mut Report) {
    report.check(out.election_succeeded(), || {
        format!(
            "election failed: {} leaders, {} undecided",
            out.leader_count(),
            out.undecided_count()
        )
    });
    report.check(out.leader() == Some(inputs.expected_leader), || {
        format!(
            "leader {:?}, expected node {}",
            out.leader(),
            inputs.expected_leader
        )
    });
    report.check(out.congest_violations == 0, || {
        format!("{} CONGEST violations", out.congest_violations)
    });
    report.check(out.termination == Termination::Quiescent, || {
        format!("terminated {:?}, expected Quiescent", out.termination)
    });
}

fn cell_untraced(cell: &Cell, args: &ChildArgs, report: &mut Report) -> Result<(), String> {
    let mut rec = Recorder::default();
    let inputs = rec.span("setup", |rec| cell.setup(args.seed, args.div, rec))?;
    report.set("setup_s", rec.total("setup"));
    if let Some(rss) = rss_mib() {
        report.set("rss_setup_mib", rss);
    }
    let out = rec.span("run", |_| match &inputs.topo {
        Topo::Csr(g) => run_plain(cell, g, &inputs.cfg),
        Topo::Implicit(t) => run_plain(cell, t, &inputs.cfg),
    });
    report.set("run_s", rec.total("run"));
    verify_outcome(&out, &inputs, report);
    report.simulated(simulated_of(&out));
    Ok(())
}

fn cell_traced(
    workload: &Workload,
    cell: &Cell,
    args: &ChildArgs,
    report: &mut Report,
) -> Result<(), String> {
    let mut rec = Recorder::default();
    rec.span("child", |rec| {
        let inputs = rec.span("setup", |rec| cell.setup(args.seed, args.div, rec))?;
        report.set("graph.gen.build_s", rec.total("graph.gen.build"));
        report.set(
            "graph.analysis.diameter_s",
            rec.total("graph.analysis.diameter"),
        );
        report.set("graph.ids.sample_s", rec.total("graph.ids.sample"));
        match &inputs.topo {
            Topo::Csr(g) => cell_traced_on(cell, g, &inputs, rec, report),
            Topo::Implicit(t) => cell_traced_on(cell, t, &inputs, rec, report),
        }
        Ok::<(), String>(())
    })?;
    write_trace(&rec, workload.name, args)
}

fn cell_traced_on<T: Topology>(
    cell: &Cell,
    topo: &T,
    inputs: &Inputs,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let cfg = &inputs.cfg;
    // The inline-engine run of the same input: what the sharded and async
    // outcomes must equal, and the base of their ratios. On the inline
    // workloads it is simply the untraced run, to compare the traced
    // outcome against in full.
    let inline_cfg = cfg.clone().with_parallelism(Parallelism::Off);
    let reference = rec.span("reference.inline", |_| {
        cell.algorithm.run_on(RuntimeKind::Sim, topo, &inline_cfg)
    });
    report.set("reference.inline_s", rec.total("reference.inline"));

    take_counters();
    let counted = Counted(topo);
    let out = rec.span("sim.runner.run", |_| {
        run_from_structs(cell, &counted, cfg, true)
    });
    let counters = take_counters();
    rec.aggregate(
        "sim.runner.run",
        "core.protocol.on_round",
        counters.steps,
        counters.on_round_ns,
    );
    report.check(out == reference, || {
        "traced outcome differs from the inline-engine reference run".into()
    });
    verify_outcome(&out, inputs, report);
    report.simulated(simulated_of(&out));

    let summary = rec.span("sim.harness.summary", |_| {
        Summary::from_outcomes(std::slice::from_ref(&out))
    });
    report.set("sim.harness.summary_s", rec.total("sim.harness.summary"));

    let run_s = rec.total("sim.runner.run");
    let on_round_s = rec.total("core.protocol.on_round");
    let self_s = rec.self_time("sim.runner.run");
    let steps = counters.steps as f64;
    let active_rounds = out.round_totals.len() as f64;
    report.set("sim.runner.run_s", run_s);
    if cell.runtime == RuntimeKind::Async {
        report.set("sim.rt.run_s", run_s);
    }
    report.set("core.protocol.steps", steps);
    report.set("core.protocol.on_round_s", on_round_s);
    report.set(
        "core.protocol.on_round_ns",
        on_round_s * 1e9 / steps.max(1.0),
    );
    report.set(
        "core.protocol.inbox_msgs_per_step",
        counters.inbox_msgs as f64 / steps.max(1.0),
    );
    report.set("core.registry.rounds", out.rounds as f64);
    report.set("core.registry.messages", out.messages as f64);
    report.set("core.registry.bits", out.bits as f64);
    report.set("core.registry.success_frac", summary.success_rate());
    report.set("sim.engine.self_s", self_s);
    report.set(
        "sim.engine.self_ns_per_msg",
        self_s * 1e9 / (out.messages as f64).max(1.0),
    );
    report.set(
        "sim.engine.steps_per_active_round",
        steps / active_rounds.max(1.0),
    );
    report.set(
        "sim.engine.self_us_per_active_round",
        self_s * 1e6 / active_rounds.max(1.0),
    );
    report.set("sim.engine.self_ns_per_step", self_s * 1e9 / steps.max(1.0));
    report.set("graph.topo.endpoint_calls", counters.endpoint_calls as f64);
    let mut tally = Tally::default();
    tally.add(&out);
    tally.report(&cfg.adversary, report);

    rec.span("replay", |_| {
        replays(topo, cfg, out.messages, active_rounds, report)
    });
}

/// Counts summed over the outcomes of a traced pass. All exact: the
/// engine derives a fate per send unless the adversary is the lockstep
/// identity, and only late deliveries travel through the calendar queue.
#[derive(Debug, Default)]
struct Tally {
    trials: u64,
    messages: u64,
    active_rounds: u64,
    congest_violations: u64,
    dropped: u64,
    late_deliveries: u64,
}

impl Tally {
    fn add(&mut self, out: &RunOutcome) {
        self.trials += 1;
        self.messages += out.messages;
        self.active_rounds += out.round_totals.len() as u64;
        self.congest_violations += out.congest_violations;
        self.dropped += out.messages_dropped;
        self.late_deliveries += out.late_deliveries.iter().map(|&(_, c)| c).sum::<u64>();
    }

    fn report(&self, adversary: &Adversary, report: &mut Report) {
        let fate_calls = if *adversary == Adversary::Lockstep {
            0
        } else {
            self.messages
        };
        report.set("sim.harness.trials", self.trials as f64);
        report.set("sim.engine.active_rounds", self.active_rounds as f64);
        report.set(
            "sim.exec.congest_violations",
            self.congest_violations as f64,
        );
        report.set("sim.adversary.fate_calls", fate_calls as f64);
        report.set("sim.adversary.dropped", self.dropped as f64);
        report.set("sim.adversary.late_deliveries", self.late_deliveries as f64);
    }
}

fn replays<T: Topology>(
    topo: &T,
    cfg: &SimConfig,
    messages: u64,
    active_rounds: f64,
    report: &mut Report,
) {
    let max_delay = match cfg.adversary {
        Adversary::BoundedDelay { max_delay } => max_delay,
        _ => 0,
    };
    let per_round = (messages as f64 / active_rounds.max(1.0)) as u64;
    report.set("graph.topo.endpoint_ns", replay::endpoint_ns(topo));
    report.set(
        "sim.adversary.fate_ns",
        replay::fate_ns(&cfg.adversary, cfg.seed, topo),
    );
    report.set(
        "sim.calendar.item_ns",
        replay::calendar_item_ns(max_delay, per_round),
    );
    report.set("sim.transport.frame_ns", replay::frame_ns());
}

fn write_trace(rec: &Recorder, workload: &str, args: &ChildArgs) -> Result<(), String> {
    let path = crate::parent::trace_path(&args.out_dir, workload, Some(args.run_id));
    write_file(&path, &rec.to_json(workload, args.run_id).pretty())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------- sweep

/// Checks a campaign result and reports its totals, digest and success
/// tally, which it also returns.
fn check_sweep(cells: &[CellResult], report: &mut Report) -> (Simulated, u64, u64) {
    let mut sim = Simulated {
        rounds: 0,
        messages: 0,
        bits: 0,
        witness: FNV_OFFSET_BASIS,
    };
    let (mut successes, mut trials) = (0, 0);
    for c in cells {
        let t = c.summary.trials as f64;
        sim.rounds += (c.summary.mean_rounds * t).round() as u64;
        sim.messages += (c.summary.mean_messages * t).round() as u64;
        sim.bits += (c.summary.mean_bits * t).round() as u64;
        let line = format!(
            "{}|{}|{:?}|{:?}\n",
            c.algorithm, c.workload, c.summary.mean_rounds, c.summary.mean_messages
        );
        sim.witness = fnv1a64(sim.witness, line.as_bytes());
        successes += c.summary.successes;
        trials += c.summary.trials;
        report.check(c.summary.congest_violations == 0, || {
            format!("{} on {}: CONGEST violations", c.algorithm, c.workload)
        });
        // Monte Carlo algorithms may miss (the coin flip by design); the
        // ones whose claimed success is 1 may not.
        report.check(
            c.algorithm.spec().success != "1" || c.summary.successes == c.summary.trials,
            || {
                format!(
                    "{} on {}: {}/{} elected",
                    c.algorithm, c.workload, c.summary.successes, c.summary.trials
                )
            },
        );
    }
    // Reports travel as JSON numbers: keep the digest exactly representable.
    sim.witness >>= 11;
    report.simulated(sim);
    report.set("successes", successes as f64);
    report.set("trials", trials as f64);
    (sim, successes, trials)
}

fn run_sum(cells: &[CellResult]) -> f64 {
    cells.iter().filter_map(|c| c.elapsed_s).sum()
}

fn execute(spec: &CampaignSpec) -> Result<CampaignResult, String> {
    ule_xp::execute(spec, RunMeta::fixed(), false).map_err(|e| e.to_string())
}

fn sweep_untraced(args: &ChildArgs, report: &mut Report) -> Result<(), String> {
    let start = Instant::now();
    let spec = workloads::sweep_spec(args.seed, args.div)?;
    if let Some(rss) = rss_mib() {
        report.set("rss_setup_mib", rss);
    }
    let result = execute(&spec)?;
    let wall = start.elapsed().as_secs_f64();
    let run_s = run_sum(&result.cells);
    report.set("run_s", run_s);
    report.set("setup_s", wall - run_s);
    // The result file is part of what a `ule-xp run` user waits for.
    let path = Path::new(&args.out_dir).join("table1-sweep-result.json");
    write_file(&path, &result.to_json().pretty())?;
    check_sweep(&result.cells, report);
    Ok(())
}

/// The config `ule-xp` builds for a cell of a default-regime group (exact
/// diameter, algorithm-default knowledge, simultaneous wakeup, inline
/// engine, lockstep). The traced sweep checks every cell it runs from this
/// against the cell `execute` produced, so a drift cannot go unnoticed.
fn sweep_cell_config(alg: Algorithm, n: usize, d: usize, trial: u64) -> SimConfig {
    let spec = alg.spec();
    let mut cfg = SimConfig::seeded(trial).with_parallelism(Parallelism::Off);
    if alg == Algorithm::DfsAgent {
        cfg = cfg.with_max_rounds(u64::MAX / 4);
    }
    cfg.knowledge = Knowledge {
        n: spec.needs_n.then_some(n),
        m: None,
        diameter: spec.needs_diameter.then_some(d),
    };
    if spec.needs_ids {
        cfg = cfg.with_ids(if alg == Algorithm::DfsAgent {
            IdAssignment::sequential(n)
        } else {
            let mut rng = StdRng::seed_from_u64(trial ^ 0x1D5);
            IdSpace::standard(n).sample(n, &mut rng)
        });
    }
    cfg
}

fn sweep_traced(workload: &Workload, args: &ChildArgs, report: &mut Report) -> Result<(), String> {
    let spec = workloads::sweep_spec(args.seed, args.div)?;
    let mut rec = Recorder::default();
    rec.span("child", |rec| {
        let result = rec.span("xp.execute", |_| execute(&spec))?;
        let text = rec.span("xp.json.emit", |_| result.to_json().pretty());
        let parsed = rec.span("xp.json.parse", |_| Json::parse(&text))?;
        let verdict = rec.span("xp.compare", |_| {
            let cells = ule_xp::parse_cells(&parsed).map_err(|e| e.to_string())?;
            Ok::<_, String>(ule_xp::compare(&cells, &cells, &Tolerances::default()).verdict())
        })?;
        report.check(verdict == Verdict::Pass, || {
            format!("the result compared against itself is {verdict}")
        });
        let (sim, successes, trials) = check_sweep(&result.cells, report);

        let execute_s = rec.total("xp.execute");
        report.set("xp.execute_s", execute_s);
        report.set("xp.cells", result.cells.len() as f64);
        report.set("xp.cells_per_s", result.cells.len() as f64 / execute_s);
        report.set("xp.json.emit_s", rec.total("xp.json.emit"));
        report.set("xp.json.parse_s", rec.total("xp.json.parse"));
        report.set("xp.json.bytes", text.len() as f64);
        report.set("xp.compare_s", rec.total("xp.compare"));
        report.set("core.registry.rounds", sim.rounds as f64);
        report.set("core.registry.messages", sim.messages as f64);
        report.set("core.registry.bits", sim.bits as f64);
        report.set(
            "core.registry.success_frac",
            successes as f64 / trials.max(1) as f64,
        );
        for (alg, secs) in per_algorithm_seconds(&result.cells) {
            report.set(&format!("xp.algorithm_s/{alg}"), secs);
        }

        rec.span("cells", |rec| {
            sweep_cell_by_cell(&spec, &result, rec, report)
        })
    })?;
    write_trace(&rec, workload.name, args)
}

/// Σ `elapsed_s` per algorithm, in Table 1 order: the protocol-level rows
/// of the sweep.
fn per_algorithm_seconds(cells: &[CellResult]) -> Vec<(Algorithm, f64)> {
    Algorithm::ALL
        .into_iter()
        .map(|alg| {
            let secs = cells
                .iter()
                .filter(|c| c.algorithm == alg)
                .filter_map(|c| c.elapsed_s)
                .sum();
            (alg, secs)
        })
        .collect()
}

/// The campaign again, cell by cell from the public pieces `execute` is
/// made of, with a span around each: graph build, exact diameter, the
/// trial fan-out (identifier sampling timed inside it), the summary. Every
/// cell must reproduce the summary `execute` reported.
fn sweep_cell_by_cell(
    spec: &CampaignSpec,
    result: &CampaignResult,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let ids_ns = AtomicU64::new(0);
    let mut expected = result.cells.iter();
    let mut tally = Tally::default();
    let mut last_graph = None;
    take_counters();
    for group in &spec.groups {
        let default_regime = group.diameter == DiameterMode::Exact
            && group.knowledge == KnowledgeMode::AlgorithmDefault
            && group.wakeup == WakeupMode::Simultaneous
            && group.threads.is_none()
            && group.adversary == AdversaryProfile::Lockstep
            && group.runtime == RuntimeKind::Sim
            && !group.implicit;
        if !default_regime {
            return Err("the traced sweep covers default-regime groups only".into());
        }
        for &family in &group.families {
            for &n in &group.sizes {
                let g = rec
                    .span("graph.gen.build", |_| {
                        workload_graph(spec.graph_seed, family, n)
                    })
                    .map_err(|e| format!("cell {family}/{n}: {e}"))?;
                let d = rec
                    .span("graph.analysis.diameter", |_| analysis::diameter_exact(&g))
                    .ok_or_else(|| format!("cell {family}/{n}: disconnected"))?
                    .max(1) as usize;
                let counted = Counted(&g);
                for &alg in &group.algorithms {
                    let outs = rec.span("sim.runner.run", |_| {
                        parallel_trials(group.trials, |t| {
                            let start = Instant::now();
                            let cfg = sweep_cell_config(alg, g.len(), d, t);
                            ids_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            alg.run_on(RuntimeKind::Sim, &counted, &cfg)
                        })
                    });
                    let summary =
                        rec.span("sim.harness.summary", |_| Summary::from_outcomes(&outs));
                    let cell = expected
                        .next()
                        .ok_or("more cells than `execute` reported")?;
                    report.check(cell.summary == summary, || {
                        format!(
                            "{alg} on {family}/{n}: cell-by-cell summary differs from `execute`"
                        )
                    });
                    outs.iter().for_each(|o| tally.add(o));
                }
                last_graph = Some(g);
            }
        }
    }
    report.check(expected.next().is_none(), || {
        "fewer cells than `execute` reported".into()
    });
    let counters = take_counters();
    rec.aggregate(
        "cells",
        "graph.ids.sample",
        tally.trials,
        ids_ns.load(Ordering::Relaxed),
    );

    report.set("graph.gen.build_s", rec.total("graph.gen.build"));
    report.set(
        "graph.analysis.diameter_s",
        rec.total("graph.analysis.diameter"),
    );
    report.set("graph.ids.sample_s", rec.total("graph.ids.sample"));
    report.set("graph.topo.endpoint_calls", counters.endpoint_calls as f64);
    report.set("sim.runner.run_s", rec.total("sim.runner.run"));
    report.set("sim.harness.summary_s", rec.total("sim.harness.summary"));
    tally.report(&Adversary::Lockstep, report);
    // Replays run over the sweep's last — largest, densest — graph.
    if let Some(g) = last_graph {
        let cfg = SimConfig::seeded(spec.graph_seed);
        rec.span("replay", |_| {
            replays(&g, &cfg, tally.messages, tally.active_rounds as f64, report)
        });
    }
    Ok(())
}
