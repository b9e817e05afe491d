//! The parent: launches one fresh child per run, waits, and turns the
//! children's reports into samples, tables and the result line. It is a
//! closed loop with one client — the next child starts when the previous
//! one has been reaped — and it never measures anything itself except how
//! long a child took from spawn to exit.

use crate::child::Simulated;
use crate::metrics::{is_exact_count, EndToEnd, Layer, END_TO_END, PER_LAYER};
use crate::workloads::{Kind, Workload, DEFAULT_SEED, SCALE, SMOKE_DIV};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use ule_xp::json::Json;

/// Fewest timed children per workload when `--repeats` is not given.
const MIN_REPEATS: usize = 5;

/// Most traced children per workload.
const TRACED_REPEATS: usize = 5;

/// `trace-<workload>.json` in `out_dir`; with a run id, the file a traced
/// child writes before the parent has chosen among them.
pub fn trace_path(out_dir: &str, workload: &str, run_id: Option<u64>) -> PathBuf {
    let run = run_id.map_or(String::new(), |id| format!(".run{id}"));
    Path::new(out_dir).join(format!("trace-{workload}{run}.json"))
}

/// Pinned simulated statistics at [`DEFAULT_SEED`] and full [`SCALE`].
const EXPECT: &str = include_str!("../expect.json");

/// Which passes an invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    /// Timed children, then the traced child (no `--trace` flag).
    Both,
    /// `--trace 0`: timed children only.
    Timed,
    /// `--trace 1`: the traced child, after the fewest timed children that
    /// give its ratios a base.
    Traced,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub repeats: Option<usize>,
    pub seconds: f64,
    pub passes: Passes,
    pub smoke: bool,
    pub sets: usize,
    pub out_dir: String,
}

impl Options {
    fn div(&self) -> usize {
        if self.smoke {
            SMOKE_DIV
        } else {
            1
        }
    }
}

/// One child's report, as the parent sees it.
#[derive(Debug, Default)]
struct ChildReport {
    errors: Vec<String>,
    values: BTreeMap<String, f64>,
    /// Spawn to exit, measured here.
    wall_s: f64,
}

impl ChildReport {
    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    fn simulated(&self) -> Option<Simulated> {
        Some(Simulated {
            rounds: self.get("rounds")? as u64,
            messages: self.get("messages")? as u64,
            bits: self.get("bits")? as u64,
            witness: self.get("witness")? as u64,
        })
    }
}

/// Runs one child to completion. A child that dies, or whose last line is
/// not a report, is a failed run with the reason recorded.
fn run_child(opts: &Options, w: &Workload, traced: bool, run_id: u64) -> ChildReport {
    let fail = |why: String| ChildReport {
        errors: vec![why],
        ..ChildReport::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot find own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--div", &opts.div().to_string()])
        .args(["--run-id", &run_id.to_string()])
        .args(["--out", &opts.out_dir])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let start = Instant::now();
    let output = match cmd.output() {
        Ok(output) => output,
        Err(e) => return fail(format!("cannot start child: {e}")),
    };
    let wall_s = start.elapsed().as_secs_f64();
    if !output.status.success() {
        return fail(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(json) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
        return fail("child printed no report".into());
    };
    let mut report = ChildReport {
        wall_s,
        ..ChildReport::default()
    };
    for e in json.get("errors").and_then(Json::as_arr).unwrap_or(&[]) {
        report.errors.push(e.as_str().unwrap_or("?").to_string());
    }
    if let Some(Json::Obj(values)) = json.get("values") {
        for (k, v) in values {
            if let Some(x) = v.as_f64() {
                report.values.insert(k.clone(), x);
            }
        }
    }
    report
}

/// Everything one set of runs of one workload produced.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Samples per end-to-end metric, one per successful timed child.
    pub end_to_end: Vec<(EndToEnd, Vec<f64>)>,
    /// Per-layer values (`None` where the metric is not observed on this
    /// workload); empty when no traced child ran.
    pub layers: Vec<(Layer, Option<f64>)>,
    /// Σ `elapsed_s` per algorithm, `table1-sweep` only.
    pub algorithm_s: Vec<(String, f64)>,
    pub simulated: Option<Simulated>,
    /// Sweep only: elected ÷ trials.
    pub successes: Option<(u64, u64)>,
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value an invocation reports for metric `m` of workload `w`: the
/// best of its samples when the workload runs one thread, their median
/// when it runs two.
///
/// Interference on a shared box only ever slows a run down, and it comes
/// in phases longer than a child. With one thread the floor is reached
/// whenever the vCPU is left alone for one run, so the best sample follows
/// the program while the median follows the neighbours (`agent-path`
/// `run_s`, spread between back-to-back invocations on the reference box:
/// median 15 %, minimum 4 %). With two threads the floor needs both vCPUs
/// left alone at once, which is rare enough that the minimum is the noisy
/// statistic (`sharded-torus`: minimum 26 %, median 6 %). Both are printed.
pub fn reported(w: &Workload, m: &EndToEnd, samples: &[f64]) -> f64 {
    let (lo, hi) = min_max(samples);
    // Set-up runs on one thread in every workload.
    let two_threads = w.threads() > 1 && m.name != "setup_s";
    match (samples.is_empty(), two_threads, m.lower_is_better) {
        (true, _, _) => f64::NAN,
        (false, true, _) => median(samples),
        (false, false, true) => lo,
        (false, false, false) => hi,
    }
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

impl WorkloadResult {
    /// Reported `run_s` of the untraced children: the base of every ratio
    /// the traced child's numbers are put against.
    fn base_run_s(&self) -> f64 {
        self.end_to_end
            .iter()
            .find(|(m, _)| m.name == "run_s")
            .map_or(f64::NAN, |(m, v)| reported(&self.workload, m, v))
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The pinned statistics of `workload`, when this invocation runs the
/// inputs they were recorded on.
fn expected(opts: &Options, workload: &str) -> Option<(Simulated, Option<(u64, u64)>)> {
    if opts.seed != DEFAULT_SEED || opts.smoke {
        return None;
    }
    let json = Json::parse(EXPECT).ok()?;
    let w = json.get("workloads")?.get(workload)?;
    let num = |k: &str| w.get(k).and_then(Json::as_u64);
    let sim = Simulated {
        rounds: num("rounds")?,
        messages: num("messages")?,
        bits: num("bits")?,
        witness: num("witness")?,
    };
    Some((sim, num("successes").zip(num("trials"))))
}

/// Runs one set of one workload: the timed children, then the traced ones.
pub fn run_workload(opts: &Options, w: &Workload) -> WorkloadResult {
    let mut result = WorkloadResult {
        workload: w.clone(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        end_to_end: END_TO_END.iter().map(|m| (*m, Vec::new())).collect(),
        layers: Vec::new(),
        algorithm_s: Vec::new(),
        simulated: None,
        successes: None,
    };
    let mut reports: Vec<ChildReport> = Vec::new();

    let repeats = match opts.repeats {
        Some(r) => r,
        None if opts.smoke => 1,
        None => MIN_REPEATS,
    };
    let keep_going = |done: usize, elapsed: f64| {
        done < repeats
            || (opts.passes != Passes::Traced
                && opts.repeats.is_none()
                && !opts.smoke
                && elapsed < opts.seconds)
    };
    eprintln!("[{}] timed children ...", w.name);
    let start = Instant::now();
    let mut untraced = Vec::new();
    while keep_going(untraced.len(), start.elapsed().as_secs_f64()) {
        untraced.push(run_child(opts, w, false, untraced.len() as u64));
    }
    // The untraced children's samples: the end-to-end numbers, and the
    // memory split the traced child's tables borrow.
    let mut rss_setup = Vec::new();
    let mut rss_run = Vec::new();
    for r in &untraced {
        let (Some(setup), Some(run), Some(msgs), Some(peak)) = (
            r.get("setup_s"),
            r.get("run_s"),
            r.get("messages"),
            r.get("peak_rss_mib"),
        ) else {
            continue;
        };
        if !r.errors.is_empty() {
            continue;
        }
        for (m, samples) in &mut result.end_to_end {
            samples.push(match m.name {
                "setup_s" => setup,
                "run_s" => run,
                "total_s" => r.wall_s,
                "msgs_per_s" => msgs / run,
                "peak_rss_mib" => peak,
                other => unreachable!("no source for end-to-end metric {other}"),
            });
        }
        if let Some(at_setup) = r.get("rss_setup_mib") {
            rss_setup.push(at_setup);
            rss_run.push(peak - at_setup);
        }
    }
    reports.extend(untraced);

    if opts.passes != Passes::Timed {
        // Several traced children, for the same reason as several timed
        // ones; the per-layer table is the whole report of one of them, so
        // its numbers belong together: the one whose traced run time is
        // the statistic `reported` would pick.
        eprintln!("[{}] traced children ...", w.name);
        let first_id = reports.len() as u64;
        let traced: Vec<ChildReport> = (0..repeats.min(TRACED_REPEATS) as u64)
            .map(|k| run_child(opts, w, true, first_id + k))
            .collect();
        let mut by_run_s: Vec<(usize, f64)> = traced
            .iter()
            .enumerate()
            .filter(|(_, r)| r.errors.is_empty())
            .filter_map(|(k, r)| Some((k, r.get("sim.runner.run_s")?)))
            .collect();
        by_run_s.sort_by(|a, b| a.1.total_cmp(&b.1));
        let pick = if w.threads() > 1 {
            by_run_s.len() / 2
        } else {
            0
        };
        let chosen = by_run_s.get(pick).map(|&(k, _)| k);
        if let Some(k) = chosen {
            let base_run_s = result.base_run_s();
            result.layers = layer_values(w, &traced[k], base_run_s, &rss_setup, &rss_run);
            result.algorithm_s = traced[k]
                .values
                .iter()
                .filter_map(|(k, v)| Some((k.strip_prefix("xp.algorithm_s/")?.to_string(), *v)))
                .collect();
        }
        // Keep the chosen child's trace under the documented name.
        for (k, report) in traced.iter().enumerate() {
            let written = trace_path(&opts.out_dir, w.name, Some(first_id + k as u64));
            let moved = if Some(k) == chosen {
                std::fs::rename(&written, trace_path(&opts.out_dir, w.name, None))
            } else {
                std::fs::remove_file(&written)
            };
            if let (Err(e), true) = (moved, report.errors.is_empty()) {
                result
                    .errors
                    .push(format!("trace file {}: {e}", written.display()));
            }
        }
        reports.extend(traced);
    }

    // Verification: each child's own checks, agreement between all
    // children (traced included) on the simulated statistics, and the
    // pins when the inputs are the pinned ones.
    result.attempted = reports.len() as u64;
    for (i, r) in reports.iter().enumerate() {
        if !r.errors.is_empty() {
            result.failed += 1;
            result
                .errors
                .extend(r.errors.iter().map(|e| format!("run {i}: {e}")));
        }
    }
    let sims: Vec<Simulated> = reports.iter().filter_map(ChildReport::simulated).collect();
    result.simulated = sims.first().copied();
    result.successes = reports
        .iter()
        .find_map(|r| Some((r.get("successes")? as u64, r.get("trials")? as u64)));
    if sims.windows(2).any(|p| p[0] != p[1]) {
        result.failed = result.attempted;
        result.errors.push(format!(
            "runs disagree on the simulated statistics: {sims:?}"
        ));
    }
    if let (Some((want, want_successes)), Some(got)) = (expected(opts, w.name), result.simulated) {
        if want != got || (want_successes.is_some() && want_successes != result.successes) {
            result.failed = result.attempted;
            result.errors.push(format!(
                "simulated statistics moved: pinned {want:?} {want_successes:?}, got {got:?} {:?}",
                result.successes
            ));
        }
    }
    result
}

/// Per-layer values of one workload: the traced child's own numbers, and
/// the ratios that need the untraced children as their base.
fn layer_values(
    w: &Workload,
    traced: &ChildReport,
    base_run_s: f64,
    rss_setup: &[f64],
    rss_run: &[f64],
) -> Vec<(Layer, Option<f64>)> {
    let get = |name: &str| traced.get(name);
    let share = |calls: &str, ns: &str| Some(get(calls)? * get(ns)? * 1e-9 / base_run_s);
    // Fresh untraced process ÷ inline-engine run of the same input inside
    // the traced child (before its traced run, so both start cold).
    let vs_inline = || Some(base_run_s / get("reference.inline_s")?);
    PER_LAYER
        .iter()
        .map(|layer| {
            let value = if !layer.applies(w) {
                None
            } else {
                match layer.name {
                    "trace.overhead_ratio" => get("sim.runner.run_s").map(|t| t / base_run_s),
                    "graph.gen.rss_mib" => Some(median(rss_setup)),
                    "sim.engine.run_rss_mib" => Some(median(rss_run)),
                    "graph.topo.endpoint_share" => {
                        share("graph.topo.endpoint_calls", "graph.topo.endpoint_ns")
                    }
                    "sim.adversary.fate_share" => {
                        share("sim.adversary.fate_calls", "sim.adversary.fate_ns")
                    }
                    "sim.calendar.share" => {
                        share("sim.adversary.late_deliveries", "sim.calendar.item_ns")
                    }
                    "sim.engine.shard_ratio" | "sim.rt.ratio_vs_engine" => vs_inline(),
                    name => get(name),
                }
            };
            (*layer, value)
        })
        .collect()
}

// ------------------------------------------------------------- printing

fn fmt_value(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.6}")
    }
}

/// Prints one workload's tables. Every metric is one line that starts
/// with two spaces, its name, its value and its unit.
pub fn print_workload(opts: &Options, r: &WorkloadResult) {
    let w = &r.workload;
    let what = match &w.kind {
        Kind::Cell(c) => format!(
            "{} on {}/{} ({}{:?}, {:?}, {})",
            c.algorithm,
            c.family,
            c.n(opts.div()),
            if c.implicit { "implicit, " } else { "" },
            c.parallelism,
            c.adversary,
            c.runtime.name()
        ),
        Kind::Sweep => "ule_xp::execute on workloads/table1-sweep.json".into(),
    };
    println!("== {} == {what}; seed {}", w.name, opts.seed);
    if let Some(s) = r.simulated {
        println!(
            "simulated: rounds {} messages {} bits {} witness {}{}",
            s.rounds,
            s.messages,
            s.bits,
            s.witness,
            r.successes
                .map_or(String::new(), |(s, t)| format!(" elected {s}/{t}"))
        );
    }
    if r.end_to_end.iter().any(|(_, v)| !v.is_empty()) {
        println!(
            "end-to-end, untraced children: {} of n [median; min .. max], bound",
            if w.threads() > 1 {
                "median (setup_s: best)"
            } else {
                "best"
            }
        );
        for (m, samples) in &r.end_to_end {
            let (lo, hi) = min_max(samples);
            println!(
                "  {:<38} {:>16} {:<6} [{}; {} .. {}] n={} bound {}%",
                m.name,
                fmt_value(reported(w, m, samples)),
                m.unit,
                fmt_value(median(samples)),
                fmt_value(lo),
                fmt_value(hi),
                samples.len(),
                m.bound * 100.0
            );
        }
    }
    println!(
        "  {:<38} {:>16} {:<6} ({} failed of {} runs) bound 0%",
        "failed_frac",
        fmt_value(r.failed as f64 / r.attempted.max(1) as f64),
        "ratio",
        r.failed,
        r.attempted
    );
    if !r.layers.is_empty() {
        println!(
            "per-layer, traced child (shares are computed: calls x replay ns / untraced run_s)"
        );
        for (layer, value) in &r.layers {
            if let Some(v) = value {
                println!("  {:<38} {:>16} {}", layer.name, fmt_value(*v), layer.unit);
            }
        }
        for (alg, secs) in &r.algorithm_s {
            println!("    elapsed_s of {alg:<24} {:>12} s", fmt_value(*secs));
        }
    }
    for e in &r.errors {
        println!("FAILED: {e}");
    }
}

/// The result line the driver reads: every end-to-end metric after a
/// timed pass, every per-layer metric after a traced pass (both when both
/// ran). A layer metric not observed on this workload reads zero.
pub fn result_line(opts: &Options, r: &WorkloadResult) -> String {
    let metric = |value: f64, unit: &str| {
        Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.into())),
        ])
    };
    let mut metrics = Vec::new();
    if opts.passes != Passes::Traced {
        for (m, samples) in &r.end_to_end {
            let value = reported(&r.workload, m, samples);
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    }
    if opts.passes != Passes::Timed {
        for (layer, value) in &r.layers {
            metrics.push((
                layer.name.to_string(),
                metric(value.unwrap_or(0.0), layer.unit),
            ));
        }
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(r.correct())),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .compact()
}

/// Everything, for tools: written to `<out>/result.json`.
fn result_file(opts: &Options, sets: &[Vec<WorkloadResult>]) -> Json {
    let set_json = |set: &Vec<WorkloadResult>| {
        Json::Arr(
            set.iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("workload".into(), Json::Str(r.workload.name.into())),
                        ("attempted".into(), Json::Num(r.attempted as f64)),
                        ("failed".into(), Json::Num(r.failed as f64)),
                        (
                            "errors".into(),
                            Json::Arr(r.errors.iter().cloned().map(Json::Str).collect()),
                        ),
                        (
                            "end_to_end".into(),
                            Json::Obj(
                                r.end_to_end
                                    .iter()
                                    .map(|(m, s)| {
                                        let samples = s.iter().map(|&x| Json::Num(x)).collect();
                                        (m.name.to_string(), Json::Arr(samples))
                                    })
                                    .collect(),
                            ),
                        ),
                        (
                            "per_layer".into(),
                            Json::Obj(
                                r.layers
                                    .iter()
                                    .filter_map(|(l, v)| {
                                        Some((l.name.to_string(), Json::Num((*v)?)))
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    };
    Json::Obj(vec![
        ("seed".into(), Json::Num(opts.seed as f64)),
        ("scale".into(), Json::Num(SCALE)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        (
            "sets".into(),
            Json::Arr(sets.iter().map(set_json).collect()),
        ),
    ])
}

// ------------------------------------------------------------------ run

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Provenance of a stability report, with the warning `ule-xp` prints when
/// the numbers cannot be tied to a commit.
fn print_provenance(opts: &Options) {
    let describe = command_line("git", &["describe", "--always", "--dirty", "--tags"]);
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "provenance: git {describe}; nproc {nproc}; {}; seed {}; scale {SCALE}{}",
        command_line("rustc", &["-V"]),
        opts.seed,
        if opts.smoke { " / 100 (smoke)" } else { "" }
    );
    if describe.ends_with("-dirty") {
        eprintln!(
            "ule-benchmark: WARNING ======================================================\n\
             ule-benchmark: the work tree is DIRTY ({describe}).\n\
             ule-benchmark: these numbers cannot be reproduced from any commit — do NOT\n\
             ule-benchmark: record them as a baseline; commit first and rerun.\n\
             ule-benchmark: ==============================================================="
        );
    }
}

/// By how much `new` is worse than `old`, as a share of `old`.
fn worsening(m: &EndToEnd, old: f64, new: f64) -> f64 {
    if m.lower_is_better {
        (new - old) / old
    } else {
        (old - new) / old
    }
}

/// The `--sets K` report: do K back-to-back sets of the same code agree
/// within the benchmark's own bounds? Returns whether they do.
fn print_stability(sets: &[Vec<WorkloadResult>]) -> bool {
    let mut stable = true;
    println!("== stability: {} sets ==", sets.len());
    println!("workload metric: set values | worst change vs set 1 (bound) | spread (max-min)/median per set");
    for (i, first) in sets[0].iter().enumerate() {
        let across: Vec<&WorkloadResult> = sets.iter().map(|s| &s[i]).collect();
        for (j, (m, _)) in first.end_to_end.iter().enumerate() {
            let values: Vec<f64> = across
                .iter()
                .map(|r| reported(&r.workload, m, &r.end_to_end[j].1))
                .collect();
            let worst = values[1..]
                .iter()
                .map(|&x| worsening(m, values[0], x))
                .fold(f64::NEG_INFINITY, f64::max);
            let spreads: Vec<String> = across
                .iter()
                .map(|r| {
                    let s = &r.end_to_end[j].1;
                    let (lo, hi) = min_max(s);
                    format!("{:.1}%", (hi - lo) / median(s) * 100.0)
                })
                .collect();
            // NaN (a set without samples) is a breach too.
            let breach = !matches!(
                worst.partial_cmp(&m.bound),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            stable &= !breach;
            println!(
                "  {:<14} {:<13} {} | {:+.1}% ({}%){} | {}",
                first.workload.name,
                m.name,
                values
                    .iter()
                    .map(|&x| fmt_value(x))
                    .collect::<Vec<_>>()
                    .join(" "),
                worst * 100.0,
                m.bound * 100.0,
                if breach { " BREACH" } else { "" },
                spreads.join(" ")
            );
        }
        // Simulated statistics and call counts must not move at all.
        let exact = |r: &WorkloadResult| -> Vec<(&'static str, Option<f64>)> {
            r.layers
                .iter()
                .filter(|(l, _)| is_exact_count(l))
                .map(|(l, v)| (l.name, *v))
                .collect()
        };
        for r in &across[1..] {
            if r.simulated != first.simulated || exact(r) != exact(first) {
                stable = false;
                println!(
                    "  {:<14} simulated counts differ between sets BREACH",
                    first.workload.name
                );
            }
        }
        stable &= across.iter().all(|r| r.correct());
    }
    println!(
        "stability: {}",
        if stable { "within bounds" } else { "BREACH" }
    );
    stable
}

/// `run`: every selected workload, `--sets` times over. Returns whether
/// the process should exit with success.
pub fn run(opts: &Options) -> bool {
    let stability = opts.sets > 1;
    if stability {
        print_provenance(opts);
    }
    let mut sets: Vec<Vec<WorkloadResult>> = Vec::new();
    for _ in 0..opts.sets {
        let mut set = Vec::new();
        for w in &opts.workloads {
            let r = run_workload(opts, w);
            print_workload(opts, &r);
            println!("{}", result_line(opts, &r));
            set.push(r);
        }
        sets.push(set);
    }
    let path = Path::new(&opts.out_dir).join("result.json");
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, result_file(opts, &sets).pretty()));
    if let Err(e) = written {
        eprintln!("ule-benchmark: writing {}: {e}", path.display());
        return false;
    }
    let measured = sets
        .iter()
        .flatten()
        .all(|r| opts.passes == Passes::Traced || !r.base_run_s().is_nan());
    if stability {
        return print_stability(&sets) && measured;
    }
    // A single workload's result line must be the last line of stdout, so
    // nothing is printed after the loop above.
    measured
}
