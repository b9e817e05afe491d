//! Result diffing — the CI perf-regression gate.
//!
//! [`compare`] matches two result files cell-by-cell on
//! `(algorithm, workload)` and applies tolerance bands per metric:
//!
//! * **throughput** (`msgs_per_s`, timed cells only): a *drop* beyond the
//!   warn factor warns, beyond the fail factor fails. This is the only
//!   metric that fails by default — wall-clock is what the engine-scale
//!   gate protects, and the generous default factor (2×) absorbs runner
//!   noise.
//! * **cost** (`mean_messages`, `mean_rounds`): relative drift beyond the
//!   warn tolerance warns; an optional fail tolerance turns drift *in
//!   either direction* into a hard failure (off by default —
//!   deterministic counts legitimately change when algorithms are
//!   retuned; the gate should flag, not block, unless a campaign promises
//!   stability). The fail band is two-sided because its main consumer is
//!   the thread-count determinism gate: a merge-phase bug that *loses*
//!   messages is exactly as much a regression as one that duplicates
//!   them.
//! * **success rate**: a drop of more than 0.1 warns.
//!
//! Memory is not compared here: the engine's heap and allocation budget
//! is a deterministic test over the engine-scale grid
//! (`tests/memory_budget.rs`), not a band over process RSS. Older
//! schema-3 files that still carry `peak_rss_bytes`, `bytes_per_node` or
//! `allocs_per_message` parse, and those fields are ignored.
//!
//! Both inputs are campaign records ([`crate::run::CampaignResult`] JSON).

use crate::json::Json;
use crate::XpError;
use std::collections::BTreeMap;

/// Tolerance bands for [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerances {
    /// Warn when `old/new` throughput exceeds this factor.
    pub warn_throughput: f64,
    /// Fail when `old/new` throughput exceeds this factor.
    pub fail_throughput: f64,
    /// Warn when |new − old| / old on a cost metric exceeds this.
    pub warn_cost: f64,
    /// Fail when |new − old| / old on a cost metric exceeds this
    /// (`None` = cost drift never fails). Two-sided: deterministic counts
    /// drifting *down* is as much a regression as drifting up.
    pub fail_cost: Option<f64>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            warn_throughput: 1.25,
            fail_throughput: 2.0,
            warn_cost: 0.10,
            fail_cost: None,
        }
    }
}

/// Outcome severity, ordered so `max` aggregates naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within tolerance.
    Pass,
    /// Outside the warn band; reported, exit code stays 0.
    Warn,
    /// Outside the fail band; `compare` exits nonzero.
    Fail,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        })
    }
}

/// One per-cell, per-metric comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// `algorithm @ workload`.
    pub cell: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Band the delta landed in.
    pub verdict: Verdict,
}

/// Full comparison report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every metric comparison on every matched cell.
    pub deltas: Vec<Delta>,
    /// Number of cells present in both inputs.
    pub matched: usize,
    /// Cell keys only in the baseline.
    pub only_old: Vec<String>,
    /// Cell keys only in the candidate.
    pub only_new: Vec<String>,
    /// True when either input contained duplicate `(algorithm, workload)`
    /// cells, which are paired *positionally* (occurrence k ↔ occurrence
    /// k). Positional pairing is only meaningful between results of the
    /// same spec; the report surfaces this so a subset-vs-full comparison
    /// of a duplicate-keyed grid is never silently mispaired.
    pub positional_pairs: bool,
    /// Matched cells whose recorded execution-model (adversary) profiles
    /// differ, as `(cell key, baseline profile, candidate profile)`.
    /// Costs measured under different models are not comparable, so each
    /// entry is at least a warning.
    pub profile_mismatches: Vec<(String, String, String)>,
    /// Matched cells whose recorded runtimes differ, as `(cell key,
    /// baseline runtime, candidate runtime)`. Simulated costs conform
    /// across runtimes, but wall-clock metrics do not — and a runtime
    /// flip in a gate is almost always unintentional, so each entry is at
    /// least a warning (exactly like an adversary-profile mismatch).
    pub runtime_mismatches: Vec<(String, String, String)>,
}

impl Report {
    /// The overall verdict: worst delta (an adversary-profile mismatch
    /// counts as a warning), or [`Verdict::Fail`] when no cell matched (a
    /// gate that compares nothing must not pass).
    pub fn verdict(&self) -> Verdict {
        if self.matched == 0 {
            return Verdict::Fail;
        }
        let worst = self
            .deltas
            .iter()
            .map(|d| d.verdict)
            .max()
            .unwrap_or(Verdict::Pass);
        if self.profile_mismatches.is_empty() && self.runtime_mismatches.is_empty() {
            worst
        } else {
            worst.max(Verdict::Warn)
        }
    }

    /// Human-readable rendering (one line per non-pass delta plus a
    /// summary; `verbose` prints passing deltas too).
    pub fn render(&self, verbose: bool) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            if verbose || d.verdict != Verdict::Pass {
                let rel = if d.old.abs() > f64::EPSILON {
                    100.0 * (d.new - d.old) / d.old
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "{:<4} {:<40} {:<14} {:>14.1} -> {:>14.1} ({:+.1}%)\n",
                    d.verdict.to_string(),
                    d.cell,
                    d.metric,
                    d.old,
                    d.new,
                    rel
                ));
            }
        }
        for (key, old_p, new_p) in &self.profile_mismatches {
            out.push_str(&format!(
                "WARN {key:<40} adversary profile differs: {old_p} (baseline) vs {new_p} \
                 (candidate) — costs are not comparable across execution models\n"
            ));
        }
        for (key, old_r, new_r) in &self.runtime_mismatches {
            out.push_str(&format!(
                "WARN {key:<40} runtime differs: {old_r} (baseline) vs {new_r} \
                 (candidate) — wall-clock metrics are not comparable across runtimes\n"
            ));
        }
        for key in &self.only_old {
            out.push_str(&format!("note {key:<40} only in baseline\n"));
        }
        for key in &self.only_new {
            out.push_str(&format!("note {key:<40} only in candidate\n"));
        }
        if self.positional_pairs {
            out.push_str(
                "note duplicate (algorithm, workload) cells paired positionally — \
                 only compare results of the same spec\n",
            );
        }
        out.push_str(&format!(
            "{} cell(s) matched, {} delta(s) checked: {}\n",
            self.matched,
            self.deltas.len(),
            self.verdict()
        ));
        out
    }
}

/// The metrics `compare` extracts from one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Mean rounds.
    pub mean_rounds: f64,
    /// Mean messages.
    pub mean_messages: f64,
    /// Throughput, when the cell was timed.
    pub msgs_per_s: Option<f64>,
    /// Empirical success rate, when trial counts are known.
    pub success_rate: Option<f64>,
    /// Execution-model profile name the cell was recorded under. `None`
    /// (schema-1 files, which predate adversaries) is treated as
    /// `"lockstep"` — the only model those files could have run.
    pub adversary: Option<String>,
    /// Runtime name the cell was recorded on. `None` (every sim cell — the
    /// field is omitted for byte-stability) is treated as `"sim"`.
    pub runtime: Option<String>,
}

impl CellMetrics {
    /// The effective execution-model profile (absent = lockstep).
    fn profile(&self) -> &str {
        self.adversary.as_deref().unwrap_or("lockstep")
    }

    /// The effective runtime (absent = sim).
    fn runtime_name(&self) -> &str {
        self.runtime.as_deref().unwrap_or("sim")
    }
}

/// Parses a campaign result into `(algorithm @ workload) →` metrics.
///
/// # Errors
///
/// Rejects unknown schema versions and structurally malformed inputs.
pub fn parse_cells(v: &Json) -> Result<BTreeMap<String, CellMetrics>, XpError> {
    let version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| XpError::new("result: missing `schema_version`"))?;
    // Version 1 files lack the per-cell `adversary` field; they remain
    // comparable (their cells implicitly ran under lockstep).
    if !(1..=crate::run::SCHEMA_VERSION).contains(&version) {
        return Err(XpError::new(format!(
            "result: schema_version {version} unsupported (expected <= {})",
            crate::run::SCHEMA_VERSION
        )));
    }
    let cells = v
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| XpError::new("result: missing `cells` array"))?;
    let mut out = BTreeMap::new();
    for cell in cells {
        let algorithm = cell
            .get("algorithm")
            .and_then(Json::as_str)
            .ok_or_else(|| XpError::new("cell: missing `algorithm`"))?;
        let workload = cell
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| XpError::new("cell: missing `workload`"))?;
        let num = |key: &str| cell.get(key).and_then(Json::as_f64);
        let mean_rounds = num("mean_rounds")
            .ok_or_else(|| XpError::new(format!("cell {algorithm}@{workload}: missing rounds")))?;
        let mean_messages = num("mean_messages").ok_or_else(|| {
            XpError::new(format!("cell {algorithm}@{workload}: missing messages"))
        })?;
        let success_rate = match (num("successes"), num("trials")) {
            (Some(s), Some(t)) if t > 0.0 => Some(s / t),
            _ => None,
        };
        // A grid may legitimately contain several cells with the same
        // (algorithm, workload) — e.g. two groups differing only in
        // knowledge/wakeup mode, or two requested sizes rounding to the
        // same realized n. Disambiguate by occurrence index (grid order is
        // deterministic, so index k matches index k across runs of the
        // same spec) rather than silently overwriting — an overwritten
        // cell would drop its regressions from the gate.
        let base = format!("{algorithm} @ {workload}");
        let mut key = base.clone();
        let mut occurrence = 1;
        while out.contains_key(&key) {
            occurrence += 1;
            key = format!("{base} #{occurrence}");
        }
        out.insert(
            key,
            CellMetrics {
                mean_rounds,
                mean_messages,
                msgs_per_s: num("msgs_per_s"),
                success_rate,
                adversary: cell
                    .get("adversary")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                runtime: cell
                    .get("runtime")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            },
        );
    }
    Ok(out)
}

/// Returns the result file's `git_describe` when it records a dirty work
/// tree (see [`crate::RunMeta::is_dirty`]); `None` for clean provenance.
///
/// A dirty baseline is a gate anchored to unreproducible numbers — the
/// `compare` subcommand surfaces this as a warning on stderr.
pub fn dirty_provenance(v: &Json) -> Option<String> {
    v.get("git_describe")
        .and_then(Json::as_str)
        .filter(|d| d.ends_with("-dirty"))
        .map(str::to_string)
}

fn band(verdict_fail: bool, verdict_warn: bool) -> Verdict {
    if verdict_fail {
        Verdict::Fail
    } else if verdict_warn {
        Verdict::Warn
    } else {
        Verdict::Pass
    }
}

/// Compares candidate cells against a baseline under the given tolerances.
pub fn compare(
    old: &BTreeMap<String, CellMetrics>,
    new: &BTreeMap<String, CellMetrics>,
    tol: &Tolerances,
) -> Report {
    let mut deltas = Vec::new();
    let mut matched = 0;
    let mut profile_mismatches = Vec::new();
    let mut runtime_mismatches = Vec::new();
    for (key, o) in old {
        let Some(n) = new.get(key) else { continue };
        matched += 1;
        if o.profile() != n.profile() {
            profile_mismatches.push((
                key.clone(),
                o.profile().to_string(),
                n.profile().to_string(),
            ));
        }
        if o.runtime_name() != n.runtime_name() {
            runtime_mismatches.push((
                key.clone(),
                o.runtime_name().to_string(),
                n.runtime_name().to_string(),
            ));
        }
        for (metric, ov, nv) in [
            ("mean_messages", o.mean_messages, n.mean_messages),
            ("mean_rounds", o.mean_rounds, n.mean_rounds),
        ] {
            let rel = if ov.abs() > f64::EPSILON {
                (nv - ov) / ov
            } else if nv.abs() > f64::EPSILON {
                f64::INFINITY
            } else {
                0.0
            };
            deltas.push(Delta {
                cell: key.clone(),
                metric,
                old: ov,
                new: nv,
                verdict: band(
                    tol.fail_cost.is_some_and(|f| rel.abs() > f),
                    rel.abs() > tol.warn_cost,
                ),
            });
        }
        if let (Some(ot), Some(nt)) = (o.msgs_per_s, n.msgs_per_s) {
            let slowdown = ot / nt.max(1e-9);
            deltas.push(Delta {
                cell: key.clone(),
                metric: "msgs_per_s",
                old: ot,
                new: nt,
                verdict: band(
                    slowdown > tol.fail_throughput,
                    slowdown > tol.warn_throughput,
                ),
            });
        }
        if let (Some(os), Some(ns)) = (o.success_rate, n.success_rate) {
            if ns < os - 0.1 {
                deltas.push(Delta {
                    cell: key.clone(),
                    metric: "success_rate",
                    old: os,
                    new: ns,
                    verdict: Verdict::Warn,
                });
            }
        }
    }
    Report {
        deltas,
        matched,
        only_old: old
            .keys()
            .filter(|k| !new.contains_key(*k))
            .cloned()
            .collect(),
        only_new: new
            .keys()
            .filter(|k| !old.contains_key(*k))
            .cloned()
            .collect(),
        positional_pairs: old.keys().chain(new.keys()).any(|k| k.contains(" #")),
        profile_mismatches,
        runtime_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(messages: f64, rounds: f64, tput: Option<f64>) -> CellMetrics {
        CellMetrics {
            mean_rounds: rounds,
            mean_messages: messages,
            msgs_per_s: tput,
            success_rate: Some(1.0),
            adversary: None,
            runtime: None,
        }
    }

    fn one(key: &str, c: CellMetrics) -> BTreeMap<String, CellMetrics> {
        BTreeMap::from([(key.to_string(), c)])
    }

    /// A schema-3 timed cell as recorded while `ule-xp` still probed
    /// process memory: same counts and throughput, plus the retired
    /// `peak_rss_bytes`, `bytes_per_node` and `allocs_per_message`.
    fn probed(rss: f64, bpn: f64, allocs: f64) -> BTreeMap<String, CellMetrics> {
        let v3 = format!(
            r#"{{"schema_version": 3, "cells": [
                {{"workload": "path/1000", "algorithm": "dfs-agent",
                 "trials": 1, "successes": 1, "mean_messages": 1998,
                 "mean_rounds": 2000, "msgs_per_s": 1e6,
                 "peak_rss_bytes": {rss}, "bytes_per_node": {bpn},
                 "allocs_per_message": {allocs}}}]}}"#
        );
        parse_cells(&Json::parse(&v3).unwrap()).unwrap()
    }

    /// Compares under both the default and the strictest tolerances and
    /// asserts that only counts and throughput were looked at, and passed.
    fn compares_on_counts_alone(
        old: &BTreeMap<String, CellMetrics>,
        new: &BTreeMap<String, CellMetrics>,
    ) {
        let strict = Tolerances {
            fail_cost: Some(0.000001),
            ..Tolerances::default()
        };
        for tol in [Tolerances::default(), strict] {
            let report = compare(old, new, &tol);
            assert_eq!(report.verdict(), Verdict::Pass);
            let metrics: Vec<&str> = report.deltas.iter().map(|d| d.metric).collect();
            assert_eq!(metrics, ["mean_messages", "mean_rounds", "msgs_per_s"]);
        }
    }

    #[test]
    fn identical_results_pass() {
        let old = one("floodmax @ cycle/100", cell(1000.0, 50.0, Some(1e6)));
        let report = compare(&old, &old.clone(), &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.matched, 1);
        assert!(report.deltas.iter().all(|d| d.verdict == Verdict::Pass));
    }

    #[test]
    fn small_throughput_noise_passes_but_1_5x_warns() {
        let old = one("a @ w", cell(1000.0, 50.0, Some(1.0e6)));
        let newer = one("a @ w", cell(1000.0, 50.0, Some(0.9e6)));
        assert_eq!(
            compare(&old, &newer, &Tolerances::default()).verdict(),
            Verdict::Pass
        );
        let slower = one("a @ w", cell(1000.0, 50.0, Some(0.66e6)));
        assert_eq!(
            compare(&old, &slower, &Tolerances::default()).verdict(),
            Verdict::Warn
        );
    }

    #[test]
    fn throughput_regression_beyond_2x_fails() {
        let old = one("a @ w", cell(1000.0, 50.0, Some(1.0e6)));
        let halved = one("a @ w", cell(1000.0, 50.0, Some(0.45e6)));
        let report = compare(&old, &halved, &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Fail);
        let fail = report
            .deltas
            .iter()
            .find(|d| d.verdict == Verdict::Fail)
            .unwrap();
        assert_eq!(fail.metric, "msgs_per_s");
        // A throughput *improvement* never fails.
        let faster = one("a @ w", cell(1000.0, 50.0, Some(5.0e6)));
        assert_eq!(
            compare(&old, &faster, &Tolerances::default()).verdict(),
            Verdict::Pass
        );
    }

    #[test]
    fn cost_drift_warns_and_fails_only_when_opted_in() {
        let old = one("a @ w", cell(1000.0, 50.0, None));
        let drift = one("a @ w", cell(1300.0, 50.0, None));
        let default_report = compare(&old, &drift, &Tolerances::default());
        assert_eq!(default_report.verdict(), Verdict::Warn);
        let strict = Tolerances {
            fail_cost: Some(0.2),
            ..Tolerances::default()
        };
        assert_eq!(compare(&old, &drift, &strict).verdict(), Verdict::Fail);
        // The fail band is two-sided: a determinism gate must catch a
        // merge bug that *loses* messages, not just one that adds them.
        let shrank = one("a @ w", cell(500.0, 50.0, None));
        assert_eq!(compare(&old, &shrank, &strict).verdict(), Verdict::Fail);
        // Without the opt-in, shrinking cost stays a warning.
        assert_eq!(
            compare(&old, &shrank, &Tolerances::default()).verdict(),
            Verdict::Warn
        );
    }

    #[test]
    fn rss_growth_warns_and_fails_only_when_opted_in() {
        // The RSS band and its `--fail-rss` opt-in are retired, so RSS
        // growth in old files never warns or fails: neither 1.4x (the old
        // warn band) nor 1.6x (over CI's old 1.5 fail factor).
        let old = probed(1.0e9, 1.0e6, 0.1);
        compares_on_counts_alone(&old, &probed(1.4e9, 1.0e6, 0.1));
        compares_on_counts_alone(&old, &probed(1.6e9, 1.0e6, 0.1));
    }

    #[test]
    fn allocs_ceiling_is_absolute_and_opt_in() {
        // The 0.5 allocations-per-message ceiling is enforced per cell by
        // the heap-budget test, not here: a recorded 0.8 no longer fails
        // `compare`, whatever the baseline carried.
        let over = probed(1.0e9, 1.0e6, 0.8);
        compares_on_counts_alone(&probed(1.0e9, 1.0e6, 0.1), &over);
        let bare = one("dfs-agent @ path/1000", cell(1998.0, 2000.0, Some(1e6)));
        compares_on_counts_alone(&bare, &over);
    }

    #[test]
    fn bytes_per_node_shares_the_rss_band() {
        // Per-node RSS went with the RSS band: absolute RSS halved while
        // bytes per node grew 1.6x, and neither is compared.
        let old = probed(1.0e9, 100.0, 0.1);
        compares_on_counts_alone(&old, &probed(0.5e9, 160.0, 0.1));
    }

    #[test]
    fn success_rate_drop_warns() {
        let mut old = one("a @ w", cell(10.0, 10.0, None));
        let mut newer = old.clone();
        old.get_mut("a @ w").unwrap().success_rate = Some(1.0);
        newer.get_mut("a @ w").unwrap().success_rate = Some(0.6);
        let report = compare(&old, &newer, &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Warn);
    }

    #[test]
    fn disjoint_results_fail() {
        let old = one("a @ w", cell(1.0, 1.0, None));
        let newer = one("b @ w", cell(1.0, 1.0, None));
        let report = compare(&old, &newer, &Tolerances::default());
        assert_eq!(report.matched, 0);
        assert_eq!(report.verdict(), Verdict::Fail);
        assert_eq!(report.only_old, vec!["a @ w"]);
        assert_eq!(report.only_new, vec!["b @ w"]);
    }

    #[test]
    fn unmatched_extra_cells_do_not_fail() {
        // Quick runs are strict subsets of the full baseline; the gate
        // compares the intersection.
        let mut old = one("a @ w", cell(100.0, 10.0, Some(1e6)));
        old.insert("a @ w2".into(), cell(200.0, 20.0, Some(1e6)));
        let newer = one("a @ w", cell(100.0, 10.0, Some(1e6)));
        let report = compare(&old, &newer, &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Pass);
        assert_eq!(report.only_old, vec!["a @ w2"]);
    }

    #[test]
    fn duplicate_cell_keys_are_disambiguated_not_dropped() {
        // Two cells with the same (algorithm, workload) — e.g. two groups
        // differing only in knowledge mode — must both survive parsing so
        // a regression in either one still trips the gate.
        let doubled = r#"{"schema_version": 3, "cells": [
          {"workload": "cycle/10", "algorithm": "floodmax", "mean_messages": 100, "mean_rounds": 5},
          {"workload": "cycle/10", "algorithm": "floodmax", "mean_messages": 900, "mean_rounds": 7}
        ]}"#;
        let cells = parse_cells(&Json::parse(doubled).unwrap()).unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells["floodmax @ cycle/10"].mean_messages, 100.0);
        assert_eq!(cells["floodmax @ cycle/10 #2"].mean_messages, 900.0);
        // Occurrence k matches occurrence k across two parses of results
        // from the same spec (grid order is deterministic).
        let report = compare(&cells, &cells.clone(), &Tolerances::default());
        assert_eq!(report.matched, 2);
        assert_eq!(report.verdict(), Verdict::Pass);
        // Positional pairing is flagged so subset-vs-full comparisons of
        // duplicate-keyed grids are never silently trusted.
        assert!(report.positional_pairs);
        assert!(report.render(false).contains("paired positionally"));
    }

    #[test]
    fn rejects_unknown_schema_version() {
        let v = Json::parse(r#"{"schema_version": 99, "cells": []}"#).unwrap();
        assert!(parse_cells(&v).is_err());
        // A bare array (the pre-campaign `BENCH_engine.json` format) has
        // no version to check.
        let bare = parse_cells(&Json::parse("[]").unwrap()).unwrap_err();
        assert!(bare.to_string().contains("missing `schema_version`"));
        // Version 1 (pre-adversary) files still parse: their cells are
        // implicitly lockstep.
        let v1 = Json::parse(
            r#"{"schema_version": 1, "cells": [
                {"workload": "cycle/10", "algorithm": "floodmax",
                 "mean_messages": 5, "mean_rounds": 2}]}"#,
        )
        .unwrap();
        let cells = parse_cells(&v1).unwrap();
        assert_eq!(cells["floodmax @ cycle/10"].adversary, None);
        // Schema-3 timed cells recorded before memory left `compare` still
        // carry process-memory fields: they parse, and only the counts (and
        // throughput) are compared — a tenfold RSS or allocation jump is
        // invisible, and so is its absence.
        let old = probed(4.5e7, 4.5e4, 0.1);
        assert_eq!(
            old["dfs-agent @ path/1000"],
            cell(1998.0, 2000.0, Some(1e6))
        );
        compares_on_counts_alone(&old, &probed(4.5e8, 4.5e5, 5.0));
        let bare = one("dfs-agent @ path/1000", cell(1998.0, 2000.0, Some(1e6)));
        compares_on_counts_alone(&old, &bare);
    }

    #[test]
    fn adversary_profile_mismatch_warns_instead_of_silently_diffing() {
        let mut old = one("a @ w", cell(1000.0, 50.0, None));
        old.get_mut("a @ w").unwrap().adversary = Some("delay-2".into());
        let mut newer = one("a @ w", cell(1000.0, 50.0, None));
        newer.get_mut("a @ w").unwrap().adversary = Some("crash-100pm-32r".into());
        let report = compare(&old, &newer, &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Warn);
        assert_eq!(
            report.profile_mismatches,
            vec![(
                "a @ w".to_string(),
                "delay-2".to_string(),
                "crash-100pm-32r".to_string()
            )]
        );
        assert!(report.render(false).contains("adversary profile differs"));
        // An absent profile means lockstep: legacy baseline vs an explicit
        // lockstep candidate is *not* a mismatch …
        let legacy = one("a @ w", cell(1000.0, 50.0, None));
        let mut lockstep = one("a @ w", cell(1000.0, 50.0, None));
        lockstep.get_mut("a @ w").unwrap().adversary = Some("lockstep".into());
        let clean = compare(&legacy, &lockstep, &Tolerances::default());
        assert_eq!(clean.verdict(), Verdict::Pass);
        assert!(clean.profile_mismatches.is_empty());
        // … but legacy vs a fault profile is.
        let faulty = {
            let mut m = one("a @ w", cell(1000.0, 50.0, None));
            m.get_mut("a @ w").unwrap().adversary = Some("delay-8".into());
            m
        };
        assert_eq!(
            compare(&legacy, &faulty, &Tolerances::default()).verdict(),
            Verdict::Warn
        );
    }

    #[test]
    fn runtime_mismatch_warns_exactly_like_a_profile_mismatch() {
        let old = one("a @ w", cell(1000.0, 50.0, None));
        let mut newer = one("a @ w", cell(1000.0, 50.0, None));
        newer.get_mut("a @ w").unwrap().runtime = Some("async".into());
        let report = compare(&old, &newer, &Tolerances::default());
        assert_eq!(report.verdict(), Verdict::Warn);
        assert_eq!(
            report.runtime_mismatches,
            vec![("a @ w".to_string(), "sim".to_string(), "async".to_string())]
        );
        assert!(report.render(false).contains("runtime differs"));
        // An absent runtime means sim: legacy baseline vs an explicit sim
        // candidate is *not* a mismatch.
        let mut sim = one("a @ w", cell(1000.0, 50.0, None));
        sim.get_mut("a @ w").unwrap().runtime = Some("sim".into());
        let clean = compare(&old, &sim, &Tolerances::default());
        assert_eq!(clean.verdict(), Verdict::Pass);
        assert!(clean.runtime_mismatches.is_empty());
    }

    #[test]
    fn dirty_provenance_detected() {
        let dirty = Json::parse(r#"{"git_describe": "2718ebb-dirty", "cells": []}"#).unwrap();
        assert_eq!(dirty_provenance(&dirty), Some("2718ebb-dirty".into()));
        let clean = Json::parse(r#"{"git_describe": "2718ebb", "cells": []}"#).unwrap();
        assert_eq!(dirty_provenance(&clean), None);
    }
}
