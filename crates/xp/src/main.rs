//! `ule-xp` — run declarative experiment campaigns and gate on results.
//!
//! ```text
//! ule-xp list
//! ule-xp run --campaign table1 [--quick] [--out PATH] [--force] [--no-table] [--quiet]
//! ule-xp run --spec my-campaign.json [...]
//! ule-xp compare BASELINE.json NEW.json [--fail-throughput 2.0] [--warn-throughput 1.25]
//!                [--warn-cost 0.10] [--fail-cost R] [--verbose]
//! ```
//!
//! Exit codes: `0` success (including warnings), `1` regression
//! (`compare` only), `2` usage or I/O error.

use std::process::ExitCode;
use ule_xp::json::Json;
use ule_xp::{builtin, compare, parse_cells, CampaignSpec, RunMeta, Tolerances, Verdict, XpError};

const USAGE: &str = "\
ule-xp — declarative experiment campaigns for the ule workspace

USAGE:
  ule-xp list
      Show the built-in campaigns.

  ule-xp run (--campaign NAME | --spec FILE) [OPTIONS]
      Run a campaign and write the result JSON.
        --quick           shrink sizes/trials (a fast smoke grid)
        --out PATH        result path (default results/<name>[-quick].json)
        --force           overwrite an existing result file
        --no-table        skip the human table on stdout
        --quiet           no per-cell progress on stderr
        --threads N       override every group's engine thread count
                          (N = 0 forces the sequential reference engine;
                          outcomes are identical at any N, only wall-clock
                          and throughput change)
        --runtime R       override every group's runtime: sim (the round
                          engine) or async (the threads+channels runtime;
                          same outcomes under every adversary profile by
                          the conformance contract)

  ule-xp compare BASELINE.json NEW.json [OPTIONS]
      Diff two campaign result files.
        --fail-throughput F   fail when throughput drops more than F x (default 2.0)
        --warn-throughput F   warn when throughput drops more than F x (default 1.25)
        --warn-cost R         warn when rounds/messages drift more than R rel. (default 0.10)
        --fail-cost R         fail when rounds/messages drift more than R rel.
                              in either direction (default off)
        --verbose             print passing deltas too

Exit codes: 0 ok, 1 regression detected, 2 usage/I-O error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(XpError::new(format!("unknown subcommand `{other}`"))),
    };
    code.unwrap_or_else(|e| {
        eprintln!("ule-xp: error: {e}");
        ExitCode::from(2)
    })
}

fn cmd_list() -> Result<ExitCode, XpError> {
    println!("built-in campaigns:");
    for (name, blurb) in ule_xp::BUILTIN_CAMPAIGNS {
        println!("  {name:<14} {blurb}");
    }
    Ok(ExitCode::SUCCESS)
}

/// Pulls the value following a `--flag` out of `args`.
fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, XpError> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| XpError::new(format!("{flag} needs a value")))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, XpError> {
    let mut campaign: Option<String> = None;
    let mut spec_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut quick = false;
    let mut force = false;
    let mut no_table = false;
    let mut quiet = false;
    let mut threads: Option<u64> = None;
    let mut runtime: Option<ule_sim::RuntimeKind> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--campaign" => campaign = Some(take_value(args, &mut i, "--campaign")?),
            "--spec" => spec_path = Some(take_value(args, &mut i, "--spec")?),
            "--out" => out_path = Some(take_value(args, &mut i, "--out")?),
            "--quick" => quick = true,
            "--force" => force = true,
            "--no-table" => no_table = true,
            "--quiet" => quiet = true,
            "--threads" => {
                let t = take_value(args, &mut i, "--threads")?;
                let t: u64 = t
                    .parse()
                    .map_err(|_| XpError::new(format!("--threads: `{t}` is not a thread count")))?;
                if t > ule_xp::spec::MAX_THREADS {
                    return Err(XpError::new(format!(
                        "--threads: {t} is not a sane thread count (max {})",
                        ule_xp::spec::MAX_THREADS
                    )));
                }
                threads = Some(t);
            }
            "--runtime" => {
                let r = take_value(args, &mut i, "--runtime")?;
                runtime = Some(match r.as_str() {
                    "sim" => ule_sim::RuntimeKind::Sim,
                    "async" => ule_sim::RuntimeKind::Async,
                    other => {
                        return Err(XpError::new(format!(
                            "--runtime: unknown runtime `{other}` (sim | async)"
                        )))
                    }
                });
            }
            other => return Err(XpError::new(format!("run: unknown option `{other}`"))),
        }
        i += 1;
    }
    let mut spec: CampaignSpec = match (campaign, spec_path) {
        (Some(name), None) => builtin(&name, quick).ok_or_else(|| {
            XpError::new(format!("unknown campaign `{name}` (see `ule-xp list`)"))
        })?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| XpError::new(format!("reading {path}: {e}")))?;
            let v = Json::parse(&text).map_err(|e| XpError::new(format!("parsing {path}: {e}")))?;
            if quick {
                return Err(XpError::new(
                    "--quick only applies to built-in campaigns; edit the spec file instead",
                ));
            }
            CampaignSpec::from_json(&v)?
        }
        (Some(_), Some(_)) => return Err(XpError::new("run: pass --campaign or --spec, not both")),
        (None, None) => return Err(XpError::new("run: pass --campaign NAME or --spec FILE")),
    };
    if let Some(t) = threads {
        // 0 = "force the sequential reference engine" (clear every
        // group's knob), anything else pins every group to t threads.
        for group in &mut spec.groups {
            group.threads = if t == 0 { None } else { Some(t) };
        }
    }
    if let Some(r) = runtime {
        // Mirror of the spec-level `runtime` field; every adversary
        // profile runs on every runtime.
        for group in &mut spec.groups {
            group.runtime = r;
        }
    }

    let out_path = out_path.unwrap_or_else(|| {
        format!(
            "results/{}{}.json",
            spec.name,
            if quick { "-quick" } else { "" }
        )
    });
    if std::path::Path::new(&out_path).exists() && !force {
        return Err(XpError::new(format!(
            "{out_path} already exists; pass --force to overwrite"
        )));
    }

    let meta = RunMeta::capture();
    meta.warn_if_dirty();
    let result = ule_xp::execute(&spec, meta, !quiet)?;

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| XpError::new(format!("creating {}: {e}", dir.display())))?;
        }
    }
    let mut json = result.to_json().pretty();
    json.push('\n');
    std::fs::write(&out_path, json)
        .map_err(|e| XpError::new(format!("writing {out_path}: {e}")))?;
    eprintln!(
        "wrote {out_path} ({} cells, spec {})",
        result.cells.len(),
        result.spec.hash()
    );
    if !no_table {
        print!("{}", ule_xp::report::render(&result));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, XpError> {
    let mut paths: Vec<&String> = Vec::new();
    let mut tol = Tolerances::default();
    let mut verbose = false;
    let mut i = 0;
    let parse_f = |s: String, flag: &str| -> Result<f64, XpError> {
        s.parse()
            .map_err(|_| XpError::new(format!("{flag}: `{s}` is not a number")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--fail-throughput" => {
                tol.fail_throughput = parse_f(
                    take_value(args, &mut i, "--fail-throughput")?,
                    "--fail-throughput",
                )?
            }
            "--warn-throughput" => {
                tol.warn_throughput = parse_f(
                    take_value(args, &mut i, "--warn-throughput")?,
                    "--warn-throughput",
                )?
            }
            "--warn-cost" => {
                tol.warn_cost = parse_f(take_value(args, &mut i, "--warn-cost")?, "--warn-cost")?
            }
            "--fail-cost" => {
                tol.fail_cost = Some(parse_f(
                    take_value(args, &mut i, "--fail-cost")?,
                    "--fail-cost",
                )?)
            }
            "--verbose" => verbose = true,
            other if other.starts_with("--") => {
                return Err(XpError::new(format!("compare: unknown option `{other}`")))
            }
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let [old_path, new_path] = paths.as_slice() else {
        return Err(XpError::new(
            "compare: expected exactly two result files (BASELINE NEW)",
        ));
    };
    let load = |path: &str, role: &str| -> Result<_, XpError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| XpError::new(format!("reading {path}: {e}")))?;
        let v = Json::parse(&text).map_err(|e| XpError::new(format!("parsing {path}: {e}")))?;
        if let Some(describe) = ule_xp::compare::dirty_provenance(&v) {
            eprintln!(
                "ule-xp: warning: {role} {path} was recorded from a DIRTY work tree \
                 ({describe}); its numbers are not reproducible from any commit"
            );
        }
        parse_cells(&v)
    };
    let old = load(old_path, "baseline")?;
    let new = load(new_path, "candidate")?;
    let report = compare(&old, &new, &tol);
    print!("{}", report.render(verbose));
    Ok(match report.verdict() {
        Verdict::Fail => ExitCode::from(1),
        _ => ExitCode::SUCCESS,
    })
}
