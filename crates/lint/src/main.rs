//! `ule-lint` CLI.
//!
//! ```text
//! cargo run -p ule-lint -- check                 # human output, exit 1 on findings
//! cargo run -p ule-lint -- check --json          # JSON to stdout
//! cargo run -p ule-lint -- check --out report.json   # JSON artifact + human output
//! cargo run -p ule-lint -- check --root /path/to/ws
//! cargo run -p ule-lint -- rules                 # list rules and what they encode
//! cargo run -p ule-lint -- stats [--root DIR] [--out FILE]
//!                                                # per-crate code lines and pub items, JSON lines
//! ```
//!
//! Exit status: 0 when the tree is clean (no unsuppressed error-severity
//! findings), 1 when it is not, 2 on usage/IO errors.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use ule_lint::{rule_summary, scan_tree, stats, to_json, unsuppressed, ALL_RULES};

fn usage() -> ExitCode {
    eprintln!("usage: ule-lint check [--json] [--root DIR] [--out FILE]");
    eprintln!("       ule-lint stats [--root DIR] [--out FILE]\n       ule-lint rules");
    ExitCode::from(2)
}

/// Workspace root: `--root` if given, else the manifest dir's
/// grandparent (this crate lives at `<ws>/crates/lint`), else cwd.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rules") => {
            for r in ALL_RULES {
                println!("{r:16} {}", rule_summary(r));
            }
            ExitCode::SUCCESS
        }
        Some("check") => parse_flags(&args[1..]).map_or_else(usage, run_check),
        Some("stats") => parse_flags(&args[1..]).map_or_else(usage, run_stats),
        _ => usage(),
    }
}

/// `(--json, --root, --out)`.
type Flags = (bool, PathBuf, Option<PathBuf>);

/// The flags shared by `check` and `stats` (whose output is JSON already).
fn parse_flags(args: &[String]) -> Option<Flags> {
    let (mut json, mut root, mut out) = (false, default_root(), None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => root = PathBuf::from(it.next()?),
            "--out" => out = Some(PathBuf::from(it.next()?)),
            _ => return None,
        }
    }
    Some((json, root, out))
}

fn run_stats((_, root, out): Flags) -> ExitCode {
    let written = stats::crate_stats(&root).and_then(|rows| {
        let text = stats::render(&rows);
        print!("{text}");
        out.map_or(Ok(()), |path| fs::write(path, text))
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ule-lint: stats failed under {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}

fn run_check((json, root, out): Flags) -> ExitCode {
    let findings = match scan_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ule-lint: scan failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let gating = unsuppressed(&findings);

    if let Some(path) = &out {
        if let Err(e) = fs::write(path, to_json(&findings)) {
            eprintln!("ule-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if json {
        print!("{}", to_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.human());
        }
        let suppressed = findings.iter().filter(|f| f.suppressed).count();
        println!(
            "ule-lint: {} finding(s), {} unsuppressed, {} suppressed",
            findings.len(),
            gating.len(),
            suppressed
        );
    }

    if gating.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
