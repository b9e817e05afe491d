//! `ule-lint` — determinism static analysis for the ule workspace.
//!
//! The determinism contract (RunOutcomes byte-identical across thread
//! counts, execution models, and runtimes) is the property every bound
//! measurement in this repo rests on, and its two nastiest historical
//! violations — the `i as u32` frame-seq truncation and the XOR
//! seed-combining RNG collisions, both fixed in PR 4 — were invisible to
//! rustc and clippy alike. This crate gates those bug classes
//! mechanically: a hand-rolled token-level lexer ([`lexer`], std-only by
//! design so the pass runs in the offline CI image) feeds a small rule
//! engine ([`rules`]) whose findings render as human one-liners or JSON
//! ([`report`]).
//!
//! Entry points: [`scan_source`] for one in-memory file (rule scoping
//! keys off the *claimed* relative path, so tests can scan fixtures under
//! virtual deterministic paths), [`scan_tree`] for the workspace walk
//! used by the `ule-lint` binary and the `lint_clean` workspace test.
//! The same walker and lexer also produce the workspace's tracked size
//! numbers ([`stats`], `ule-lint stats`).

pub mod lexer;
pub mod report;
pub mod rules;
pub mod stats;

pub use report::{to_json, Finding, Severity};
pub use rules::{rule_summary, scan_source, unsuppressed, ALL_RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories the walker never descends into: build output, the lint's
/// own seeded-hazard fixtures (they *must* contain findings), vendored
/// third-party shims (not ours to police), and anything hidden.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "fixtures" || name == "vendor" || name.starts_with('.')
}

/// Collects every `.rs` file under `root`, depth-first with sorted
/// directory entries so scan order (and therefore report order) is
/// deterministic across filesystems.
fn collect_rs(root: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root`: every `.rs` file under
/// `root/crates`, `root/src`, `root/tests`, and `root/examples`,
/// excluding `target/`, `fixtures/`, `vendor/`, and hidden directories.
/// Findings carry workspace-relative paths.
pub fn scan_tree(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        findings.extend(scan_source(&rel, &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_fixture_and_vendor_dirs() {
        assert!(skip_dir("fixtures"));
        assert!(skip_dir("target"));
        assert!(skip_dir("vendor"));
        assert!(skip_dir(".git"));
        assert!(!skip_dir("src"));
        assert!(!skip_dir("sim"));
    }
}
