//! The determinism lint, enforced by plain `cargo test`: scans every
//! `.rs` file under `crates/` and `src/` (plus `tests/` and `examples/`)
//! and fails on any unsuppressed finding. CI runs the same pass via
//! `cargo run -p ule-lint -- check`; this test makes the gate local — and
//! with it the size ratchet over `ule-lint stats`.

use ule_lint::{scan_tree, stats::crate_stats, unsuppressed};

/// ROADMAP aim 2's tracked numbers: the workspace's non-test code lines
/// and `pub` items (`ule-lint stats`, the `total` row) as of the last
/// change that moved them. The scope now includes the umbrella crate's
/// `src/` and `examples/`, so code moved out of a crate into an example
/// is not counted as deleted; under that scope the tree stood at 10 986
/// lines / 483 items (10 605 / 478 under the crates-only scope, plus 381
/// / 5 from `examples/` and `src/`) before the Corollary 4.2 spanner
/// became `Algorithm::Spanner` and the figure binaries became examples
/// and `ule-xp` campaigns, at 10 829 before `DfsAgent` collapsed its
/// node state to one walker, at 10 762 / 478 before `ule-xp` stopped
/// probing process memory (its counting allocator moved into
/// `tests/memory_budget.rs`, which this scope does not count), and at
/// 10 624 before the async workers took the engine's node-range core.
const MAX_CODE_LINES: usize = 10_520;
const MAX_PUB_ITEMS: usize = 475;

#[test]
fn workspace_size_only_ratchets_down() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let rows = crate_stats(root).expect("workspace scan failed");
    let (_, lines, pubs) = rows.last().expect("the `total` row closes the table");
    assert!(
        *lines <= MAX_CODE_LINES && *pubs <= MAX_PUB_ITEMS,
        "`ule-lint stats` reads {lines} code lines / {pubs} pub items, over the ratchet of \
         {MAX_CODE_LINES} / {MAX_PUB_ITEMS} in tests/lint_clean.rs. Lower the constants when the \
         tree shrinks; raise one only with the reason stated in the PR that does."
    );
}

#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = scan_tree(root).expect("workspace scan failed");
    let gating = unsuppressed(&findings);
    assert!(
        gating.is_empty(),
        "unsuppressed determinism findings:\n{}",
        gating
            .iter()
            .map(|f| f.human())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn suppressions_in_tree_are_the_known_set() {
    // The ledger of exceptions is small and audited: the two
    // throughput-timing Instant::now sites and the counting GlobalAlloc
    // wrapper in the heap-budget test (GlobalAlloc is an unsafe trait;
    // the impl delegates verbatim to System, and no library crate carries
    // it). Growing this
    // list should be a deliberate, reviewed act — update this test when
    // you do.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = scan_tree(root).expect("workspace scan failed");
    let mut suppressed: Vec<(String, String)> = findings
        .iter()
        .filter(|f| f.suppressed)
        .map(|f| (f.rule.clone(), f.file.clone()))
        .collect();
    suppressed.sort();
    suppressed.dedup();
    assert_eq!(
        suppressed,
        vec![
            (
                "unsafe-block".to_string(),
                "tests/memory_budget.rs".to_string()
            ),
            (
                "wall-clock".to_string(),
                "crates/sim/src/engine.rs".to_string()
            ),
            ("wall-clock".to_string(), "crates/sim/src/rt.rs".to_string()),
        ],
        "the suppression ledger changed — audit the new entries"
    );
}
