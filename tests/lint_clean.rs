//! The determinism lint, enforced by plain `cargo test`: scans every
//! `.rs` file under `crates/` and `src/` (plus `tests/` and `examples/`)
//! and fails on any unsuppressed finding. CI runs the same pass via
//! `cargo run -p ule-lint -- check`; this test makes the gate local — and
//! with it the size ratchet over `ule-lint stats`.

use ule_lint::{scan_tree, stats::crate_stats, unsuppressed};

/// ROADMAP aim 2's tracked numbers: the workspace's non-test code lines
/// and `pub` items (`ule-lint stats`, the `total` row) as of the last
/// change that moved them. The lines were last raised from 10 549 by the
/// 56 that `crates/sim` grew (2 758 → 2 814) when the async worker began
/// to schedule from events: a ready list and a waiting list (`NodeList`),
/// a wake calendar, a floor, flat per-worker in-port columns (`Inbox`)
/// and `[u64; 4]` frame headers — net of the deleted per-node sweep,
/// `NodeRt`, the O(n) `Advance` / `earliest_event` walks and the
/// active-round set. What the lines buy: `run_s` on the repo benchmark's
/// `async-torus` 0.074 s → 0.037 s (−50 %, medians of 10 alternating
/// pairs, faster in all 10; CHANGES.md) at 6 % less peak RSS.
const MAX_CODE_LINES: usize = 10_605;
const MAX_PUB_ITEMS: usize = 478;

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
    // wrapper behind ule-xp's count-allocs feature (GlobalAlloc is an
    // unsafe trait; the impl delegates verbatim to System). Growing this
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
                "crates/xp/src/metrics.rs".to_string()
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
