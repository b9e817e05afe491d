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
/// Raised from 10 520 by the 44 lines (all in `crates/sim`) that let a
/// shard put its synchronous sends into its own range straight into its
/// inboxes and splice a lower range's in ahead of them, instead of
/// parking every send in the mail: `sharded-torus` `peak_rss_mib` fell
/// 31.7 → 25.4 MiB (−20 %). Lowered to 10 562 / 473 when the calendar
/// stopped parking drained buckets in its ring and dropped its unused
/// `horizon` and `len` accessors. Raised to 10 605 by the 43 lines (all
/// in `crates/sim`) that take the engine arena's chunked, free-listed
/// entry pool out into one pool both runtimes use and put an async
/// worker's pending deliveries in it, one chain per node, instead of a
/// `Vec` per node: `async-torus` `peak_rss_mib` fell 11.0 → 8.7 MiB
/// (−21 %). Raised to 10 607 by linking a landing delivery at its
/// chain's head in O(1) and sorting the due entries when they are taken,
/// instead of walking the chain to each delivery's place in inbox order
/// (quadratic in a high-degree node's pending deliveries: 3.4 s against
/// 0.14 s for FloodMax on an async `star/20000`, two workers on a 2-vCPU
/// box). Lowered to 10 606 / 471 when the CSR graph moved to `u32`
/// columns without a stored edge list and `EdgeId` and `Graph::edge_id`
/// were deleted (`crates/graph` 1 559 → 1 552 lines; the typed error of
/// `Graph::disjoint_union` adds 4 to `crates/lowerbound`, and sizing the
/// async worker pool from `SimConfig::parallelism` 2 to `crates/sim`).
const MAX_CODE_LINES: usize = 10_606;
const MAX_PUB_ITEMS: usize = 471;

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
