//! The engine's memory contract, measured on the heap rather than on the
//! process: every cell of the quick `engine-scale` grid runs alone under a
//! counting global allocator, and each must stay within
//!
//! * **0.5 allocations per simulated message** — the calendar-queue /
//!   arena engine and the protocols allocate per run, never per message,
//!   so reintroduced per-message `Box` / `Vec` churn lands far above it;
//! * **its recorded peak-heap budget** — 1.25 × the live-heap high-water
//!   mark the cell reached at the commit named on [`MEASURED_PEAKS`], so a
//!   per-node allocation regression fails here by cell.
//!
//! Unlike the process's `VmHWM`, heap counts do not depend on which cell
//! ran first or on the allocator's arenas: repeated runs read the same
//! numbers. The file holds a single `#[test]` so no other test shares the
//! counters. Run with `--nocapture` to print the per-cell
//! table (allocations, allocations/message, peak bytes, bytes/node).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ule_xp::{builtin, execute, AdversaryProfile, CampaignSpec, JobGroup, RunMeta};

/// [`System`] plus three relaxed counters: allocations (a `realloc`
/// counts as one), live bytes, and the live-bytes high-water mark.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to `System`; the counters are
// updated only after a successful call and never touch the memory.
// ule-lint: allow(unsafe-block, reason = "GlobalAlloc is an unsafe trait; verbatim System delegate")
unsafe impl GlobalAlloc for CountingAlloc {
    // ule-lint: allow(unsafe-block, reason = "unsafe fn signature required by GlobalAlloc")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        ptr
    }

    // ule-lint: allow(unsafe-block, reason = "unsafe fn signature required by GlobalAlloc")
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        ptr
    }

    // ule-lint: allow(unsafe-block, reason = "unsafe fn signature required by GlobalAlloc")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // ule-lint: allow(unsafe-block, reason = "unsafe fn signature required by GlobalAlloc")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The budget every cell shares — the absolute ceiling `ule-xp compare
/// --fail-allocs` applied before this test replaced it: at most one
/// allocation per two simulated messages.
const MAX_ALLOCS_PER_MESSAGE: f64 = 0.5;

/// Each cell's peak live heap in bytes, in grid order, keyed by
/// `algorithm @ workload [threads] [adversary]`, as measured at commit
/// `fb44415` — but for `threads-2`, re-measured on the change after
/// `4667afd` that puts a shard's synchronous sends into its own range
/// straight into its inboxes instead of the mail (46 167 106 B, 462
/// B/node, before it), and for `delay-2`, re-measured on the change after
/// `7a9bcdb` that lets a calendar bucket's allocation leave the ring with
/// its items instead of parking every burst-sized bucket there for the
/// rest of the run (78 690 417 B, 788 B/node, before it). Debug and
/// release builds read the same bytes, and so do repeated runs; a cell's
/// budget is 1.25 × its entry.
const MEASURED_PEAKS: [(&str, usize); 10] = [
    ("floodmax @ cycle/10000", 2_407_857),
    ("floodmax @ cycle/100000", 20_896_549),
    ("floodmax @ torus/10000", 3_078_833),
    ("floodmax @ torus/99856", 30_971_713),
    ("floodmax @ sparse-rnd/10000", 4_517_593),
    ("floodmax @ sparse-rnd/100000", 42_140_533),
    ("dfs-agent @ path/1000", 395_341),
    ("dfs-agent @ path/10000", 4_317_281),
    ("floodmax @ torus/99856 threads-2", 33_588_514),
    ("floodmax @ torus/99856 delay-2", 39_368_801),
];

#[test]
fn every_quick_engine_scale_cell_stays_within_its_heap_and_allocation_budget() {
    let campaign = builtin("engine-scale", true).expect("engine-scale is a builtin");
    let mut cells = Vec::new();
    for group in &campaign.groups {
        for &family in &group.families {
            for &n in &group.sizes {
                for &algorithm in &group.algorithms {
                    cells.push(CampaignSpec {
                        groups: vec![JobGroup {
                            algorithms: vec![algorithm],
                            families: vec![family],
                            sizes: vec![n],
                            ..group.clone()
                        }],
                        ..campaign.clone()
                    });
                }
            }
        }
    }
    println!("cell | allocations | allocs/msg | peak heap B | B/node");
    let mut measured = Vec::new();
    for spec in &cells {
        let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
        let live_before = LIVE.load(Ordering::Relaxed);
        PEAK.store(live_before, Ordering::Relaxed);
        let result = execute(spec, RunMeta::fixed(), false).expect("engine-scale cell runs");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
        let peak = PEAK.load(Ordering::Relaxed) - live_before;
        let cell = &result.cells[0];
        let mut label = format!("{} @ {}", cell.algorithm, cell.workload);
        if let Some(threads) = cell.threads {
            label += &format!(" threads-{threads}");
        }
        if cell.adversary != AdversaryProfile::Lockstep {
            label += &format!(" {}", cell.adversary.name());
        }
        let messages = cell.summary.mean_messages * cell.summary.trials as f64;
        let per_message = allocations as f64 / messages.max(1.0);
        println!(
            "{label} | {allocations} | {per_message:.5} | {peak} | {:.0}",
            peak as f64 / cell.n as f64
        );
        measured.push((label, per_message, peak));
    }
    let labels: Vec<&str> = measured.iter().map(|(l, _, _)| l.as_str()).collect();
    let expected: Vec<&str> = MEASURED_PEAKS.iter().map(|&(l, _)| l).collect();
    assert_eq!(
        labels, expected,
        "the quick engine-scale grid changed: re-measure MEASURED_PEAKS"
    );
    for ((label, per_message, peak), &(_, recorded)) in measured.iter().zip(&MEASURED_PEAKS) {
        let budget = recorded + recorded / 4;
        assert!(
            *per_message <= MAX_ALLOCS_PER_MESSAGE,
            "{label}: {per_message:.3} allocations per message (budget {MAX_ALLOCS_PER_MESSAGE})"
        );
        assert!(
            *peak <= budget,
            "{label}: peak live heap {peak} B over its budget of {budget} B"
        );
    }
}
