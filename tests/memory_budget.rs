//! The runtimes' memory contract, measured on the heap rather than on the
//! process: every cell of the quick `engine-scale` grid, and its FloodMax
//! `cycle/10000`, `torus/10000` and `sparse-rnd/10000` cells again on the
//! async runtime with two workers, runs alone under a counting global
//! allocator, and each must stay within
//!
//! * **0.5 allocations per simulated message** — the calendar-queue /
//!   arena engine, the async workers' entry pools and the protocols
//!   allocate per run, never per message, so reintroduced per-message
//!   `Box` / `Vec` churn lands far above it;
//! * **its recorded peak-heap budget** — 1.25 × the live-heap high-water
//!   mark the cell reached at the commit named on [`MEASURED_PEAKS`], so a
//!   per-node allocation regression fails here by cell.
//!
//! Unlike the process's `VmHWM`, heap counts do not depend on which cell
//! ran first or on the allocator's arenas: repeated runs read the same
//! numbers. The file holds a single `#[test]` so no other test shares the
//! counters. Run with `--nocapture` to print the per-cell
//! table (allocations, allocations/message, peak bytes, bytes/node).
//! The same test checks that a graph too large for the CSR's `u32` node
//! indices is refused before anything is allocated for it, by the builder
//! and by the generators.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ule_core::Algorithm;
use ule_graph::gen::{self, Family};
use ule_graph::{Graph, GraphError};
use ule_sim::RuntimeKind;
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
/// `algorithm @ workload [threads] [adversary] [async]`. The engine rows
/// are as measured on the change after `5ac873a` that keeps the CSR graph
/// in `u32` columns and stops storing its edge list (`5ac873a` read, in
/// this order, 2 407 841, 20 896 533, 3 078 817, 30 971 697 (310 B/node),
/// 4 517 577, 42 140 517, 394 733, 4 316 337, 33 588 514 and 39 368 801 B
/// with this test). The `async` rows are as measured on the change after
/// `6e690dd` that keeps the in-port clock as the async runtime's one
/// per-link column, dropping its `LinkGate` and `LinkSeq` columns:
/// `6e690dd` read 2 687 928, 4 009 960 (401 B/node) and, with the
/// `sparse-rnd` row this change added, 8 297 176 B (830 B/node). The
/// `async` cells run through `execute` on an async group with
/// [`ASYNC_WORKERS`] threads. Debug and release builds read the same
/// bytes, and so do repeated runs, but for the `async` cells, which move
/// by a few kB with how the two workers interleave; a cell's budget is
/// 1.25 × its entry.
const MEASURED_PEAKS: [(&str, usize); 13] = [
    ("floodmax @ cycle/10000", 2_087_841),
    ("floodmax @ cycle/100000", 17_696_533),
    ("floodmax @ torus/10000", 2_438_817),
    ("floodmax @ torus/99856", 24_580_913),
    ("floodmax @ sparse-rnd/10000", 3_557_577),
    ("floodmax @ sparse-rnd/100000", 32_540_517),
    ("dfs-agent @ path/1000", 362_765),
    ("dfs-agent @ path/10000", 3_996_369),
    ("floodmax @ torus/99856 threads-2", 27_197_730),
    ("floodmax @ torus/99856 delay-2", 32_978_017),
    ("floodmax @ cycle/10000 async", 2_366_880),
    ("floodmax @ torus/10000 async", 3_365_936),
    ("floodmax @ sparse-rnd/10000 async", 7_092_672),
];

/// The async rows' worker count, pinned as the benchmark pins its async
/// workload: each worker keeps its own entry pool, channel blocks and
/// wakeup calendar, and more workers cut more edges, so a recorded peak
/// holds for one worker count, whatever the host's cores.
const ASYNC_WORKERS: u64 = 2;

/// Runs `f` alone under the counters: the allocations it made and the
/// live heap it added at its peak, beside what it returns.
fn counted<R>(f: impl FnOnce() -> R) -> ((u64, usize), R) {
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let out = f();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    let peak = PEAK.load(Ordering::Relaxed) - live_before;
    ((allocations, peak), out)
}

#[test]
fn every_quick_engine_scale_cell_stays_within_its_heap_and_allocation_budget() {
    // A graph past the CSR's u32 node indices is refused before anything
    // is allocated for it, by the builder and by the generators, which
    // would otherwise ask for tens of GiB of edge list first.
    const N: usize = u32::MAX as usize + 1;
    type Build = fn() -> Result<Graph, GraphError>;
    let refusals: [(usize, Build); 3] = [
        (N, || Graph::from_edges(N, &[])),
        (N, || gen::cycle(N)),
        (65_536 * 65_537, || gen::torus(65_536, 65_537)),
    ];
    for (nodes, build) in refusals {
        let (counts, refused) = counted(build);
        assert_eq!(refused, Err(GraphError::TooManyNodes(nodes)));
        assert_eq!(counts, (0, 0), "refusing {nodes} nodes allocated");
    }

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
    let mut record = |label: String, (allocations, peak): (u64, usize), messages: f64, n| {
        let per_message = allocations as f64 / messages.max(1.0);
        println!(
            "{label} | {allocations} | {per_message:.5} | {peak} | {:.0}",
            peak as f64 / n as f64
        );
        measured.push((label, per_message, peak));
    };
    // The async runtime's rows: the grid's lockstep FloodMax cells at
    // n = 10⁴, rerun on the threads+channels runtime after the grid;
    // `sparse-rnd` (m = 3n) gives them uneven degrees.
    let mut asynchronous = Vec::new();
    for spec in &cells {
        let (counts, result) =
            counted(|| execute(spec, RunMeta::fixed(), false).expect("engine-scale cell runs"));
        let cell = &result.cells[0];
        let mut label = format!("{} @ {}", cell.algorithm, cell.workload);
        if let Some(threads) = cell.threads {
            label += &format!(" threads-{threads}");
        }
        if cell.adversary != AdversaryProfile::Lockstep {
            label += &format!(" {}", cell.adversary.name());
        }
        let messages = cell.summary.mean_messages * cell.summary.trials as f64;
        if cell.algorithm == Algorithm::FloodMax
            && matches!(
                cell.family,
                Family::Cycle | Family::Torus | Family::SparseRandom
            )
            && cell.n == 10_000
            && cell.threads.is_none()
            && cell.adversary == AdversaryProfile::Lockstep
        {
            let mut spec = spec.clone();
            spec.groups[0].runtime = RuntimeKind::Async;
            spec.groups[0].threads = Some(ASYNC_WORKERS);
            asynchronous.push((spec, format!("{label} async"), messages, cell.n));
        }
        record(label, counts, messages, cell.n);
    }
    for (spec, label, messages, n) in asynchronous {
        let (counts, result) =
            counted(|| execute(&spec, RunMeta::fixed(), false).expect("async cell runs"));
        let summary = &result.cells[0].summary;
        assert_eq!(
            summary.mean_messages * summary.trials as f64,
            messages,
            "{label} sent other messages than its cell"
        );
        record(label, counts, messages, n);
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
