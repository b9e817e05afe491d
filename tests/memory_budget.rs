//! The runtimes' memory contract, measured on the heap rather than on the
//! process: every cell of the quick `engine-scale` grid, and its FloodMax
//! `cycle/10000` and `torus/10000` cells again on the async runtime with
//! two workers, runs alone under a counting global allocator, and each
//! must stay within
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use ule_core::baseline::FloodMax;
use ule_core::Algorithm;
use ule_graph::analysis::diameter_double_sweep;
use ule_graph::gen::{workload_graph, Family};
use ule_sim::{AsyncRuntime, Knowledge};
use ule_xp::spec::{DiameterMode, KnowledgeMode};
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
/// `algorithm @ workload [threads] [adversary] [async]`, as measured at commit
/// `fb44415` — but for `threads-2`, re-measured on the change after
/// `4667afd` that puts a shard's synchronous sends into its own range
/// straight into its inboxes instead of the mail (46 167 106 B, 462
/// B/node, before it), and for `delay-2`, re-measured on the change after
/// `7a9bcdb` that lets a calendar bucket's allocation leave the ring with
/// its items instead of parking every burst-sized bucket there for the
/// rest of the run (78 690 417 B, 788 B/node, before it). The `async`
/// cells, on [`ASYNC_WORKERS`] workers, were first measured on the change
/// after `396848e` that puts an async worker's pending deliveries in one
/// free-listed entry pool instead of a `Vec` per node (7 356 916 B for
/// `torus/10000` and 4 522 772 B for `cycle/10000` before it, with
/// 20 086 and 12 884 allocations). Debug and release builds read the
/// same bytes, and so do repeated runs, but for the `async` cells, which
/// move by a few kB with how the two workers interleave; a cell's budget
/// is 1.25 × its entry.
const MEASURED_PEAKS: [(&str, usize); 12] = [
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
    ("floodmax @ cycle/10000 async", 3_007_684),
    ("floodmax @ torus/10000 async", 4_649_716),
];

/// The async rows' worker count, pinned as the benchmark pins its async
/// workload: each worker keeps its own entry pool, channel blocks and
/// wakeup calendar, and more workers cut more edges, so a recorded peak
/// holds for one worker count, whatever the host's cores.
const ASYNC_WORKERS: usize = 2;

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

/// Runs FloodMax on the one cell of `spec`, an engine-scale FloodMax cell,
/// on the async runtime with [`ASYNC_WORKERS`] workers, under the config
/// `execute` gives its one trial; returns the messages sent.
fn floodmax_async(spec: &CampaignSpec) -> u64 {
    let g = &spec.groups[0];
    assert_eq!(
        (g.diameter, g.knowledge, g.trials),
        (DiameterMode::UpperBound, KnowledgeMode::NAndDiameter, 1)
    );
    let graph = workload_graph(spec.graph_seed, g.families[0], g.sizes[0]).expect("graph builds");
    let d = 2 * diameter_double_sweep(&graph, 0).expect("graph is connected") as usize;
    let (n, d) = (graph.len(), d.max(1));
    let mut cfg = Algorithm::FloodMax.config(n, Some(d), 0);
    cfg.max_rounds = u64::MAX / 4;
    cfg.knowledge = Knowledge::n_and_diameter(n, d);
    let runtime = AsyncRuntime::new()
        .with_workers(ASYNC_WORKERS)
        .without_trace();
    runtime
        .run(&graph, &cfg, |_, _, _| FloodMax::new())
        .outcome
        .messages
}

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
    let mut record = |label: String, (allocations, peak): (u64, usize), messages: f64, n| {
        let per_message = allocations as f64 / messages.max(1.0);
        println!(
            "{label} | {allocations} | {per_message:.5} | {peak} | {:.0}",
            peak as f64 / n as f64
        );
        measured.push((label, per_message, peak));
    };
    // The async runtime's rows: the grid's lockstep FloodMax cells at
    // n = 10⁴, rerun on the threads+channels runtime after the grid.
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
            && matches!(cell.family, Family::Cycle | Family::Torus)
            && cell.n == 10_000
            && cell.threads.is_none()
            && cell.adversary == AdversaryProfile::Lockstep
        {
            asynchronous.push((spec, format!("{label} async"), messages, cell.n));
        }
        record(label, counts, messages, cell.n);
    }
    for (spec, label, messages, n) in asynchronous {
        let (counts, sent) = counted(|| floodmax_async(spec));
        assert_eq!(
            sent as f64, messages,
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
