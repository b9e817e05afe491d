//! Benchmark-owned tracing: spans around public calls into each layer, and
//! two decorators that give the inside view of a run without touching the
//! program under test.
//!
//! * [`Recorder`] keeps spans in memory and writes them out when the child
//!   ends. A layer's self time is its span minus its children.
//! * [`Traced`] wraps a public protocol struct and counts/times every
//!   `on_round` call; the sum becomes one aggregate child span of the
//!   runner span, so what is left of the runner span is the engine.
//! * [`Counted`] wraps a topology and counts `endpoint`/`endpoint_indexed`.
//!
//! Both decorators accumulate into per-thread, cache-line-padded slots so
//! the sharded engine's two threads do not contend on one counter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use ule_graph::{NodeId, Port, Topology};
use ule_sim::{Context, Protocol, Status};
use ule_xp::json::Json;

/// One recorded interval. `parent` indexes the span that caused it;
/// `count > 1` marks an aggregate of that many calls whose summed duration
/// is laid out from the parent's start (CPU-sum, not wall clock).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log of one child process.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 1,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds an aggregate child (`count` calls, `total_ns` summed) under the
    /// most recently closed span named `parent`.
    pub fn aggregate(
        &mut self,
        parent: &'static str,
        name: &'static str,
        count: u64,
        total_ns: u64,
    ) {
        let Some(pid) = self.spans.iter().rposition(|s| s.name == parent) else {
            return;
        };
        let start_ns = self.spans[pid].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(pid),
            count,
        });
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed self time (span minus children) of every span named `name`.
    pub fn self_time(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(Span::secs)
                .sum();
            total += s.secs() - children;
        }
        total
    }

    /// The trace file: every span with its name, interval, parent and the
    /// run it belongs to.
    pub fn to_json(&self, workload: &str, run_id: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("count".into(), Json::Num(s.count as f64)),
                    ("run".into(), Json::Num(run_id as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("run".into(), Json::Num(run_id as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Counters one thread adds to; a cache line of its own.
#[repr(align(64))]
struct Slot {
    steps: AtomicU64,
    on_round_ns: AtomicU64,
    inbox_msgs: AtomicU64,
    endpoint_calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: Slot = Slot {
    steps: AtomicU64::new(0),
    on_round_ns: AtomicU64::new(0),
    inbox_msgs: AtomicU64::new(0),
    endpoint_calls: AtomicU64::new(0),
};
const SLOTS: usize = 64;
static TABLE: [Slot; SLOTS] = [EMPTY_SLOT; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's slot. Threads beyond [`SLOTS`] share one, which costs
/// contention but never a count: every update is an atomic add.
fn slot() -> &'static Slot {
    let i = MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    });
    &TABLE[i]
}

/// Totals of every slot since the last [`take_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub steps: u64,
    pub on_round_ns: u64,
    pub inbox_msgs: u64,
    pub endpoint_calls: u64,
}

/// Sums and clears the slots. Call only while no run is in flight.
pub fn take_counters() -> Counters {
    let mut c = Counters::default();
    for s in &TABLE {
        c.steps += s.steps.swap(0, Ordering::Relaxed);
        c.on_round_ns += s.on_round_ns.swap(0, Ordering::Relaxed);
        c.inbox_msgs += s.inbox_msgs.swap(0, Ordering::Relaxed);
        c.endpoint_calls += s.endpoint_calls.swap(0, Ordering::Relaxed);
    }
    c
}

/// A protocol whose `on_round` calls are counted and timed.
#[derive(Debug)]
pub struct Traced<P>(pub P);

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]) {
        let start = Instant::now();
        self.0.on_round(ctx, inbox);
        let ns = start.elapsed().as_nanos() as u64;
        let s = slot();
        s.steps.fetch_add(1, Ordering::Relaxed);
        s.on_round_ns.fetch_add(ns, Ordering::Relaxed);
        s.inbox_msgs
            .fetch_add(inbox.len() as u64, Ordering::Relaxed);
    }

    fn status(&self) -> Status {
        self.0.status()
    }
}

/// A topology whose endpoint lookups are counted. Every other method
/// forwards unchanged, so the run sees the same graph.
#[derive(Debug)]
pub struct Counted<'a, T>(pub &'a T);

impl<T: Topology> Topology for Counted<'_, T> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn degree(&self, v: NodeId) -> usize {
        self.0.degree(v)
    }
    fn endpoint(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        slot().endpoint_calls.fetch_add(1, Ordering::Relaxed);
        self.0.endpoint(v, p)
    }
    fn endpoint_indexed(&self, v: NodeId, p: Port) -> (NodeId, Port, usize) {
        slot().endpoint_calls.fetch_add(1, Ordering::Relaxed);
        self.0.endpoint_indexed(v, p)
    }
    fn directed_index(&self, v: NodeId, p: Port) -> usize {
        self.0.directed_index(v, p)
    }
    fn directed_edge_count(&self) -> usize {
        self.0.directed_edge_count()
    }
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.0.has_edge(u, v)
    }
    fn max_degree(&self) -> usize {
        self.0.max_degree()
    }
    fn diameter_hint(&self) -> Option<usize> {
        self.0.diameter_hint()
    }
}
