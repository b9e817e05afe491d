//! The async threads+channels runtime: real message passing, no round
//! barrier.
//!
//! Drives the *same* [`Protocol`] implementations as the lockstep engine
//! ([`crate::Runner`] on [`RuntimeKind::Sim`]), but over `std::sync::mpsc`
//! channels: the nodes are cut into the engine's contiguous ranges, one
//! per worker of a thread pool, each with its own node store (the shared
//! set-up of [`crate::exec`], lazy RNG column included), every message
//! crosses a channel under a fixed header whose send round is checked
//! against its in-port's clock on arrival, and there
//! is no global round loop — a node runs whenever its inputs are ready,
//! and idle stretches are crossed by an **arbiter handshake** instead of a
//! clock (round-free wakeups).
//!
//! # Conservative scheduling and the exactness guarantee
//!
//! This is a conservative parallel discrete-event simulation in the
//! Chandy–Misra tradition, with the engine's round numbers as virtual
//! time. Each in-port has a **clock**: one past the latest *send*
//! round seen on it. A directed edge carries at most one send per round,
//! so its send rounds strictly increase, and per-edge FIFO delivery is
//! exactly "no frame lands with a send round below its port's clock" —
//! which every landing checks, in every build. The clock is therefore a
//! lower bound on anything still in flight on the port: every later frame
//! is delivered after its own send round. A node
//! executes its next event (earliest pending delivery or its own wakeup
//! timer) only once every in-port clock has reached that round, so no
//! earlier input can still arrive. When nothing is executable anywhere
//! and no frame is in flight, the last worker to block computes the
//! globally earliest next event `r*` and broadcasts an advance to `r*`
//! (or stops the run: quiescence / round cap) — the async analogue of the
//! engine's fast-forward, with the same semantics: skipped rounds count
//! as model time but cost no work.
//!
//! Because each activation consumes exactly the inputs the synchronous
//! model prescribes for that round — with inboxes ordered by `(send
//! round, sender, emission index)`, the engine's global send order, and
//! identical per-node RNG streams from `crate::exec::set_up` — the
//! runtime *reproduces the synchronous execution exactly*. The
//! [`RunOutcome`] of [`AsyncRuntime::run`] is **equal** to the engine's,
//! field for field: same leader, same message/bit totals, same rounds,
//! same per-edge statistics (`tests/async_conformance.rs` pins every
//! registry algorithm, under every adversary). This is deliberately
//! stronger than "message totals within tolerance": agreement validates
//! the simulator's accounting against real concurrent execution.
//!
//! # Scheduling cost
//!
//! A worker does work per event, not per node. Its one per-link column
//! is the in-port clocks, a flat `u64` column over its in-port slots (the
//! frame sequence numbers a trace logs are the ledger's per-edge send
//! counts, not a column of their own), and four structures decide who is
//! looked at:
//!
//! * the **ready** list (a stack with a dedup bit per node) holds the
//!   nodes that may have become executable: a frame landed on them,
//!   they were released by an advance, or they are the round-0 wakeups.
//!   A popped node runs for as long as it is executable;
//! * the **waiting** list holds, once each, the nodes that ended their
//!   turn with deliveries still pending;
//! * the **wake calendar** (`exec`'s `Wakes`, the engine's too) holds one
//!   entry per standing timer, pushed when the timer is armed; an entry is
//!   genuine iff the node's timer still names its round;
//! * the **floor** is the last advance: no frame due at or below it is in
//!   flight anywhere, so it raises every clock without writing one.
//!
//! An advance to `r*` sets the floor, moves `waiting` onto `ready` and
//! readies the genuine wake entries of round `r*`: the calendar holds no
//! earlier round, since `r*` is the global minimum and the worker dropped
//! the superseded rounds ahead of its first genuine wakeup when it
//! blocked. A blocking worker's earliest event is its first genuine
//! wakeup or the earliest delivery of a node on `waiting` or `ready` —
//! every node with a delivery pending is on one of them (`ready` is empty
//! when a live worker blocks; in a [`replay`] it holds every node that
//! ever had one). A barrier therefore costs O(woken) instead of the O(n · deg)
//! of sweeping every node and writing every clock, and an activation
//! allocates no frame: the header is a fixed `[u64; 4]`.
//!
//! # One accounting path, no sequential bottleneck
//!
//! This module owns *how a staged send travels* and *when a node steps*;
//! what a send costs and what becomes of it is [`crate::exec`]'s. The
//! `send` closure a worker hands `step_node` is the whole transport:
//! account, then land the delivery on the destination's chain or ship it
//! with its header over the owning worker's channel. A
//! worker keeps every pending delivery of its range in one free-listed
//! entry pool (the engine's, see `exec::Pool`): a landing links its
//! delivery at the head of its node's chain, and an activation unlinks
//! the due entries, sorts them into inbox order and frees them. In
//! lockstep, exact scheduling keeps about two rounds of deliveries pending
//! however long the run, so the pool stays that size and no node owns an
//! allocation. Each worker feeds its sends to its own `LedgerPart` — the
//! same `LedgerPart::account` the engine's shards call — covering only
//! the out-edges of the nodes it owns, and after the workers join the parts
//! merge (concatenating the per-edge columns) into the part
//! `LedgerPart::finish` turns into the [`RunOutcome`]. Delay, crash and
//! link-failure adversaries run here with engine-equal outcomes because
//! message fates are a pure function of `(run_seed, directed edge,
//! per-edge send index)` (see [`crate::adversary`]): no global merge order
//! is needed. Lost sends still consume a per-edge send index (the
//! receiving clock tolerates the gap), crashes suppress wakeups *at arm
//! time* on both runtimes, and deliveries into a node at or past its
//! crash round are discarded at the sender.
//!
//! What stays here is what only this runtime has: the delivery trace and
//! its [`replay`]; `round_totals`, rebuilt from per-worker send tallies
//! of the active rounds because there is no global round loop to push
//! them from; and
//! watch-edge accounting, whose `messages_before` field *is* a
//! global-interleaving quantity and is reconstructed post-hoc from the
//! trace: events sorted by `(round, node)` are the engine's execution
//! order, and re-deriving each logged send's fate with the core's fate
//! function recovers exactly which send first crossed each watched edge.
//!
//! # Determinism and the delivery trace
//!
//! The outcome is deterministic at any worker count for the same reason
//! the engine is at any thread count: scheduling freedom moves wall-clock,
//! never the computation. In addition, a run records a [`DeliveryTrace`] —
//! which node ran at which round, what it consumed and what it emitted —
//! and [`replay`] re-executes a trace sequentially — one worker owning
//! every node, driven by the trace instead of by channels — verifying
//! every step and rebuilding the identical outcome and trace byte for
//! byte.

use crate::adversary::SendView;
use crate::config::SimConfig;
use crate::exec::{
    set_up, step_node, Bitmap, LedgerPart, NodeStore, Owners, Pool, RunCtx, RunFacts, RunOutcome,
    Slot, StagedSend, StepScratch, Termination, Wakes, WatchHit, NO_SLOT,
};
use crate::protocol::{NodeSetup, Protocol};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Mutex;
use ule_graph::{NodeId, Port, Topology};

/// Which runtime drives a run: the lockstep round simulator or the async
/// threads+channels runtime. Both execute the identical protocol code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The synchronous round engine: sequential reference semantics with
    /// optional sharded-parallel stepping.
    #[default]
    Sim,
    /// The async threads+channels runtime ([`AsyncRuntime`]): real message
    /// passing over `mpsc` channels, exact-conformant with the engine
    /// under every execution model.
    Async,
}

impl RuntimeKind {
    /// Stable lower-case name, as spelled in `ule-xp` specs.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Async => "async",
        }
    }
}

/// One activation in a [`DeliveryTrace`]: node `node` ran at `round`,
/// consumed `delivered` and emitted `sent`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The (virtual-time) round of the activation.
    pub round: u64,
    /// The activated node.
    pub node: NodeId,
    /// Deliveries consumed, in inbox order: `(in-port, sender, emission
    /// index within the sender's activation)`.
    pub delivered: Vec<(Port, NodeId, u64)>,
    /// Frames emitted, in emission order: `(directed-edge index, frame
    /// sequence number on that link)`.
    pub sent: Vec<(usize, u64)>,
}

/// The delivery log of a deterministic-seed async run: every activation,
/// with what it consumed and emitted, sorted by `(round, node)` — the
/// engine's execution order. [`replay`] re-executes a trace sequentially
/// and must reproduce both the outcome and the trace byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryTrace {
    /// The activations, sorted by `(round, node)`.
    pub events: Vec<TraceEvent>,
}

/// An async run's results: the outcome (equal to the engine's for the
/// same graph, config and factory) plus the delivery trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncRun {
    /// Everything measured, field-for-field comparable with the engine's
    /// outcome for the same graph, config and factory.
    pub outcome: RunOutcome,
    /// The delivery log (empty if trace recording was disabled).
    pub trace: DeliveryTrace,
}

/// Configuration of the async runtime: worker-pool size and trace
/// recording. The defaults record a trace and size the pool to the
/// machine (one worker inside a [`crate::harness::parallel_trials`]
/// fan-out, where the cores are already saturated).
#[derive(Debug, Clone, Default)]
pub struct AsyncRuntime {
    workers: Option<usize>,
    no_trace: bool,
}

impl AsyncRuntime {
    /// The default configuration.
    pub fn new() -> Self {
        AsyncRuntime::default()
    }

    /// Pins the worker-pool size (must be nonzero; values above `n` are
    /// clamped). The outcome is identical at any worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "the worker pool needs at least one thread");
        self.workers = Some(workers);
        self
    }

    /// Disables delivery-trace recording (the outcome is unaffected).
    pub fn without_trace(mut self) -> Self {
        self.no_trace = true;
        self
    }

    /// Runs `factory`-created protocol instances on `graph` under
    /// `config`, over channels. Every execution model is supported; the
    /// outcome equals the engine's field for field.
    ///
    /// # Panics
    ///
    /// As the engine: invalid configs and protocol API misuse panic
    /// (the panic surfaces on the main thread).
    pub fn run<T, P, F>(&self, graph: &T, config: &SimConfig, factory: F) -> AsyncRun
    where
        T: Topology,
        P: Protocol,
        F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
    {
        // The shared run set-up cuts the engine's ranges, one per worker,
        // each with its own store; fate queries are pure, so the workers
        // share the facts by reference.
        let workers = self.workers.unwrap_or_else(crate::harness::host_cores);
        let (ranges, owners, facts) = set_up(graph, config, workers, factory);
        let mut books = books(&facts, ranges);
        if graph.n() == 0 {
            let quiescent = (Termination::Quiescent, 0);
            return assemble(graph, &facts, books, quiescent, !self.no_trace);
        }
        let coord = Mutex::new(Coord::new(books.len()));
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..books.len()).map(|_| channel()).unzip();

        // Watch-edge reconstruction needs the event log even when the
        // caller asked for no public trace.
        let record_trace = !self.no_trace || facts.watching();
        std::thread::scope(|scope| {
            for ((w, book), rx) in books.iter_mut().enumerate().zip(receivers) {
                let worker = Worker::new(
                    graph,
                    config,
                    &facts,
                    &coord,
                    (&owners, w),
                    record_trace,
                    book,
                    senders.clone(),
                );
                scope.spawn(move || worker.run(rx));
            }
        });
        drop(senders);

        let verdict = lock(&coord)
            .verdict
            .expect("workers stopped without an arbiter decision");
        assemble(graph, &facts, books, verdict, !self.no_trace)
    }
}

/// What a worker owns for the whole run and leaves behind for `assemble`:
/// its range's store, the ledger part over the range's out-edges, and the
/// worker-side stats. Aligned, as the engine's shards are, so that one
/// worker's hot counters never share a cache line with the store columns
/// its neighbour reads at every step (unaligned, the benchmark's
/// `async-torus` ran 8 – 12 % slower on a 2-vCPU box).
#[repr(align(128))]
struct Book<P: Protocol>(NodeStore<P>, LedgerPart, WorkerStats);

/// The books of the ranges the shared set-up cut.
fn books<P: Protocol>(facts: &RunFacts, ranges: Vec<(NodeStore<P>, Range<usize>)>) -> Vec<Book<P>> {
    let book = |(store, edges): (NodeStore<P>, Range<usize>)| {
        Book(store, LedgerPart::new(facts, edges), WorkerStats::default())
    };
    ranges.into_iter().map(book).collect()
}

/// Rebuilds the engine's watch-edge accounting from the delivery trace —
/// the one piece of accounting that needs a global order
/// (`messages_before` is a global-interleaving quantity), and therefore
/// the one piece this runtime keeps to itself.
///
/// `events` sorted by `(round, node)` is exactly the engine's execution
/// order, and every activation logs *all* of its sends — including lost
/// ones — as `(directed edge, per-edge send index)`. Re-deriving each
/// send's fate ([`RunFacts::fate`], the function that decided it the first
/// time) therefore recovers which sends the engine actually delivered, in
/// the engine's global send order; `messages_before` counts every send —
/// delivered or not — strictly before the first delivered crossing, which
/// is what the ledger counts too.
fn reconstruct_watch_hits<T: Topology>(
    graph: &T,
    facts: &RunFacts,
    events: &[TraceEvent],
) -> Vec<Option<WatchHit>> {
    let mut hits = facts.no_watch_hits();
    if hits.is_empty() {
        return hits;
    }
    let mut sent_so_far: u64 = 0;
    for ev in events {
        for &(didx, edge_seq) in &ev.sent {
            let src = ev.node;
            let (dest, _) = graph.endpoint(src, didx - graph.directed_index(src, 0));
            let view = SendView {
                round: ev.round,
                edge_seq,
                src,
                dest,
                didx,
            };
            sent_so_far += 1;
            if facts.fate(&view).is_ok()
                && facts.note_crossing(&mut hits, (src, dest), ev.round, sent_so_far - 1)
                && hits.iter().all(Option::is_some)
            {
                return hits;
            }
        }
    }
    hits
}

/// Re-executes a recorded [`DeliveryTrace`] sequentially: every activation
/// is replayed in `(round, node)` order, its consumed deliveries and
/// emitted frames are verified against the trace, and the identical
/// [`AsyncRun`] — outcome *and* regenerated trace — is rebuilt byte for
/// byte. `graph`, `config` and `factory` must be those of the recorded
/// run.
///
/// # Panics
///
/// Panics if the trace does not match the execution (a divergence means
/// the trace, the config or the protocol changed since recording).
pub fn replay<T, P, F>(graph: &T, config: &SimConfig, factory: F, trace: &DeliveryTrace) -> AsyncRun
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    let n = graph.n();
    let cap = config.max_rounds;
    let (ranges, owners, facts) = set_up(graph, config, 1, factory);
    let mut books = books(&facts, ranges);
    // A replay is one worker that owns every node and has no channels:
    // every delivery is local, so the (empty) sender list and the arbiter
    // state are never touched.
    let coord = Mutex::new(Coord::new(0));
    let mut worker = Worker::new(
        graph,
        config,
        &facts,
        &coord,
        (&owners, 0),
        true,
        &mut books[0],
        Vec::new(),
    );
    for ev in &trace.events {
        let (v, e) = (ev.node, ev.round);
        assert!(
            v < n,
            "replay: trace names node {v}, but the graph has {n} nodes"
        );
        assert!(
            e < cap,
            "replay: trace activates node {v} at round {e}, at or past the round cap {cap}"
        );
        assert_eq!(
            worker.next_event(v),
            e,
            "replay: node {v} has no delivery and no timer due at round {e}"
        );
        worker.execute(v, e);
        let replayed = worker
            .stats
            .events
            .last()
            .expect("a traced worker logs every activation");
        assert_eq!(
            replayed.delivered, ev.delivered,
            "replay divergence: node {v} at round {e} consumes different deliveries"
        );
        assert_eq!(
            replayed.sent, ev.sent,
            "replay divergence: node {v} at round {e} emits different frames"
        );
    }

    // The trace carries no termination verdict; re-derive it the way the
    // arbiter did. Any event left executable below the cap means the
    // trace is truncated — that is a divergence, not a verdict.
    let r_next = worker.earliest_event();
    let verdict = verdict(r_next, worker.stats.last_exec, cap).unwrap_or_else(|| {
        panic!("replay: trace ended with an executable event at round {r_next} (cap {cap})")
    });
    drop(worker);
    assemble(graph, &facts, books, verdict, true)
}

/// Locks ignoring poisoning: the arbiter state stays consistent because
/// every critical section is a few counter updates; on a worker panic the
/// run is abandoned (the panic propagates) and the state is only read for
/// cleanup.
fn lock(coord: &Mutex<Coord>) -> std::sync::MutexGuard<'_, Coord> {
    coord
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What crosses the worker channels.
enum Packet<M> {
    /// One protocol message: the [`Header`] (its send round is checked
    /// on arrival) and the protocol payload alongside, untouched.
    Payload {
        dest: NodeId,
        port: Port,
        header: Header,
        msg: M,
    },
    /// Arbiter broadcast: no frame below round `upto` is outstanding
    /// anywhere — every in-port clock may advance to it (the worker's
    /// floor).
    Advance { upto: u64 },
    /// Arbiter broadcast: the run is over.
    Stop,
}

/// The arbiter state: who is blocked, what is in flight, and each
/// worker's report. A worker that blocks with every peer blocked and
/// nothing in flight performs the advance/stop decision itself — there is
/// no dedicated coordinator thread.
struct Coord {
    blocked: usize,
    /// Packets sent but not yet processed (incremented *before* the send).
    in_flight: u64,
    /// Per worker: earliest next event round (`u64::MAX` = none).
    next_event: Vec<u64>,
    /// Per worker: latest executed round.
    last_exec: Vec<Option<u64>>,
    /// The arbiter's stop decision (see [`verdict`]).
    verdict: Option<(Termination, u64)>,
}

impl Coord {
    fn new(n_workers: usize) -> Self {
        Coord {
            blocked: 0,
            in_flight: 0,
            next_event: vec![u64::MAX; n_workers],
            last_exec: vec![None; n_workers],
            verdict: None,
        }
    }
}

/// The stop rule at a global block: the earliest pending event anywhere is
/// `r_star` (`u64::MAX` = none) and the latest executed round `last_exec`.
/// `Some((termination, end_round))` ends the run — `end_round` is the
/// round the engine's loop would have broken at, which `LedgerPart::finish`
/// extends by the crash horizons — and `None` means an event below the cap
/// is still executable (the arbiter advances to `r_star`).
fn verdict(r_star: u64, last_exec: Option<u64>, cap: u64) -> Option<(Termination, u64)> {
    let rounds_done = last_exec.map_or(0, |r| r + 1);
    if r_star < cap {
        None
    } else if rounds_done >= cap {
        // The run *ended at* the cap, which the engine reports as a
        // truncation even when nothing is pending.
        Some((Termination::RoundLimit, cap))
    } else if r_star == u64::MAX {
        Some((Termination::Quiescent, rounds_done))
    } else {
        // The engine fast-forwards to `r*` and breaks there.
        Some((Termination::RoundLimit, r_star))
    }
}

/// A queued delivery's place in the engine's inbox order: `(delivery
/// round, send round, sender, emission index)`. The `u32`s hold: the run
/// set-up bounds node counts to `u32` and degrees — so the emission
/// indices of one activation — to 2³¹.
type Key = (u64, u64, u32, u32);

/// One queued delivery beside its port: its [`Key`] and its message.
type Queued<M> = (Key, M);

/// The wire header of a delivery: `[send round, delivery round, sender,
/// emission index]`, inline in its packet.
type Header = [u64; 4];

/// A stack of node offsets, each on it at most once (one dedup bit per
/// node of the range).
struct NodeList {
    stack: Vec<u32>,
    on: Bitmap,
}

impl NodeList {
    fn new(len: usize) -> Self {
        NodeList {
            stack: Vec::new(),
            on: Bitmap::new(len),
        }
    }

    fn push(&mut self, i: usize) {
        if self.on.set(i) {
            self.stack.push(i as u32);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let i = self.stack.pop()? as usize;
        self.on.clear(i);
        Some(i)
    }
}

/// Where frames land in a worker: the owned nodes' queued deliveries —
/// one chain per node through one entry pool — the in-port clocks — a
/// flat column over the worker's in-port slots — and the ready list a
/// landing frame puts its destination on. In-port `(dest, port)` is slot
/// `directed_index(dest, port) − first`: directed indices are degree
/// prefix sums, so the reverse edges of the owned nodes' in-ports are
/// exactly the worker's own out-edge range.
///
/// A landing links its delivery at the head of its node's chain, in O(1)
/// whatever order deliveries arrive in. An activation walks the chain
/// once, unlinks what is due, sorts it into inbox order and clones each
/// message out of its freed slot, as the engine's arena does; the stale
/// message stays in the slot until the slot is reused.
struct Inbox<M> {
    /// The first owned node.
    lo: NodeId,
    /// The directed index of slot 0 (the ledger part's `edges.start`).
    first: usize,
    /// Per owned node: the first entry of its chain of deliveries not yet
    /// consumed (`NO_SLOT`: none), in no particular order.
    head: Vec<u32>,
    /// Per owned node: the earliest delivery round on its chain
    /// (`u64::MAX`: none).
    due: Vec<u64>,
    /// Every chain's entries. A port carries one send per round and every
    /// send is due within `max_delay + 1` rounds, so a node's chain holds
    /// about `degree × (max_delay + 1)` entries at most, and the pool the
    /// most the range ever has pending at once.
    pool: Pool<Queued<M>>,
    /// An activation's due entries under their keys (reused).
    order: Vec<(Key, u32)>,
    /// Per in-port slot: one past the latest send round seen on it.
    clock: Vec<u64>,
    /// Nodes to look at: a frame landed on them, or an `Advance` may
    /// have released them.
    ready: NodeList,
}

impl<M> Inbox<M> {
    /// The inbox of the `nodes` nodes from `lo`, whose `in_ports` in-port
    /// slots start at directed index `first`.
    fn new(lo: NodeId, first: usize, nodes: usize, in_ports: usize) -> Self {
        Inbox {
            lo,
            first,
            head: vec![NO_SLOT; nodes],
            due: vec![u64::MAX; nodes],
            pool: Pool::new(0),
            order: Vec::new(),
            clock: vec![0; in_ports],
            ready: NodeList::new(nodes),
        }
    }

    /// The in-port slots of node `v`.
    fn slots<T: Topology>(&self, topo: &T, v: NodeId) -> std::ops::Range<usize> {
        match topo.degree(v) {
            0 => 0..0,
            d => {
                let s = topo.directed_index(v, 0) - self.first;
                s..s + d
            }
        }
    }

    /// Checks, decodes and queues one frame at its destination, and
    /// readies the destination.
    ///
    /// The port clock advances to `send round + 1`, not to the delivery
    /// round: per-directed-edge send rounds strictly increase (a node sends
    /// at most once per port per round), so after a frame sent at round `s`
    /// arrives, nothing still in flight on this port can be due at or
    /// before `s + 1` — even when a delay adversary scatters delivery
    /// rounds out of order. For the same reason a send round below the
    /// clock is a FIFO violation; a gap (dropped frames) is not.
    ///
    /// # Panics
    ///
    /// Panics when the frame was sent before a frame already landed on its
    /// in-port: the transport broke the per-edge FIFO order.
    fn land<T: Topology>(&mut self, topo: &T, dest: NodeId, port: Port, header: Header, msg: M) {
        let slot = topo.directed_index(dest, port) - self.first;
        let [send_round, at, src, emit] = header;
        let clock = &mut self.clock[slot];
        assert!(
            send_round >= *clock,
            "out-of-order frame on in-port slot {slot}: sent at round {send_round}, after one sent at round {}",
            *clock - 1
        );
        *clock = send_round + 1;
        let i = dest - self.lo;
        let key = (at, send_round, src as u32, emit as u32);
        self.queue(i, port as u32, (key, msg));
        self.ready.push(i);
    }

    /// Links a delivery at the head of node `lo + i`'s chain.
    fn queue(&mut self, i: usize, port: u32, d: Queued<M>) {
        self.due[i] = self.due[i].min(d.0 .0);
        self.head[i] = self.pool.alloc(port, self.head[i], d);
    }

    /// Takes node `lo + i`'s deliveries due at or before round `e`: unlinks
    /// them, hands each to `each` in the engine's inbox order — ascending
    /// delivery round, then the global send order: send round, sender, the
    /// sender's emission order — and frees it. Later ones stay linked.
    fn take(&mut self, i: usize, e: u64, mut each: impl FnMut(&Slot<Queued<M>>)) {
        let mut j = std::mem::replace(&mut self.head[i], NO_SLOT);
        self.due[i] = u64::MAX;
        while j != NO_SLOT {
            let (key, next) = (self.pool[j].item.0, self.pool[j].link);
            if key.0 <= e {
                self.order.push((key, j));
            } else {
                self.due[i] = self.due[i].min(key.0);
                self.pool[j].link = std::mem::replace(&mut self.head[i], j);
            }
            j = next;
        }
        self.order.sort_unstable();
        for (_, j) in self.order.drain(..) {
            each(self.pool.free(j).0);
        }
    }
}

/// What a worker keeps beside its [`LedgerPart`]: the trace-side log that
/// `assemble` rebuilds `round_totals` from (there is no global round loop
/// to push them from).
#[derive(Default)]
struct WorkerStats {
    /// Messages sent per round in which any owned node ran — the keys are
    /// the active rounds of the cumulative `round_totals`; lost sends
    /// count, exactly as in the ledger.
    sends_per_round: BTreeMap<u64, u64>,
    /// The run of same-round activations in progress, `(round, sends)`:
    /// folded into `sends_per_round` when another round starts (and by
    /// `assemble`), so the map is touched once per run, not per activation.
    run: Option<(u64, u64)>,
    last_status_change: Option<u64>,
    last_exec: Option<u64>,
    events: Vec<TraceEvent>,
}

impl WorkerStats {
    /// Counts an activation at `round` that sent `sends` messages.
    fn tally(&mut self, round: u64, sends: u64) {
        match &mut self.run {
            Some((r, c)) if *r == round => *c += sends,
            run => {
                if let Some((r, c)) = run.replace((round, sends)) {
                    *self.sends_per_round.entry(r).or_insert(0) += c;
                }
            }
        }
        self.last_exec = self.last_exec.max(Some(round));
    }
}

/// One pool worker: owns the contiguous node range starting at
/// `inbox.lo` and schedules it from events (see the module docs).
struct Worker<'env, T: Topology, P: Protocol> {
    w: usize,
    /// Which worker owns a destination node.
    owners: &'env Owners,
    cap: u64,
    record_trace: bool,
    rc: RunCtx<'env, T>,
    facts: &'env RunFacts,
    store: &'env mut NodeStore<P>,
    inbox: Inbox<P::Msg>,
    /// Nodes that ended their turn with deliveries still pending: the
    /// next `Advance` readies them again.
    waiting: NodeList,
    /// Pending wakeups: offsets into the range, queued under their round.
    wakes: Wakes,
    /// The last `Advance`: no frame due at or below it is in flight
    /// anywhere, so it raises every in-port clock without writing one.
    floor: u64,
    part: &'env mut LedgerPart,
    stats: &'env mut WorkerStats,
    senders: Vec<Sender<Packet<P::Msg>>>,
    coord: &'env Mutex<Coord>,
    scratch: StepScratch<P::Msg>,
}

impl<'env, T: Topology, P: Protocol> Worker<'env, T, P> {
    /// Worker `w` of a pool cut into the ranges `owners` names: owns the
    /// `w`-th range's book — its nodes' store and the part over their
    /// out-edges. The one constructor behind a live pool and a replay. The
    /// spontaneous round-0 wakeups (armed as `wake == 0` by the run set-up)
    /// start on the ready list. A traced worker's part keeps the per-edge
    /// send counts even where the outcome and the fates need none: they
    /// number the frames its trace logs.
    #[allow(clippy::too_many_arguments)] // the pool's shared state, then what this worker alone owns
    fn new(
        graph: &'env T,
        config: &'env SimConfig,
        facts: &'env RunFacts,
        coord: &'env Mutex<Coord>,
        (owners, w): (&'env Owners, usize),
        record_trace: bool,
        Book(store, part, stats): &'env mut Book<P>,
        senders: Vec<Sender<Packet<P::Msg>>>,
    ) -> Self {
        let len = store.wake.len();
        if record_trace {
            part.directed_message_counts.resize(part.edges.len(), 0);
        }
        let mut inbox = Inbox::new(store.base, part.edges.start, len, part.edges.len());
        for i in (0..len).rev().filter(|&i| store.wake[i] == 0) {
            inbox.ready.push(i);
        }
        Worker {
            w,
            owners,
            cap: config.max_rounds,
            record_trace,
            rc: RunCtx::new(graph, config),
            facts,
            inbox,
            waiting: NodeList::new(len),
            wakes: Wakes::default(),
            floor: 0,
            store,
            part,
            stats,
            senders,
            coord,
            scratch: StepScratch::default(),
        }
    }

    fn run(mut self, rx: Receiver<Packet<P::Msg>>) {
        // A protocol panic must not strand the peers in `recv` forever:
        // broadcast Stop, then let the panic propagate through the scope.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drive(&rx)));
        if let Err(payload) = result {
            lock(self.coord).in_flight += self.senders.len() as u64;
            for s in &self.senders {
                let _ = s.send(Packet::Stop);
            }
            std::panic::resume_unwind(payload);
        }
    }

    fn drive(&mut self, rx: &Receiver<Packet<P::Msg>>) {
        loop {
            while let Some(i) = self.inbox.ready.pop() {
                self.turn(i);
            }
            let pkt = match rx.try_recv() {
                Ok(pkt) => pkt,
                Err(TryRecvError::Empty) => match self.block(rx) {
                    Some(pkt) => pkt,
                    None => return,
                },
                Err(TryRecvError::Disconnected) => return,
            };
            if self.handle(pkt) {
                return;
            }
        }
    }

    /// Runs node `lo + i` for as long as it is executable — its next event
    /// may already have complete inputs — then parks it on `waiting` if
    /// it still has deliveries pending.
    fn turn(&mut self, i: usize) {
        while let Some(e) = self.executable(i) {
            self.execute(i, e);
        }
        if self.inbox.head[i] != NO_SLOT {
            self.waiting.push(i);
        }
    }

    /// The earliest round node `lo + i` has any reason to run: its timer
    /// (`NO_WAKE == u64::MAX` meaning none) or its earliest queued
    /// delivery.
    fn next_event(&self, i: usize) -> u64 {
        self.store.wake[i].min(self.inbox.due[i])
    }

    /// The earliest pending event of this worker: the first genuine
    /// wakeup, or a delivery of a node on `waiting` or `ready` — every
    /// node with deliveries pending is on one of them. Superseded wakeup
    /// rounds met on the way are dropped (without moving the calendar's
    /// window).
    fn earliest_event(&mut self) -> u64 {
        let earliest = self.wakes.first(&self.store.wake).unwrap_or(u64::MAX);
        let listed = self.waiting.stack.iter().chain(&self.inbox.ready.stack);
        listed.fold(earliest, |m, &i| m.min(self.next_event(i as usize)))
    }

    /// The round node `lo + i` can execute now, if any: its next event,
    /// provided it is below the round cap and no earlier input can still
    /// arrive — the floor or every in-port clock has reached it.
    fn executable(&self, i: usize) -> Option<u64> {
        let e = self.next_event(i);
        let slots = self.inbox.slots(self.rc.topo, self.inbox.lo + i);
        let complete = e <= self.floor || self.inbox.clock[slots].iter().all(|&c| c >= e);
        (e < self.cap && complete).then_some(e)
    }

    /// Executes node `lo + i` at round `e` — the one activation sequence
    /// of this runtime, live or replayed.
    fn execute(&mut self, i: usize, e: u64) {
        let (lo, topo) = (self.inbox.lo, self.rc.topo);
        let v = lo + i;
        debug_assert!(
            !self.facts.crash_round(v).is_some_and(|c| c <= e),
            "a crashed node became executable (arm/send-time filtering is broken)"
        );
        // Everything due at `e` (nothing pending is due earlier), in the
        // engine's inbox order.
        let mut delivered = Vec::new();
        let (inbox, record_trace) = (&mut self.scratch.inbox, self.record_trace);
        inbox.clear();
        self.inbox.take(i, e, |d| {
            let (port, ((_, _, src, emit), msg)) = (d.port as Port, &d.item);
            if record_trace {
                delivered.push((port, *src as NodeId, *emit as u64));
            }
            inbox.push((port, msg.clone()));
        });
        // Sends so far in this activation (the next emission index) and
        // their `(directed-edge index, frame seq)` log — lost sends
        // included (the fate derivation recovers them).
        let mut sends = 0u64;
        let mut sent = Vec::new();
        // The closure borrows the books, this worker's inbox and the
        // peers' queues; `step_node` holds the store and the scratch.
        let send = |s: StagedSend<P::Msg>| {
            let emit = sends;
            sends += 1;
            let fate = self.part.account(self.facts, e, &s);
            // A frame's sequence number is the per-edge send index the part
            // just counted and fed the fate stream — lost sends consume one
            // too, so the receiving clock sees a gap, never a regression. A
            // traced run's parts always keep the counts column.
            if self.record_trace {
                let count = self.part.directed_message_counts[s.didx - self.part.edges.start];
                sent.push((s.didx, count - 1));
            }
            let Some(at) = fate else {
                return;
            };
            let header = [e, at, s.src as u64, emit];
            // `dest - lo` indexes the owned range; a destination below
            // `lo` wraps past its end, like one above it.
            if s.dest.wrapping_sub(lo) < self.inbox.head.len() {
                // The destination shares this worker: land it directly —
                // through the same check the channel path uses.
                self.inbox.land(topo, s.dest, s.dest_port, header, s.msg);
            } else {
                lock(self.coord).in_flight += 1;
                self.senders[self.owners.of(s.dest)]
                    .send(Packet::Payload {
                        dest: s.dest,
                        port: s.dest_port,
                        header,
                        msg: s.msg,
                    })
                    .expect("a worker channel closed mid-run");
            }
        };
        let effects = step_node(&self.rc, e, v, self.store, &mut self.scratch, send);
        // A standing re-armed timer gets a wakeup entry (the superseded
        // one, if any, stays queued), as on the engine.
        if let Some(w) = effects.rearmed {
            if self.part.rearm(self.facts, v, w, &mut self.store.wake[i]) {
                self.wakes.push(w, i);
            }
        }
        let stats = &mut *self.stats;
        stats.tally(e, sends);
        if effects.status_changed {
            stats.last_status_change = stats.last_status_change.max(Some(e));
        }
        if self.record_trace {
            stats.events.push(TraceEvent {
                round: e,
                node: v,
                delivered,
                sent,
            });
        }
    }

    /// Reports this worker idle and blocks on the channel; the last
    /// worker to block (with nothing in flight) arbitrates. Returns the
    /// packet that woke it, or `None` when every channel closed.
    fn block(&mut self, rx: &Receiver<Packet<P::Msg>>) -> Option<Packet<P::Msg>> {
        let earliest = self.earliest_event();
        {
            let mut c = lock(self.coord);
            c.blocked += 1;
            c.next_event[self.w] = earliest;
            c.last_exec[self.w] = self.stats.last_exec;
            if c.blocked == self.senders.len() && c.in_flight == 0 {
                let r_star = c.next_event.iter().copied().min().unwrap_or(u64::MAX);
                let last_exec = c.last_exec.iter().copied().max().flatten();
                c.verdict = verdict(r_star, last_exec, self.cap);
                c.in_flight += self.senders.len() as u64;
                // Broadcast under the lock: an `mpsc` send never blocks.
                for s in &self.senders {
                    let pkt = match c.verdict {
                        Some(_) => Packet::Stop,
                        None => Packet::Advance { upto: r_star },
                    };
                    s.send(pkt).expect("a worker channel closed mid-run");
                }
            }
        }
        let pkt = rx.recv().ok()?;
        lock(self.coord).blocked -= 1;
        Some(pkt)
    }

    /// Processes one packet; returns true on Stop.
    fn handle(&mut self, pkt: Packet<P::Msg>) -> bool {
        match pkt {
            Packet::Payload {
                dest,
                port,
                header,
                msg,
            } => self.inbox.land(self.rc.topo, dest, port, header, msg),
            Packet::Advance { upto } => {
                // `upto` is the global minimum event: what it releases is
                // a parked node or a wakeup due at it. The calendar holds
                // nothing before it — this worker's `earliest_event`, run
                // when it blocked, dropped the superseded rounds ahead of
                // its first genuine wakeup.
                self.floor = upto;
                while let Some(i) = self.waiting.pop() {
                    self.inbox.ready.push(i);
                }
                let ready = &mut self.inbox.ready;
                self.wakes.admit(upto, &self.store.wake, |i| ready.push(i));
            }
            Packet::Stop => return true,
        }
        lock(self.coord).in_flight -= 1;
        false
    }
}

/// Merges the workers' books into the [`AsyncRun`]: the ledger parts fold
/// (in worker order — consecutive edge ranges) into the one part
/// `LedgerPart::finish` turns into the outcome, and what only this runtime
/// has is rebuilt here — `round_totals` from the per-worker active-round
/// sets and send tallies, the `(round, node)`-sorted trace, and the watch
/// hits reconstructed from it. `(termination, end_round)` is the arbiter's
/// [`verdict`].
fn assemble<T: Topology, P: Protocol>(
    graph: &T,
    facts: &RunFacts,
    books: Vec<Book<P>>,
    (termination, end_round): (Termination, u64),
    keep_trace: bool,
) -> AsyncRun {
    let mut merged = LedgerPart::new(facts, 0..0);
    let mut statuses = Vec::with_capacity(graph.n());
    let mut sends_per_round: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_status_change: Option<u64> = None;
    let mut last_exec: Option<u64> = None;
    let mut events: Vec<TraceEvent> = Vec::new();
    for Book(store, part, st) in books {
        merged.merge(part);
        statuses.extend(store.statuses);
        for (r, c) in st.sends_per_round.into_iter().chain(st.run) {
            *sends_per_round.entry(r).or_insert(0) += c;
        }
        last_status_change = last_status_change.max(st.last_status_change);
        last_exec = last_exec.max(st.last_exec);
        events.extend(st.events);
    }
    let mut cumulative = 0u64;
    let round_totals: Vec<(u64, u64)> = sends_per_round
        .into_iter()
        .map(|(r, c)| {
            cumulative += c;
            (r, cumulative)
        })
        .collect();
    events.sort_by_key(|e| (e.round, e.node));
    let watch_hits = reconstruct_watch_hits(graph, facts, &events);
    if !keep_trace {
        events.clear();
    }
    let outcome = merged.finish(
        facts,
        watch_hits,
        &statuses,
        last_exec.map_or(0, |r| r + 1),
        end_round,
        termination,
        last_status_change,
        round_totals,
    );
    AsyncRun {
        outcome,
        trace: DeliveryTrace { events },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Adversary;
    use crate::config::Wakeup;
    use crate::engine::run_sim as run;
    use crate::message::{id_bits, Message, Signal};
    use crate::protocol::{Context, Status};
    use ule_graph::{gen, IdAssignment};

    /// Floods the maximum identifier for `deadline` rounds (mini FloodMax).
    struct MiniFloodMax {
        best: u64,
        deadline: u64,
        decided: Status,
    }

    #[derive(Debug, Clone)]
    struct IdMsg(u64);
    impl Message for IdMsg {
        fn size_bits(&self) -> u64 {
            id_bits(self.0)
        }
    }

    impl Protocol for MiniFloodMax {
        type Msg = IdMsg;
        fn on_round(&mut self, ctx: &mut Context<'_, IdMsg>, inbox: &[(usize, IdMsg)]) {
            if ctx.first_activation() {
                self.best = ctx.require_id();
                ctx.broadcast(IdMsg(self.best));
            }
            let mut improved = false;
            for (_, IdMsg(x)) in inbox {
                if *x > self.best {
                    self.best = *x;
                    improved = true;
                }
            }
            if improved {
                ctx.broadcast(IdMsg(self.best));
            }
            if ctx.round() + 1 >= self.deadline {
                self.decided = if self.best == ctx.require_id() {
                    Status::Leader
                } else {
                    Status::NonLeader
                };
            } else {
                ctx.wake_next();
            }
        }
        fn status(&self) -> Status {
            self.decided
        }
    }

    fn mk(deadline: u64) -> impl FnMut(NodeId, &NodeSetup, &mut StdRng) -> MiniFloodMax {
        move |_, _, _| MiniFloodMax {
            best: 0,
            deadline,
            decided: Status::Undecided,
        }
    }

    fn cfg(n: usize, seed: u64) -> SimConfig {
        SimConfig::seeded(seed)
            .with_ids(IdAssignment::sequential(n))
            .with_max_rounds(10_000)
    }

    #[test]
    fn matches_engine_exactly_at_any_worker_count() {
        let g = gen::cycle(9).unwrap();
        let reference = run(&g, &cfg(9, 3), mk(8));
        for workers in [1, 2, 3, 8] {
            let a = AsyncRuntime::new()
                .with_workers(workers)
                .run(&g, &cfg(9, 3), mk(8));
            assert_eq!(a.outcome, reference, "workers = {workers}");
        }
    }

    #[test]
    fn adversarial_wakeup_and_round_limit_conform() {
        let g = gen::path(7).unwrap();
        let base = cfg(7, 0).with_wakeup(Wakeup::Adversarial(vec![0]));
        let reference = run(&g, &base, mk(10));
        let a = AsyncRuntime::new().run(&g, &base, mk(10));
        assert_eq!(a.outcome, reference);
        // Truncation: same snapshot, same verdict.
        let cut = base.clone().with_max_rounds(3);
        assert_eq!(
            AsyncRuntime::new().run(&g, &cut, mk(10)).outcome,
            run(&g, &cut, mk(10))
        );
    }

    #[test]
    fn replay_reproduces_the_run_byte_for_byte() {
        let g = gen::torus(3, 3).unwrap();
        let recorded = AsyncRuntime::new()
            .with_workers(3)
            .run(&g, &cfg(9, 11), mk(7));
        assert!(!recorded.trace.events.is_empty());
        let replayed = replay(&g, &cfg(9, 11), mk(7), &recorded.trace);
        assert_eq!(replayed, recorded);
    }

    #[test]
    fn runtime_kind_names_are_stable() {
        assert_eq!(RuntimeKind::Sim.name(), "sim");
        assert_eq!(RuntimeKind::Async.name(), "async");
    }

    /// Every adversary, engine-equal at several worker counts — the core
    /// of the per-edge fate-stream refactor (`tests/async_conformance.rs`
    /// covers the full registry; this is the in-crate smoke version).
    #[test]
    fn adversaries_conform_to_the_engine() {
        let g = gen::torus(3, 3).unwrap();
        let adversaries = [
            Adversary::BoundedDelay { max_delay: 3 },
            Adversary::CrashStop {
                schedule: vec![(2, 4), (7, 6)],
            },
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 3), ((4, 5), 0)],
            },
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 2 },
                Adversary::CrashStop {
                    schedule: vec![(5, 5)],
                },
                Adversary::LinkFailure {
                    schedule: vec![((0, 3), 2)],
                },
            ]),
        ];
        for adv in adversaries {
            let c = cfg(9, 5).with_adversary(adv.clone());
            let reference = run(&g, &c, mk(12));
            for workers in [1, 2, 4] {
                let a = AsyncRuntime::new()
                    .with_workers(workers)
                    .run(&g, &c, mk(12));
                assert_eq!(a.outcome, reference, "{adv:?}, workers = {workers}");
            }
        }
    }

    /// Long delays — far more rounds than any node has ports — pile many
    /// deliveries from many send rounds onto each node's pending chain,
    /// exercising a take that unlinks due entries from anywhere in it
    /// and sorts them by send round.
    #[test]
    fn long_delays_on_the_pending_chain_conform() {
        let g = gen::cycle(8).unwrap();
        for max_delay in [40, 1_000] {
            let c = cfg(8, 9)
                .with_adversary(Adversary::BoundedDelay { max_delay })
                .with_max_rounds(10_000);
            let reference = run(&g, &c, mk(400));
            for workers in [1, 3] {
                let a = AsyncRuntime::new()
                    .with_workers(workers)
                    .run(&g, &c, mk(400));
                assert_eq!(
                    a.outcome, reference,
                    "max_delay = {max_delay}, workers = {workers}"
                );
            }
        }
    }

    /// A hub of thousands of ports has thousands of deliveries pending
    /// each round, landing from both workers in whatever order; each
    /// lands in O(1) and each activation walks the chain once, so the run
    /// stays quick, and its inbox order is still the engine's.
    #[test]
    fn a_high_degree_hub_conforms() {
        let g = gen::star(3_000).unwrap();
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 3 },
        ] {
            let c = cfg(3_000, 5).with_adversary(adv.clone());
            let reference = run(&g, &c, mk(6));
            let a = AsyncRuntime::new()
                .with_workers(2)
                .without_trace()
                .run(&g, &c, mk(6));
            assert_eq!(a.outcome, reference, "{adv:?}");
        }
    }

    /// Queues on node `i` a delivery due at `at`, sent at `send_round` as
    /// sender `src`'s `emit`-th send; the message is that quadruple.
    fn queue(inbox: &mut Inbox<[u64; 4]>, i: usize, [at, send_round, src, emit]: [u64; 4]) {
        let key = (at, send_round, src as u32, emit as u32);
        inbox.queue(i, 0, (key, [at, send_round, src, emit]));
    }

    /// The messages node `i` takes at round `e`, in the order handed out.
    fn take(inbox: &mut Inbox<[u64; 4]>, i: usize, e: u64) -> Vec<[u64; 4]> {
        let mut out = Vec::new();
        inbox.take(i, e, |d| out.push(d.item.1));
        out
    }

    #[test]
    fn a_take_hands_out_what_is_due_in_inbox_order_and_leaves_the_rest_linked() {
        let mut inbox = Inbox::new(0, 0, 2, 0);
        // Node 0's deliveries due at round 5 land first, in the middle and
        // last, with later-due ones between them, as a delay adversary
        // scatters delivery rounds; one for node 1 lands in between.
        let landed = [
            [5, 3, 2, 0],
            [7, 4, 1, 0],
            [5, 4, 0, 1],
            [6, 2, 0, 0],
            [5, 1, 3, 0],
        ];
        for (k, &d) in landed.iter().enumerate() {
            queue(&mut inbox, 0, d);
            if k == 2 {
                queue(&mut inbox, 1, [5, 4, 0, 0]);
            }
        }
        // Ascending send round, then sender, then emission index.
        let due = [[5, 1, 3, 0], [5, 3, 2, 0], [5, 4, 0, 1]];
        assert_eq!(take(&mut inbox, 0, 5), due);
        assert_eq!(inbox.due[0], 6);
        // A late landing goes ahead of what is still linked.
        queue(&mut inbox, 0, [6, 1, 4, 0]);
        assert_eq!(take(&mut inbox, 0, 6), [[6, 1, 4, 0], [6, 2, 0, 0]]);
        assert_eq!(inbox.due[0], 7);
        assert_eq!(inbox.due[1], 5);
        assert_eq!(take(&mut inbox, 0, 7), [[7, 4, 1, 0]]);
        assert_eq!((inbox.head[0], inbox.due[0]), (NO_SLOT, u64::MAX));
        assert_eq!(take(&mut inbox, 1, 5), [[5, 4, 0, 0]]);
        assert_eq!(inbox.pool.slots(), 6, "the late landing reused a slot");
    }

    #[test]
    fn taken_slots_are_reused_so_the_pool_holds_the_most_ever_pending() {
        let mut inbox = Inbox::new(0, 0, 2, 0);
        // Every round lands two deliveries on node 0 (due in one and two
        // rounds) and one on node 1 (due in one), then both take what is
        // due: four pending at the peak, 3 000 landed in all.
        for r in 0..1_000 {
            queue(&mut inbox, 0, [r + 1, r, 0, 0]);
            queue(&mut inbox, 0, [r + 2, r, 1, 0]);
            queue(&mut inbox, 1, [r + 1, r, 0, 0]);
            let expect = match r {
                0 => vec![[1, 0, 0, 0]],
                _ => vec![[r + 1, r - 1, 1, 0], [r + 1, r, 0, 0]],
            };
            assert_eq!(take(&mut inbox, 0, r + 1), expect, "round {r}");
            assert_eq!(take(&mut inbox, 1, r + 1), [[r + 1, r, 0, 0]]);
        }
        assert_eq!(inbox.pool.slots(), 4);
    }

    /// Node 1 of a path of two, alone in its inbox: its one in-port is slot
    /// 0 (directed index 1, the first of the range).
    fn lone_in_port() -> (ule_graph::Graph, Inbox<()>) {
        (gen::path(2).unwrap(), Inbox::new(1, 1, 1, 1))
    }

    #[test]
    fn a_landing_after_a_gap_in_send_rounds_passes_and_moves_the_clock() {
        // Frames dropped in flight, or rounds the sender kept quiet, leave
        // a gap in the send rounds a port sees; a gap is no regression.
        let (g, mut inbox) = lone_in_port();
        inbox.land(&g, 1, 0, [0, 1, 0, 0], ());
        inbox.land(&g, 1, 0, [5, 9, 0, 0], ());
        assert_eq!(inbox.clock, [6]);
        assert_eq!(inbox.due[0], 1);
    }

    #[test]
    #[should_panic(
        expected = "out-of-order frame on in-port slot 0: sent at round 2, after one sent at round 3"
    )]
    fn a_landing_out_of_send_round_order_panics() {
        let (g, mut inbox) = lone_in_port();
        inbox.land(&g, 1, 0, [3, 4, 0, 0], ());
        inbox.land(&g, 1, 0, [2, 5, 0, 1], ());
    }

    #[test]
    #[should_panic(expected = "sent at round 3, after one sent at round 3")]
    fn a_second_landing_from_one_send_round_panics() {
        // One directed edge carries at most one send per round.
        let (g, mut inbox) = lone_in_port();
        inbox.land(&g, 1, 0, [3, 4, 0, 0], ());
        inbox.land(&g, 1, 0, [3, 6, 0, 0], ());
    }

    /// A traced run numbers each directed edge's frames 0, 1, 2, … from the
    /// ledger's per-edge send counts — also on a lockstep run without edge
    /// statistics, whose outcome and fates need no counts.
    #[test]
    fn a_traced_run_numbers_each_edges_frames_from_zero() {
        let g = gen::torus(4, 5).unwrap();
        for edge_stats in [false, true] {
            let c = cfg(20, 4).with_edge_stats(edge_stats);
            let a = AsyncRuntime::new().with_workers(2).run(&g, &c, mk(9));
            // Each directed edge's sequence numbers, in `(round, node)` order.
            let mut seqs: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
            for ev in &a.trace.events {
                for &(didx, seq) in &ev.sent {
                    seqs.entry(didx).or_default().push(seq);
                }
            }
            assert_eq!(seqs.len(), g.directed_edge_count());
            for (&didx, seqs) in &seqs {
                let numbered: Vec<u64> = (0..seqs.len() as u64).collect();
                assert_eq!(*seqs, numbered, "directed edge {didx}");
                if edge_stats {
                    let sent = a.outcome.directed_message_counts[didx];
                    assert_eq!(seqs.last().map(|s| s + 1), Some(sent), "edge {didx}");
                }
            }
            assert_eq!(a.outcome.directed_message_counts.is_empty(), !edge_stats);
            assert_eq!(replay(&g, &c, mk(9), &a.trace), a);
        }
    }

    /// Watch hits — a global-interleaving quantity — are reconstructed
    /// from the trace and must equal the ledger's, adversary or not.
    #[test]
    fn watch_hits_are_reconstructed_exactly() {
        let g = gen::torus(3, 3).unwrap();
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 2 },
                Adversary::LinkFailure {
                    schedule: vec![((1, 2), 1)],
                },
            ]),
        ] {
            // A reversed and a duplicated entry ride along: watch edges are
            // normalized once, in the shared set-up, for both runtimes.
            let c =
                cfg(9, 7)
                    .with_adversary(adv.clone())
                    .watching(&[(0, 1), (4, 5), (5, 4), (0, 1)]);
            let reference = run(&g, &c, mk(12));
            assert!(reference.watch_hits.iter().any(|h| h.is_some()));
            for workers in [1, 2] {
                let a = AsyncRuntime::new()
                    .with_workers(workers)
                    .run(&g, &c, mk(12));
                assert_eq!(a.outcome, reference, "{adv:?}, workers = {workers}");
            }
            // Reconstruction must also work when the public trace is off.
            let quiet = AsyncRuntime::new().without_trace().run(&g, &c, mk(12));
            assert_eq!(quiet.outcome, reference, "{adv:?}, without_trace");
            assert!(quiet.trace.events.is_empty());
        }
        // FloodMax on a path, watching (3, 2): nodes 0, 1 and node 2's
        // first port send 4 messages before 2 -> 3 crosses in round 0.
        let g = gen::path(6).unwrap();
        let c = cfg(6, 0).watching(&[(3, 2)]);
        let hit = vec![Some(WatchHit {
            round: 0,
            messages_before: 4,
        })];
        assert_eq!(run(&g, &c, mk(8)).watch_hits, hit);
        assert_eq!(
            AsyncRuntime::new().run(&g, &c, mk(8)).outcome.watch_hits,
            hit
        );
    }

    /// An adversarial replay reproduces the run — dropped sends included
    /// (they are logged in the trace and re-derived on replay, and leave
    /// gaps behind them on the in-port clocks).
    #[test]
    fn adversarial_replay_reproduces_the_run() {
        let g = gen::torus(3, 3).unwrap();
        let c = cfg(9, 13).with_adversary(Adversary::Compose(vec![
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::CrashStop {
                schedule: vec![(3, 4), (8, 7)],
            },
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 2)],
            },
        ]));
        let recorded = AsyncRuntime::new().with_workers(3).run(&g, &c, mk(12));
        assert!(recorded.outcome.messages_dropped > 0);
        let replayed = replay(&g, &c, mk(12), &recorded.trace);
        assert_eq!(replayed, recorded);
        assert_eq!(recorded.outcome, run(&g, &c, mk(12)));
    }

    /// A sleeper exercising the arbiter's fast-forward (round-free
    /// wakeups): long idle stretches must cost no work and the round
    /// accounting must match the engine's.
    struct Sleeper {
        until: u64,
        fired: bool,
    }
    impl Protocol for Sleeper {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            if ctx.first_activation() {
                ctx.wake_at(self.until);
            } else if ctx.round() == self.until {
                self.fired = true;
            }
        }
        fn status(&self) -> Status {
            if self.fired {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    #[test]
    fn arbiter_fast_forwards_idle_stretches() {
        let g = gen::path(2).unwrap();
        let c = SimConfig::seeded(0).with_max_rounds(u64::MAX);
        // ule-lint: allow(wall-clock, reason = "throughput timing of the arbiter fast-forward; elapsed time never reaches simulated state")
        let start = std::time::Instant::now();
        let a = AsyncRuntime::new().run(&g, &c, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert!(
            start.elapsed().as_secs() < 5,
            "advance failed to skip ahead"
        );
        assert_eq!(a.outcome.rounds, 1_000_000_001);
        assert_eq!(a.outcome.termination, Termination::Quiescent);
        let reference = run(&g, &c, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert_eq!(a.outcome, reference);
    }

    /// A scripted node for the scheduler's edge cases: at every activation
    /// it signals on its `talk` ports and arms the next of its `timers` (in
    /// list order; a timer already past is skipped), and it turns
    /// `NonLeader` once it hears anything.
    struct Script {
        talk: Vec<Port>,
        timers: Vec<u64>,
        armed: usize,
        heard: bool,
    }
    impl Protocol for Script {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
            for &p in &self.talk {
                ctx.send(p, Signal);
            }
            if let Some(&t) = self.timers.get(self.armed) {
                self.armed += 1;
                if t > ctx.round() {
                    ctx.wake_at(t);
                }
            }
            self.heard |= !inbox.is_empty();
        }
        fn status(&self) -> Status {
            if self.heard {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    fn script(talk: &[Port], timers: &[u64]) -> Script {
        Script {
            talk: talk.to_vec(),
            timers: timers.to_vec(),
            armed: 0,
            heard: false,
        }
    }

    /// Runs `scripts` (one per node) at 1, 2, 3 and 7 workers, checks each
    /// outcome against the engine's and each trace's replay, and returns
    /// the engine's outcome.
    fn conform(g: &ule_graph::Graph, c: &SimConfig, scripts: &[(&[Port], &[u64])]) -> RunOutcome {
        let make = |v: NodeId, _: &NodeSetup, _: &mut StdRng| script(scripts[v].0, scripts[v].1);
        let reference = run(g, c, make);
        for workers in [1, 2, 3, 7] {
            let a = AsyncRuntime::new().with_workers(workers).run(g, c, make);
            assert_eq!(a.outcome, reference, "workers = {workers}");
            assert_eq!(replay(g, c, make, &a.trace), a, "workers = {workers}");
        }
        reference
    }

    /// Node 0 alone wakes and signals node 1, whose other in-port (from
    /// node 2) stays silent forever: no clock ever reaches round 1, so
    /// only the arbiter's `Advance` — the floor — can release the parked
    /// delivery.
    fn silent_port_config() -> (ule_graph::Graph, SimConfig) {
        let g = gen::path(3).unwrap();
        let c = SimConfig::seeded(0)
            .with_wakeup(Wakeup::Adversarial(vec![0]))
            .with_max_rounds(100);
        (g, c)
    }

    #[test]
    fn a_delivery_behind_a_silent_in_port_is_released_by_the_floor() {
        let (g, c) = silent_port_config();
        let out = conform(&g, &c, &[(&[0], &[]), (&[], &[]), (&[], &[])]);
        assert_eq!(out.round_totals, vec![(0, 1), (1, 1)]);
        assert_eq!(
            out.statuses,
            vec![Status::Undecided, Status::NonLeader, Status::Undecided]
        );
        assert_eq!((out.rounds, out.termination), (2, Termination::Quiescent));
    }

    #[test]
    fn a_timer_blocked_on_a_silent_in_port_is_released_by_its_wake_bucket() {
        // Node 1's only event is its timer at round 5; both in-ports stay
        // silent, one from another worker at 2 workers and up (ranges
        // {0, 1} | {2}, then one node each).
        let g = gen::path(3).unwrap();
        let c = SimConfig::seeded(0).with_max_rounds(100);
        let out = conform(&g, &c, &[(&[], &[]), (&[], &[5]), (&[], &[])]);
        assert_eq!(out.round_totals, vec![(0, 0), (5, 0)]);
        assert_eq!((out.rounds, out.messages), (6, 0));
    }

    #[test]
    fn deliveries_parked_for_several_future_rounds_conform() {
        // Node 0 signals node 1 in rounds 0 ..= 4 under delays of up to 8
        // rounds. The fates land all five late, at rounds 6, 9, 9, 12 and
        // 12: node 1's in-port from node 2 stays silent, so it stays
        // parked from round 1 to 12 with deliveries due in several future
        // rounds, each released by its own `Advance`.
        let (g, c) = silent_port_config();
        let c = c.with_adversary(Adversary::BoundedDelay { max_delay: 8 });
        let out = conform(&g, &c, &[(&[0], &[1, 2, 3, 4]), (&[], &[]), (&[], &[])]);
        assert_eq!(out.late_deliveries, vec![(6, 1), (9, 2), (12, 2)]);
        let totals = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (6, 5),
            (9, 5),
            (12, 5),
        ];
        assert_eq!(out.round_totals, totals.to_vec());
        assert_eq!((out.rounds, out.messages), (13, 5));
    }

    #[test]
    fn a_lowered_then_raised_timer_leaves_only_superseded_entries_behind() {
        // Node 1 arms round 20 at round 0, lowers it to 6 when node 0's
        // signal lands at round 1, and arms 30 when it fires at 6: the
        // entry for 20 is superseded and must neither run node 1 nor hide
        // its timer at 30.
        let g = gen::path(2).unwrap();
        let c = SimConfig::seeded(0).with_max_rounds(100);
        let out = conform(&g, &c, &[(&[0], &[]), (&[], &[20, 6, 30])]);
        assert_eq!(out.round_totals, vec![(0, 1), (1, 1), (6, 1), (30, 1)]);
        assert_eq!((out.rounds, out.termination), (31, Termination::Quiescent));
    }

    #[test]
    #[should_panic(expected = "trace ended with an executable event at round 1")]
    fn a_replay_of_a_truncated_trace_panics() {
        // The last event is node 1's delivery-only activation at round 1:
        // without it, the pending delivery must still be found.
        let (g, c) = silent_port_config();
        let scripts: [(&[Port], &[u64]); 3] = [(&[0], &[]), (&[], &[]), (&[], &[])];
        let make = |v: NodeId, _: &NodeSetup, _: &mut StdRng| script(scripts[v].0, scripts[v].1);
        let mut trace = AsyncRuntime::new().run(&g, &c, make).trace;
        assert_eq!(trace.events.pop().map(|e| (e.round, e.node)), Some((1, 1)));
        replay(&g, &c, make, &trace);
    }

    #[test]
    fn congest_accounting_conforms() {
        let g = gen::path(3).unwrap();
        let c = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(crate::Model::Congest { factor: 1 })
            .with_max_rounds(100);
        let reference = run(&g, &c, mk(4));
        let a = AsyncRuntime::new().run(&g, &c, mk(4));
        assert_eq!(a.outcome, reference);
        assert!(a.outcome.congest_violations > 0);
    }
}
