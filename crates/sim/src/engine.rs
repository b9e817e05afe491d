//! The synchronous round engine: the *lockstep scheduler policy* over the
//! runtime-independent execution core ([`crate::exec`]).
//!
//! Executes a [`Protocol`] at every node of a graph under a [`SimConfig`]:
//! messages sent in round `r` arrive at the start of round `r+1`; nodes are
//! activated when messages arrive or when they scheduled a wakeup; the run
//! ends at quiescence or at the round cap (the truncation mechanism of the
//! Theorem 3.13 experiment).
//!
//! The split of responsibilities: the node-range split, node-state
//! storage, the wake calendar, protocol stepping, run set-up, message
//! accounting, **delivery** and outcome finishing live in [`crate::exec`]
//! — all but delivery shared with the async threads+channels runtime
//! ([`crate::rt`]), delivery in the engine's `Ledger`, which owns the inbox
//! arena and the delayed-delivery calendar of a node range and is the only
//! code that knows where a send lands. What lives *here* is the scheduling
//! policy and nothing else — the decision of **when** each node steps: the
//! active set, fast-forward, and which thread runs which range. A round
//! is, per range, `Ledger::open_round` (who hears something), the wakeup
//! admission (`Wakes::admit`), `Ledger::stage` of the round after, then
//! one `step_node` per active node — `Shard::step`, the one round body of
//! every run.
//!
//! The engine is generic over [`Topology`], so the structured families run
//! off `O(1)`-memory procedural topologies ([`ule_graph::ImplicitTopology`])
//! with no CSR arrays at all; a materialized [`ule_graph::Graph`] is just
//! the `Topology` everybody else passes. Monomorphization keeps the
//! neighbour-resolution arithmetic inline either way.
//!
//! # Event-driven scheduling
//!
//! The paper's algorithms are mostly *sparsely active* — the Theorem 4.1
//! agents sleep exponentially long between moves, and the kingdom/doubling
//! schedules leave most nodes idle most rounds — so the engine never scans
//! all `n` nodes per round. Instead it maintains:
//!
//! * an explicit **active set** for the upcoming round: a node enters it
//!   when a staged message is delivered to it, or when its scheduled wakeup
//!   fires;
//! * a **calendar of pending wakeups** — the same ring-plus-overflow
//!   [`crate::calendar::CalendarQueue`] the ledger queues delayed
//!   deliveries in, keyed by round, 4 bytes per entry — lazily invalidated:
//!   an entry whose node re-armed since is skipped when its round is
//!   opened, and a round holding only such entries is dropped when
//!   fast-forward looks past it (without moving the window, which other
//!   ranges' earlier rounds may still need). Admitting the wakeups due in a
//!   round takes one bucket, and fast-forwarding across a fully idle
//!   stretch reads the earliest bucket instead of scanning `n` timers;
//! * a **dedup bitmap** so a node that both receives a message and has a
//!   wakeup due runs exactly once in the round.
//!
//! Per simulated round a range of `len` nodes therefore pays
//! `O(min(a log a, len / 64) + w)` where `a` is the number of active nodes
//! and `w` the number of wakeup entries due — independent of `n` on sparse
//! rounds. The first term orders the active set, which keeps execution
//! identical to the historical full scan: active nodes run in ascending
//! node-index order, so every run is byte-for-byte deterministic and
//! `RunOutcome`s are reproducible across engine versions (see
//! `tests/scheduler_equivalence.rs`). A sparse round sorts its list; once
//! there is an active node per 64 nodes of the range — a word of the dedup
//! bitmap — the list is read off the bitmap's words in ascending order
//! instead, which costs `len / 64` whatever `a` is.
//!
//! # Flat-memory hot path, on a diet
//!
//! The per-round machinery walks flat arrays, not pointer-chased trees,
//! and the per-node footprint is kept to scalar columns so graph-scale
//! runs fit in memory:
//!
//! * deliveries queue in the ledger's [`crate::calendar::CalendarQueue`]
//!   (a power-of-two ring of buckets indexed by `delivery_round & mask`,
//!   with a `BTreeMap` overflow tier only for deliveries beyond the ring
//!   horizon), with destination and port compacted to `u32`;
//! * the round's inbound messages live in a shared **inbox arena** — one
//!   `u32` slot per node threading a linked chain through a single
//!   message pool — instead of `n` separate `Vec` inboxes (24 bytes per
//!   node of pointer triple, plus per-node heap blocks);
//! * node bookkeeping is struct-of-arrays ([`crate::exec::NodeStore`]):
//!   timers are a dense `u64` column (`NO_WAKE` sentinel, not
//!   `Option<u64>`), started and dedup bits live in bitmaps (one bit per
//!   node each), statuses are one byte per node, and the RNG
//!   column starts lazy — materialized only if some node actually draws,
//!   and until then a stream is derived only by an activation that asks
//!   for it ([`crate::Context::rng`]);
//! * pending wakeups are `u32` offsets in a calendar bucket per round, and
//!   a stepped node's inbox chain is cloned out and returned to the
//!   arena's free list in one walk;
//! * every range owns its step buffers and the mail slots it posts to
//!   (only sends that leave the range, and delayed ones) are drained in
//!   place, so a steady-state round allocates nothing per message.
//!
//! # Round counting under fast-forward
//!
//! Fast-forwarding is an accounting device, not a semantic change: idle
//! rounds still *count* toward [`RunOutcome::rounds`] (round numbers are
//! model time, and `rounds` is the last active round + 1), they just cost
//! no work. [`RunOutcome::round_totals`] records one entry per *active*
//! round only.
//!
//! # Range ownership: shards, two phases, persistent workers
//!
//! The nodes are divided into contiguous ranges, one **shard** each
//! (`exec`'s `Owners::split`, the async workers' split too: at most
//! [`crate::Parallelism`]'s thread count, never an empty range; `Off`,
//! `Auto` below its node threshold and `n = 1` give one shard). A shard
//! owns its range for the whole run: the nodes' store (with their started
//! bitmap), the `Ledger` of their out-edges and inboxes (accounting part,
//! inbox arena, calendar), their wakeup calendar, active list and dedup
//! bitmap. Nothing per-node is shared, so nothing per-node is locked.
//!
//! A round is two phases over the shards:
//!
//! * **step** — each shard opens the round, admits its due wakeups, orders
//!   its active list, stages the round after, and steps its active nodes
//!   in ascending order. Every send is accounted on the spot, on the
//!   sender's ledger (fates are a pure function of `(seed, directed edge,
//!   per-edge send index)`, so no global order is needed for that). A
//!   surviving send then goes straight into the destination's inbox
//!   (`Ledger::deliver`, no intermediate buffer) when the stepping shard
//!   owns the destination and the fate is the next round — every send of
//!   a one-shard run, delayed ones included, and most of a sharded one's
//!   (all but the boundary's on a torus or cycle). Only a send that leaves
//!   the range, or a delayed one of a sharded run, is parked as a compact
//!   `(at, dest, port, msg)` in the mail slot
//!   `mail[source shard][destination shard]`, so no round's burst of
//!   sends is held twice.
//! * **deliver** — each shard drains the slots addressed to it, in
//!   source-shard order, into its own arena or calendar.
//!
//! **Why every inbox is in the inline order.** The inline engine delivers
//! in global send order: ascending sender, then emission order. Ranges
//! are contiguous and ascending, so that order is "shard 0's sends, then
//! shard 1's, …", each shard's in its own stepping order — and a slot
//! holds exactly one shard's sends into one range, in that order. What
//! earlier rounds delayed into round `r + 1` must precede all of it; it
//! does because every shard stages `r + 1` in its step phase, before its
//! first send — even a shard with nobody to step — and every deliver
//! phase comes after every step phase. A shard's own synchronous sends
//! are then appended behind the staged messages as they are made, each
//! entry marked `OWN`. In the deliver phase a lower shard's synchronous
//! send is spliced in just older than its inbox's `OWN` entries (behind
//! the staged ones and earlier lower shards', ahead of the shard's own),
//! and a higher shard's is appended behind them all — so the round's
//! synchronous inboxes read the global send order. A calendar bucket gets
//! nothing direct in a sharded run: its delayed sends, the shard's own
//! included, come from the slots drained in source-shard order, which
//! replays the global send order restricted to the range — all an inbox
//! or a bucket can observe.
//!
//! The control thread keeps only the **ordered residue**, read off the
//! shards between rounds: the running message total (`round_totals`), the
//! last status change, the next round (the minimum over the shards' next
//! events, so idle stretches are skipped exactly as before), and watch
//! hits — a shard records the rare send over a watched edge with its index
//! among the shard's sends, and the control thread adds the total before
//! the round and the earlier shards' counts of this round to obtain the
//! `messages_before` a single accountant would have seen.
//!
//! The phases run on **worker threads spawned once per run**, one per
//! shard but the first, which the control thread runs itself. A round is
//! four hand-offs per worker over two one-slot channels (step, done,
//! deliver, done); between rounds the control thread holds every shard's
//! lock, during a phase each thread holds its own — the locks are never
//! contended, they are how safe Rust moves a `&mut Shard` between threads.
//! Rounds with too few active nodes to pay for the hand-offs
//! (`Parallelism::min_shard_nodes`) are run by the control thread over all
//! shards, same two phases, without waking anyone. A panic in a phase —
//! protocol API misuse — closes that thread's channels: the control thread
//! sees the hang-up, releases the other workers and re-raises the original
//! panic; if the control thread itself panics, its channel ends drop and
//! the workers leave. Either way the run ends in the panic `Off` would
//! have raised, never parked at a hand-off.
//!
//! Because the stepping order within a shard, the accounting and the
//! per-inbox delivery order are those of the inline engine, a run is
//! **byte-for-byte identical at any thread count** —
//! `tests/scheduler_equivalence.rs` pins `Threads(2)` / `Threads(4)`
//! against `Off`, and an order-sensitive probe in this module's tests
//! pins the inbox order itself. On the 2-vCPU reference box `Threads(2)`
//! runs the repo benchmark's torus in about 0.65× the inline engine's time
//! (`sim.engine.shard_ratio`, `benchmark/`).

use crate::config::SimConfig;
use crate::exec::{
    set_up, step_node, Bitmap, Ledger, NodeStore, Owners, RunCtx, RunFacts, RunOutcome,
    StepScratch, Termination, Wakes, OWN,
};
use crate::message::Message;
use crate::protocol::{NodeSetup, Protocol};
use rand::rngs::StdRng;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Mutex, MutexGuard};
use std::thread::{Scope, ScopedJoinHandle};
use ule_graph::{NodeId, Topology};

/// A surviving delivery on its way to the shard that owns its
/// destination: `(delivery round, dest, port at dest, message)`.
type Parcel<M> = (u64, u32, u32, M);

/// What one shard sent this round into another's nodes, or delayed into
/// any range's, in send order — filled by the source in its step phase,
/// drained by the destination in its deliver phase. The phases never
/// overlap, so the lock is never contended.
type Slot<M> = Mutex<Vec<Parcel<M>>>;

/// Where a shard's surviving sends wait when they leave its range or are
/// delayed: its row of mail slots, locked for the step phase, and the
/// table that picks the slot.
struct Outbox<'a, M> {
    owners: &'a Owners,
    to: Vec<MutexGuard<'a, Vec<Parcel<M>>>>,
}

/// A delivered send over a watched edge, `(src, dest, index among its
/// shard's sends)`: `messages_before` needs the other shards' counts, so
/// the control thread resolves it.
type Crossing = (NodeId, NodeId, u64);

/// A contiguous node range and everything the run keeps about it, owned
/// from set-up to the outcome: the nodes' state, the ledger of their
/// out-edges and inboxes, and their share of the scheduler. Columns are
/// indexed by offset into the range. Aligned so that two shards stepped by
/// different threads never share a cache line (false sharing between the
/// hot fields of adjacent per-thread structs was measured at half the
/// stepping time).
#[repr(align(128))]
struct Shard<P: Protocol> {
    store: NodeStore<P>,
    ledger: Ledger<P::Msg>,
    /// Pending wakeups: offsets into the range, queued under their round.
    wakes: Wakes,
    /// The round's active set (small for sparse protocols) and the dedup
    /// flags guarding it.
    active: Vec<usize>,
    queued: Bitmap,
    /// Whether `active` already holds the coming round's deliveries and
    /// wakeups.
    opened: bool,
    scratch: StepScratch<P::Msg>,
    /// The round's crossings, left for the control thread.
    crossings: Vec<Crossing>,
    /// Whether a node changed status in the round just stepped.
    status_changed: bool,
    /// This shard's sends already in the control thread's running total.
    counted: u64,
}

impl<P: Protocol> Shard<P> {
    /// The shard of `store`'s nodes, whose out-edges are `edges`. The
    /// spontaneous round-0 wakeups (armed as `wake == 0` by the run set-up)
    /// seed the active set directly: queueing them would be wasted work
    /// (under simultaneous wakeup, n entries), and the round-0 execution
    /// clears the markers before any lookup could expect entries for them.
    fn new(facts: &RunFacts, store: NodeStore<P>, edges: Range<usize>) -> Self {
        let len = store.wake.len();
        let active: Vec<usize> = (0..len).filter(|&i| store.wake[i] == 0).collect();
        let mut queued = Bitmap::new(len);
        for &i in &active {
            queued.set(i);
        }
        Shard {
            ledger: Ledger::new(facts, store.base..store.base + len, edges),
            store,
            wakes: Wakes::default(),
            active,
            queued,
            opened: false,
            scratch: StepScratch::default(),
            crossings: Vec::new(),
            status_changed: false,
            counted: 0,
        }
    }

    /// The earliest round `>= round` in which a node of this range has
    /// something to do — a staged delivery (those are for `round`: staging
    /// is one round ahead), else the calendar's next delivery or the next
    /// genuine wakeup. Crashed owners need no check: wakeups are
    /// crash-filtered *at arm time* (the shared set-up and
    /// `LedgerPart::rearm`), so every genuine wakeup entry outlives its
    /// owner's crash round.
    fn next_event(&mut self, round: u64) -> Option<u64> {
        if !self.active.is_empty() || self.ledger.staged() > 0 {
            return Some(round);
        }
        let next = self.ledger.next_delivery();
        match self.wakes.first(&self.store.wake) {
            Some(w) => Some(next.map_or(w, |d| d.min(w))),
            None => next,
        }
    }

    /// Gathers who steps in `round`: everything due is heard now, and
    /// every wakeup due is admitted (superseded entries dropped).
    fn open(&mut self, round: u64) {
        if std::mem::replace(&mut self.opened, true) {
            return;
        }
        let (queued, active) = (&mut self.queued, &mut self.active);
        let mut admit = |i: usize| {
            if queued.set(i) {
                active.push(i);
            }
        };
        for &d in self.ledger.open_round(round) {
            admit(d as usize);
        }
        self.wakes.admit(round, &self.store.wake, admit);
    }

    /// The step phase of `round`, the one round body of every run: opens
    /// the round, stages the next, and steps the range's active nodes in
    /// ascending order. Every send is accounted here, on its source's
    /// ledger; a surviving one then goes straight into the destination's
    /// inbox, marked `OWN`, when this shard owns every node (`outbox` is
    /// `None`: no intermediate buffer) or owns the destination and the
    /// fate is the next round, and otherwise waits in `outbox` for the
    /// owner of its destination (a shard of several that steps nobody this
    /// round needs no outbox either).
    fn step<T: Topology>(
        &mut self,
        rc: &RunCtx<'_, T>,
        facts: &RunFacts,
        round: u64,
        mut outbox: Option<Outbox<'_, P::Msg>>,
    ) {
        self.open(round);
        self.opened = false;
        // Ascending node order keeps execution byte-for-byte identical to
        // the historical full scan. A small set is sorted; once a word of
        // the dedup bitmap holds an active node on average, reading the
        // bitmap in word order is cheaper than sorting.
        if self.active.len() * 64 >= self.store.wake.len() {
            self.active.clear();
            self.queued.ones(&mut self.active);
        } else {
            self.active.sort_unstable();
        }
        // What earlier rounds delayed into the next round is heard before
        // what this round sends into it — staged here even if nobody in
        // the range steps, because another shard's sends may land behind it.
        self.ledger.stage(round + 1);
        let Shard {
            store,
            ledger,
            wakes,
            active,
            queued,
            scratch,
            crossings,
            status_changed,
            ..
        } = self;
        for i in active.drain(..) {
            let v = store.base + i;
            // Cloning the inbox out frees its chain, so the deliveries of
            // this round reuse the entries in place.
            ledger.arena.take(i, &mut scratch.inbox);
            let effects = step_node(rc, round, v, store, scratch, |s| {
                let Some(at) = ledger.part.account(facts, round, &s) else {
                    return;
                };
                if facts.watches(s.src, s.dest) {
                    crossings.push((s.src, s.dest, ledger.part.messages - 1));
                }
                let port = s.dest_port as u32;
                match &mut outbox {
                    Some(Outbox { owners, to }) if at != round + 1 || !ledger.owns(s.dest) => {
                        to[owners.of(s.dest)].push((at, s.dest as u32, port, s.msg))
                    }
                    _ => ledger.deliver(round, at, s.dest, port | OWN, s.msg),
                }
            });
            // A changed timer needs a wakeup entry unless its owner's crash
            // outlives it (the stale entry for the previously armed round,
            // if any, stays queued; the async runtime makes the same
            // arm-time decision, so the reported crash horizons agree
            // across runtimes).
            if let Some(w) = effects.rearmed {
                if ledger.part.rearm(facts, v, w, &mut store.wake[i]) {
                    wakes.push(w, i);
                }
            }
            *status_changed |= effects.status_changed;
            queued.clear(i);
        }
    }
}

/// One half of a round on a run with several shards.
#[derive(Clone, Copy)]
enum Phase {
    /// Step the range's active nodes and post their sends.
    Step(u64),
    /// Take in what every shard posted for this range.
    Deliver(u64),
}

/// What the threads of a run with several shards share, read-only.
struct Shared<'a, T, M> {
    rc: RunCtx<'a, T>,
    facts: &'a RunFacts,
    owners: Owners,
    /// `mail[src][dst]`.
    mail: Vec<Vec<Slot<M>>>,
    /// `posted[src]`: whether shard `src` stepped anyone this round. If
    /// not, its row of `mail` is empty and nobody has to lock it to find
    /// out — a sparse round then costs a few locks, not `shards²`. (The
    /// hand-offs order the accesses; the flag publishes nothing itself.)
    posted: Vec<AtomicBool>,
}

impl<T: Topology, M: Message> Shared<'_, T, M> {
    /// Runs `phase` on shard number `s`. A round is every shard's step
    /// phase, then every shard's deliver phase; within a phase the shards
    /// touch disjoint state, so they may run on different threads.
    fn run<P: Protocol<Msg = M>>(&self, s: usize, shard: &mut Shard<P>, phase: Phase) {
        match phase {
            Phase::Step(round) => {
                shard.open(round);
                let stepping = !shard.active.is_empty();
                self.posted[s].store(stepping, Ordering::SeqCst);
                let outbox = stepping.then(|| Outbox {
                    owners: &self.owners,
                    to: self.mail[s].iter().map(lock).collect(),
                });
                shard.step(&self.rc, self.facts, round, outbox);
            }
            // Source-shard order, each slot in send order, lower ranges'
            // synchronous sends ahead of the range's own: the global send
            // order restricted to this range's inboxes.
            Phase::Deliver(round) => {
                for (src, (row, posted)) in self.mail.iter().zip(&self.posted).enumerate() {
                    if !posted.load(Ordering::SeqCst) {
                        continue;
                    }
                    let ledger = &mut shard.ledger;
                    for (at, dest, port, msg) in lock(&row[s]).drain(..) {
                        if src < s {
                            ledger.deliver_below(round, at, dest as usize, port, msg);
                        } else {
                            ledger.deliver(round, at, dest as usize, port, msg);
                        }
                    }
                }
            }
        }
    }
}

/// A persistent worker thread: the control thread's ends of its two
/// hand-off channels, and its handle.
struct Worker<'scope> {
    todo: SyncSender<Phase>,
    done: Receiver<()>,
    thread: ScopedJoinHandle<'scope, ()>,
}

impl<'scope> Worker<'scope> {
    /// Spawns a thread that runs `run` on every phase handed to it and
    /// answers each, until its `todo` channel closes — at the end of the
    /// run, or when the control thread unwinds — so a panic anywhere ends
    /// the run instead of parking the other threads at a hand-off forever.
    /// (Boxed so that the thread and channel code is compiled once, not
    /// per protocol and topology type.)
    fn spawn(
        scope: &'scope Scope<'scope, '_>,
        mut run: Box<dyn FnMut(Phase) + Send + 'scope>,
    ) -> Self {
        let (todo, phases) = sync_channel::<Phase>(1);
        let (finished, done) = sync_channel::<()>(1);
        let thread = scope.spawn(move || {
            for phase in phases {
                run(phase);
                if finished.send(()).is_err() {
                    break;
                }
            }
        });
        Worker { todo, done, thread }
    }
}

/// Takes a shard or a mail slot. No lock of the run is ever contended —
/// the hand-off channels order every access — and each is held only while
/// a phase runs, so poison means the run is already ending in that
/// phase's panic.
fn lock<S>(cell: &Mutex<S>) -> MutexGuard<'_, S> {
    cell.lock()
        .expect("a panic in a phase ends the run before anyone locks its state again")
}

/// A worker hung up mid-round, which it only does by panicking (protocol
/// API misuse at one of its nodes): lets every worker go and re-raises
/// the panic of the lowest shard as the run's own, as the inline engine
/// would have raised it.
fn reraise(workers: Vec<Worker<'_>>) -> ! {
    for worker in workers {
        drop(worker.todo);
        if let Err(panic) = worker.thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
    unreachable!("a worker hangs up only by panicking")
}

/// Runs `factory`-created protocol instances on `topo` under `config`.
///
/// This is the engine behind [`crate::Runner`] on
/// [`crate::RuntimeKind::Sim`]; see the `Runner` docs for the public
/// contract. `factory` is called once per node, in index order, with the
/// node's index, its [`NodeSetup`], and its private RNG (already seeded).
///
/// Under [`crate::Parallelism`] settings other than `Off` the nodes are
/// divided among shards, and rounds with enough active nodes run their two
/// phases on the shards' threads (see the module docs); the outcome is
/// byte-for-byte identical at any thread count — and identical between a
/// materialized [`ule_graph::Graph`] and the equivalent implicit topology.
///
/// # Panics
///
/// Panics if an explicit [`crate::IdMode`] assignment does not cover the
/// graph, if the config is invalid ([`crate::Wakeup::Adversarial`] naming a
/// node `>= n`, a watched edge that is not an edge of the graph, or an
/// [`crate::Adversary`] schedule naming an out-of-range node or a
/// non-edge), or on protocol API misuse (double-send on a port, past
/// wakeups) — with the same message whichever thread stepped the node.
pub(crate) fn run_sim<T, P, F>(topo: &T, config: &SimConfig, factory: F) -> RunOutcome
where
    T: Topology,
    P: Protocol,
    F: FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
{
    run_inspecting(topo, config, factory, |_| {})
}

/// [`run_sim`], handing the shards as the run left them to `inspect`
/// before the outcome is assembled: how tests see per-range state.
fn run_inspecting<T: Topology, P: Protocol>(
    topo: &T,
    config: &SimConfig,
    factory: impl FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
    inspect: impl FnOnce(&[Shard<P>]),
) -> RunOutcome {
    let n = topo.n();
    let threads = config.parallelism.effective_threads(n);
    let (ranges, owners, facts) = set_up(topo, config, threads, factory);
    // A round runs on the shards' threads when it has two economic shards'
    // worth of active nodes (the policy lives on
    // `Parallelism::min_shard_nodes`: `Auto` demands an economic shard
    // size, explicit `Threads(k)` shards eagerly); otherwise — and always
    // when one shard owns every node — the control thread runs it alone.
    let parallel_floor = 2 * config.parallelism.min_shard_nodes();
    let shards: Vec<Mutex<Shard<P>>> = ranges
        .into_iter()
        .map(|(store, edges)| Mutex::new(Shard::new(&facts, store, edges)))
        .collect();
    let rc = RunCtx::new(topo, config);
    let shared = Shared {
        rc,
        facts: &facts,
        owners,
        mail: (0..shards.len())
            .map(|_| (0..shards.len()).map(|_| Slot::default()).collect())
            .collect(),
        posted: (0..shards.len()).map(|_| AtomicBool::new(false)).collect(),
    };
    let solo = shards.len() == 1;

    // The ordered residue the control thread keeps: everything else about
    // a round is a shard's own business.
    let mut watch_hits = facts.no_watch_hits();
    let mut last_status_change: Option<u64> = None;
    let mut round_totals: Vec<(u64, u64)> = Vec::new();
    let mut messages: u64 = 0;
    let mut round: u64 = 0;
    let mut rounds_used: u64 = 0;

    let termination = std::thread::scope(|scope| {
        // One persistent worker per shard but the first, which the control
        // thread steps itself.
        let mut workers: Vec<Worker<'_>> = (1..shards.len())
            .map(|s| {
                let (shared, shard) = (&shared, &shards[s]);
                let run = move |phase| shared.run(s, &mut lock(shard), phase);
                Worker::spawn(scope, Box::new(run))
            })
            .collect();
        // The control thread holds every shard except while a parallel
        // phase is out on the workers.
        let mut held: Vec<MutexGuard<'_, Shard<P>>> = shards.iter().map(lock).collect();

        loop {
            if round >= config.max_rounds {
                break Termination::RoundLimit;
            }
            let Some(next) = held.iter_mut().filter_map(|s| s.next_event(round)).min() else {
                break Termination::Quiescent;
            };
            if next > round {
                // Fast-forward to the next event: idle rounds count, but
                // cost no work.
                round = next;
                if round >= config.max_rounds {
                    break Termination::RoundLimit;
                }
            }
            rounds_used = round + 1;

            if solo {
                held[0].step(&shared.rc, &facts, round, None);
            } else {
                let phases = [Phase::Step(round), Phase::Deliver(round)];
                // Deliveries already staged are a lower bound on the
                // active set; only when they do not settle the question
                // does the control thread open the round itself to count.
                let mut due: usize = held
                    .iter()
                    .map(|s| s.active.len() + s.ledger.staged())
                    .sum();
                if due < parallel_floor {
                    due = held
                        .iter_mut()
                        .map(|s| {
                            s.open(round);
                            s.active.len()
                        })
                        .sum();
                }
                if due >= parallel_floor {
                    held.truncate(1);
                    for phase in phases {
                        for worker in &workers {
                            // A worker that is gone shows at `recv` below.
                            let _ = worker.todo.send(phase);
                        }
                        shared.run(0, &mut held[0], phase);
                        if !workers.iter().all(|w| w.done.recv().is_ok()) {
                            reraise(std::mem::take(&mut workers));
                        }
                    }
                    held.extend(shards[1..].iter().map(lock));
                } else {
                    for phase in phases {
                        for (s, shard) in held.iter_mut().enumerate() {
                            shared.run(s, shard, phase);
                        }
                    }
                }
            }

            // Shard order is send order: a crossing's `messages_before`
            // is the total before the round, plus the earlier shards'
            // sends this round, plus its index within its shard's.
            for shard in held.iter_mut() {
                let shard = &mut **shard;
                for (src, dest, i) in shard.crossings.drain(..) {
                    let before = messages + (i - shard.counted);
                    facts.note_crossing(&mut watch_hits, (src, dest), round, before);
                }
                messages += shard.ledger.part.messages - shard.counted;
                shard.counted = shard.ledger.part.messages;
                if std::mem::take(&mut shard.status_changed) {
                    last_status_change = Some(round);
                }
            }
            round_totals.push((round, messages));
            round += 1;
        }
    });

    let shards: Vec<Shard<P>> = shards
        .into_iter()
        .map(|shard| shard.into_inner().expect("the run ended without a panic"))
        .collect();
    inspect(&shards);
    let mut shards = shards.into_iter();
    let first = shards.next().expect("a run has at least one shard");
    let (mut part, mut statuses) = (first.ledger.part, first.store.statuses);
    for shard in shards {
        part.merge(shard.ledger.part);
        statuses.extend(shard.store.statuses);
    }
    part.finish(
        &facts,
        watch_hits,
        &statuses,
        rounds_used,
        round,
        termination,
        last_status_change,
        round_totals,
    )
}

#[cfg(test)]
mod tests {
    use super::run_sim as run;
    use super::*;
    use crate::config::{Model, Parallelism, SimConfig, Wakeup};
    use crate::exec::{node_rng_seed, splitmix64};
    use crate::message::{id_bits, Message, Signal};
    use crate::protocol::{Context, Knowledge, Protocol, Status};
    use ule_graph::{gen, IdAssignment, ImplicitTopology};

    /// Floods the maximum identifier for `deadline` rounds (mini FloodMax).
    #[derive(Debug)]
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
            }
            let mut improved = ctx.first_activation();
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

    fn flood_cfg(n: usize, _deadline: u64, seed: u64) -> SimConfig {
        SimConfig::seeded(seed)
            .with_ids(IdAssignment::sequential(n))
            .with_knowledge(Knowledge::NONE)
            .with_max_rounds(10_000)
    }

    fn flood(graph: &ule_graph::Graph, deadline: u64, seed: u64) -> RunOutcome {
        let cfg = flood_cfg(graph.len(), deadline, seed);
        run(graph, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline,
            decided: Status::Undecided,
        })
    }

    #[test]
    fn floodmax_elects_max_id_on_cycle() {
        let g = gen::cycle(9).unwrap();
        let out = flood(&g, 8, 3);
        assert_eq!(out.termination, Termination::Quiescent);
        assert!(out.election_succeeded());
        // Sequential IDs: node 8 holds ID 9, the maximum.
        assert_eq!(out.leader(), Some(8));
    }

    #[test]
    fn floodmax_message_count_on_path_is_bounded() {
        let g = gen::path(10).unwrap();
        let out = flood(&g, 12, 0);
        assert!(out.election_succeeded());
        // Flooding max id on a path: at most O(m·D) messages.
        assert!(out.messages <= 2 * 9 * 12);
        assert!(out.messages >= 18, "initial broadcast alone is 18");
    }

    #[test]
    fn truncation_snapshot() {
        let g = gen::path(30).unwrap();
        let out = flood(&g, 40, 0);
        assert!(out.election_succeeded());
        let cfg = flood_cfg(30, 40, 0).with_max_rounds(3);
        let truncated = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 40,
            decided: Status::Undecided,
        });
        assert_eq!(truncated.termination, Termination::RoundLimit);
        assert!(!truncated.election_succeeded());
        assert_eq!(truncated.undecided_count(), 30);
    }

    #[test]
    fn determinism_by_seed() {
        let g = gen::random_connected(20, 40, &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(5)
        })
        .unwrap();
        let a = flood(&g, 25, 42);
        let b = flood(&g, 25, 42);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.statuses, b.statuses);
    }

    #[test]
    fn watch_edge_records_first_crossing() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(2, 3), (0, 1)]);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        let hit = out.watch_hits[0].expect("edge (2,3) must be crossed");
        assert_eq!(hit.round, 0, "initial broadcast crosses every edge");
        let hit2 = out.watch_hits[1].unwrap();
        assert_eq!(hit2.round, 0);
    }

    #[test]
    fn first_use_and_counts_recorded() {
        let g = gen::path(4).unwrap();
        let out = flood(&g, 6, 0);
        // Every directed edge is used at round 0 by the initial broadcast.
        for v in g.nodes() {
            for p in 0..g.degree(v) {
                let idx = g.directed_index(v, p);
                assert_eq!(out.first_directed_use[idx], 0);
                assert!(out.directed_message_counts[idx] >= 1);
            }
        }
        let total: u64 = out.directed_message_counts.iter().sum();
        assert_eq!(total, out.messages);
    }

    #[test]
    fn congest_accounting() {
        let g = gen::path(3).unwrap();
        // Budget factor 1 → 2 bits on n=3; IDs up to 3 need 2 bits → no
        // violation; with huge IDs there are violations.
        let cfg = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(Model::Congest { factor: 1 })
            .with_max_rounds(100);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 4,
            decided: Status::Undecided,
        });
        assert!(out.congest_violations > 0);
        assert!(out.max_message_bits >= 41);
        let local = SimConfig::seeded(0)
            .with_ids(IdAssignment::new(vec![1 << 40, 2, 3]))
            .with_model(Model::Local)
            .with_max_rounds(100);
        let out2 = run(&g, &local, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 4,
            decided: Status::Undecided,
        });
        assert_eq!(out2.congest_violations, 0);
    }

    /// A protocol that sleeps a long time, to exercise fast-forwarding.
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
    fn fast_forward_skips_idle_rounds() {
        let g = gen::path(2).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(u64::MAX);
        // ule-lint: allow(wall-clock, reason = "throughput timing of the fast-forward itself; elapsed time never reaches simulated state")
        let start = std::time::Instant::now();
        let out = run(&g, &cfg, |_, _, _| Sleeper {
            until: 1_000_000_000,
            fired: false,
        });
        assert!(start.elapsed().as_secs() < 5, "fast-forward failed");
        assert_eq!(out.rounds, 1_000_000_001);
        assert_eq!(out.undecided_count(), 0);
        assert_eq!(out.termination, Termination::Quiescent);
    }

    #[test]
    fn adversarial_wakeup_wakes_on_message() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0)
            .with_ids(IdAssignment::sequential(5))
            .with_wakeup(Wakeup::Adversarial(vec![0]))
            .with_max_rounds(100);
        // Node 0 floods; others forward on wakeup.
        struct WakeFlood {
            woken: bool,
        }
        impl Protocol for WakeFlood {
            type Msg = Signal;
            fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
                if ctx.first_activation() {
                    self.woken = true;
                    if let Some(&(p, _)) = inbox.first() {
                        ctx.broadcast_except(p, Signal);
                    } else {
                        ctx.broadcast(Signal);
                    }
                }
            }
            fn status(&self) -> Status {
                if self.woken {
                    Status::NonLeader
                } else {
                    Status::Undecided
                }
            }
        }
        let out = run(&g, &cfg, |_, _, _| WakeFlood { woken: false });
        assert_eq!(out.undecided_count(), 0, "wake wave must reach everyone");
        // Wave takes one round per hop: node 4 wakes in round 4.
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn messages_through_round_accumulates() {
        let g = gen::path(6).unwrap();
        let out = flood(&g, 8, 0);
        assert_eq!(out.messages_through(0), 10, "round-0 broadcast is 2m");
        assert_eq!(
            out.messages_through(out.rounds),
            out.messages,
            "totals converge"
        );
        let mut prev = 0;
        for &(_, cum) in &out.round_totals {
            assert!(cum >= prev);
            prev = cum;
        }
    }

    #[test]
    #[should_panic(expected = "Wakeup::Adversarial names node 9")]
    fn adversarial_wakeup_out_of_range_panics() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0).with_wakeup(Wakeup::Adversarial(vec![0, 9]));
        run(&g, &cfg, |_, _, _| Sleeper {
            until: 10,
            fired: false,
        });
    }

    #[test]
    #[should_panic(expected = "at least one node must wake initially")]
    fn adversarial_wakeup_empty_panics() {
        let g = gen::path(5).unwrap();
        let cfg = SimConfig::seeded(0).with_wakeup(Wakeup::Adversarial(vec![]));
        run(&g, &cfg, |_, _, _| Sleeper {
            until: 10,
            fired: false,
        });
    }

    #[test]
    #[should_panic(expected = "watch edge (0, 3) is not an edge of the graph")]
    fn watching_a_non_edge_panics() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(3, 0)]);
        run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
    }

    #[test]
    #[should_panic(expected = "is not an edge of the graph")]
    fn watching_an_out_of_range_node_panics() {
        let g = gen::path(4).unwrap();
        let cfg = flood_cfg(4, 10, 0).watching(&[(2, 17)]);
        run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
    }

    #[test]
    fn duplicate_watch_entries_all_record_the_crossing() {
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0).watching(&[(2, 3), (3, 2), (2, 3)]);
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        let first = out.watch_hits[0].expect("edge (2,3) crossed");
        for (i, hit) in out.watch_hits.iter().enumerate() {
            assert_eq!(hit.expect("duplicate entry recorded"), first, "entry {i}");
        }
    }

    /// Nodes re-arming timers across activations leave stale wakeup entries
    /// behind; the lazy invalidation must neither double-activate nor lose
    /// wakeups. (Re-arming must span *separate* activations: within one
    /// `on_round`, `wake_at` collapses to the minimum before the engine
    /// sees it, and no stale entry is ever created.)
    struct Rearm {
        fires: u64,
    }
    impl Protocol for Rearm {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            match ctx.round() {
                // Arm far in the future and ping the neighbours so the
                // next two activations are message-triggered.
                0 => {
                    ctx.broadcast(Signal);
                    ctx.wake_at(1_000);
                }
                // Re-arm earlier: the (1000, v) entry goes stale.
                1 => {
                    ctx.broadcast(Signal);
                    ctx.wake_at(6);
                }
                // Re-arm earlier again: the (6, v) entry goes stale too;
                // it is due at a round the node must *not* run in, so it
                // exercises the admit loop's stale-drop path, while the
                // (1000, v) entries exercise the fast-forward one.
                2 => ctx.wake_at(5),
                5 => {
                    self.fires += 1;
                    ctx.wake_at(7);
                }
                7 => self.fires += 1,
                r => panic!("activated at unexpected round {r}"),
            }
        }
        fn status(&self) -> Status {
            if self.fires == 2 {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    #[test]
    fn rearmed_timers_fire_once_at_the_earliest_round() {
        let g = gen::path(3).unwrap();
        let cfg = SimConfig::seeded(0).with_max_rounds(10_000);
        let out = run(&g, &cfg, |_, _, _| Rearm { fires: 0 });
        assert_eq!(out.termination, Termination::Quiescent);
        assert_eq!(out.undecided_count(), 0);
        assert_eq!(out.rounds, 8, "last activity at round 7");
        // Active rounds: 0-2 (messages), then 5 and 7 — the superseded
        // round-6 entries must not wake anyone and the superseded
        // round-1000 entries must not extend the run past quiescence.
        let active_rounds: Vec<u64> = out.round_totals.iter().map(|&(r, _)| r).collect();
        assert_eq!(active_rounds, vec![0, 1, 2, 5, 7]);
    }

    /// On a 6-cycle: node 5 arms a timer for round `stale`, lowers it to
    /// round 10 when node 4's round-0 message arrives, fires, and leaves the
    /// entry for `stale` behind. Node 0 ticks through round 5, then sleeps
    /// until round 13 — so idle stretches are fast-forwarded on both sides
    /// of the probe's wakeup, and meanwhile another range steps while the
    /// probe's holds nothing but the stale entry — and at 13 it pings node
    /// 5, which then arms a timer for round 16: the probe's range still
    /// opens and arms rounds before `stale` after passing over it.
    struct Superseded {
        v: NodeId,
        stale: u64,
        fired: u32,
    }
    impl Protocol for Superseded {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, inbox: &[(usize, Signal)]) {
            match (self.v, ctx.round()) {
                (0, r) if r < 5 => ctx.wake_next(),
                (0, 5) => ctx.wake_at(13),
                (0, 13) | (4, 0) => ctx.broadcast(Signal),
                (5, 0) => ctx.wake_at(self.stale),
                (5, 1) => {
                    assert_eq!(inbox.len(), 1);
                    ctx.wake_at(10);
                }
                (5, 14) => {
                    assert_eq!(inbox.len(), 1);
                    ctx.wake_at(16);
                }
                (5, 10) | (5, 16) => self.fired += 1,
                (5, r) => panic!("the probe stepped at round {r}"),
                _ => {}
            }
        }
        fn status(&self) -> Status {
            if self.v == 5 && self.fired < 2 {
                Status::Undecided
            } else {
                Status::NonLeader
            }
        }
    }

    #[test]
    fn superseded_wakeups_decide_no_round_count_fast_forward_or_termination() {
        let g = gen::cycle(6).unwrap();
        // The probe sits in the last range at 2 and 3 threads; its stale
        // entry is in the ring (50) or in the overflow tier (1 000), and
        // the cap is past the run but before the stale round, at it, or
        // beyond it.
        for stale in [50u64, 1_000] {
            for cap in [30, stale, 10_000] {
                let cfg = SimConfig::seeded(3).with_max_rounds(cap);
                let mk =
                    |v: NodeId, _: &NodeSetup, _: &mut StdRng| Superseded { v, stale, fired: 0 };
                let out = run(&g, &cfg, mk);
                assert_eq!(out.termination, Termination::Quiescent, "cap {cap}");
                assert_eq!(out.rounds, 17, "last activity at round 16");
                assert_eq!(out.undecided_count(), 0);
                let totals: Vec<(u64, u64)> = [0, 1, 2, 3, 4, 5, 10, 13, 14, 16]
                    .map(|r| (r, if r < 13 { 2 } else { 4 }))
                    .to_vec();
                assert_eq!(out.round_totals, totals);
                for t in [2usize, 3] {
                    let par = cfg.clone().with_parallelism(Parallelism::Threads(t));
                    assert_eq!(
                        run(&g, &par, mk),
                        out,
                        "stale {stale}, cap {cap}, threads {t}"
                    );
                }
                let asy = crate::Runner::new(&g, &cfg)
                    .runtime(crate::RuntimeKind::Async)
                    .run(mk);
                assert_eq!(asy, out, "stale {stale}, cap {cap}, async");
            }
        }
    }

    #[test]
    fn bitmap_scan_is_the_sorted_set_across_word_boundaries() {
        // Bits on both sides of every word boundary, and lengths that end
        // on one (64), just before (63) or after (65) it, or mid-word.
        for len in [63usize, 64, 65, 130, 200] {
            let mut set: Vec<usize> = [0, 1, 62, 63, 64, 65, 127, 128, 129, len - 1]
                .into_iter()
                .filter(|&i| i < len)
                .collect();
            set.sort_unstable();
            set.dedup();
            let mut bits = Bitmap::new(len);
            for &i in set.iter().rev() {
                assert!(bits.set(i) && !bits.set(i), "bit {i} set once");
            }
            let mut scanned = Vec::new();
            bits.ones(&mut scanned);
            assert_eq!(scanned, set, "len {len}");
            for &i in &set {
                bits.clear(i);
            }
            scanned.clear();
            bits.ones(&mut scanned);
            assert!(scanned.is_empty(), "len {len}");
        }
    }

    #[test]
    fn leader_count_helpers() {
        let g = gen::cycle(5).unwrap();
        let out = flood(&g, 6, 0);
        assert_eq!(out.leader_count(), 1);
        assert!(out.leader().is_some());
        assert_eq!(out.undecided_count(), 0);
    }

    #[test]
    fn node_rng_streams_are_independent() {
        // Distinct nodes under one seed get distinct streams.
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..1000 {
            assert!(seen.insert(node_rng_seed(42, v)), "node {v} collided");
        }
        // The historical XOR derivation collides by construction: with
        // c = 0x5151, seeds s and s ^ h(u+c) ^ h(v+c) hand node u and
        // node v the same stream. The chained derivation must not.
        let (s, u, v) = (42u64, 3usize, 7usize);
        let h = |x: u64| splitmix64(x + 0x5151);
        let s2 = s ^ h(u as u64) ^ h(v as u64);
        assert_eq!(
            splitmix64(s ^ h(u as u64)),
            splitmix64(s2 ^ h(v as u64)),
            "sanity: the old derivation really did collide on this pair"
        );
        assert_ne!(node_rng_seed(s, u), node_rng_seed(s2, v));
        // Pin the derivation itself so it cannot silently change again
        // (every pinned fixture in the workspace depends on it).
        assert_eq!(node_rng_seed(0, 0), splitmix64(splitmix64(0)));
        assert_eq!(
            node_rng_seed(1, 2),
            splitmix64(splitmix64(1).wrapping_add(2))
        );
    }

    #[test]
    fn more_threads_than_nodes_runs_like_the_inline_engine() {
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 4,
            decided: Status::Undecided,
        };
        for n in [1usize, 2, 3] {
            let g = gen::path(n).unwrap();
            let reference = run(&g, &flood_cfg(n, 4, 1), mk);
            let par = flood_cfg(n, 4, 1).with_parallelism(Parallelism::Threads(4));
            assert_eq!(run(&g, &par, mk), reference, "n = {n}");
        }
    }

    #[test]
    fn a_range_idle_for_many_rounds_joins_in_when_the_wave_arrives() {
        // Only node 0 wakes: it keeps ticking (MiniFloodMax re-arms every
        // round) while the wake wave walks the path one hop per round, so
        // for the first rounds every active node sits in the first range
        // and the last range does nothing but open, stage and deliver.
        let g = gen::path(12).unwrap();
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 16,
            decided: Status::Undecided,
        };
        let base = flood_cfg(12, 16, 3).with_wakeup(Wakeup::Adversarial(vec![0]));
        let reference = run(&g, &base.clone().with_parallelism(Parallelism::Off), mk);
        assert!(reference.election_succeeded());
        for t in [2usize, 3, 7] {
            let par = base.clone().with_parallelism(Parallelism::Threads(t));
            assert_eq!(run(&g, &par, mk), reference, "threads = {t}");
        }
    }

    /// Broadcasts once; the culprit then misuses the API in `round`: a
    /// second send on port 0, or — with `past_wake` — a wakeup in the past.
    struct Misuser {
        culprit: bool,
        round: u64,
        past_wake: bool,
    }
    impl Protocol for Misuser {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            if ctx.round() < self.round {
                ctx.wake_next();
            }
            ctx.broadcast(Signal);
            if self.culprit && ctx.round() == self.round {
                if self.past_wake {
                    ctx.wake_at(ctx.round());
                } else {
                    ctx.send(0, Signal);
                }
            }
        }
        fn status(&self) -> Status {
            Status::Undecided
        }
    }

    /// Runs `Misuser` on a 9-cycle (`Threads(3)`: ranges of 3 nodes).
    fn misuse(culprit: NodeId, round: u64, past_wake: bool, cfg: SimConfig) {
        let g = gen::cycle(9).unwrap();
        run(&g, &cfg.with_max_rounds(10), |v, _, _| Misuser {
            culprit: v == culprit,
            round,
            past_wake,
        });
    }

    #[test]
    #[should_panic(expected = "two messages on port 0 in one round (protocol bug)")]
    fn double_send_panics_inline() {
        misuse(
            8,
            2,
            false,
            SimConfig::seeded(0).with_parallelism(Parallelism::Off),
        );
    }

    #[test]
    #[should_panic(expected = "two messages on port 0 in one round (protocol bug)")]
    fn double_send_on_the_last_shard_panics_the_run_with_the_inline_message() {
        let cfg = SimConfig::seeded(0).with_parallelism(Parallelism::Threads(3));
        misuse(8, 2, false, cfg);
    }

    #[test]
    #[should_panic(expected = "two messages on port 0 in one round (protocol bug)")]
    fn double_send_on_the_first_shard_panics_the_run_with_the_inline_message() {
        let cfg = SimConfig::seeded(0).with_parallelism(Parallelism::Threads(3));
        misuse(1, 2, false, cfg);
    }

    #[test]
    #[should_panic(expected = "wake_at(0) is not in the future")]
    fn misuse_in_a_round_the_control_thread_runs_alone_does_not_strand_the_workers() {
        // One node awake: round 0 is below the parallel floor, so the
        // control thread steps it while the workers wait for a hand-off.
        let cfg = SimConfig::seeded(0)
            .with_parallelism(Parallelism::Threads(3))
            .with_wakeup(Wakeup::Adversarial(vec![7]));
        misuse(7, 0, true, cfg);
    }

    /// An order-sensitive probe: every node folds the `(port, payload)`
    /// sequence of each inbox into a rolling hash and broadcasts the hash
    /// `budget` times. The message size is derived from the hash, so
    /// hearing the same messages in another order moves `RunOutcome::bits`
    /// — which FloodMax, taking a maximum, can never show.
    struct OrderProbe {
        hash: u64,
        budget: u32,
    }
    /// The hash, and the round it was sent in (which the hash ignores).
    #[derive(Debug, Clone)]
    struct HashMsg(u64, u64);
    impl Message for HashMsg {
        fn size_bits(&self) -> u64 {
            1 + self.0 % 61
        }
    }
    impl Protocol for OrderProbe {
        type Msg = HashMsg;
        fn on_round(&mut self, ctx: &mut Context<'_, HashMsg>, inbox: &[(usize, HashMsg)]) {
            if ctx.first_activation() {
                self.hash = splitmix64(ctx.require_id());
            }
            for (port, HashMsg(x, _)) in inbox {
                self.hash = splitmix64(self.hash ^ x.wrapping_add(*port as u64));
            }
            if self.budget > 0 {
                self.budget -= 1;
                ctx.broadcast(HashMsg(self.hash, ctx.round()));
            }
        }
        fn status(&self) -> Status {
            Status::Undecided
        }
    }

    #[test]
    fn inbox_order_across_shards_is_the_inline_order() {
        use crate::adversary::Adversary;
        // One waker and small ranges, so that rounds in which a whole
        // range steps nobody while a neighbour sends into it are common —
        // the round in which a shard that skipped staging would hear the
        // neighbour's message before what earlier rounds delayed. (With
        // the stage skipped, 5 – 15 of the 27 runs per graph differ.)
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| OrderProbe { hash: 0, budget: 6 };
        for g in [gen::cycle(6).unwrap(), gen::torus(4, 5).unwrap()] {
            for run_seed in 0..9 {
                let base = flood_cfg(g.len(), 0, run_seed)
                    .with_wakeup(Wakeup::Adversarial(vec![0]))
                    .with_adversary(Adversary::BoundedDelay { max_delay: 3 });
                let reference = run(&g, &base.clone().with_parallelism(Parallelism::Off), mk);
                assert!(!reference.late_deliveries.is_empty());
                for t in [2usize, 3, 5] {
                    let par = base.clone().with_parallelism(Parallelism::Threads(t));
                    let n = g.len();
                    assert_eq!(
                        run(&g, &par, mk),
                        reference,
                        "n {n}, seed {run_seed}, threads {t}"
                    );
                }
            }
        }
    }

    /// Each inbox as heard: `(round, node, [(port, send round)])`.
    type InboxLog = Vec<(u64, NodeId, Vec<(usize, u64)>)>;

    /// An [`OrderProbe`] that logs each inbox it hears.
    struct Heard {
        v: NodeId,
        log: std::sync::Arc<Mutex<InboxLog>>,
        inner: OrderProbe,
    }
    impl Protocol for Heard {
        type Msg = HashMsg;
        fn on_round(&mut self, ctx: &mut Context<'_, HashMsg>, inbox: &[(usize, HashMsg)]) {
            let heard = inbox.iter().map(|(port, m)| (*port, m.1)).collect();
            lock(&self.log).push((ctx.round(), self.v, heard));
            self.inner.on_round(ctx, inbox);
        }
        fn status(&self) -> Status {
            self.inner.status()
        }
    }

    #[test]
    fn a_lower_ranges_sends_are_spliced_between_the_staged_and_the_own_ones() {
        use crate::adversary::Adversary;
        // K9 at three threads — ranges {0, 1, 2}, {3, 4, 5}, {6, 7, 8} —
        // everyone broadcasting for six rounds under delays: an inbox of
        // the middle or top range hears, in one round, what was delayed
        // into it (staged before anyone steps), the lower ranges' sends
        // (spliced in from the mail), its own range's (delivered direct)
        // and, in the middle range, the top range's (appended from the
        // mail).
        let g = gen::complete(9).unwrap();
        let cfg = flood_cfg(9, 0, 4).with_adversary(Adversary::BoundedDelay { max_delay: 2 });
        let heard = |p: Parallelism| {
            let log = std::sync::Arc::default();
            let mk = |v: NodeId, _: &NodeSetup, _: &mut StdRng| Heard {
                v,
                log: std::sync::Arc::clone(&log),
                inner: OrderProbe { hash: 0, budget: 6 },
            };
            let out = run(&g, &cfg.clone().with_parallelism(p), mk);
            let mut heard = std::mem::take(&mut *lock(&log));
            heard.sort_by_key(|&(round, v, _)| (round, v));
            (out, heard)
        };
        let (reference, inline) = heard(Parallelism::Off);
        let (_, owners) = Owners::split(&g, 3);
        for range in [1, 2] {
            let mixed = inline.iter().any(|(round, v, inbox)| {
                let from = |r: usize| {
                    inbox.iter().any(|&(port, sent)| {
                        sent + 1 == *round && owners.of(g.endpoint(*v, port).0) == r
                    })
                };
                let delayed = inbox.iter().any(|&(_, sent)| sent + 1 < *round);
                owners.of(*v) == range && delayed && (0..3).all(from)
            });
            assert!(mixed, "no inbox of range {range} mixes every source");
        }
        let (out, sharded) = heard(Parallelism::Threads(3));
        assert_eq!(sharded, inline);
        assert_eq!(out, reference);
    }

    /// Logs `(round, node)` of every activation in stepping order, then
    /// runs the inner protocol.
    struct Logged<P> {
        v: NodeId,
        log: std::sync::Arc<Mutex<Vec<(u64, NodeId)>>>,
        inner: P,
    }
    impl<P: Protocol> Protocol for Logged<P> {
        type Msg = P::Msg;
        fn on_round(&mut self, ctx: &mut Context<'_, P::Msg>, inbox: &[(usize, P::Msg)]) {
            lock(&self.log).push((ctx.round(), self.v));
            self.inner.on_round(ctx, inbox);
        }
        fn status(&self) -> Status {
            self.inner.status()
        }
    }

    #[test]
    fn sorted_and_bitmap_ordered_rounds_both_step_a_range_in_ascending_order() {
        use std::collections::BTreeMap;
        // A 40 × 40 torus woken at node 0: the wave's first and last rounds
        // step a few nodes of a range, its middle ones hundreds, so every
        // range crosses from sorted rounds (fewer active nodes than words
        // in its dedup bitmap) to bitmap-ordered ones and back — at other
        // rounds for other range lengths.
        let g = gen::torus(40, 40).unwrap();
        let base = flood_cfg(g.len(), 0, 5).with_wakeup(Wakeup::Adversarial(vec![0]));
        let mut reference: Option<RunOutcome> = None;
        for t in [1usize, 2, 3, 5] {
            let log = std::sync::Arc::default();
            let mk = |v: NodeId, _: &NodeSetup, _: &mut StdRng| Logged {
                v,
                log: std::sync::Arc::clone(&log),
                inner: OrderProbe { hash: 0, budget: 6 },
            };
            let p = match t {
                1 => Parallelism::Off,
                t => Parallelism::Threads(t),
            };
            let out = run(&g, &base.clone().with_parallelism(p), mk);
            let (ranges, owners) = Owners::split(&g, t);
            assert_eq!(ranges.len(), t);
            // (range, round) -> the nodes stepped, in stepping order.
            let mut stepped: BTreeMap<(usize, u64), Vec<NodeId>> = BTreeMap::new();
            for &(round, v) in lock(&log).iter() {
                stepped.entry((owners.of(v), round)).or_default().push(v);
            }
            for (s, (range, _)) in ranges.iter().enumerate() {
                let dense: Vec<bool> = stepped
                    .range((s, 0)..(s + 1, 0))
                    .map(|(&(_, round), nodes)| {
                        let ascending = nodes.windows(2).all(|w| w[0] < w[1]);
                        assert!(ascending, "threads {t}, round {round}: {nodes:?}");
                        nodes.len() * 64 >= range.len()
                    })
                    .collect();
                let crossing = dense.first() == Some(&false)
                    && dense.contains(&true)
                    && dense.last() == Some(&false);
                assert!(crossing, "threads {t}, range {range:?}: {dense:?}");
            }
            match &reference {
                None => reference = Some(out),
                Some(reference) => assert_eq!(&out, reference, "threads {t}"),
            }
        }
    }

    #[test]
    fn watch_hits_from_a_non_first_shard_match_the_inline_engine() {
        use crate::adversary::Adversary;
        use ule_graph::dumbbell::{BridgeOrientation, Dumbbell};
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 14,
            decided: Status::Undecided,
        };
        // Two 6-cycles joined by the bridges (0, 10) and (1, 11): the
        // right ends sit in the last range at 2 and at 3 threads.
        let ring = gen::cycle(6).unwrap();
        let bell =
            Dumbbell::build(&ring, (0, 1), &ring, (4, 5), BridgeOrientation::Straight).unwrap();
        assert_eq!(bell.bridges, [(0, 10), (1, 11)]);
        let path = gen::path(6).unwrap();
        let cases = [
            // Everyone wakes: the first crossing is the lower endpoint's.
            (
                &path,
                flood_cfg(6, 14, 0).watching(&[(4, 5), (5, 4), (4, 5), (2, 3)]),
            ),
            // The wave starts at the far end, so it crosses from the last
            // range into its neighbour.
            (
                &path,
                flood_cfg(6, 14, 0)
                    .watching(&[(4, 5), (5, 4), (4, 3)])
                    .with_wakeup(Wakeup::Adversarial(vec![5])),
            ),
            // The first send over (4, 5) is dropped and never counts; the
            // crossings around it still do, dropped sends included in
            // their `messages_before`.
            (
                &path,
                flood_cfg(6, 14, 0)
                    .watching(&[(5, 4), (3, 4), (4, 5)])
                    .with_wakeup(Wakeup::Adversarial(vec![0]))
                    .with_adversary(Adversary::LinkFailure {
                        schedule: vec![((4, 5), 2)],
                    }),
            ),
            (
                &bell.graph,
                flood_cfg(12, 14, 0)
                    .watching(&[(10, 0), (1, 11), (0, 10), (11, 1)])
                    .with_wakeup(Wakeup::Adversarial(vec![11])),
            ),
        ];
        for (i, (g, cfg)) in cases.iter().enumerate() {
            let reference = run(*g, &cfg.clone().with_parallelism(Parallelism::Off), mk);
            let dropped = reference.messages_dropped > 0;
            assert_eq!(
                reference.watch_hits.iter().any(Option::is_none),
                dropped,
                "case {i}"
            );
            for t in [2usize, 3] {
                let par = run(
                    *g,
                    &cfg.clone().with_parallelism(Parallelism::Threads(t)),
                    mk,
                );
                assert_eq!(
                    par.watch_hits, reference.watch_hits,
                    "case {i}, threads = {t}"
                );
                assert_eq!(par, reference, "case {i}, threads = {t}");
            }
        }
    }

    #[test]
    fn sharded_run_matches_sequential_byte_for_byte() {
        // Small graphs with Threads(k) run both phases on the shards'
        // threads in every round with at least two active nodes.
        let g = gen::cycle(16).unwrap();
        let seq_cfg = flood_cfg(16, 12, 9).with_parallelism(Parallelism::Off);
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 12,
            decided: Status::Undecided,
        };
        let reference = run(&g, &seq_cfg, mk);
        for t in [2usize, 3, 4, 7] {
            let par_cfg = flood_cfg(16, 12, 9).with_parallelism(Parallelism::Threads(t));
            assert_eq!(run(&g, &par_cfg, mk), reference, "threads = {t}");
        }
    }

    #[test]
    fn explicit_lockstep_and_zero_delay_match_the_default_engine() {
        use crate::adversary::Adversary;
        let g = gen::cycle(12).unwrap();
        let reference = flood(&g, 10, 4);
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 0 },
            Adversary::Compose(vec![Adversary::Lockstep, Adversary::Lockstep]),
        ] {
            let cfg = flood_cfg(12, 10, 4).with_adversary(adv.clone());
            let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
                best: 0,
                deadline: 10,
                decided: Status::Undecided,
            });
            assert_eq!(out, reference, "{adv:?}");
            assert_eq!(out.messages_dropped, 0);
            assert!(out.crashed.is_empty() && out.late_deliveries.is_empty());
        }
    }

    #[test]
    fn bounded_delay_stretches_rounds_and_counts_late_deliveries() {
        use crate::adversary::Adversary;
        let g = gen::path(8).unwrap();
        let sync = flood(&g, 20, 3);
        let cfg = flood_cfg(8, 20, 3).with_adversary(Adversary::BoundedDelay { max_delay: 4 });
        let delayed = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 20,
            decided: Status::Undecided,
        });
        assert_eq!(delayed.termination, Termination::Quiescent);
        let late: u64 = delayed.late_deliveries.iter().map(|&(_, c)| c).sum();
        assert!(late > 0, "max_delay 4 must actually delay something");
        assert!(
            delayed.late_deliveries.windows(2).all(|w| w[0].0 < w[1].0),
            "late_deliveries must be sorted by round"
        );
        assert_eq!(delayed.messages_dropped, 0, "delay never drops");
        assert!(
            delayed.rounds >= sync.rounds,
            "delays cannot finish the flood earlier"
        );
        // Determinism: same seed, same delayed outcome.
        let again = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 20,
            decided: Status::Undecided,
        });
        assert_eq!(again, delayed);
    }

    #[test]
    fn bounded_delay_is_thread_count_invariant() {
        use crate::adversary::Adversary;
        let g = gen::cycle(16).unwrap();
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 14,
            decided: Status::Undecided,
        };
        let base = flood_cfg(16, 14, 7).with_adversary(Adversary::BoundedDelay { max_delay: 3 });
        let reference = run(&g, &base.clone().with_parallelism(Parallelism::Off), mk);
        for t in [2usize, 3, 5] {
            let par = run(
                &g,
                &base.clone().with_parallelism(Parallelism::Threads(t)),
                mk,
            );
            assert_eq!(par, reference, "threads = {t}");
        }
    }

    #[test]
    fn crashed_node_stops_stepping_and_loses_inbound_messages() {
        use crate::adversary::Adversary;
        // Node 2 of a 5-path crashes at round 0: it never runs, so the
        // flood can never cross it and each side decides on its own max.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(2, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![2]);
        assert!(out.is_crashed(2) && !out.is_crashed(1));
        assert_eq!(out.statuses[2], Status::Undecided, "frozen at crash");
        // Sequential ids: node 4 holds the max. Nodes 3 and 4 decide
        // Leader-side; nodes 0 and 1 think node 1 (id 2) won their side.
        assert_eq!(out.statuses[4], Status::Leader);
        assert_eq!(
            out.statuses[1],
            Status::Leader,
            "left side elects its own max"
        );
        assert!(!out.election_succeeded(), "two survivors claim leadership");
        assert!(
            out.messages_dropped > 0,
            "messages into the crashed node are lost"
        );
        assert_eq!(out.termination, Termination::Quiescent);
    }

    #[test]
    fn messages_sent_before_a_crash_still_deliver() {
        use crate::adversary::Adversary;
        // Node 2 crashes at round 1, *after* its round-0 broadcast: the
        // broadcast is delivered (delivered-before-crash semantics), so
        // its id 3 becomes a ghost maximum on the left side — nodes 0 and
        // 1 see it and decide NonLeader, leaving the left without any
        // leader, while the right still elects node 4.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(2, 1)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![2]);
        assert_eq!(out.statuses[0], Status::NonLeader);
        assert_eq!(out.statuses[1], Status::NonLeader);
        assert_eq!(out.statuses[4], Status::Leader);
        assert!(
            out.election_succeeded(),
            "exactly one surviving leader: the ghost max suppressed the left"
        );
    }

    #[test]
    fn crash_aware_success_predicate_excludes_the_dead() {
        use crate::adversary::Adversary;
        // Crash a *leaf* (node 0) before it ever runs: the rest of the
        // path elects normally and the election counts as a success among
        // survivors even though node 0 is forever Undecided.
        let g = gen::path(5).unwrap();
        let cfg = flood_cfg(5, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(0, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.crashed, vec![0]);
        assert_eq!(out.statuses[0], Status::Undecided);
        assert_eq!(out.leader(), Some(4));
        assert!(
            out.election_succeeded(),
            "crashed nodes are exempt from deciding"
        );
    }

    #[test]
    fn all_crashed_terminates_and_never_succeeds() {
        use crate::adversary::Adversary;
        let g = gen::path(3).unwrap();
        let cfg = flood_cfg(3, 10, 0).with_adversary(Adversary::CrashStop {
            schedule: vec![(0, 0), (1, 0), (2, 0)],
        });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert_eq!(out.termination, Termination::AllCrashed);
        assert_eq!(out.crashed, vec![0, 1, 2]);
        assert_eq!(out.messages, 0);
        assert!(!out.election_succeeded());
    }

    #[test]
    fn crash_resolves_pending_wakeups_without_hanging() {
        use crate::adversary::Adversary;
        // A sleeper armed for round 1_000 crashes at round 50: the engine
        // must neither wake it nor spin — the run quiesces, and the crash
        // (whose effect was observed) is reported as fired.
        let g = gen::path(2).unwrap();
        let cfg = SimConfig::seeded(0)
            .with_max_rounds(u64::MAX)
            .with_adversary(Adversary::CrashStop {
                schedule: vec![(0, 50), (1, 50)],
            });
        let out = run(&g, &cfg, |_, _, _| Sleeper {
            until: 1_000,
            fired: false,
        });
        assert_eq!(out.termination, Termination::AllCrashed);
        assert_eq!(out.crashed, vec![0, 1]);
        assert_eq!(out.undecided_count(), 2, "nobody ever fired");
    }

    #[test]
    fn link_failure_partitions_the_flood() {
        use crate::adversary::Adversary;
        // The middle edge of a 6-path dies at round 0: no message ever
        // crosses it, each side floods among itself.
        let g = gen::path(6).unwrap();
        let cfg = flood_cfg(6, 10, 0)
            .watching(&[(2, 3)])
            .with_adversary(Adversary::LinkFailure {
                schedule: vec![((2, 3), 0)],
            });
        let out = run(&g, &cfg, |_, _, _| MiniFloodMax {
            best: 0,
            deadline: 10,
            decided: Status::Undecided,
        });
        assert!(out.messages_dropped > 0);
        assert!(out.crashed.is_empty());
        assert_eq!(
            out.watch_hits[0], None,
            "dropped messages never count as watch crossings"
        );
        assert_eq!(out.statuses[5], Status::Leader);
        assert_eq!(
            out.statuses[2],
            Status::Leader,
            "left side elects its own max"
        );
        assert!(!out.election_succeeded());
    }

    #[test]
    fn delay_plus_crash_compose() {
        use crate::adversary::Adversary;
        let g = gen::cycle(10).unwrap();
        let cfg = flood_cfg(10, 30, 5).with_adversary(Adversary::Compose(vec![
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::CrashStop {
                schedule: vec![(4, 3)],
            },
        ]));
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 30,
            decided: Status::Undecided,
        };
        let out = run(&g, &cfg, mk);
        assert_eq!(out.crashed, vec![4]);
        assert!(out.messages_dropped > 0, "the dead node's inbound drops");
        // Byte-for-byte reproducible, including under sharding.
        let par = run(
            &g,
            &cfg.clone().with_parallelism(Parallelism::Threads(3)),
            mk,
        );
        assert_eq!(par, out);
    }

    #[test]
    fn sharded_run_preserves_watch_hits_and_edge_stats() {
        let g = gen::path(12).unwrap();
        let watch = [(5, 6), (0, 1)];
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 14,
            decided: Status::Undecided,
        };
        let seq = run(
            &g,
            &flood_cfg(12, 14, 0)
                .watching(&watch)
                .with_parallelism(Parallelism::Off),
            mk,
        );
        let par = run(
            &g,
            &flood_cfg(12, 14, 0)
                .watching(&watch)
                .with_parallelism(Parallelism::Threads(3)),
            mk,
        );
        assert_eq!(par, seq);
        assert!(par.watch_hits.iter().all(Option::is_some));
    }

    #[test]
    fn implicit_topology_matches_the_materialized_graph() {
        // The same run on the procedural cycle and on its CSR
        // materialization must agree field for field, inline and sharded.
        let g = gen::cycle(16).unwrap();
        let t = ImplicitTopology::Cycle { n: 16 };
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 12,
            decided: Status::Undecided,
        };
        for cfg in [
            flood_cfg(16, 12, 9),
            flood_cfg(16, 12, 9).with_parallelism(Parallelism::Threads(3)),
            flood_cfg(16, 12, 9)
                .with_adversary(crate::adversary::Adversary::BoundedDelay { max_delay: 2 }),
        ] {
            assert_eq!(run(&t, &cfg, mk), run(&g, &cfg, mk));
        }
    }

    #[test]
    fn edge_stats_off_empties_only_the_per_edge_arrays() {
        use crate::adversary::Adversary;
        let g = gen::cycle(10).unwrap();
        let mk = |_: NodeId, _: &NodeSetup, _: &mut StdRng| MiniFloodMax {
            best: 0,
            deadline: 8,
            decided: Status::Undecided,
        };
        let blank = |mut o: RunOutcome| {
            o.first_directed_use = Vec::new();
            o.directed_message_counts = Vec::new();
            o
        };
        let on = run(&g, &flood_cfg(10, 8, 2), mk);
        assert!(!on.first_directed_use.is_empty());
        let off = run(&g, &flood_cfg(10, 8, 2).with_edge_stats(false), mk);
        assert!(off.first_directed_use.is_empty());
        assert!(off.directed_message_counts.is_empty());
        assert_eq!(off, blank(on));
        // Asynchronous fates consume per-edge send indices internally even
        // when the outcome omits the arrays — delays must be unchanged.
        let adv = Adversary::BoundedDelay { max_delay: 3 };
        let don = run(&g, &flood_cfg(10, 8, 2).with_adversary(adv.clone()), mk);
        let doff = run(
            &g,
            &flood_cfg(10, 8, 2)
                .with_adversary(adv)
                .with_edge_stats(false),
            mk,
        );
        assert_eq!(doff, blank(don));
    }

    /// Ticks through round 5 calling `ctx.rng()` in every activation
    /// without drawing — except a drawer, which draws a `u64` at round 3 and
    /// flips a `coin()` at round 4, so a lazy column densifies mid-run. Each
    /// draw is checked against the stream's next values as the factory saw
    /// them, pinning that on-demand derivation plus the densify write-back
    /// reproduce a dense column's streams exactly.
    struct LateCoin {
        draws: bool,
        expect: (u64, bool),
        got: u64,
        done: bool,
    }
    impl Protocol for LateCoin {
        type Msg = Signal;
        fn on_round(&mut self, ctx: &mut Context<'_, Signal>, _inbox: &[(usize, Signal)]) {
            use rand::Rng;
            let _ = ctx.rng();
            match ctx.round() {
                3 if self.draws => self.got += u64::from(ctx.rng().gen::<u64>() == self.expect.0),
                4 if self.draws => self.got += u64::from(ctx.coin() == self.expect.1),
                5 => {
                    self.done = true;
                    return;
                }
                _ => {}
            }
            ctx.wake_next();
        }
        fn status(&self) -> Status {
            if self.done && self.got == if self.draws { 2 } else { 0 } {
                Status::NonLeader
            } else {
                Status::Undecided
            }
        }
    }

    /// A `LateCoin` that draws iff `draws`. It snapshots the stream's next
    /// values *without* drawing from the real RNG (a clone draws instead),
    /// so the store stays lazy until the protocol draws.
    fn late_coin(draws: bool, rng: &StdRng) -> LateCoin {
        use rand::Rng;
        let mut probe = rng.clone();
        LateCoin {
            draws,
            expect: (probe.gen(), probe.gen()),
            got: 0,
            done: false,
        }
    }

    /// Whether each range of a finished run ended with a dense RNG column.
    fn dense_ranges<P: Protocol>(shards: &[Shard<P>]) -> Vec<bool> {
        let dense = |s: &Shard<P>| matches!(s.store.rngs, crate::exec::RngCol::Dense(_));
        shards.iter().map(dense).collect()
    }

    #[test]
    fn lazy_rng_column_densifies_with_exact_streams() {
        let g = gen::cycle(8).unwrap();
        let cfg = SimConfig::seeded(77).with_max_rounds(100);
        // (who draws, which ranges end dense under Off / Threads(2) /
        // Threads(3), whose ranges are [0, 8) / [0, 4), [4, 8) / [0, 3),
        // [3, 6), [6, 8)): calls that never draw leave every range lazy,
        // node 7's late draws densify its range alone, everybody's all.
        // The async runtime cuts the same ranges at 1 / 2 / 3 workers.
        type Case = (fn(NodeId) -> bool, [&'static [bool]; 3]);
        let cases: [Case; 3] = [
            (|_| false, [&[false], &[false; 2], &[false; 3]]),
            (|v| v == 7, [&[true], &[false, true], &[false, false, true]]),
            (|_| true, [&[true], &[true; 2], &[true; 3]]),
        ];
        for (drawer, dense) in cases {
            let mk = |v: NodeId, _: &NodeSetup, rng: &mut StdRng| late_coin(drawer(v), rng);
            let reference = run(&g, &cfg, mk);
            assert_eq!(
                reference.undecided_count(),
                0,
                "every node's on-demand draws must match its pristine stream"
            );
            for (p, dense) in [
                Parallelism::Off,
                Parallelism::Threads(2),
                Parallelism::Threads(3),
            ]
            .into_iter()
            .zip(dense)
            {
                let check = |shards: &[Shard<LateCoin>]| assert_eq!(dense_ranges(shards), dense);
                let out = run_inspecting(&g, &cfg.clone().with_parallelism(p), mk, check);
                assert_eq!(out, reference, "{p:?}");
            }
            async_and_replay_match(&g, &cfg, mk, &reference);
        }
    }

    /// Runs `mk` on the async runtime at 1, 2 and 3 workers — the ranges of
    /// `Off`, `Threads(2)` and `Threads(3)` — and replays each trace: every
    /// outcome must be `reference`.
    fn async_and_replay_match<P: Protocol>(
        g: &ule_graph::Graph,
        cfg: &SimConfig,
        mk: impl Fn(NodeId, &NodeSetup, &mut StdRng) -> P + Copy,
        reference: &RunOutcome,
    ) {
        for workers in 1..=3 {
            let rt = crate::AsyncRuntime::new().with_workers(workers);
            let recorded = rt.run(g, cfg, mk);
            assert_eq!(&recorded.outcome, reference, "async, {workers} workers");
            let replayed = crate::rt::replay(g, cfg, mk, &recorded.trace);
            assert_eq!(replayed, recorded, "replay, {workers} workers");
        }
    }

    /// Factories that draw densify the column at init time.
    #[test]
    fn factory_draws_densify_at_init() {
        use rand::Rng;
        let g = gen::cycle(6).unwrap();
        let cfg = SimConfig::seeded(5).with_max_rounds(100);
        // Node 3's factory draws; later factories continue on a dense
        // column. Each node then verifies its post-factory stream state.
        let mk = |v: NodeId, _: &NodeSetup, rng: &mut StdRng| {
            if v >= 3 {
                let _burn: u64 = rng.gen();
            }
            late_coin(true, rng)
        };
        let out = run_inspecting(&g, &cfg, mk, |shards| {
            assert_eq!(dense_ranges(shards), [true]);
        });
        assert_eq!(out.undecided_count(), 0);
        // At 2 and 3 workers the ranges before node 3's stay lazy until
        // their nodes draw at round 3.
        async_and_replay_match(&g, &cfg, mk, &out);
    }
}
