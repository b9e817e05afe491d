//! The runtime-independent execution core.
//!
//! Everything in this module but the `Ledger` is shared verbatim by every
//! runtime that can drive a [`Protocol`]: the lockstep round engine
//! ([`crate::Runner`] on the sim runtime, a *scheduler policy* layered on
//! this core) and the async threads+channels runtime ([`crate::rt`]). It
//! owns:
//!
//! * **node ranges** — `Owners::split`: the one cut of `0..n` into
//!   contiguous ranges (an engine shard or an async worker each) with the
//!   out-edges each range owns, and the table that names a node's owner;
//! * **node-state storage** — `NodeStore`: struct-of-arrays bookkeeping
//!   for the nodes of one range (protocol instances, private RNG streams
//!   seeded by [`node_rng_seed`], wakeup timers, started flags and
//!   statuses as parallel flat arrays), one store per range on every
//!   runtime.
//!   The store is on a memory diet for graph-scale runs: per-node setups
//!   are rebuilt on the stack from a shared `RunCtx` at each activation,
//!   timers are a dense `u64` column with a `NO_WAKE` sentinel, and the
//!   RNG column starts lazy (`RngCol::Lazy`) — nothing is allocated until some
//!   node actually draws (most deterministic protocols never do);
//! * **protocol stepping** — `step_node`: the one activation sequence
//!   (clear a due timer, hand the caller-gathered inbox to the protocol,
//!   run `on_round`, persist a first draw on a lazy RNG column, report
//!   re-armed timers and status changes, stage sends), handing each
//!   staged send to a caller-supplied `FnMut` so each runtime decides
//!   where it goes without re-implementing the stepping rules, and generic
//!   over a [`Topology`] so implicit (procedural) graphs never
//!   materialize; re-armed timers queue in the range's `Wakes`, the one
//!   genuine-entry wake calendar;
//! * **run set-up** — `set_up`: splits the nodes, builds one store per
//!   range in range order, and builds `RunFacts` — which validates the
//!   wakeup set, builds the adversary schedule, precomputes crash rounds,
//!   normalizes and indexes the watched edges and arms the spontaneous
//!   wakeups (crash-filtered) in the owning store; immutable afterwards
//!   and shared by reference with every thread of every runtime;
//! * **message accounting** — `LedgerPart`: what a send costs and what
//!   becomes of it, defined once (`LedgerPart::account`: message/bit
//!   totals, CONGEST budget checks, per-directed-edge statistics —
//!   allocated lazily, see [`crate::SimConfig::edge_stats`] — adversary
//!   fate, drops, late deliveries, crash horizon). Every column is
//!   commutative and the per-edge columns are owned by sender range, so
//!   parts built on different threads `merge` associatively into the part
//!   one sequential accountant would have built; the engine keeps one part
//!   per shard, the async runtime one per worker;
//! * **lockstep delivery** — `Ledger`: the delivery pipeline of one
//!   contiguous node range of the engine — the `LedgerPart` of the
//!   range's out-edges plus the range's inboxes, i.e. the delayed-delivery
//!   [`CalendarQueue`] and the two-round `InboxArena`. A send is
//!   accounted by the ledger of its source (`LedgerPart::account`) and
//!   placed by the ledger of its destination (`Ledger::deliver`: arena
//!   *next* side or calendar) — one and the same when a single ledger
//!   covers every node, the inline engine; with several ranges the engine
//!   arranges the deliveries to arrive in the global send order per inbox. Opening a round / staging the
//!   next one are `Ledger` methods over one drain loop (`Ledger::stage`),
//!   so no other module knows where a delivery lands;
//! * **outcome finishing** — [`RunOutcome`] and the final crash/termination
//!   bookkeeping (`LedgerPart::finish`), fed the merged part by every
//!   runtime.
//!
//! What is *not* here is exactly what distinguishes runtimes: the decision
//! of **when** a node steps (the lockstep engine's active sets, wakeup
//! calendars, fast-forward and shard threads live in `engine`; the async
//! runtime's per-edge clocks and quiescence arbiter live in `rt`) — and, for the
//! async runtime, its transport (frames over `std::sync::mpsc` channels)
//! and what only it has: the delivery trace, `round_totals` rebuilt from
//! per-worker round sets, and watch hits reconstructed from the trace.
//! Both scheduling policies execute the same core in the same order, which
//! is why their outcomes agree exactly (pinned by
//! `tests/async_conformance.rs`).

use crate::adversary::{Adversary, Fate, Schedule, SendView};
use crate::calendar::CalendarQueue;
use crate::config::{IdMode, SimConfig, Wakeup};
use crate::message::Message;
use crate::protocol::{Context, Knowledge, NodeRng, NodeSetup, Protocol, Status};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::ops::Range;
use ule_graph::{Id, NodeId, Port, Topology};

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// No messages in flight and no scheduled wakeups — the execution is
    /// over for good.
    Quiescent,
    /// The round cap was reached; statuses are a truncation snapshot.
    RoundLimit,
    /// The execution went quiescent because every node fail-stopped
    /// (see [`crate::adversary::CrashStop`]); nobody is left to decide.
    AllCrashed,
}

/// First crossing of a watched edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// Round in which the first message crossed the edge.
    pub round: u64,
    /// Number of messages sent anywhere in the network strictly before
    /// that message — the "cost until bridge crossing" of Theorem 3.1.
    pub messages_before: u64,
}

/// Everything measured during one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Number of rounds with activity (the last active round + 1).
    pub rounds: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bits sent.
    pub bits: u64,
    /// Final status of every node.
    pub statuses: Vec<Status>,
    /// Why the run stopped.
    pub termination: Termination,
    /// Messages whose size exceeded the CONGEST budget.
    pub congest_violations: u64,
    /// Largest single message, in bits.
    pub max_message_bits: u64,
    /// Per watched edge (same order as `SimConfig::watch_edges`): the first
    /// crossing, if any.
    pub watch_hits: Vec<Option<WatchHit>>,
    /// Round of first use of each directed edge (`u64::MAX` = never),
    /// indexed by [`ule_graph::Graph::directed_index`]. Drives the
    /// Lemma 3.5 edge-ordering experiment. Empty when the run disabled
    /// per-edge statistics ([`crate::SimConfig::edge_stats`]).
    pub first_directed_use: Vec<u64>,
    /// Message count per directed edge, same indexing (and same
    /// [`crate::SimConfig::edge_stats`] caveat).
    pub directed_message_counts: Vec<u64>,
    /// The last round in which any node changed status (`None` if no node
    /// ever decided).
    pub last_status_change: Option<u64>,
    /// Cumulative message totals at the end of each *active* round,
    /// as `(round, total)` pairs in increasing round order. Supports the
    /// Lemma 3.5 accounting, which counts messages sent up to and
    /// including a crossing round.
    pub round_totals: Vec<(u64, u64)>,
    /// Nodes whose fail-stop crash fired by the end of the run, ascending.
    /// Empty under the default [`crate::Adversary::Lockstep`] schedule.
    pub crashed: Vec<NodeId>,
    /// Sends the adversary discarded in flight (link failures, deliveries
    /// into crashed nodes). Dropped sends still count toward
    /// [`RunOutcome::messages`] — the sender paid for them.
    pub messages_dropped: u64,
    /// Messages delivered later than the synchronous `send + 1` round,
    /// as `(delivery round, count)` pairs in increasing round order.
    /// Empty unless a delay adversary is configured.
    pub late_deliveries: Vec<(u64, u64)>,
}

impl RunOutcome {
    /// The elected node, if *exactly one* node holds status `Leader`.
    pub fn leader(&self) -> Option<NodeId> {
        let mut it = self
            .statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Status::Leader);
        match (it.next(), it.next()) {
            (Some((v, _)), None) => Some(v),
            _ => None,
        }
    }

    /// Number of nodes holding status `Leader`.
    pub fn leader_count(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| **s == Status::Leader)
            .count()
    }

    /// Whether node `v` fail-stopped during the run.
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed.binary_search(&v).is_ok()
    }

    /// The paper's success predicate for implicit leader election: exactly
    /// one `Leader`, every other node `NonLeader` (nobody `Undecided`).
    ///
    /// Under a fault adversary the predicate is evaluated over the
    /// *surviving* nodes: crashed nodes are exempt from deciding and a
    /// crashed `Leader` does not count (its survivors must re-elect). A
    /// run that ended [`Termination::AllCrashed`] never succeeds. With no
    /// crashes this is exactly the historical predicate.
    pub fn election_succeeded(&self) -> bool {
        if self.termination == Termination::AllCrashed {
            return false;
        }
        let mut leaders = 0usize;
        for (v, s) in self.statuses.iter().enumerate() {
            if !self.crashed.is_empty() && self.is_crashed(v) {
                continue;
            }
            match s {
                Status::Undecided => return false,
                Status::Leader => leaders += 1,
                Status::NonLeader => {}
            }
        }
        leaders == 1
    }

    /// Count of still-undecided nodes.
    pub fn undecided_count(&self) -> usize {
        self.statuses
            .iter()
            .filter(|s| matches!(s, Status::Undecided))
            .count()
    }

    /// Total messages sent in rounds `<= round` — the quantity the
    /// Lemma 3.5 counting argument bounds from below at a bridge crossing.
    pub fn messages_through(&self, round: u64) -> u64 {
        match self.round_totals.binary_search_by_key(&round, |&(r, _)| r) {
            Ok(i) => self.round_totals[i].1,
            Err(0) => 0,
            Err(i) => self.round_totals[i - 1].1,
        }
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Seed of node `node`'s private RNG stream in a run seeded with `seed`.
///
/// Derivation is *chained*: hash the run seed, add the node index, hash
/// again. The historical derivation XOR-combined the two
/// (`seed ^ splitmix64(node + 0x5151)`), under which distinct
/// `(seed, node)` pairs collide onto identical streams — for any nodes
/// `u != v`, running with seed `s ^ splitmix64(u + c) ^ splitmix64(v + c)`
/// hands node `v` exactly the stream node `u` had under seed `s`, so
/// seed sweeps silently reused coin flips across trials. Chaining has no
/// such algebraic structure (pinned by `node_rng_streams_are_independent`).
pub fn node_rng_seed(seed: u64, node: NodeId) -> u64 {
    splitmix64(splitmix64(seed).wrapping_add(node as u64))
}

/// Node `node`'s private RNG stream in a run seeded with `seed`, pristine.
pub(crate) fn node_rng(seed: u64, node: NodeId) -> StdRng {
    StdRng::seed_from_u64(node_rng_seed(seed, node))
}

/// Sentinel in the dense wakeup column meaning "no timer armed". A
/// protocol calling `wake_at(u64::MAX)` is asking never to be woken, which
/// is exactly what the sentinel encodes, so [`step_node`] normalizes that
/// request to a disarmed timer.
pub(crate) const NO_WAKE: u64 = u64::MAX;

/// Run-wide facts shared by every activation: the topology, the
/// identifier column (a zero-copy view into the configured
/// [`ule_graph::IdAssignment`]), the knowledge grant, and the run seed
/// (for deriving RNG streams lazily). `step_node` rebuilds a node's
/// [`NodeSetup`] on the stack from this instead of the store carrying an
/// `n`-sized setup column.
#[derive(Debug)]
pub(crate) struct RunCtx<'a, T> {
    pub(crate) topo: &'a T,
    pub(crate) ids: Option<&'a [Id]>,
    pub(crate) knowledge: Knowledge,
    pub(crate) seed: u64,
}

// Manual impls: the derived ones would demand `T: Copy`, and the context
// only holds a reference to the topology.
impl<T> Clone for RunCtx<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RunCtx<'_, T> {}

impl<'a, T: Topology> RunCtx<'a, T> {
    /// The context of a run of `config` on `topo`.
    pub(crate) fn new(topo: &'a T, config: &'a SimConfig) -> Self {
        RunCtx {
            topo,
            ids: ids_slice(config, topo.n()),
            knowledge: config.knowledge,
            seed: config.seed,
        }
    }
}

/// The identifier column of `config` as a zero-copy slice (`None` for
/// anonymous runs).
///
/// # Panics
///
/// Panics if an explicit assignment does not cover the graph (the panic
/// message is part of the API, shared with [`set_up`]).
fn ids_slice(config: &SimConfig, n: usize) -> Option<&[Id]> {
    match &config.ids {
        IdMode::Anonymous => None,
        IdMode::Explicit(a) => {
            assert_eq!(a.len(), n, "identifier assignment does not cover the graph");
            Some(a.as_slice())
        }
    }
}

/// The per-node RNG column. Starts `Lazy` — no allocation; a stream is
/// derived from [`node_rng_seed`] only when an activation calls
/// [`Context::rng`] — and densifies to one materialized `StdRng` per node
/// the moment any node actually draws (a drawn stream has state that must
/// persist across activations). Deterministic protocols like FloodMax
/// never draw, so graph-scale runs never pay the `32n`-byte column, nor a
/// derivation per step.
pub(crate) enum RngCol {
    /// No node has drawn yet; streams are derived on first use.
    Lazy,
    /// Materialized streams, one per node.
    Dense(Vec<StdRng>),
}

/// Which range owns a node. Ranges are cut at multiples of `1 << shift`,
/// so the owner is one load from a table of at most 1024 entries — every
/// send that may leave its range asks once, and a division by the range
/// length cost a measurable share of the engine's step phase.
pub(crate) struct Owners {
    shift: u32,
    table: Vec<u32>,
}

impl Owners {
    /// Splits `topo`'s nodes into at most `threads` contiguous, non-empty
    /// ranges of near-equal length (one empty range when `n == 0`), each
    /// with the directed edges its nodes own: directed-edge indices are
    /// degree prefix sums, so consecutive node ranges own consecutive edge
    /// ranges.
    #[allow(clippy::type_complexity)] // crate-internal; one tuple per range
    pub(crate) fn split<T: Topology>(
        topo: &T,
        threads: usize,
    ) -> (Vec<(Range<NodeId>, Range<usize>)>, Owners) {
        let n = topo.n();
        let shift = (usize::BITS - n.leading_zeros()).saturating_sub(10);
        let grain = 1usize << shift;
        let chunk = n
            .div_ceil(threads.min(n).max(1))
            .next_multiple_of(grain)
            .max(1);
        let mut edge_lo = 0;
        let ranges = (0..n.div_ceil(chunk).max(1))
            .map(|s| {
                let nodes = s * chunk..((s + 1) * chunk).min(n);
                let edge_hi = if nodes.end == n {
                    topo.directed_edge_count()
                } else {
                    edge_lo + nodes.clone().map(|v| topo.degree(v)).sum::<usize>()
                };
                let edges = edge_lo..edge_hi;
                edge_lo = edge_hi;
                (nodes, edges)
            })
            .collect();
        let table = (0..n.div_ceil(grain))
            .map(|g| ((g << shift) / chunk) as u32)
            .collect();
        (ranges, Owners { shift, table })
    }

    /// The range that owns node `v`.
    #[inline]
    pub(crate) fn of(&self, v: NodeId) -> usize {
        self.table[v >> self.shift] as usize
    }
}

/// Struct-of-arrays node bookkeeping for one contiguous node range:
/// everything a runtime must store per node between activations, as
/// parallel flat arrays indexed by offset into the range. Protocol state
/// stays behind `protos[i]` (a protocol is arbitrary user data); timers
/// and statuses are dense scalar columns (`u64` with the [`NO_WAKE`]
/// sentinel, one-byte `Status`), started flags a bitmap, and the RNG
/// column is lazy ([`RngCol`]). Per-node setups and inboxes deliberately
/// do **not** live here: setups are rebuilt on the stack from [`RunCtx`]
/// and inboxes are gathered per round by the runtime (the engine's inbox
/// arena, the async runtime's per-node pending lists), so idle nodes cost
/// 0 bytes of either. Runtime-independent: every engine shard and every
/// async worker steps a `NodeStore<P>` of its own, built by [`set_up`].
pub(crate) struct NodeStore<P: Protocol> {
    /// The first node of the contiguous range this store covers; every
    /// column is indexed by `v - base`.
    pub(crate) base: NodeId,
    pub(crate) protos: Vec<P>,
    pub(crate) rngs: RngCol,
    pub(crate) wake: Vec<u64>,
    pub(crate) statuses: Vec<Status>,
    /// Whether the node has stepped before (read as
    /// [`Context::first_activation`]).
    started: Bitmap,
}

impl<P: Protocol> NodeStore<P> {
    /// Materializes the lazy RNG column: every node gets the fresh stream
    /// [`node_rng_seed`] derives for it. Correct exactly when no node has
    /// drawn yet (fresh streams *are* their current state); the caller that
    /// observed a draw writes the drawn state back into the returned
    /// column. Materializes nothing on an already-dense column.
    fn densify_rngs(&mut self, seed: u64) -> &mut [StdRng] {
        if let RngCol::Lazy = self.rngs {
            let nodes = self.base..self.base + self.statuses.len();
            self.rngs = RngCol::Dense(nodes.map(|v| node_rng(seed, v)).collect());
        }
        let RngCol::Dense(dense) = &mut self.rngs else {
            unreachable!("the column was just materialized")
        };
        dense
    }
}

/// A range's pending wakeups: node offsets queued under their round,
/// pushed when a timer is armed and lazily invalidated — an entry is
/// genuine iff its node's timer (the store's `wake` column) still names
/// its round, so a re-armed timer leaves the superseded entry behind.
/// The one wake calendar of both runtimes.
#[derive(Default)]
pub(crate) struct Wakes(CalendarQueue<u32>);

impl Wakes {
    /// Queues node offset `i`'s timer for round `w`.
    pub(crate) fn push(&mut self, w: u64, i: usize) {
        self.0.push(w, i as u32);
    }

    /// The earliest round holding a genuine entry. A round whose entries
    /// are all superseded is dropped on the way — without moving the
    /// window, since the range may still have to open an earlier round in
    /// which another range (or a delivery) has an event.
    pub(crate) fn first(&mut self, wake: &[u64]) -> Option<u64> {
        while let Some((w, due)) = self.0.peek_first() {
            if due.iter().any(|&i| wake[i as usize] == w) {
                return Some(w);
            }
            self.0.discard_first();
        }
        None
    }

    /// Opens `round` — the window moves to it — and hands every genuine
    /// entry due at it to `admit`, in push order; superseded entries are
    /// dropped. One bucket's work: earlier rounds are never rescanned.
    pub(crate) fn admit(&mut self, round: u64, wake: &[u64], mut admit: impl FnMut(usize)) {
        let due = self.0.take_at(round);
        for &i in &due {
            if wake[i as usize] == round {
                admit(i as usize);
            }
        }
        self.0.recycle(due);
    }
}

/// One message produced by a stepped node, carrying the metadata the
/// accounting phase needs to reproduce the sequential engine's bookkeeping
/// exactly.
pub(crate) struct StagedSend<M> {
    /// Sending node (for watch-edge lookup).
    pub(crate) src: NodeId,
    /// Receiving node.
    pub(crate) dest: NodeId,
    /// Port at which `dest` hears the message.
    pub(crate) dest_port: Port,
    /// Directed-edge index of the sending `(src, port)` pair.
    pub(crate) didx: usize,
    /// Wire size, computed where the message was built.
    pub(crate) bits: u64,
    pub(crate) msg: M,
}

/// "No entry" sentinel for [`Pool`] chain links and slot heads.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Entries per pool block: 64 Ki keeps blocks ≈1 MiB for an 8-byte
/// message, so the pool grows in flat increments with no realloc copy —
/// at burst scale (10⁷ nodes all sending at once) a doubling `Vec` would
/// briefly hold ~1.5× the pool in live memory. Only the first block of a
/// pool starts smaller — its owner's hint, growing on demand — when that
/// is less: a pool covers a node range, and a small range (or a small
/// run — a campaign runs thousands) must not reserve, and scatter its few
/// live entries over, a megabyte it never fills.
const POOL_CHUNK_BITS: u32 = 16;
const POOL_CHUNK: usize = 1 << POOL_CHUNK_BITS;

/// One [`Pool`] entry: a queued delivery's hearing port, its link — its
/// neighbour on its node's chain while live, the next free entry once
/// freed — and the rest of the delivery.
pub(crate) struct Slot<T> {
    pub(crate) port: u32,
    pub(crate) link: u32,
    pub(crate) item: T,
}

/// A chunked, free-listed pool of `u32`-addressed deliveries: the store
/// behind the per-node delivery chains of both runtimes (the engine's
/// [`InboxArena`] and the async workers' inboxes). Blocks are fixed at
/// [`POOL_CHUNK`] entries (the first one starts at the owner's hint and
/// grows to size), and freed entries are threaded through their own
/// links, so the pool holds the most deliveries ever queued at once, never
/// the total ever placed. A freed entry's message is dropped only on slot
/// reuse — fine for the plain-data message types protocols send.
pub(crate) struct Pool<T> {
    /// Entry `j` lives at `blocks[j >> CHUNK_BITS][j & (CHUNK - 1)]`.
    blocks: Vec<Vec<Slot<T>>>,
    /// Head of the free list.
    free: u32,
    /// Capacity of the next block: the owner's hint for the first, then a
    /// full block.
    reserve: usize,
}

impl<T> Pool<T> {
    /// An empty pool whose first block reserves `hint` entries (capped at
    /// one block).
    pub(crate) fn new(hint: usize) -> Self {
        Pool {
            blocks: Vec::new(),
            free: NO_SLOT,
            reserve: hint.min(POOL_CHUNK),
        }
    }

    /// Places a delivery in a slot (free list first) and returns its index.
    pub(crate) fn alloc(&mut self, port: u32, link: u32, item: T) -> u32 {
        let e = Slot { port, link, item };
        if self.free != NO_SLOT {
            let j = self.free;
            self.free = std::mem::replace(&mut self[j], e).link;
            return j;
        }
        if self.blocks.last().map_or(true, |b| b.len() == POOL_CHUNK) {
            assert!(
                self.blocks.len() < (NO_SLOT as usize >> POOL_CHUNK_BITS),
                "delivery pool exhausted its u32 index space"
            );
            let reserve = std::mem::replace(&mut self.reserve, POOL_CHUNK);
            self.blocks.push(Vec::with_capacity(reserve));
        }
        let b = self.blocks.len() - 1;
        let j = (b << POOL_CHUNK_BITS) + self.blocks[b].len();
        self.blocks[b].push(e);
        j as u32
    }

    /// Returns entry `j` to the free list and hands it back — readable
    /// until the next `alloc` — with the link it had.
    pub(crate) fn free(&mut self, j: u32) -> (&Slot<T>, u32) {
        let free = std::mem::replace(&mut self.free, j);
        let e = &mut self[j];
        let link = std::mem::replace(&mut e.link, free);
        (e, link)
    }
}

impl<T> std::ops::Index<u32> for Pool<T> {
    type Output = Slot<T>;
    fn index(&self, j: u32) -> &Slot<T> {
        &self.blocks[(j >> POOL_CHUNK_BITS) as usize][(j as usize) & (POOL_CHUNK - 1)]
    }
}

impl<T> std::ops::IndexMut<u32> for Pool<T> {
    fn index_mut(&mut self, j: u32) -> &mut Slot<T> {
        &mut self.blocks[(j >> POOL_CHUNK_BITS) as usize][(j as usize) & (POOL_CHUNK - 1)]
    }
}

/// The top bit of a queued delivery's port: set on a delivery the
/// stepping range's own sender put straight into its ledger's arena
/// ([`Ledger::deliver`] with `port | OWN`), so that a lower range's send,
/// delivered later, can be spliced in ahead of it. Ports stay below 2³¹
/// ([`set_up`] asserts it); [`InboxArena::take`] masks the bit off.
pub(crate) const OWN: u32 = 1 << 31;

/// Two rounds of inbound messages for the whole graph — the round being
/// stepped (*cur*) and the one being staged (*next*) — as per-node chains
/// threaded through one shared [`Pool`] of messages. Chains grow at the
/// head, each entry linking to the previous one; [`InboxArena::take`]
/// restores insertion order. Replaces the per-node
/// `Vec<Vec<(Port, M)>>` inbox column — 24 bytes of pointer triple per
/// node plus a heap block per non-empty inbox — with one `u32` head per
/// node per side plus a pool sized by the round's message count.
///
/// The [`Pool`] frees a node's chain in the walk that clones its inbox
/// out, so entries consumed from *cur* are immediately reused for
/// deliveries into *next* and the pool's footprint stays at roughly one
/// round's messages even though two rounds are addressable.
///
/// Chain order per inbox is the global send order: insertion order, but
/// for a lower range's synchronous send in a run of several ranges, which
/// arrives after the range's own sends of its round (marked [`OWN`]) and
/// is spliced in just older than them ([`InboxArena::splice_below_own`]).
/// [`InboxArena::take`] clones each message of *cur* once
/// into the stepping thread's reusable inbox buffer; *next* is written,
/// and the sides rotated, only by the [`Ledger`] that owns the arena — the
/// engine sees `take` and nothing else. An arena covers the node
/// range of its ledger and is indexed by offset into it.
pub(crate) struct InboxArena<M> {
    /// The entries of every chain; the first block starts at four per
    /// node.
    pool: Pool<M>,
    /// Persistent `n × u32` chain heads for the round being stepped.
    cur_slot: Vec<u32>,
    /// Chain heads for the round being staged.
    next_slot: Vec<u32>,
    /// Nodes with at least one delivery in *cur*, in first-delivery order.
    cur_recipients: Vec<u32>,
    /// Nodes with at least one delivery in *next*.
    next_recipients: Vec<u32>,
    /// Nodes whose `cur_slot` holds a splice anchor until the next rotate.
    spliced: Vec<u32>,
}

impl<M: Message> InboxArena<M> {
    fn new(n: usize) -> Self {
        InboxArena {
            pool: Pool::new(4 * n),
            cur_slot: vec![NO_SLOT; n],
            next_slot: vec![NO_SLOT; n],
            cur_recipients: Vec::new(),
            next_recipients: Vec::new(),
            spliced: Vec::new(),
        }
    }

    /// Appends one delivery to `dest`'s *next*-round chain.
    fn deliver_next(&mut self, dest: usize, port: u32, msg: M) {
        let head = self.next_slot[dest];
        if head == NO_SLOT {
            self.next_recipients.push(dest as u32);
        }
        self.next_slot[dest] = self.pool.alloc(port, head, msg);
    }

    /// Appends a lower range's synchronous delivery to `dest`'s *next*
    /// chain just older than the entries the range's own senders put there
    /// ([`OWN`]): behind what was staged and what earlier lower ranges
    /// sent, ahead of the range's own sends of the round — their global
    /// send order. The oldest own entry, the anchor, is found once per node
    /// and round and kept in `cur_slot`, which is free between the step
    /// phase (every recipient of *cur* steps and frees its chain) and the
    /// next rotate, which clears it.
    fn splice_below_own(&mut self, dest: usize, port: u32, msg: M) {
        let mut anchor = self.cur_slot[dest];
        if anchor == NO_SLOT {
            let mut j = self.next_slot[dest];
            while j != NO_SLOT && self.pool[j].port & OWN != 0 {
                anchor = j;
                j = self.pool[j].link;
            }
            if anchor == NO_SLOT {
                return self.deliver_next(dest, port, msg);
            }
            self.cur_slot[dest] = anchor;
            self.spliced.push(dest as u32);
        }
        let prev = self.pool[anchor].link;
        self.pool[anchor].link = self.pool.alloc(port, prev, msg);
    }

    /// Promotes *next* to *cur*. The outgoing *cur* must already be fully
    /// consumed (every chain freed, every splice anchor cleared here); its
    /// recipient list is recycled as the new staging list.
    fn rotate(&mut self) {
        for v in self.spliced.drain(..) {
            self.cur_slot[v as usize] = NO_SLOT;
        }
        #[cfg(debug_assertions)]
        for &v in &self.cur_recipients {
            debug_assert!(
                self.cur_slot[v as usize] == NO_SLOT,
                "arena rotated with an unconsumed inbox chain at node {v}"
            );
        }
        std::mem::swap(&mut self.cur_slot, &mut self.next_slot);
        std::mem::swap(&mut self.cur_recipients, &mut self.next_recipients);
        self.next_recipients.clear();
    }

    /// Replaces `out` with `v`'s current-round chain, cloned in chain
    /// order with the [`OWN`] mark masked off (empty for nodes without
    /// deliveries this round), and returns the chain's entries to the free
    /// list in the same walk — from this moment they feed deliveries into
    /// *next*.
    pub(crate) fn take(&mut self, v: usize, out: &mut Vec<(Port, M)>) {
        out.clear();
        let mut j = std::mem::replace(&mut self.cur_slot[v], NO_SLOT);
        while j != NO_SLOT {
            let (e, prev) = self.pool.free(j);
            out.push(((e.port & !OWN) as usize, e.item.clone()));
            j = prev;
        }
        out.reverse();
    }
}

/// Reusable per-step buffers, so stepping a node allocates nothing in the
/// steady state: the caller gathers the node's inbox into `inbox` before
/// each [`step_node`]; the other two are the protocol's outbox staging.
pub(crate) struct StepScratch<M> {
    pub(crate) inbox: Vec<(Port, M)>,
    outbox: Vec<(Port, M)>,
    sent_on: Vec<bool>,
}

impl<M> Default for StepScratch<M> {
    fn default() -> Self {
        StepScratch {
            inbox: Vec::new(),
            outbox: Vec::new(),
            sent_on: Vec::new(),
        }
    }
}

/// One bit per node of a range: a store's started flags, the dedup flags
/// of the engine's active list — which, read in word order, is also that
/// list sorted — and the async workers' list flags.
pub(crate) struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    pub(crate) fn new(n: usize) -> Self {
        Bitmap {
            words: vec![0u64; n.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i`; true iff it was clear.
    #[inline]
    pub(crate) fn set(&mut self, i: usize) -> bool {
        let fresh = !self.get(i);
        self.words[i / 64] |= 1 << (i % 64);
        fresh
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Appends the set bits to `out`, ascending: one pass over the words.
    pub(crate) fn ones(&self, out: &mut Vec<usize>) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// What one activation changed, beyond the sends (which went to the
/// caller's `send`): the scheduling facts a runtime must react to.
pub(crate) struct StepEffects {
    /// `Some(w)` iff the node's timer changed to `w` during this step — the
    /// runtime must (re-)schedule the wakeup. A timer that survives
    /// unchanged needs nothing (the engine's wakeup entry is still there).
    pub(crate) rearmed: Option<u64>,
    /// Whether the node's status changed this round.
    pub(crate) status_changed: bool,
}

/// Executes one activation of node `v` at `round`: the single stepping
/// sequence every runtime shares, on the store of the range that owns `v`.
/// The inbox gathered into `scratch.inbox` is caller-provided (the runtime
/// owns the per-round inbox staging). Clears a due timer, rebuilds the
/// node's setup on the stack from `rc`, runs the protocol, persists a
/// first draw on a lazy RNG column, reports re-armed timers and status
/// changes, and hands each staged send (with its destination endpoint and
/// wire size resolved through the topology) to `send`, in emission order.
/// `send` is where the runtimes differ: an engine shard accounts the send
/// and puts it straight into the destination's inbox ([`Ledger::deliver`],
/// no intermediate buffer) — or, when another shard owns the destination
/// (or, with several shards, the send is delayed), parks it for that
/// shard; an async worker accounts and ships a frame.
pub(crate) fn step_node<T: Topology, P: Protocol>(
    rc: &RunCtx<'_, T>,
    round: u64,
    v: NodeId,
    store: &mut NodeStore<P>,
    scratch: &mut StepScratch<P::Msg>,
    mut send: impl FnMut(StagedSend<P::Msg>),
) -> StepEffects {
    let i = v - store.base;
    let first_activation = store.started.set(i);
    if store.wake[i] != NO_WAKE && store.wake[i] <= round {
        store.wake[i] = NO_WAKE;
    }
    let armed_wake = store.wake[i];
    let setup = NodeSetup {
        degree: rc.topo.degree(v),
        id: rc.ids.map(|ids| ids[v]),
        knowledge: rc.knowledge,
    };

    scratch.outbox.clear();
    scratch.sent_on.clear();
    scratch.sent_on.resize(setup.degree, false);
    let mut wake = if armed_wake == NO_WAKE {
        None
    } else {
        Some(armed_wake)
    };
    // With a lazy RNG column the stream is derived only if the protocol
    // asks for it, and persisted only if it drew.
    let rng = match &mut store.rngs {
        RngCol::Dense(s) => NodeRng::Dense(&mut s[i]),
        RngCol::Lazy => NodeRng::Lazy {
            seed: rc.seed,
            node: v,
            slot: None,
        },
    };
    let mut ctx = Context {
        round,
        setup: &setup,
        first_activation,
        rng,
        outbox: &mut scratch.outbox,
        sent_on: &mut scratch.sent_on,
        wake: &mut wake,
    };
    store.protos[i].on_round(&mut ctx, &scratch.inbox);
    // A first draw on the lazy column materializes it (every other node of
    // the range is still pristine, so fresh streams are exact) and persists
    // the drawn state — on whichever thread owns the range.
    if let Some(drawn) = ctx.rng.drawn() {
        store.densify_rngs(rc.seed)[i] = drawn;
    }
    // `wake_at(u64::MAX)` means "never": normalize to a disarmed timer so
    // the sentinel column cannot alias a genuine wakeup.
    if wake == Some(u64::MAX) {
        wake = None;
    }
    store.wake[i] = wake.unwrap_or(NO_WAKE);
    let rearmed = match wake {
        Some(w) if armed_wake != w => Some(w),
        _ => None,
    };

    let new_status = store.protos[i].status();
    let status_changed = new_status != store.statuses[i];
    if status_changed {
        store.statuses[i] = new_status;
    }

    for (port, msg) in scratch.outbox.drain(..) {
        let (dest, dest_port, didx) = rc.topo.endpoint_indexed(v, port);
        send(StagedSend {
            src: v,
            dest,
            dest_port,
            didx,
            bits: msg.size_bits(),
            msg,
        });
    }

    StepEffects {
        rearmed,
        status_changed,
    }
}

/// The one run set-up of every runtime (the engine, [`crate::AsyncRuntime`]
/// and [`crate::rt::replay`]): splits the nodes into at most `threads`
/// ranges ([`Owners::split`]), builds one [`NodeStore`] per range in range
/// order, and builds the run's [`RunFacts`], which arms the round-0
/// wakeups (as `wake == 0`) in the owning store. Returns the stores, each
/// with its range's out-edges, the owner table and the facts.
///
/// Building a store resolves identifiers and calls `factory` once per node
/// **in index order** — the order is part of the determinism contract, so
/// a protocol's coin flips are identical wherever it runs. The RNG column
/// starts lazy; a factory that draws densifies its range's column on the
/// spot (every stream of the range up to that node is still pristine, so
/// fresh derivation reproduces them exactly).
///
/// # Panics
///
/// Panics (the messages are part of the API) before any per-node work if
/// the node count exceeds `u32` (wake calendars and delivery queues
/// compact node indices), if a degree exceeds 2³¹ (inbox entries keep the
/// [`OWN`] mark in a port's top bit), if an explicit [`IdMode`]
/// assignment does not cover the graph, and on an invalid config (see
/// [`RunFacts::new`]).
#[allow(clippy::type_complexity)] // crate-internal; one tuple per range
pub(crate) fn set_up<T: Topology, P: Protocol>(
    topo: &T,
    config: &SimConfig,
    threads: usize,
    mut factory: impl FnMut(NodeId, &NodeSetup, &mut StdRng) -> P,
) -> (Vec<(NodeStore<P>, Range<usize>)>, Owners, RunFacts) {
    let n = topo.n();
    assert!(
        n as u64 <= u32::MAX as u64,
        "the engine's delivery queue addresses nodes as u32; {n} nodes exceed that"
    );
    let max_degree = topo.max_degree();
    assert!(
        max_degree <= OWN as usize,
        "the engine's inboxes keep ports below 2^31; a node of degree {max_degree} exceeds that"
    );
    let ids = ids_slice(config, n);
    let (ranges, owners) = Owners::split(topo, threads);
    let mut stores: Vec<(NodeStore<P>, Range<usize>)> = ranges
        .into_iter()
        .map(|(nodes, edges)| {
            let mut protos = Vec::with_capacity(nodes.len());
            let mut rngs = RngCol::Lazy;
            for v in nodes.clone() {
                let setup = NodeSetup {
                    degree: topo.degree(v),
                    id: ids.map(|ids| ids[v]),
                    knowledge: config.knowledge,
                };
                let mut rng = node_rng(config.seed, v);
                match &mut rngs {
                    RngCol::Lazy => {
                        let pristine = rng.clone();
                        protos.push(factory(v, &setup, &mut rng));
                        if rng != pristine {
                            // The factory draws: materialize the column.
                            // Nodes before `v` never drew, so fresh streams
                            // are exact.
                            let mut dense: Vec<StdRng> =
                                (nodes.start..v).map(|u| node_rng(config.seed, u)).collect();
                            dense.push(rng);
                            rngs = RngCol::Dense(dense);
                        }
                    }
                    RngCol::Dense(dense) => {
                        protos.push(factory(v, &setup, &mut rng));
                        dense.push(rng);
                    }
                }
            }
            let store = NodeStore {
                base: nodes.start,
                protos,
                rngs,
                wake: vec![NO_WAKE; nodes.len()],
                statuses: vec![Status::Undecided; nodes.len()],
                started: Bitmap::new(nodes.len()),
            };
            (store, edges)
        })
        .collect();
    let facts = RunFacts::new(topo, config, |v| {
        let store = &mut stores[owners.of(v)].0;
        store.wake[v - store.base] = 0;
    });
    (stores, owners, facts)
}

/// The shared, immutable facts of one run: everything every runtime must
/// agree on before the first node steps. Built by the one run set-up
/// ([`RunFacts::new`]) and then only read — the engine's shard threads
/// and the async runtime's workers share it by reference (fate queries are
/// pure, see [`Schedule::message_fate`]).
pub(crate) struct RunFacts {
    /// The CONGEST bit budget per message.
    budget: u64,
    /// True under the default [`Adversary::Lockstep`]: every fate is the
    /// identity (deliver next round, nothing crashes), so the per-message
    /// schedule call is skipped. `tests/properties.rs` pins this shortcut
    /// against the general path (`Compose([Lockstep])`,
    /// `BoundedDelay { max_delay: 0 }` take the general path and must
    /// produce identical outcomes).
    synchronous: bool,
    /// Whether the outcome reports the two per-directed-edge arrays (see
    /// [`crate::SimConfig::edge_stats`]).
    edge_stats: bool,
    schedule: Box<dyn Schedule>,
    /// Precomputed fail-stop round per node; empty when the schedule
    /// crashes nobody (the common case — at 16 B/node a dense column would
    /// be 1.6 GB at 10⁸ nodes). Read through [`RunFacts::crash_round`].
    crash_rounds: Vec<Option<u64>>,
    /// Normalized watched edge → positions in `SimConfig::watch_edges`
    /// (reversed and duplicate entries all resolve: one crossing fills
    /// every position).
    watch_index: BTreeMap<(NodeId, NodeId), Vec<usize>>,
    watch_len: usize,
}

impl RunFacts {
    /// The one run set-up: validates the wakeup set, builds the adversary
    /// schedule, precomputes crash rounds, normalizes and indexes the
    /// watched edges, and hands every node `config.wakeup` wakes at round
    /// 0 — all of them, or the listed ones — to `arm` in ascending node
    /// order, crash-filtered: a node that crashes at round 0 never
    /// participates at all. The wakeups are streamed, not returned as a
    /// list — at 10⁸ nodes a list is 0.8 GB.
    ///
    /// # Panics
    ///
    /// Panics (the messages are part of the API) if an adversarial wakeup
    /// set is empty or names a node `>= n`, if the adversary schedule
    /// names an out-of-range node or a non-edge, or if a watched edge is
    /// not an edge of the graph.
    pub(crate) fn new<T: Topology>(
        topo: &T,
        config: &SimConfig,
        mut arm: impl FnMut(NodeId),
    ) -> Self {
        let n = topo.n();
        let mut schedule = config.adversary.build(config.seed, topo);
        let mut crash_rounds = Vec::new();
        for v in 0..n {
            if let Some(c) = schedule.crash_round(v) {
                if crash_rounds.is_empty() {
                    crash_rounds = vec![None; n];
                }
                crash_rounds[v] = Some(c);
            }
        }
        let mut watch_index: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
        for (i, &(a, b)) in config.watch_edges.iter().enumerate() {
            let (a, b) = (a.min(b), a.max(b));
            assert!(
                topo.has_edge(a, b),
                "watch edge ({a}, {b}) is not an edge of the graph"
            );
            watch_index.entry((a, b)).or_default().push(i);
        }
        let facts = RunFacts {
            budget: config.model.bit_budget(n),
            synchronous: config.adversary == Adversary::Lockstep,
            edge_stats: config.edge_stats,
            schedule,
            crash_rounds,
            watch_index,
            watch_len: config.watch_edges.len(),
        };
        let wake = |v| {
            if facts.crash_round(v) != Some(0) {
                arm(v);
            }
        };
        match &config.wakeup {
            Wakeup::Simultaneous => (0..n).for_each(wake),
            Wakeup::Adversarial(set) => {
                assert!(!set.is_empty(), "at least one node must wake initially");
                let mut set = set.clone();
                set.sort_unstable();
                set.dedup();
                if let Some(&v) = set.last().filter(|&&v| v >= n) {
                    panic!("Wakeup::Adversarial names node {v}, but the graph has only {n} nodes");
                }
                set.into_iter().for_each(wake);
            }
        }
        facts
    }

    /// Round at whose start node `v` fail-stops, if it ever does.
    #[inline]
    pub(crate) fn crash_round(&self, v: NodeId) -> Option<u64> {
        self.crash_rounds.get(v).copied().flatten()
    }

    /// The fate of one send: `Ok(delivery round)`, or `Err(h)` when the
    /// message is lost — `h` is the crash round of a destination that
    /// fail-stops at or before the delivery round (dead on arrival; the
    /// observed crash extends the run's crash horizon) and 0 for a plain
    /// in-flight drop.
    ///
    /// # Panics
    ///
    /// Panics on a schedule that delivers into the past.
    #[inline]
    pub(crate) fn fate(&self, send: &SendView) -> Result<u64, u64> {
        if self.synchronous {
            // Lockstep identity fate, skipped wholesale: deliver next
            // round, nothing drops, nothing crashes.
            return Ok(send.round + 1);
        }
        match self.schedule.message_fate(send) {
            Fate::Dropped => Err(0),
            Fate::Deliver { round: at } => {
                assert!(
                    at > send.round,
                    "Schedule bug: message sent in round {} scheduled for delivery at round {at}",
                    send.round
                );
                match self.crash_round(send.dest) {
                    Some(c) if c <= at => Err(c),
                    _ => Ok(at),
                }
            }
        }
    }

    /// Whether the run watches any edge.
    pub(crate) fn watching(&self) -> bool {
        self.watch_len > 0
    }

    /// Whether `(src, dest)` is a watched edge, in either orientation.
    #[inline]
    pub(crate) fn watches(&self, src: NodeId, dest: NodeId) -> bool {
        self.watching()
            && self
                .watch_index
                .contains_key(&(src.min(dest), src.max(dest)))
    }

    /// One unresolved entry per configured watch edge.
    pub(crate) fn no_watch_hits(&self) -> Vec<Option<WatchHit>> {
        vec![None; self.watch_len]
    }

    /// Records a *delivered* send over `(src, dest)` at `round`, preceded
    /// by `messages_before` sends network-wide, into every still-unresolved
    /// watch entry for that edge. Returns whether the edge is watched.
    #[inline]
    pub(crate) fn note_crossing(
        &self,
        hits: &mut [Option<WatchHit>],
        (src, dest): (NodeId, NodeId),
        round: u64,
        messages_before: u64,
    ) -> bool {
        let Some(entries) = self.watch_index.get(&(src.min(dest), src.max(dest))) else {
            return false;
        };
        for &i in entries {
            hits[i].get_or_insert(WatchHit {
                round,
                messages_before,
            });
        }
        true
    }
}

/// The commutative part of a run's accounting: totals, the late-delivery
/// tally, the crash horizon and the per-directed-edge columns of one
/// contiguous directed-edge range. Fates are a pure function of `(seed,
/// directed edge, per-edge send index)`, so nothing here depends on a
/// global send order: whoever owns a range of *senders* (a node's
/// out-edges are contiguous) accounts their sends locally with
/// [`LedgerPart::account`], and adjacent parts [`LedgerPart::merge`] into
/// the part a single accountant would have built. Each engine shard and
/// each async worker owns the part of its node range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LedgerPart {
    pub(crate) messages: u64,
    bits: u64,
    congest_violations: u64,
    max_message_bits: u64,
    messages_dropped: u64,
    /// Latest crash round whose *effect* this part observed (a suppressed
    /// timer or a dead-on-arrival send); extends the horizon that decides
    /// which crashes are reported as fired.
    crash_horizon: u64,
    /// Deliveries later than the synchronous `send + 1` round, as
    /// `(delivery round, count)` ascending by round.
    late: Vec<(u64, u64)>,
    /// The directed-edge range the two columns below cover.
    pub(crate) edges: Range<usize>,
    /// Allocated iff the run reports edge statistics (empty = off).
    first_directed_use: Vec<u64>,
    /// Allocated iff the run reports edge statistics *or* is asynchronous
    /// (fates consume the per-edge send index even when the outcome won't
    /// report it), and on a traced async run, whose trace logs that index.
    /// Empty only when none needs it.
    pub(crate) directed_message_counts: Vec<u64>,
}

/// Adds `count` late deliveries at `round` to an ascending tally. Within a
/// stepping round fates never decrease below `round + 1`, but a later
/// round's near fate can undercut an earlier round's far fate, hence the
/// sorted insert (the tail is the common case).
fn tally_late(late: &mut Vec<(u64, u64)>, round: u64, count: u64) {
    match late.binary_search_by_key(&round, |&(r, _)| r) {
        Ok(i) => late[i].1 += count,
        Err(i) => late.insert(i, (round, count)),
    }
}

impl LedgerPart {
    /// An empty part covering the directed edges `edges`.
    pub(crate) fn new(facts: &RunFacts, edges: Range<usize>) -> Self {
        let len = edges.len();
        LedgerPart {
            messages: 0,
            bits: 0,
            congest_violations: 0,
            max_message_bits: 0,
            messages_dropped: 0,
            crash_horizon: 0,
            late: Vec::new(),
            edges,
            first_directed_use: if facts.edge_stats {
                vec![u64::MAX; len]
            } else {
                Vec::new()
            },
            directed_message_counts: if facts.edge_stats || !facts.synchronous {
                vec![0u64; len]
            } else {
                Vec::new()
            },
        }
    }

    /// Accounts one send at `round` and decides its fate: `Some(delivery
    /// round)`, or `None` for a message lost in flight (which still costs
    /// the sender: totals, CONGEST check and per-edge statistics count it).
    #[inline]
    pub(crate) fn account<M>(
        &mut self,
        facts: &RunFacts,
        round: u64,
        s: &StagedSend<M>,
    ) -> Option<u64> {
        self.messages += 1;
        self.bits += s.bits;
        self.max_message_bits = self.max_message_bits.max(s.bits);
        if s.bits > facts.budget {
            self.congest_violations += 1;
        }
        let e = s.didx - self.edges.start;
        // The per-edge send index (how many sends this directed edge saw
        // before this one) — the schedule's stream coordinate, and the
        // frame sequence number an async trace logs. The counts column is
        // empty only on synchronous edge-stats-off untraced runs, where
        // nothing consumes it.
        let edge_seq = match self.directed_message_counts.get_mut(e) {
            Some(count) => {
                *count += 1;
                *count - 1
            }
            None => 0,
        };
        if let Some(first) = self.first_directed_use.get_mut(e) {
            if *first == u64::MAX {
                *first = round;
            }
        }
        let view = SendView {
            round,
            edge_seq,
            src: s.src,
            dest: s.dest,
            didx: s.didx,
        };
        match facts.fate(&view) {
            Ok(at) => {
                if at > round + 1 {
                    tally_late(&mut self.late, at, 1);
                }
                Some(at)
            }
            Err(crash) => {
                self.messages_dropped += 1;
                self.crash_horizon = self.crash_horizon.max(crash);
                None
            }
        }
    }

    /// The one re-arm crash filter: node `v` re-armed its timer (`slot`)
    /// to round `w`. A timer at or past its owner's crash round is never
    /// armed — the slot is disarmed on the spot and the crash joins the
    /// horizon — so every armed timer outlives its owner's crash on every
    /// runtime. Returns whether the timer stands.
    pub(crate) fn rearm(&mut self, facts: &RunFacts, v: NodeId, w: u64, slot: &mut u64) -> bool {
        match facts.crash_round(v) {
            Some(c) if c <= w => {
                self.crash_horizon = self.crash_horizon.max(c);
                *slot = NO_WAKE;
                false
            }
            _ => true,
        }
    }

    /// Folds in `next`, the part covering the directed-edge range right
    /// after this one. Associative; the per-edge columns concatenate
    /// (ranges are disjoint because a node's out-edges have one owner).
    pub(crate) fn merge(&mut self, next: LedgerPart) {
        assert_eq!(
            self.edges.end, next.edges.start,
            "ledger parts merge in directed-edge order"
        );
        self.edges.end = next.edges.end;
        self.messages += next.messages;
        self.bits += next.bits;
        self.congest_violations += next.congest_violations;
        self.max_message_bits = self.max_message_bits.max(next.max_message_bits);
        self.messages_dropped += next.messages_dropped;
        self.crash_horizon = self.crash_horizon.max(next.crash_horizon);
        for (round, count) in next.late {
            tally_late(&mut self.late, round, count);
        }
        self.first_directed_use.extend(next.first_directed_use);
        self.directed_message_counts
            .extend(next.directed_message_counts);
    }

    /// The one finish, shared by every runtime: decides which scheduled
    /// crashes are reported as fired (everything at or before `end_round`,
    /// extended by crashes whose effect — a suppressed wakeup, a dropped
    /// delivery — was already observed), downgrades a quiescent run in
    /// which every node died to [`Termination::AllCrashed`], and assembles
    /// the outcome from this (fully merged) part plus the runtime's
    /// ordered residue.
    #[allow(clippy::too_many_arguments)] // crate-internal; one argument per runtime-owned outcome field
    pub(crate) fn finish(
        self,
        facts: &RunFacts,
        watch_hits: Vec<Option<WatchHit>>,
        statuses: &[Status],
        rounds_used: u64,
        end_round: u64,
        mut termination: Termination,
        last_status_change: Option<u64>,
        round_totals: Vec<(u64, u64)>,
    ) -> RunOutcome {
        let n = statuses.len();
        let end = end_round.max(self.crash_horizon);
        let crashed: Vec<NodeId> = (0..facts.crash_rounds.len())
            .filter(|&v| facts.crash_round(v).is_some_and(|c| c <= end))
            .collect();
        if termination == Termination::Quiescent && crashed.len() == n && n > 0 {
            termination = Termination::AllCrashed;
        }
        RunOutcome {
            rounds: rounds_used,
            messages: self.messages,
            bits: self.bits,
            statuses: statuses.to_vec(),
            termination,
            congest_violations: self.congest_violations,
            max_message_bits: self.max_message_bits,
            watch_hits,
            first_directed_use: self.first_directed_use,
            directed_message_counts: if facts.edge_stats {
                self.directed_message_counts
            } else {
                Vec::new()
            },
            last_status_change,
            round_totals,
            crashed,
            messages_dropped: self.messages_dropped,
            late_deliveries: self.late,
        }
    }
}

/// The engine's ledger over one contiguous node range — the delivery
/// pipeline of the lockstep runtime. It owns the [`LedgerPart`] of the
/// range's out-edges (every send of an owned node is accounted here, by
/// the thread that stepped it) and the inboxes of the range's nodes: the
/// delayed-delivery calendar and the two-round [`InboxArena`]. The engine
/// decides *when* a node steps; where a send lands is decided here and
/// nowhere else. A send is accounted by its source's ledger
/// ([`LedgerPart::account`]) and placed by its destination's
/// ([`Ledger::deliver`]); one ledger over every node, doing both on the
/// spot, is the inline engine. In a run of several ranges a synchronous
/// send into the sender's own range is placed on the spot too, marked
/// [`OWN`]; a lower range's, arriving later, goes in ahead of those
/// ([`Ledger::deliver_below`]).
pub(crate) struct Ledger<M> {
    pub(crate) part: LedgerPart,
    /// First node of the range; inboxes are indexed by `dest - lo`.
    lo: NodeId,
    /// The *delayed*-delivery queue: a flat calendar (ring + overflow
    /// tier) keyed by delivery round. Only fates beyond `round + 1` land
    /// here — the synchronous common case goes straight into the arena's
    /// *next* side, so a lockstep run queues nothing. Under a delay
    /// adversary it holds every send due after the next round: under
    /// `BoundedDelay { max_delay: d }` up to a fraction `d / (d + 1)` of
    /// each of the last `d` rounds' sends — two thirds of a burst round at
    /// `d = 2` — in one bucket per pending round, whose allocation leaves
    /// the ring with its items ([`CalendarQueue`]). Within a round, item
    /// order is push order, and pushes arrive in global send order
    /// restricted to this range's inboxes; a round's bucket is drained
    /// into the arena *before* the round that feeds it delivers
    /// ([`Ledger::stage`]), so per inbox the historical order is
    /// reproduced exactly: messages delayed into the round from earlier
    /// rounds first, then the preceding round's synchronous batch, each in
    /// send order. Destination and port are compacted to `u32` — half the
    /// queue footprint at graph scale (the node count is asserted to fit
    /// by [`set_up`]).
    queue: CalendarQueue<(u32, u32, M)>,
    /// The round being stepped (read and released through `take`) and the
    /// round being staged.
    pub(crate) arena: InboxArena<M>,
}

impl<M: Message> Ledger<M> {
    /// A fresh ledger for the node range `nodes`, whose out-edges are the
    /// directed edges `edges`.
    pub(crate) fn new(facts: &RunFacts, nodes: Range<NodeId>, edges: Range<usize>) -> Self {
        Ledger {
            part: LedgerPart::new(facts, edges),
            lo: nodes.start,
            queue: CalendarQueue::new(),
            arena: InboxArena::new(nodes.len()),
        }
    }

    /// Places a message sent at `round` into an owned node's inbox where
    /// its delivery round `at` will find it — appended to the arena's
    /// *next* side for the synchronous `round + 1`, the calendar for
    /// anything later. The engine passes its own range's sends here as
    /// they are made, marked `port | OWN` (in a run of one range every
    /// send, delayed ones included: nothing there is ever spliced), and
    /// higher ranges' and delayed sends from its mail.
    #[inline]
    pub(crate) fn deliver(&mut self, round: u64, at: u64, dest: NodeId, port: u32, msg: M) {
        let dest = dest - self.lo;
        if at == round + 1 {
            self.arena.deliver_next(dest, port, msg);
        } else {
            self.queue.push(at, (dest as u32, port, msg));
        }
    }

    /// [`Ledger::deliver`] for a send of a *lower* range's node, taken
    /// from the mail after the range's own sends of `round` are in: a
    /// synchronous one is spliced in ahead of those
    /// ([`InboxArena::splice_below_own`]), so the inbox keeps the global
    /// send order.
    pub(crate) fn deliver_below(&mut self, round: u64, at: u64, dest: NodeId, port: u32, msg: M) {
        if at == round + 1 {
            self.arena.splice_below_own(dest - self.lo, port, msg);
        } else {
            self.deliver(round, at, dest, port, msg);
        }
    }

    /// Whether `v` is one of the range's nodes.
    #[inline]
    pub(crate) fn owns(&self, v: NodeId) -> bool {
        v.wrapping_sub(self.lo) < self.arena.next_slot.len()
    }

    /// Stages `round`: moves everything the calendar holds for it onto the
    /// arena's *next* side, in push order — the one place a bucket is
    /// drained. The engine stages `round + 1` before `round`'s sends are
    /// delivered, so messages delayed into it by earlier rounds come first
    /// and [`Ledger::deliver`] appends the stepping round's synchronous
    /// sends directly behind them; those skip the queue, and no round's
    /// messages are ever held twice.
    pub(crate) fn stage(&mut self, round: u64) {
        if self.queue.next_event_round() == Some(round) {
            let mut batch = self.queue.take_at(round);
            for (dest, port, msg) in batch.drain(..) {
                self.arena.deliver_next(dest as usize, port, msg);
            }
            self.queue.recycle(batch);
        }
    }

    /// Opens `round`: promotes the staged side to the round being stepped
    /// and returns the nodes (as offsets into the range) that hear
    /// something, in first-delivery order. In the common case the round
    /// was staged while its predecessor stepped and its bucket is already
    /// empty; only after a fast-forward does the bucket still hold the
    /// round's deliveries, staged here (deliveries into crashed nodes were
    /// already discarded at fate time).
    pub(crate) fn open_round(&mut self, round: u64) -> &[u32] {
        self.queue.advance_to(round);
        self.stage(round);
        self.arena.rotate();
        &self.arena.cur_recipients
    }

    /// How many of the range's nodes already have a staged delivery.
    pub(crate) fn staged(&self) -> usize {
        self.arena.next_recipients.len()
    }

    /// The earliest round the calendar still holds a delivery for.
    pub(crate) fn next_delivery(&mut self) -> Option<u64> {
        self.queue.next_event_round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Model;
    use ule_graph::gen;

    impl<T> Pool<T> {
        /// The slots ever placed, live or free.
        pub(crate) fn slots(&self) -> usize {
            self.blocks.iter().map(Vec::len).sum()
        }
    }

    /// Builds the send `(v, port)` of `bits` bits carrying `msg` on `topo`.
    fn send<T: Topology, M>(topo: &T, v: NodeId, port: Port, bits: u64, msg: M) -> StagedSend<M> {
        let (dest, dest_port, didx) = topo.endpoint_indexed(v, port);
        StagedSend {
            src: v,
            dest,
            dest_port,
            didx,
            bits,
            msg,
        }
    }

    #[test]
    fn ranges_are_contiguous_nonempty_clamped_to_the_node_count_and_own_their_out_edges() {
        // (n, threads) -> the range lengths.
        for (n, threads, lens) in [
            (16usize, 7usize, vec![3, 3, 3, 3, 3, 1]),
            (16, 2, vec![8, 8]),
            (1, 4, vec![1]),
            (2, 4, vec![1, 1]),
            (5, 1, vec![5]),
            // Above 1024 nodes ranges are cut at multiples of the table's
            // grain (here 2), never inside one.
            (1_500, 4, vec![376, 376, 376, 372]),
        ] {
            let g = gen::path(n).unwrap();
            let (ranges, owners) = Owners::split(&g, threads);
            let got: Vec<usize> = ranges.iter().map(|(r, _)| r.len()).collect();
            assert_eq!(got, lens, "n = {n}, threads = {threads}");
            assert!(owners.table.len() <= 1024);
            let (mut node_lo, mut edge_lo) = (0, 0);
            for (s, (nodes, edges)) in ranges.iter().enumerate() {
                assert_eq!((nodes.start, edges.start), (node_lo, edge_lo));
                assert!(nodes.clone().all(|v| owners.of(v) == s), "range {s}");
                let degrees: usize = nodes.clone().map(|v| g.degree(v)).sum();
                assert_eq!(edges.len(), degrees, "range {s}");
                (node_lo, edge_lo) = (nodes.end, edges.end);
            }
            assert_eq!((node_lo, edge_lo), (n, g.directed_edge_count()));
        }
    }

    #[test]
    fn crash_column_is_allocated_only_when_some_node_crashes() {
        let g = gen::cycle(6).unwrap();
        let facts = |adversary: Adversary| {
            RunFacts::new(&g, &SimConfig::seeded(1).with_adversary(adversary), |_| {})
        };
        for quiet in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 2 },
            Adversary::Compose(vec![Adversary::CrashStop { schedule: vec![] }]),
        ] {
            let f = facts(quiet.clone());
            assert!(f.crash_rounds.is_empty(), "{quiet:?}");
            assert_eq!(f.crash_round(3), None, "{quiet:?}");
        }
        let f = facts(Adversary::CrashStop {
            schedule: vec![(4, 7)],
        });
        assert_eq!(f.crash_rounds.len(), 6);
        assert_eq!((f.crash_round(3), f.crash_round(4)), (None, Some(7)));
    }

    #[test]
    fn wakeups_arm_in_ascending_order_once_each_and_skip_round_zero_crashes() {
        let g = gen::cycle(6).unwrap();
        let armed = |wakeup: Wakeup, crashes: Vec<(NodeId, u64)>| {
            let config = SimConfig::seeded(1)
                .with_wakeup(wakeup)
                .with_adversary(Adversary::CrashStop { schedule: crashes });
            let mut armed = Vec::new();
            RunFacts::new(&g, &config, |v| armed.push(v));
            armed
        };
        assert_eq!(armed(Wakeup::Adversarial(vec![3, 0, 3]), vec![]), [0, 3]);
        assert_eq!(armed(Wakeup::Adversarial(vec![3, 0, 3]), vec![(3, 0)]), [0]);
        assert_eq!(
            armed(Wakeup::Simultaneous, vec![(2, 0), (4, 1)]),
            [0, 1, 3, 4, 5]
        );
    }

    /// The property sharded accounting leans on: accounting a send
    /// sequence on range-owned parts split by sender and merging them — in
    /// either grouping — yields the part a single accountant builds.
    #[test]
    fn range_owned_parts_merge_to_the_single_part() {
        let g = gen::cycle(6).unwrap();
        // (round, sender, port, bits): repeated edges advance the per-edge
        // fate stream, 40 bits breaks the 9-bit CONGEST budget, and the
        // round-3 send 4 -> 5 is dead on arrival under the crash schedule.
        let script: [(u64, NodeId, Port, u64); 12] = [
            (0, 0, 0, 3),
            (0, 0, 1, 3),
            (0, 3, 0, 40),
            (0, 5, 1, 3),
            (1, 1, 0, 5),
            (1, 3, 0, 3),
            (1, 4, 1, 7),
            (2, 0, 0, 3),
            (2, 2, 1, 3),
            (2, 5, 0, 9),
            (3, 4, 1, 3),
            (3, 3, 0, 3),
        ];
        let adversaries = [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 3 },
            Adversary::CrashStop {
                schedule: vec![(5, 4), (1, 9)],
            },
        ];
        for adversary in adversaries {
            for edge_stats in [true, false] {
                let mut config = SimConfig::seeded(7)
                    .with_model(Model::Congest { factor: 3 })
                    .with_adversary(adversary.clone());
                config.edge_stats = edge_stats;
                let facts = RunFacts::new(&g, &config, |_| {});
                // Parts owning the senders `bounds[i]..bounds[i + 1]`.
                let account = |bounds: &[NodeId]| -> Vec<LedgerPart> {
                    let mut parts: Vec<LedgerPart> = bounds
                        .windows(2)
                        .map(|w| LedgerPart::new(&facts, 2 * w[0]..2 * w[1]))
                        .collect();
                    for &(round, v, port, bits) in &script {
                        let owner = bounds.iter().rposition(|&lo| lo <= v).unwrap();
                        parts[owner].account(&facts, round, &send(&g, v, port, bits, ()));
                    }
                    // A timer node 1 re-arms past its crash round joins the
                    // owner's crash horizon.
                    let owner = bounds.iter().rposition(|&lo| lo <= 1).unwrap();
                    parts[owner].rearm(&facts, 1, 20, &mut 20);
                    parts
                };
                let single = account(&[0, 6]).pop().unwrap();
                assert_eq!(single.messages, script.len() as u64);
                assert_eq!(single.congest_violations, 1);
                match adversary {
                    Adversary::CrashStop { .. } => {
                        assert_eq!(
                            single.messages_dropped, 1,
                            "4 -> 5 at round 3 is dead on arrival"
                        );
                        assert_eq!(single.crash_horizon, 9);
                    }
                    Adversary::BoundedDelay { .. } => assert!(single.late.len() > 1),
                    _ => assert!(single.late.is_empty()),
                }

                let [a, b]: [LedgerPart; 2] = account(&[0, 3, 6]).try_into().unwrap();
                let mut two = a;
                two.merge(b);
                assert_eq!(
                    two, single,
                    "{adversary:?}, edge_stats {edge_stats}: 2 parts"
                );

                let [a, b, c]: [LedgerPart; 3] = account(&[0, 1, 4, 6]).try_into().unwrap();
                let mut left = a.clone();
                left.merge(b.clone());
                left.merge(c.clone());
                let mut right = b;
                right.merge(c);
                let mut outer = a;
                outer.merge(right);
                assert_eq!(
                    left, single,
                    "{adversary:?}, edge_stats {edge_stats}: (a b) c"
                );
                assert_eq!(
                    outer, single,
                    "{adversary:?}, edge_stats {edge_stats}: a (b c)"
                );
            }
        }
    }

    /// A message that only carries its global send index.
    #[derive(Debug, Clone, PartialEq)]
    struct Tag(u64);
    impl Message for Tag {
        fn size_bits(&self) -> u64 {
            8
        }
    }

    /// Drives a [`Ledger`] the way the engine does — open the round, stage
    /// the next, account and deliver the round's sends, and jump to the
    /// next delivery when a round hears and sends nothing — and checks
    /// every inbox against the model's rule: what a node hears at round
    /// `r` is every surviving send whose fate named `r`, in global send
    /// order. Messages delayed into `r` from earlier rounds are therefore
    /// heard before round `r - 1`'s synchronous batch, whether `r` was
    /// staged while `r - 1` stepped or reached by a fast-forward.
    #[test]
    fn inboxes_hear_delayed_messages_first_each_in_send_order() {
        let g = gen::cycle(4).unwrap();
        // (stepping rounds in which every node sends on both ports, delay)
        let mut saw = (false, false);
        for (bursts, max_delay) in [(0..6u64, 2u64), (0..3, 40)] {
            let config =
                SimConfig::seeded(11).with_adversary(Adversary::BoundedDelay { max_delay });
            let facts = RunFacts::new(&g, &config, |_| {});
            let mut ledger: Ledger<Tag> =
                Ledger::new(&facts, 0..g.len(), 0..g.directed_edge_count());
            // (delivery round, dest) -> [(port, tag, send round)], in send order.
            type Heard = Vec<(Port, Tag, u64)>;
            let mut expect: BTreeMap<(u64, NodeId), Heard> = BTreeMap::new();
            let (mut round, mut tag, mut jumped) = (0u64, 0u64, false);
            loop {
                let heard = ledger.open_round(round).len();
                let mut inbox = Vec::new();
                for v in 0..g.len() {
                    ledger.arena.take(v, &mut inbox);
                    let want = expect.remove(&(round, v)).unwrap_or_default();
                    let sent_in: Vec<u64> = want.iter().map(|w| w.2).collect();
                    assert!(sent_in.windows(2).all(|w| w[0] <= w[1]), "{sent_in:?}");
                    let late_then_sync =
                        sent_in.first() < sent_in.last() && sent_in.last() == Some(&(round - 1));
                    saw.0 |= !jumped && late_then_sync;
                    saw.1 |= jumped && sent_in.first() < sent_in.last();
                    let want: Vec<(Port, Tag)> = want.into_iter().map(|w| (w.0, w.1)).collect();
                    assert_eq!(inbox, want, "round {round}, node {v}, delay {max_delay}");
                }
                jumped = false;
                if heard == 0 && !bursts.contains(&round) {
                    match ledger.next_delivery() {
                        Some(r) => {
                            assert!(r > round);
                            (round, jumped) = (r, true);
                            continue;
                        }
                        None => break,
                    }
                }
                ledger.stage(round + 1);
                for v in (0..g.len()).filter(|_| bursts.contains(&round)) {
                    for port in 0..2 {
                        let s = send(&g, v, port, 8, Tag(tag));
                        // Every burst round uses every directed edge once,
                        // so an edge's send index is the round.
                        let view = SendView {
                            round,
                            edge_seq: round,
                            src: v,
                            dest: s.dest,
                            didx: s.didx,
                        };
                        let at = facts.fate(&view).expect("delays never drop");
                        let heard = (s.dest_port, Tag(tag), round);
                        expect.entry((at, s.dest)).or_default().push(heard);
                        let at = ledger.part.account(&facts, round, &s);
                        let at = at.expect("delays never drop");
                        ledger.deliver(round, at, s.dest, s.dest_port as u32, s.msg);
                        tag += 1;
                    }
                }
                round += 1;
            }
            assert!(expect.is_empty(), "undelivered: {expect:?}");
            assert_eq!(ledger.part.messages, tag);
        }
        assert!(
            saw.0,
            "no inbox mixed a delayed message with the synchronous batch"
        );
        assert!(
            saw.1,
            "no fast-forward landed on deliveries from two send rounds"
        );
    }

    /// The round the order argument of a multi-range run rests on, driven
    /// by hand: two ledgers split a 4-cycle, nobody in the second range
    /// steps in round 1, and node 1 (first range) sends into node 2
    /// (second range) a message delayed from round 0 to round 2 and, in
    /// round 1, a synchronous one. The second range stages round 2 in
    /// round 1 *although it steps nobody*, so node 2 hears the delayed
    /// message first — the inline order. A range that skipped the stage
    /// hears them swapped.
    #[test]
    fn an_idle_range_stages_before_its_neighbours_sends_are_delivered() {
        let g = gen::cycle(4).unwrap();
        let facts = RunFacts::new(&g, &SimConfig::seeded(1), |_| {});
        let heard_at_round_2 = |idle_range_stages: bool| {
            let mut first: Ledger<Tag> = Ledger::new(&facts, 0..2, 0..4);
            let mut second: Ledger<Tag> = Ledger::new(&facts, 2..4, 4..8);
            let (_, port, _) = g.endpoint_indexed(1, 1);
            // Round 0: the send's fate is round 2.
            second.deliver(0, 2, 2, port as u32, Tag(0));
            // Round 1, step phase of every range, then the deliver phase.
            for ledger in [&mut first, &mut second] {
                assert!(ledger.open_round(1).is_empty());
            }
            first.stage(2);
            if idle_range_stages {
                second.stage(2);
            }
            second.deliver(1, 2, 2, port as u32, Tag(1));
            // Round 2.
            assert_eq!(second.open_round(2), [0]);
            let mut inbox = Vec::new();
            second.arena.take(0, &mut inbox);
            inbox
        };
        assert_eq!(heard_at_round_2(true), [(0, Tag(0)), (0, Tag(1))]);
        assert_eq!(heard_at_round_2(false), [(0, Tag(1)), (0, Tag(0))]);
    }
}
