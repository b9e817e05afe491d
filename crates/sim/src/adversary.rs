//! Pluggable execution models: deterministic delay / fault adversaries.
//!
//! The KPPRT bounds are stated against a *worst-case adversary*, but until
//! this module the engine could express only one adversarial knob (the
//! wakeup pattern, [`crate::Wakeup`]): message delivery was hard-wired to
//! "next round". Here every message fate and node-liveness decision of a
//! run flows through a [`Schedule`] — the adversary — so every `ule-core`
//! registry algorithm can be measured under bounded-delay asynchrony,
//! fail-stop crashes, and permanent link failures without touching a line
//! of protocol code (the layer sits *below* [`crate::Protocol`]).
//!
//! # Determinism contract
//!
//! Adversaries are **seeded and deterministic**: for a fixed graph,
//! [`crate::SimConfig`], and [`Adversary`], every decision is a pure
//! function of the run seed and the decision's coordinates. Message fates
//! in particular are a pure function of `(run_seed, directed edge,
//! per-edge send index)` — **never** of a global send order — so any
//! runtime that tracks per-edge send counters (the engine's `Ledger`, the
//! async runtime's per-edge `LinkSeq` stampers) reproduces the exact same
//! decisions locally, with no sequential bottleneck. A run's
//! [`crate::RunOutcome`] therefore stays byte-for-byte identical at any
//! [`crate::Parallelism`] setting *and* across runtimes. Randomized
//! schedules ([`BoundedDelay`]) draw from a chained splitmix64 stream:
//!
//! ```text
//! stream      = splitmix64(splitmix64(seed) ^ DELAY_STREAM_TAG)
//! edge_stream = splitmix64(stream.wrapping_add(didx))
//! delay       = splitmix64(edge_stream.wrapping_add(edge_seq)) % (max_delay + 1)
//! ```
//!
//! (chained, not XOR'd — XOR'd streams collide across nearby indices).
//!
//! # Model semantics
//!
//! * **Delays** ([`BoundedDelay`]): a message sent in round `r` is
//!   delivered at the start of a round in `[r + 1, r + 1 + max_delay]`.
//!   `max_delay = 0` is exactly the synchronous model.
//! * **Crashes** ([`CrashStop`]): a node scheduled to crash at round `c`
//!   executes rounds `< c` normally and is then fail-stop dead: it never
//!   steps again, its pending wakeups evaporate, and messages that would
//!   arrive at it in rounds `>= c` are lost. Messages it sent *before*
//!   crashing are still delivered ("delivered-before-crash" semantics).
//! * **Link failures** ([`LinkFailure`]): an undirected edge scheduled to
//!   die at round `c` carries messages sent in rounds `< c` and silently
//!   drops (in both directions) everything sent in rounds `>= c`.
//!
//! Dropped messages still *cost* the sender (they count toward
//! [`crate::RunOutcome::messages`], bits, CONGEST checks, and per-edge
//! statistics — the adversary discards them in flight, but the send
//! happened); they are additionally tallied in
//! [`crate::RunOutcome::messages_dropped`], never recorded as watch-edge
//! crossings, and late deliveries are surfaced per round in
//! [`crate::RunOutcome::late_deliveries`].

use crate::exec::splitmix64;
use std::collections::BTreeMap;
use ule_graph::{NodeId, Topology};

/// Domain-separation tag for the [`BoundedDelay`] delay stream (distinct
/// from per-node RNG streams, which chain over node indices).
const DELAY_STREAM_TAG: u64 = 0x6465_6c61_795f_7374; // "delay_st"

/// Domain-separation tag for [`sampled_crashes`].
const CRASH_SAMPLE_TAG: u64 = 0x6372_6173_685f_7361; // "crash_sa"

/// What the adversary decided for one sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver at the start of the given round (must be strictly after the
    /// send round).
    Deliver {
        /// Delivery round.
        round: u64,
    },
    /// The message is lost in flight.
    Dropped,
}

/// The runtime-side view of one send, as presented to
/// [`Schedule::message_fate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendView {
    /// Round the message was sent in.
    pub round: u64,
    /// Per-edge send index: how many messages were sent over this directed
    /// edge before this one (0-based). Local to `didx`, so any runtime
    /// that counts sends per directed edge reproduces it exactly.
    pub edge_seq: u64,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dest: NodeId,
    /// Directed-edge index of the sending `(src, port)` pair
    /// ([`ule_graph::Graph::directed_index`]).
    pub didx: usize,
}

/// An execution-model adversary: decides liveness and message fates. All
/// default methods implement the lockstep synchronous model.
///
/// Implementations must be deterministic (see the module docs): the
/// runtime calls [`Schedule::crash_round`] once per node at run setup
/// (ascending node order, sequential control thread), while
/// [`Schedule::message_fate`] is a *pure* shared-state query — the async
/// runtime invokes it concurrently from worker threads, hence the `Sync`
/// bound and the `&self` receiver.
pub trait Schedule: Send + Sync {
    /// Round at whose start node `v` fail-stops, or `None` when it never
    /// crashes (the lockstep default).
    fn crash_round(&mut self, v: NodeId) -> Option<u64> {
        let _ = v;
        None
    }

    /// Fate of one sent message. Lockstep default: deliver next round.
    ///
    /// Must be a pure function of the [`SendView`] (plus immutable
    /// schedule state) — callable concurrently from any thread. A
    /// returned [`Fate::Deliver`] round must be `> send.round`; the
    /// runtime panics on a schedule that delivers into the past.
    fn message_fate(&self, send: &SendView) -> Fate {
        Fate::Deliver {
            round: send.round + 1,
        }
    }
}

/// The synchronous baseline: nothing crashes, every message arrives next
/// round. Running under an explicit `Lockstep`
/// is byte-for-byte identical to the legacy engine (pinned by
/// `tests/properties.rs` and the scheduler-equivalence matrix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lockstep;

impl Schedule for Lockstep {}

/// Bounded-delay asynchrony: each message is assigned a delivery round in
/// `[send + 1, send + 1 + max_delay]`, drawn from a per-edge splitmix64
/// stream chained over the run seed, the directed-edge index, and the
/// per-edge send index (see the module docs for the exact derivation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedDelay {
    max_delay: u64,
    stream: u64,
}

impl BoundedDelay {
    /// A delay adversary for the given run seed.
    pub fn new(seed: u64, max_delay: u64) -> BoundedDelay {
        BoundedDelay {
            max_delay,
            stream: splitmix64(splitmix64(seed) ^ DELAY_STREAM_TAG),
        }
    }
}

impl Schedule for BoundedDelay {
    fn message_fate(&self, send: &SendView) -> Fate {
        let delay = if self.max_delay == 0 {
            0
        } else {
            let edge_stream = splitmix64(self.stream.wrapping_add(send.didx as u64));
            splitmix64(edge_stream.wrapping_add(send.edge_seq)) % (self.max_delay + 1)
        };
        Fate::Deliver {
            round: send.round + 1 + delay,
        }
    }
}

/// Fail-stop crashes at fixed rounds (see the module docs for the
/// delivered-before-crash semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashStop {
    crash: Vec<Option<u64>>,
}

impl CrashStop {
    /// A crash adversary over `n` nodes from an explicit `(node, round)`
    /// schedule. A node listed twice keeps its earliest crash round.
    ///
    /// # Panics
    ///
    /// Panics when the schedule names a node `>= n`.
    pub fn new(n: usize, schedule: &[(NodeId, u64)]) -> CrashStop {
        let mut crash = vec![None; n];
        for &(v, r) in schedule {
            assert!(
                v < n,
                "CrashStop names node {v}, but the graph has only {n} nodes"
            );
            crash[v] = Some(crash[v].map_or(r, |old: u64| old.min(r)));
        }
        CrashStop { crash }
    }
}

impl Schedule for CrashStop {
    fn crash_round(&mut self, v: NodeId) -> Option<u64> {
        self.crash[v]
    }
}

/// Permanent link failures: each listed undirected edge dies at its given
/// round and drops everything sent over it from then on, both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFailure {
    death: BTreeMap<(NodeId, NodeId), u64>,
}

impl LinkFailure {
    /// A link-failure adversary from an explicit `((u, v), round)`
    /// schedule. An edge listed twice keeps its earliest death round.
    ///
    /// # Panics
    ///
    /// Panics when a scheduled edge is not an edge of `graph`.
    pub fn new<T: Topology>(graph: &T, schedule: &[((NodeId, NodeId), u64)]) -> LinkFailure {
        let mut death = BTreeMap::new();
        for &((u, v), r) in schedule {
            assert!(
                graph.has_edge(u, v),
                "LinkFailure edge ({u}, {v}) is not an edge of the graph"
            );
            let key = (u.min(v), u.max(v));
            death
                .entry(key)
                .and_modify(|old: &mut u64| *old = (*old).min(r))
                .or_insert(r);
        }
        LinkFailure { death }
    }
}

impl Schedule for LinkFailure {
    fn message_fate(&self, send: &SendView) -> Fate {
        let key = (send.src.min(send.dest), send.src.max(send.dest));
        match self.death.get(&key) {
            Some(&dead) if send.round >= dead => Fate::Dropped,
            _ => Fate::Deliver {
                round: send.round + 1,
            },
        }
    }
}

/// Stacks several schedules into one adversary. The most restrictive
/// component always wins:
///
/// * **crashes** — the earliest scheduled crash fires;
/// * **message fates** — [`Fate::Dropped`] dominates; otherwise the
///   message arrives at the latest delivery round any component assigns.
pub struct Compose {
    parts: Vec<Box<dyn Schedule>>,
}

impl Compose {
    /// Stacks the given schedules.
    pub fn new(parts: Vec<Box<dyn Schedule>>) -> Compose {
        Compose { parts }
    }
}

impl Schedule for Compose {
    fn crash_round(&mut self, v: NodeId) -> Option<u64> {
        self.parts.iter_mut().filter_map(|p| p.crash_round(v)).min()
    }

    fn message_fate(&self, send: &SendView) -> Fate {
        let mut round = send.round + 1;
        for part in &self.parts {
            match part.message_fate(send) {
                Fate::Dropped => return Fate::Dropped,
                Fate::Deliver { round: r } => round = round.max(r),
            }
        }
        Fate::Deliver { round }
    }
}

/// Declarative adversary configuration — the [`crate::SimConfig`] field.
/// [`Adversary::build`] turns it into a concrete [`Schedule`] for one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Adversary {
    /// The synchronous baseline ([`Lockstep`]); the default, semantically
    /// identical to the pre-adversary engine.
    #[default]
    Lockstep,
    /// Bounded-delay asynchrony ([`BoundedDelay`]).
    BoundedDelay {
        /// Maximum extra delivery delay in rounds (0 = synchronous).
        max_delay: u64,
    },
    /// Fail-stop crashes ([`CrashStop`]).
    CrashStop {
        /// `(node, round)` fail-stop schedule.
        schedule: Vec<(NodeId, u64)>,
    },
    /// Permanent link failures ([`LinkFailure`]).
    LinkFailure {
        /// `((u, v), round)` edge-death schedule.
        schedule: Vec<((NodeId, NodeId), u64)>,
    },
    /// A stack of adversaries ([`Compose`]): delay *and* crashes, etc.
    Compose(Vec<Adversary>),
}

impl Adversary {
    /// Builds the concrete schedule for a run on `graph` seeded with
    /// `seed`, validating the configuration against the graph.
    ///
    /// # Panics
    ///
    /// Panics when a crash schedule names a node outside the graph or a
    /// link-failure schedule names a non-edge.
    pub fn build<T: Topology>(&self, seed: u64, graph: &T) -> Box<dyn Schedule> {
        match self {
            Adversary::Lockstep => Box::new(Lockstep),
            Adversary::BoundedDelay { max_delay } => Box::new(BoundedDelay::new(seed, *max_delay)),
            Adversary::CrashStop { schedule } => Box::new(CrashStop::new(graph.n(), schedule)),
            Adversary::LinkFailure { schedule } => Box::new(LinkFailure::new(graph, schedule)),
            Adversary::Compose(parts) => Box::new(Compose::new(
                parts.iter().map(|p| p.build(seed, graph)).collect(),
            )),
        }
    }
}

/// Samples a fail-stop schedule: each of the `n` nodes independently
/// crashes with probability `permille / 1000`, at a round drawn uniformly
/// from `[1, horizon.max(1)]`. Deterministic in `(seed, n, permille,
/// horizon)` via a dedicated splitmix64 stream, so campaign cells
/// reproduce bit-for-bit; rounds start at 1 so every sampled node executes
/// at least its wakeup round.
pub fn sampled_crashes(seed: u64, n: usize, permille: u64, horizon: u64) -> Vec<(NodeId, u64)> {
    let stream = splitmix64(splitmix64(seed) ^ CRASH_SAMPLE_TAG);
    let horizon = horizon.max(1);
    (0..n)
        .filter_map(|v| {
            let h = splitmix64(stream.wrapping_add(v as u64));
            (h % 1000 < permille).then(|| (v, 1 + splitmix64(h) % horizon))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ule_graph::gen;

    fn send(round: u64, edge_seq: u64, src: NodeId, dest: NodeId) -> SendView {
        SendView {
            round,
            edge_seq,
            src,
            dest,
            didx: 0,
        }
    }

    fn send_on(didx: usize, round: u64, edge_seq: u64) -> SendView {
        SendView {
            round,
            edge_seq,
            src: 0,
            dest: 1,
            didx,
        }
    }

    #[test]
    fn lockstep_defaults() {
        let mut s = Lockstep;
        assert_eq!(s.crash_round(3), None);
        assert_eq!(
            s.message_fate(&send(7, 0, 0, 1)),
            Fate::Deliver { round: 8 }
        );
    }

    #[test]
    fn bounded_delay_is_seeded_and_bounded() {
        let a = BoundedDelay::new(42, 8);
        let b = BoundedDelay::new(42, 8);
        let other_seed = BoundedDelay::new(43, 8);
        let mut saw_late = false;
        let mut diverged = false;
        for edge_seq in 0..200 {
            let sv = send(10, edge_seq, 0, 1);
            let fa = a.message_fate(&sv);
            assert_eq!(fa, b.message_fate(&sv), "same seed, same fate");
            let Fate::Deliver { round } = fa else {
                panic!("bounded delay never drops")
            };
            assert!((11..=19).contains(&round), "round {round} out of band");
            saw_late |= round > 11;
            diverged |= fa != other_seed.message_fate(&sv);
        }
        assert!(saw_late, "max_delay 8 must actually delay something");
        assert!(diverged, "different seeds must draw different delays");
    }

    #[test]
    fn bounded_delay_fates_are_pure_per_edge_functions() {
        let s = BoundedDelay::new(42, 8);
        // Pure in (didx, edge_seq): re-querying in any order, the fate of a
        // given coordinate never changes — the property that lets a
        // distributed runtime reproduce engine decisions locally.
        let forward: Vec<Fate> = (0..50).map(|q| s.message_fate(&send_on(3, 1, q))).collect();
        let backward: Vec<Fate> = (0..50)
            .rev()
            .map(|q| s.message_fate(&send_on(3, 1, q)))
            .collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Distinct edges draw from distinct streams.
        let mut edges_diverge = false;
        for q in 0..50 {
            edges_diverge |= s.message_fate(&send_on(0, 1, q)) != s.message_fate(&send_on(1, 1, q));
        }
        assert!(edges_diverge, "per-edge streams must be independent");
        // Pin the chained derivation so both runtimes (and future
        // refactors) agree on the exact stream.
        let stream = splitmix64(splitmix64(42) ^ DELAY_STREAM_TAG);
        let edge_stream = splitmix64(stream.wrapping_add(3));
        let delay = splitmix64(edge_stream.wrapping_add(7)) % 9;
        assert_eq!(
            s.message_fate(&send_on(3, 10, 7)),
            Fate::Deliver { round: 11 + delay }
        );
    }

    #[test]
    fn zero_delay_is_synchronous() {
        let s = BoundedDelay::new(7, 0);
        for seq in 0..50 {
            assert_eq!(
                s.message_fate(&send(seq, seq, 0, 1)),
                Fate::Deliver { round: seq + 1 }
            );
        }
    }

    #[test]
    fn crash_stop_keeps_earliest_round() {
        let mut s = CrashStop::new(4, &[(1, 9), (1, 3), (2, 5)]);
        assert_eq!(s.crash_round(0), None);
        assert_eq!(s.crash_round(1), Some(3));
        assert_eq!(s.crash_round(2), Some(5));
    }

    #[test]
    #[should_panic(expected = "CrashStop names node 9")]
    fn crash_stop_rejects_out_of_range_nodes() {
        CrashStop::new(5, &[(9, 1)]);
    }

    #[test]
    fn link_failure_drops_both_directions_from_death_round() {
        let g = gen::path(4).unwrap();
        let s = LinkFailure::new(&g, &[((2, 1), 5)]);
        assert_eq!(
            s.message_fate(&send(4, 0, 1, 2)),
            Fate::Deliver { round: 5 }
        );
        assert_eq!(s.message_fate(&send(5, 1, 1, 2)), Fate::Dropped);
        assert_eq!(s.message_fate(&send(9, 2, 2, 1)), Fate::Dropped);
        assert_eq!(
            s.message_fate(&send(9, 3, 0, 1)),
            Fate::Deliver { round: 10 },
            "unlisted edges never drop"
        );
    }

    #[test]
    #[should_panic(expected = "is not an edge of the graph")]
    fn link_failure_rejects_non_edges() {
        let g = gen::path(4).unwrap();
        LinkFailure::new(&g, &[((0, 3), 1)]);
    }

    #[test]
    fn compose_takes_the_most_restrictive_decision() {
        let g = gen::cycle(6).unwrap();
        let mut s = Compose::new(vec![
            Box::new(BoundedDelay::new(1, 4)),
            Box::new(CrashStop::new(6, &[(3, 9)])),
            Box::new(CrashStop::new(6, &[(3, 2)])),
            Box::new(LinkFailure::new(&g, &[((4, 5), 0)])),
        ]);
        // Crash: the earliest scheduled crash survives the stack.
        assert_eq!(s.crash_round(3), Some(2));
        assert_eq!(s.crash_round(0), None);
        // Fate: drop dominates; otherwise the latest delivery round wins.
        assert_eq!(s.message_fate(&send(0, 0, 4, 5)), Fate::Dropped);
        let Fate::Deliver { round } = s.message_fate(&send(0, 1, 0, 1)) else {
            panic!("live edge must deliver")
        };
        assert!((1..=5).contains(&round));
    }

    #[test]
    fn adversary_enum_builds_and_validates() {
        let g = gen::cycle(5).unwrap();
        for adv in [
            Adversary::Lockstep,
            Adversary::BoundedDelay { max_delay: 3 },
            Adversary::CrashStop {
                schedule: vec![(1, 4)],
            },
            Adversary::LinkFailure {
                schedule: vec![((0, 1), 2)],
            },
            Adversary::Compose(vec![
                Adversary::BoundedDelay { max_delay: 1 },
                Adversary::CrashStop { schedule: vec![] },
            ]),
        ] {
            let schedule = adv.build(9, &g);
            let _ = schedule.message_fate(&send(0, 0, 0, 1));
        }
        assert_eq!(Adversary::default(), Adversary::Lockstep);
    }

    #[test]
    #[should_panic(expected = "CrashStop names node 7")]
    fn adversary_build_validates_crash_nodes() {
        let g = gen::cycle(5).unwrap();
        Adversary::CrashStop {
            schedule: vec![(7, 1)],
        }
        .build(0, &g);
    }

    #[test]
    fn sampled_crashes_are_deterministic_and_rate_shaped() {
        let a = sampled_crashes(5, 10_000, 100, 32);
        let b = sampled_crashes(5, 10_000, 100, 32);
        assert_eq!(a, b);
        // ~10% of 10 000 nodes, generously banded.
        assert!((700..=1300).contains(&a.len()), "{} crashes", a.len());
        assert!(a.iter().all(|&(v, r)| v < 10_000 && (1..=32).contains(&r)));
        // Different seeds sample different schedules.
        assert_ne!(a, sampled_crashes(6, 10_000, 100, 32));
        // Degenerate rates.
        assert!(sampled_crashes(1, 1000, 0, 32).is_empty());
        assert_eq!(sampled_crashes(1, 1000, 1000, 32).len(), 1000);
    }
}
