//! Replay kernels: one public function of one layer, timed alone over the
//! same representation and size the workload ran on. A kernel's
//! nanoseconds-per-call times the call count observed in the traced run
//! is a *computed* share of the run, printed beside the measured spans.
//!
//! A replay runs the call back to back with warm caches, so the share it
//! yields is a lower bound on what the call costs inside a run.

use std::hint::black_box;
use std::time::Instant;
use ule_graph::Topology;
use ule_sim::transport::{LinkGate, LinkSeq};
use ule_sim::{Adversary, CalendarQueue, SendView};

/// Most calls one kernel times; keeps a traced child's replays well under
/// a second at full size.
const MAX_CALLS: u64 = 4_000_000;

/// ns per `endpoint_indexed`, over all `(v, p)` in node order.
pub fn endpoint_ns<T: Topology>(topo: &T) -> f64 {
    let mut calls = 0u64;
    let mut acc = 0usize;
    let start = Instant::now();
    'nodes: for v in 0..topo.n() {
        for p in 0..topo.degree(v) {
            let (u, q, i) = topo.endpoint_indexed(black_box(v), p);
            acc = acc.wrapping_add(u ^ q ^ i);
            calls += 1;
            if calls == MAX_CALLS {
                break 'nodes;
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / calls.max(1) as f64
}

/// ns per `message_fate` of the adversary the workload configures, over
/// the directed edges in order with a rising per-edge send index.
pub fn fate_ns<T: Topology>(adversary: &Adversary, seed: u64, topo: &T) -> f64 {
    let schedule = adversary.build(seed, topo);
    let edges = topo.directed_edge_count().max(1);
    let n = topo.n().max(1);
    let calls = MAX_CALLS.min(4 * edges as u64).max(1);
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..calls {
        let didx = (i as usize) % edges;
        let view = SendView {
            round: i / edges as u64,
            edge_seq: i / edges as u64,
            src: didx % n,
            dest: (didx + 1) % n,
            didx,
        };
        if let ule_sim::Fate::Deliver { round } = schedule.message_fate(black_box(&view)) {
            acc = acc.wrapping_add(round);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / calls as f64
}

/// ns per item through `CalendarQueue` (`push` … `take_at` … `recycle`),
/// with delivery rounds spread over `[r + 1, r + 1 + max_delay]` as the
/// workload's adversary spreads them and `per_round` items pushed a round.
pub fn calendar_item_ns(max_delay: u64, per_round: u64) -> f64 {
    let per_round = per_round.clamp(1, MAX_CALLS / 8);
    let rounds = (MAX_CALLS / per_round).clamp(8, 4096);
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    let mut acc = 0u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for r in 0..rounds + max_delay + 1 {
        queue.advance_to(r);
        let bucket = queue.take_at(r);
        acc = acc.wrapping_add(bucket.iter().sum::<u64>());
        queue.recycle(bucket);
        if r < rounds {
            for i in 0..per_round {
                // xorshift: cheap, and the spread only has to be even.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                queue.push(r + 1 + state % (max_delay + 1), i);
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    assert!(queue.is_empty(), "calendar replay left items queued");
    ns / (rounds * per_round) as f64
}

/// ns per frame through the async runtime's link discipline: a 4-word
/// header `LinkSeq::stamp`ed by the sender and `LinkGate::accept`ed by the
/// receiver.
pub fn frame_ns() -> f64 {
    const FRAMES: u64 = 1_000_000;
    const PORTS: usize = 4;
    let mut seqs: Vec<LinkSeq> = (0..PORTS).map(|_| LinkSeq::new()).collect();
    let mut gate = LinkGate::new(PORTS);
    let mut acc = 0u64;
    let start = Instant::now();
    for i in 0..FRAMES {
        let port = (i as usize) % PORTS;
        let frame = seqs[port].stamp(vec![i, i + 1, i + 2, i + 3]);
        acc = acc.wrapping_add(gate.accept(port, black_box(&frame)).iter().sum::<u64>());
    }
    let ns = start.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / FRAMES as f64
}
