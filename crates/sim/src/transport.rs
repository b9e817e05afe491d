//! Framed links: a sequence-numbered wire format and its FIFO discipline.
//!
//! A [`Frame`] carries a `u64` sequence number ([`LinkSeq`]) that a
//! receiver checks on arrival ([`LinkGate`]), making per-edge FIFO order
//! an enforced invariant rather than an assumption. The async runtime
//! ([`crate::rt`]) no longer routes its deliveries through these types: a
//! directed edge carries at most one send per round, so it checks FIFO
//! order on each in-port's clock, and the sequence numbers its trace logs
//! are the ledger's per-edge send counts. The types remain as the wire
//! discipline the benchmark's replay kernel times (`sim.transport.frame_ns`).

use ule_graph::Port;

/// One delivery on the wire: its link sequence number and header words.
///
/// The header type `W` is the sender's choice — the gate only reads `seq`.
/// The default, a `Vec<u64>`, carries any number of words at one heap
/// allocation per frame; a fixed `[u64; 4]` travels inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<W = Vec<u64>> {
    /// Position of this frame on its link (0-based). `u64`: the
    /// historical `u32` field silently truncated the sequence number
    /// beyond 2³² frames, so a wrapped frame passed for a fresh one.
    pub seq: u64,
    /// The header words carried by this frame.
    pub words: W,
}

/// Sender side of a FIFO link discipline: stamps each outgoing [`Frame`]
/// on one directed link with the next `u64` sequence number.
///
/// Every message crosses its link wrapped in a frame whose `words` carry
/// the delivery metadata and whose `seq` proves per-edge FIFO order to
/// the receiving [`LinkGate`]. One stamper per directed edge.
#[derive(Debug, Default)]
pub struct LinkSeq {
    next: u64,
}

impl LinkSeq {
    /// A stamper starting at sequence number 0.
    pub fn new() -> Self {
        LinkSeq::default()
    }

    /// Wraps `words` in the next in-order frame for this link.
    pub fn stamp<W>(&mut self, words: W) -> Frame<W> {
        let seq = self.next;
        self.next += 1;
        Frame { seq, words }
    }
}

/// Receiver side of the FIFO link discipline: verifies that the frames
/// arriving on each port carry *monotonically increasing* sequence
/// numbers, i.e. that the transport really delivered the link's frames in
/// order; a regression would mean the per-edge FIFO guarantee the
/// execution model rests on is broken. Gaps are legal: a sender under a fault adversary
/// consumes a sequence number for every send, including sends the
/// adversary drops in flight — a dropped frame simply never arrives.
#[derive(Debug)]
pub struct LinkGate {
    expect: Vec<u64>,
}

impl LinkGate {
    /// A gate over `degree` ports: one node's, or the flat in-port range
    /// of several nodes, indexed by in-port slot.
    pub fn new(degree: usize) -> Self {
        LinkGate {
            expect: vec![0; degree],
        }
    }

    /// Accepts one frame from `port` and returns its payload words.
    ///
    /// # Panics
    ///
    /// Panics on a sequence regression (a transport bug: a frame arriving
    /// after a higher-numbered frame on the same port) or an out-of-range
    /// port.
    pub fn accept<'f, W>(&mut self, port: Port, frame: &'f Frame<W>) -> &'f W {
        assert!(
            frame.seq >= self.expect[port],
            "out-of-order frame on port {port}: got {}, expected at least {}",
            frame.seq,
            self.expect[port]
        );
        self.expect[port] = frame.seq + 1;
        &frame.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_seq_and_gate_enforce_fifo() {
        let mut seq = LinkSeq::new();
        let mut gate = LinkGate::new(2);
        for i in 0..5u64 {
            let f = seq.stamp(vec![i, 100 + i]);
            assert_eq!(f.seq, i);
            assert_eq!(gate.accept(1, &f), &[i, 100 + i]);
        }
        // The other port has its own, independent expectation.
        let f0 = LinkSeq::new().stamp(vec![7]);
        assert_eq!(gate.accept(0, &f0), &[7]);
        // A fixed-size header travels inline, under the same discipline;
        // a `()` frame only consumes its sequence number.
        let mut seq = LinkSeq::new();
        let mut gate = LinkGate::new(1);
        assert_eq!(seq.stamp(()).seq, 0);
        let f = seq.stamp([3u64, 4, 5, 6]);
        assert_eq!((f.seq, gate.accept(0, &f)), (1, &[3, 4, 5, 6]));
        let stale = Frame {
            seq: 0,
            words: [0u64; 4],
        };
        let regression = std::panic::catch_unwind(move || gate.accept(0, &stale).len());
        assert!(
            regression.is_err(),
            "a [u64; 4] frame regression must panic"
        );
    }

    #[test]
    fn one_gate_covers_a_flat_range_of_in_ports() {
        // Two nodes of degrees 2 and 3 share one gate over slots 0..5:
        // node a's ports are slots 0..2, node b's slots 2..5. Each slot
        // keeps its own expectation, so a regression on one is caught
        // while its neighbours in the range stay independent.
        let mut links: Vec<LinkSeq> = (0..5).map(|_| LinkSeq::new()).collect();
        let mut gate = LinkGate::new(5);
        for round in 0..3u64 {
            for (slot, link) in links.iter_mut().enumerate().rev() {
                let f = link.stamp([round, slot as u64, 0, 0]);
                assert_eq!(gate.accept(slot, &f), &[round, slot as u64, 0, 0]);
            }
        }
        let late = Frame {
            seq: 1,
            words: [9u64; 4],
        };
        let mut fresh = LinkGate::new(5);
        assert_eq!(fresh.accept(4, &late)[0], 9);
        let stale = std::panic::catch_unwind(move || gate.accept(2, &late)[0]);
        assert!(stale.is_err(), "slot 2 has seen frame 2 already");
    }

    #[test]
    fn link_gate_tolerates_gaps_from_dropped_frames() {
        // An adversary that drops sends still consumes sequence numbers at
        // the sender, so the receiver legitimately sees gaps.
        let mut seq = LinkSeq::new();
        seq.stamp(Vec::<u64>::new()); // dropped in flight
        seq.stamp(Vec::<u64>::new()); // dropped in flight
        seq.stamp(Vec::<u64>::new()); // dropped in flight
        let f = seq.stamp(vec![1]);
        let mut gate = LinkGate::new(1);
        assert_eq!(gate.accept(0, &f), &[1]);
        let g = seq.stamp(vec![2]);
        assert_eq!(gate.accept(0, &g), &[2]);
    }

    #[test]
    #[should_panic(expected = "out-of-order frame on port 0: got 0, expected at least 4")]
    fn link_gate_rejects_sequence_regressions() {
        let mut seq = LinkSeq::new();
        seq.stamp(Vec::<u64>::new());
        seq.stamp(Vec::<u64>::new());
        seq.stamp(Vec::<u64>::new());
        let late = seq.stamp(vec![1]);
        let mut gate = LinkGate::new(1);
        gate.accept(0, &late);
        let stale = Frame {
            seq: 0,
            words: vec![9],
        };
        gate.accept(0, &stale);
    }

    #[test]
    fn sequence_numbers_do_not_truncate_at_the_u32_boundary() {
        // The historical `i as u32` cast wrapped the 2³²-th frame back to
        // sequence 0, which a gate that had seen frame 2³² − 1 would
        // reject as a regression. The field is now the full index space:
        // the frame just past the old boundary is in order.
        let frame = |seq| Frame {
            seq,
            words: vec![1],
        };
        let mut gate = LinkGate::new(1);
        gate.accept(0, &frame(u64::from(u32::MAX)));
        assert_eq!(gate.accept(0, &frame(1 << 32)), &[1]);
    }
}
