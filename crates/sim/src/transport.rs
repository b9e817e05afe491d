//! Framed links: the wire format and FIFO discipline of the async
//! threads+channels runtime ([`crate::rt`]).
//!
//! Every delivery crosses its `mpsc` channel wrapped in a [`Frame`] whose
//! `u64` sequence number ([`LinkSeq`]) is checked on arrival
//! ([`LinkGate`]), making the per-edge FIFO guarantee of the execution
//! model an enforced invariant rather than an assumption.

use ule_graph::Port;

/// One delivery on the wire: its link sequence number and header words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Position of this frame on its link (0-based). `u64`: the
    /// historical `u32` field silently truncated the sequence number
    /// beyond 2³² frames, so a wrapped frame passed for a fresh one.
    pub seq: u64,
    /// The words carried by this frame.
    pub words: Vec<u64>,
}

/// Sender side of a FIFO link discipline: stamps each outgoing [`Frame`]
/// on one directed link with the next `u64` sequence number.
///
/// This is how the async threads+channels runtime ([`crate::rt`]) ships
/// deliveries: every protocol message crosses its channel wrapped in a
/// frame whose `words` carry the delivery metadata and whose `seq` proves
/// per-edge FIFO order to the receiving [`LinkGate`]. One stamper per
/// directed edge.
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
    pub fn stamp(&mut self, words: Vec<u64>) -> Frame {
        let seq = self.next;
        self.next += 1;
        Frame { seq, words }
    }
}

/// Receiver side of the FIFO link discipline: verifies that the frames
/// arriving on each port carry *monotonically increasing* sequence
/// numbers, i.e. that the transport really delivered the link's frames in
/// order. The async runtime routes every channel delivery through a gate;
/// a regression would mean the per-edge FIFO guarantee the execution model
/// rests on is broken. Gaps are legal: a sender under a fault adversary
/// consumes a sequence number for every send, including sends the
/// adversary drops in flight — a dropped frame simply never arrives.
#[derive(Debug)]
pub struct LinkGate {
    expect: Vec<u64>,
}

impl LinkGate {
    /// A gate for a node with `degree` ports.
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
    pub fn accept<'f>(&mut self, port: Port, frame: &'f Frame) -> &'f [u64] {
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
    }

    #[test]
    fn link_gate_tolerates_gaps_from_dropped_frames() {
        // An adversary that drops sends still consumes sequence numbers at
        // the sender, so the receiver legitimately sees gaps.
        let mut seq = LinkSeq::new();
        seq.stamp(vec![]); // dropped in flight
        seq.stamp(vec![]); // dropped in flight
        seq.stamp(vec![]); // dropped in flight
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
        seq.stamp(vec![]);
        seq.stamp(vec![]);
        seq.stamp(vec![]);
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
