//! Message sizing for CONGEST accounting.
//!
//! The CONGEST model allows one message of `O(log n)` bits per edge per
//! round. The simulator cannot see inside a protocol's message type, so
//! protocols report their own wire size through [`Message::size_bits`]; the
//! engine compares it against the per-round budget and records violations
//! (tests assert zero). Helpers here give honest sizes for the common
//! ingredients: identifiers, counters, flags.

/// A protocol message. Cloned on fan-out, sized for CONGEST accounting.
///
/// Messages must be [`Send`]: on a sharded run a message is built by the
/// thread that owns its sender and taken into the inbox by the thread
/// that owns its destination (see [`crate::Parallelism`]); the async
/// runtime ships it through a channel. They must also be [`Sync`], so a
/// runtime may share queued messages between threads by reference.
/// Plain-data message types get both for free.
pub trait Message: Clone + std::fmt::Debug + Send + Sync {
    /// The wire size of this message in bits.
    ///
    /// Implementations should count what an actual encoding would need:
    /// a tag for the variant plus the size of each field (identifiers via
    /// [`id_bits`], counters via [`uint_bits`], flags as 1).
    fn size_bits(&self) -> u64;
}

/// Bits to carry an identifier from `Z = [1, n^4]`: the bit-length of the
/// value itself (at least 1).
///
/// # Examples
///
/// ```
/// use ule_sim::message::id_bits;
/// assert_eq!(id_bits(1), 1);
/// assert_eq!(id_bits(255), 8);
/// assert_eq!(id_bits(256), 9);
/// ```
pub fn id_bits(id: u64) -> u64 {
    (64 - id.max(1).leading_zeros()) as u64
}

/// Bits to carry an arbitrary unsigned counter (bit-length, at least 1).
pub fn uint_bits(x: u64) -> u64 {
    (64 - x.max(1).leading_zeros()) as u64
}

/// A small tag distinguishing message variants; 4 bits covers 16 variants,
/// enough for every protocol in this project.
pub const TAG_BITS: u64 = 4;

/// The unit message for protocols that only need signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signal;

impl Message for Signal {
    fn size_bits(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_edges() {
        assert_eq!(id_bits(0), 1); // clamped
        assert_eq!(id_bits(1), 1);
        assert_eq!(id_bits(2), 2);
        assert_eq!(id_bits(u64::MAX), 64);
    }

    #[test]
    fn uint_bits_monotone() {
        let mut prev = 0;
        for x in [0u64, 1, 5, 100, 1 << 40] {
            let b = uint_bits(x);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn signal_is_one_bit() {
        assert_eq!(Signal.size_bits(), 1);
    }
}
