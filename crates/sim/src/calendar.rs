//! A calendar (ring-buffer) queue keyed by round: the flat-memory
//! delayed-delivery queue of the engine's ledger ([`crate::exec`]) and the
//! engine's wakeup queue.
//!
//! # Layout
//!
//! Near-future rounds live in a power-of-two ring of buckets indexed by
//! `round & (horizon - 1)`; each bucket is a `Vec` whose capacity is
//! retained across rounds (drained buckets are recycled through a spare
//! pool), so the steady-state synchronous case — every message delivered
//! exactly one round after it was sent — performs **zero allocations per
//! message** once the ring has warmed up. Rounds at or beyond
//! `base + horizon` (a delay adversary scheduling far ahead, or a timer
//! fired from deep sleep) fall into a `BTreeMap` **overflow tier** and are
//! migrated into the ring when [`CalendarQueue::advance_to`] brings them
//! inside the window.
//!
//! # Ordering contract
//!
//! Within one delivery round, items come back from [`CalendarQueue::take_at`]
//! in **push order**. Because the engine pushes on its sequential control
//! thread in global send order, and because an item for round `r` can only
//! be pushed to the ring *after* `r` has entered the window — i.e. after
//! any overflow items for `r` (pushed at strictly earlier stepping rounds)
//! were migrated in — the drained bucket reproduces exactly the historical
//! order: messages delayed into `r` from earlier rounds first, then the
//! synchronous batch from round `r − 1`, each group in send order. The
//! equivalence against a `BTreeMap` reference queue is pinned by a proptest
//! in `tests/properties.rs`.

use std::collections::BTreeMap;

/// Default ring horizon: covers the synchronous case (`+1`) and every
/// bounded-delay adversary with `max_delay < 63` without touching the
/// overflow tier.
pub const DEFAULT_HORIZON: usize = 64;

/// A round-indexed FIFO calendar queue (see the module docs).
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `horizon` buckets; bucket `round & mask` holds round `round` while
    /// `base <= round < base + horizon`.
    ring: Vec<Vec<T>>,
    mask: u64,
    /// Lowest round the window can currently hold. Monotone.
    base: u64,
    /// Far-future tier: rounds at or beyond `base + horizon`.
    overflow: BTreeMap<u64, Vec<T>>,
    /// Total queued items across both tiers.
    len: usize,
    /// Cached earliest non-empty round (`u64::MAX` = unknown). Exact or
    /// unknown, never wrong: a take at the cached minimum invalidates it,
    /// a push refines it only while it is known, and
    /// [`CalendarQueue::next_event_round`] recomputes it on demand.
    min_round: u64,
    /// Drained buckets waiting for reuse, capacity retained.
    spare: Vec<Vec<T>>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the default horizon of [`DEFAULT_HORIZON`].
    pub fn new() -> Self {
        CalendarQueue::with_horizon(DEFAULT_HORIZON)
    }

    /// An empty queue with the given ring horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is a power of two ≥ 2.
    pub fn with_horizon(horizon: usize) -> Self {
        assert!(
            horizon.is_power_of_two() && horizon >= 2,
            "calendar horizon must be a power of two >= 2 (got {horizon})"
        );
        CalendarQueue {
            ring: (0..horizon).map(|_| Vec::new()).collect(),
            mask: horizon as u64 - 1,
            base: 0,
            overflow: BTreeMap::new(),
            len: 0,
            min_round: u64::MAX,
            spare: Vec::new(),
        }
    }

    /// The ring horizon.
    pub fn horizon(&self) -> usize {
        self.ring.len()
    }

    /// Total queued items across the ring and the overflow tier.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` for round `round`.
    ///
    /// `round` must not precede the current window base (the current
    /// round): the queue only moves forward.
    pub fn push(&mut self, round: u64, item: T) {
        debug_assert!(
            round >= self.base,
            "push into the past: round {round} < base {}",
            self.base
        );
        if round - self.base <= self.mask {
            self.ring[(round & self.mask) as usize].push(item);
        } else {
            self.overflow.entry(round).or_default().push(item);
        }
        // A push may only *refine* the cache: when it is unknown
        // (invalidated by a take while other items remained), the true
        // minimum may be an older item earlier than `round`, so the cache
        // must stay unknown until the next recompute. An empty queue is
        // the exception — there `round` is exact.
        if self.len == 0 {
            self.min_round = round;
        } else if self.min_round != u64::MAX {
            self.min_round = self.min_round.min(round);
        }
        self.len += 1;
    }

    /// Moves the window base forward to `round` (no-op when already
    /// there), migrating any overflow rounds that just entered the window
    /// into their ring buckets. Migration happens *before* any push for
    /// those rounds can reach the ring, which is what preserves global
    /// push order per round (see the module docs).
    pub fn advance_to(&mut self, round: u64) {
        if round <= self.base {
            return;
        }
        #[cfg(debug_assertions)]
        {
            // Advancing past a non-empty bucket would orphan (then alias)
            // its items: every delivery round must be drained at its time.
            let skipped = (round - self.base).min(self.mask + 1);
            for d in 0..skipped {
                let idx = ((self.base + d) & self.mask) as usize;
                debug_assert!(
                    self.ring[idx].is_empty(),
                    "advance_to({round}) skipped non-empty round {}",
                    self.base + d
                );
            }
        }
        self.base = round;
        while let Some((&r, _)) = self.overflow.first_key_value() {
            if r - self.base > self.mask {
                break;
            }
            let bucket = self.overflow.remove(&r).expect("key just seen");
            let idx = (r & self.mask) as usize;
            debug_assert!(
                self.ring[idx].is_empty(),
                "overflow migration into a non-empty bucket (round {r})"
            );
            let old = std::mem::replace(&mut self.ring[idx], bucket);
            self.recycle(old);
        }
    }

    /// Advances the window to `round` and removes everything queued for
    /// it, in push order. The returned `Vec` should go back through
    /// [`CalendarQueue::recycle`] after use so its capacity is reused.
    pub fn take_at(&mut self, round: u64) -> Vec<T> {
        self.advance_to(round);
        let idx = (round & self.mask) as usize;
        let replacement = self.spare.pop().unwrap_or_default();
        let bucket = std::mem::replace(&mut self.ring[idx], replacement);
        self.len -= bucket.len();
        if round == self.min_round {
            self.min_round = u64::MAX; // recomputed on demand
        }
        bucket
    }

    /// Returns a drained bucket's allocation to the spare pool. The pool
    /// never holds more buckets than the ring: a bucket beyond that (or one
    /// that never allocated) is dropped.
    pub fn recycle(&mut self, mut bucket: Vec<T>) {
        if bucket.capacity() > 0 && self.spare.len() < self.ring.len() {
            bucket.clear();
            self.spare.push(bucket);
        }
    }

    /// The earliest round holding any item, or `None` when empty. Amortized
    /// `O(1)`: exact while only pushes happen; after a take empties the
    /// cached minimum, one `O(horizon)` ring scan (plus an overflow peek)
    /// recomputes it.
    pub fn next_event_round(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.min_round != u64::MAX {
            return Some(self.min_round);
        }
        for d in 0..=self.mask {
            let r = self.base + d;
            if !self.ring[(r & self.mask) as usize].is_empty() {
                self.min_round = r;
                return Some(r);
            }
        }
        let r = *self
            .overflow
            .first_key_value()
            .expect("len > 0 with an empty ring implies overflow items")
            .0;
        self.min_round = r;
        Some(r)
    }

    /// The earliest round holding any item, with its items in push order
    /// (`None` when empty). Unlike [`CalendarQueue::take_at`] this leaves
    /// the window where it is.
    pub(crate) fn peek_first(&mut self) -> Option<(u64, &[T])> {
        let r = self.next_event_round()?;
        let bucket = if r - self.base <= self.mask {
            &self.ring[(r & self.mask) as usize]
        } else {
            &self.overflow[&r]
        };
        Some((r, bucket))
    }

    /// Drops every item of the earliest round holding any, without moving
    /// the window: pushes for rounds before it stay legal.
    pub(crate) fn discard_first(&mut self) {
        if let Some(r) = self.next_event_round() {
            let bucket = if r - self.base <= self.mask {
                let replacement = self.spare.pop().unwrap_or_default();
                std::mem::replace(&mut self.ring[(r & self.mask) as usize], replacement)
            } else {
                self.overflow.remove(&r).expect("the earliest round")
            };
            self.len -= bucket.len();
            self.recycle(bucket);
            self.min_round = u64::MAX; // recomputed on demand
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_round_trip_preserves_push_order() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(1, 10);
        q.push(1, 11);
        q.push(2, 20);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_event_round(), Some(1));
        let batch = q.take_at(1);
        assert_eq!(batch, vec![10, 11]);
        q.recycle(batch);
        assert_eq!(q.next_event_round(), Some(2));
        assert_eq!(q.take_at(2), vec![20]);
        assert!(q.is_empty());
        assert_eq!(q.next_event_round(), None);
    }

    #[test]
    fn overflow_tier_boundary() {
        // Deliveries exactly at `base + horizon` must go to the overflow
        // tier and come back at the right round after migration; those at
        // `base + horizon - 1` stay in the ring.
        let h = 8u64;
        let mut q: CalendarQueue<&str> = CalendarQueue::with_horizon(h as usize);
        q.push(h - 1, "ring-edge");
        q.push(h, "overflow-edge");
        q.push(3 * h + 5, "deep-overflow");
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_event_round(), Some(h - 1));
        assert_eq!(q.take_at(h - 1), vec!["ring-edge"]);
        assert_eq!(q.next_event_round(), Some(h));
        assert_eq!(q.take_at(h), vec!["overflow-edge"]);
        assert_eq!(q.next_event_round(), Some(3 * h + 5));
        assert_eq!(q.take_at(3 * h + 5), vec!["deep-overflow"]);
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_items_precede_ring_items_for_the_same_round() {
        // An item queued for round R while R was out of the window
        // (overflow) must come back *before* items queued for R after the
        // window reached it — they were pushed strictly earlier.
        let mut q: CalendarQueue<u32> = CalendarQueue::with_horizon(4);
        q.push(10, 1); // round 10 is out of window [0, 4) -> overflow
        q.advance_to(9);
        q.push(10, 2); // in window now -> ring, after the migrated item
        assert_eq!(q.take_at(10), vec![1, 2]);
    }

    #[test]
    fn take_at_recycles_capacity() {
        let mut q: CalendarQueue<u64> = CalendarQueue::with_horizon(4);
        for round in 1..100u64 {
            for i in 0..8 {
                q.push(round, i);
            }
            let batch = q.take_at(round);
            assert_eq!(batch.len(), 8);
            if round > 2 {
                assert!(batch.capacity() >= 8, "capacity must be reused");
            }
            q.recycle(batch);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn min_round_recomputes_across_tiers() {
        let mut q: CalendarQueue<u8> = CalendarQueue::with_horizon(4);
        q.push(2, 0);
        q.push(100, 1);
        assert_eq!(q.next_event_round(), Some(2));
        q.take_at(2);
        assert_eq!(q.next_event_round(), Some(100));
        q.take_at(100);
        assert_eq!(q.next_event_round(), None);
    }

    #[test]
    fn push_after_take_cannot_mask_an_older_remaining_item() {
        // Regression: take_at(1) invalidates the cached minimum while an
        // item for round 3 remains; a later push for round 6 must NOT
        // re-establish the cache at 6 — the true next event is still 3.
        let mut q: CalendarQueue<u8> = CalendarQueue::new();
        q.push(1, 0);
        q.push(3, 1);
        assert_eq!(q.next_event_round(), Some(1));
        q.take_at(1);
        q.push(6, 2);
        assert_eq!(q.next_event_round(), Some(3));
    }

    #[test]
    fn discard_first_drops_the_earliest_round_of_either_tier_and_never_moves_the_window() {
        let mut q: CalendarQueue<u32> = CalendarQueue::with_horizon(8);
        q.push(5, 50);
        q.push(5, 51);
        q.push(6, 60);
        q.push(40, 400); // overflow tier
        q.push(41, 410);
        assert_eq!(q.peek_first(), Some((5, &[50, 51][..])));
        q.discard_first();
        assert_eq!(q.len(), 3);
        // Round 5 was the cached minimum: recomputed, never reported stale.
        assert_eq!(q.peek_first(), Some((6, &[60][..])));
        q.discard_first();
        assert_eq!(q.peek_first(), Some((40, &[400][..])));
        q.discard_first();
        assert_eq!((q.len(), q.next_event_round()), (1, Some(41)));
        // The window never moved: rounds before every discarded one still
        // take pushes, into the ring, and come back at their own round.
        q.push(1, 10);
        q.push(5, 52);
        assert_eq!(q.peek_first(), Some((1, &[10][..])));
        assert_eq!(q.take_at(1), vec![10]);
        assert_eq!(q.take_at(5), vec![52]);
        assert_eq!(q.take_at(41), vec![410]);
        assert!(q.is_empty());
        q.discard_first();
        assert_eq!(q.peek_first(), None);
    }

    #[test]
    fn spare_pool_stays_within_the_ring_across_discards_on_both_tiers() {
        let h = 8u64;
        let mut q: CalendarQueue<u32> = CalendarQueue::with_horizon(h as usize);
        for round in 0..1_000u64 {
            q.push(round, 1); // ring tier
            q.push(round + 3 * h, 2); // overflow tier
            q.discard_first();
            assert!(
                q.spare.len() <= h as usize,
                "round {round}: {}",
                q.spare.len()
            );
        }
        // Every ring bucket and overflow round is drained the other way
        // too: migrated into the ring, then taken and recycled.
        while let Some(r) = q.next_event_round() {
            let bucket = q.take_at(r);
            q.recycle(bucket);
            q.discard_first();
            assert!(
                q.spare.len() <= h as usize,
                "take at {r}: {}",
                q.spare.len()
            );
        }
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_horizon_panics() {
        let _ = CalendarQueue::<u8>::with_horizon(6);
    }

    #[test]
    fn matches_btreemap_reference_on_a_mixed_schedule() {
        // A deterministic mixed workload: synchronous sends, short delays,
        // deep-overflow delays; drain rounds in order and compare with the
        // reference queue (BTreeMap keyed by round, Vec per round).
        let mut cal: CalendarQueue<(u64, u32)> = CalendarQueue::with_horizon(8);
        let mut reference: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
        let mut x: u64 = 0x243F6A8885A308D3;
        let mut next = || {
            // splitmix-style scramble, self-contained.
            x = x.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z ^ (z >> 31)
        };
        let mut seq = 0u32;
        for round in 0..200u64 {
            cal.advance_to(round);
            // Drain everything due now, in both queues.
            let got = cal.take_at(round);
            let want = reference.remove(&round).unwrap_or_default();
            assert_eq!(got, want, "divergence at round {round}");
            cal.recycle(got);
            // Queue a burst with mixed delays.
            for _ in 0..(next() % 5) {
                let delay = match next() % 10 {
                    0..=6 => 1,           // synchronous
                    7 | 8 => next() % 6,  // short delay (in ring)
                    _ => 8 + next() % 40, // overflow tier
                };
                let at = round + delay.max(1);
                cal.push(at, (at, seq));
                reference.entry(at).or_default().push((at, seq));
                seq += 1;
            }
        }
        // Drain the tail.
        while let Some(r) = cal.next_event_round() {
            let got = cal.take_at(r);
            assert_eq!(got, reference.remove(&r).unwrap_or_default());
            cal.recycle(got);
        }
        assert!(reference.is_empty());
    }
}
