//! Identifier assignments.
//!
//! Section 2 of the paper: each node has a unique identifier of `O(log n)`
//! bits *chosen by an adversary* from an arbitrary integer set `Z` of size
//! `n^4`. Lower bounds hold for every assignment; algorithms must work for
//! every assignment. We therefore keep identifiers separate from the
//! topology ([`crate::Graph`]) and provide samplers plus adversarial
//! presets.

use crate::graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// The protocol-visible identifier of a node. `u64` comfortably holds
/// `n^4` for any simulable `n`.
pub type Id = u64;

/// A mapping from node index to unique identifier.
///
/// # Examples
///
/// ```
/// use ule_graph::{IdAssignment, IdSpace};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ids = IdSpace::standard(10).sample(10, &mut rng);
/// assert_eq!(ids.len(), 10);
/// let mut seen: Vec<_> = ids.iter().collect();
/// seen.sort_unstable();
/// seen.dedup();
/// assert_eq!(seen.len(), 10); // all unique
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<Id>,
}

impl IdAssignment {
    /// Wraps an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if identifiers are not pairwise distinct or if any is zero
    /// (the paper's `Z` starts at 1; we reserve 0 as "no identifier").
    pub fn new(ids: Vec<Id>) -> Self {
        let mut set = HashSet::with_capacity(ids.len());
        for &id in &ids {
            assert!(id != 0, "identifier 0 is reserved");
            assert!(set.insert(id), "duplicate identifier {id}");
        }
        IdAssignment { ids }
    }

    /// Identifier of node `v`.
    #[inline]
    pub fn id(&self, v: NodeId) -> Id {
        self.ids[v]
    }

    /// Number of nodes covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff the assignment covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over identifiers in node order.
    pub fn iter(&self) -> std::slice::Iter<'_, Id> {
        self.ids.iter()
    }

    /// The identifiers as a node-indexed slice — the zero-copy view the
    /// simulator reads per-activation instead of materializing a per-node
    /// `Option<Id>` column.
    #[inline]
    pub fn as_slice(&self) -> &[Id] {
        &self.ids
    }

    /// The node index holding the minimum identifier.
    pub fn argmin(&self) -> NodeId {
        self.ids
            .iter()
            .enumerate()
            .min_by_key(|&(_, id)| id)
            .map(|(v, _)| v)
            .expect("assignment is non-empty")
    }

    /// The node index holding the maximum identifier.
    pub fn argmax(&self) -> NodeId {
        self.ids
            .iter()
            .enumerate()
            .max_by_key(|&(_, id)| id)
            .map(|(v, _)| v)
            .expect("assignment is non-empty")
    }

    /// Sequential identifiers `1..=n` — the friendliest assignment for the
    /// DFS-agent algorithm of Theorem 4.1 (whose running time is
    /// exponential in the *smallest* identifier).
    pub fn sequential(n: usize) -> Self {
        IdAssignment::new((1..=n as Id).collect())
    }

    /// Sequential identifiers shifted to start at `lo`: `lo..lo + n`.
    ///
    /// With a large `lo` this is the adversarial input for Theorem 4.1's
    /// time bound — the agents all move slowly.
    pub fn sequential_from(lo: Id, n: usize) -> Self {
        IdAssignment::new((lo..lo + n as Id).collect())
    }

    /// Identifiers placed so the minimum lands on `node` — adversarial
    /// placement (e.g. the far end of a path).
    pub fn min_at<R: Rng>(n: usize, node: NodeId, space: &IdSpace, rng: &mut R) -> Self {
        let mut a = space.sample(n, rng);
        let cur = a.argmin();
        a.ids.swap(cur, node);
        a
    }
}

impl<'a> IntoIterator for &'a IdAssignment {
    type Item = &'a Id;
    type IntoIter = std::slice::Iter<'a, Id>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter()
    }
}

/// The integer set `Z` identifiers are drawn from.
///
/// The paper fixes `|Z| = n^4` for its lower bounds (large enough that two
/// ID-disjoint open graphs always exist, Fact 3.3(f)); [`IdSpace::standard`]
/// reproduces `Z = [1, n^4]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdSpace {
    lo: Id,
    hi: Id, // inclusive
}

impl IdSpace {
    /// The paper's `Z = [1, n^4]`, saturating on overflow.
    pub fn standard(n: usize) -> Self {
        let n = n as u128;
        let sq = n.saturating_mul(n);
        let hi = sq.saturating_mul(sq).min(u64::MAX as u128) as u64;
        IdSpace {
            lo: 1,
            hi: hi.max(1),
        }
    }

    /// An arbitrary inclusive range `[lo, hi]`, `lo >= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0` or `lo > hi`.
    pub fn range(lo: Id, hi: Id) -> Self {
        assert!(lo >= 1, "identifier space must start at 1 or above");
        assert!(lo <= hi, "empty identifier space");
        IdSpace { lo, hi }
    }

    /// Inclusive bounds of the space.
    pub fn bounds(&self) -> (Id, Id) {
        (self.lo, self.hi)
    }

    /// Number of identifiers available.
    pub fn size(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Samples `n` distinct identifiers uniformly from the space.
    ///
    /// # Panics
    ///
    /// Panics if the space holds fewer than `n` identifiers.
    pub fn sample<R: Rng>(&self, n: usize, rng: &mut R) -> IdAssignment {
        assert!(
            self.size() >= n as u64,
            "identifier space of size {} cannot host {} nodes",
            self.size(),
            n
        );
        // Rejection sampling is fine: the paper's space has n^4 >> n slots.
        // For small spaces fall back to shuffling the full range.
        if self.size() <= 4 * n as u64 {
            let mut all: Vec<Id> = (self.lo..=self.hi).collect();
            all.shuffle(rng);
            all.truncate(n);
            return IdAssignment::new(all);
        }
        let mut seen = HashSet::with_capacity(n);
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.gen_range(self.lo..=self.hi);
            if seen.insert(id) {
                ids.push(id);
            }
        }
        IdAssignment::new(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_space_is_n_fourth() {
        let s = IdSpace::standard(10);
        assert_eq!(s.bounds(), (1, 10_000));
        assert_eq!(s.size(), 10_000);
    }

    #[test]
    fn standard_space_saturates() {
        let s = IdSpace::standard(usize::MAX);
        assert_eq!(s.bounds().1, u64::MAX);
    }

    #[test]
    fn sample_is_unique_and_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = IdSpace::standard(50);
        let a = s.sample(50, &mut rng);
        let mut v: Vec<_> = a.iter().copied().collect();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 50);
        assert!(v.iter().all(|&id| (1..=s.size()).contains(&id)));
    }

    #[test]
    fn small_space_shuffle_path() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = IdSpace::range(1, 6);
        let a = s.sample(5, &mut rng);
        assert_eq!(a.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn oversample_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        IdSpace::range(1, 3).sample(4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate identifier")]
    fn duplicate_ids_rejected() {
        IdAssignment::new(vec![1, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_id_rejected() {
        IdAssignment::new(vec![0, 1]);
    }

    #[test]
    fn argmin_argmax_and_min_at() {
        let a = IdAssignment::new(vec![5, 2, 9]);
        assert_eq!(a.argmin(), 1);
        assert_eq!(a.argmax(), 2);
        let mut rng = StdRng::seed_from_u64(7);
        let b = IdAssignment::min_at(10, 9, &IdSpace::standard(10), &mut rng);
        assert_eq!(b.argmin(), 9);
    }

    #[test]
    fn sequential_variants() {
        let a = IdAssignment::sequential(4);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let b = IdAssignment::sequential_from(10, 3);
        assert_eq!(b.iter().copied().collect::<Vec<_>>(), vec![10, 11, 12]);
    }
}
