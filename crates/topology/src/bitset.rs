//! A compact fixed-capacity bitset over `u64` words.
//!
//! Used for link and node membership sets in allocations and the
//! disjointness checks of the backfill logic. Deliberately minimal: the hot
//! allocator paths use raw `u64` masks (the paper's trees have ≤ 32 L2
//! switches per pod), while `BitSet` covers whole-system sets.

use serde::{Deserialize, Serialize};

/// A fixed-capacity bitset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty bitset with capacity for `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Set bit `i`. Returns whether the bit was previously clear.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        was
    }

    /// Clear bit `i`. Returns whether the bit was previously set.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Test bit `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` iff `self` and `other` share at least one set bit.
    ///
    /// Panics in debug builds if capacities differ.
    pub fn intersects(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Set all bits that are set in `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Clear every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Build from an iterator of indices.
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new(len);
        for i in indices {
            s.insert(i);
        }
        s
    }
}

/// Iterate the set-bit positions of a `u64` mask, ascending.
#[inline]
pub fn iter_mask(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let b = mask.trailing_zeros();
            mask &= mask - 1;
            Some(b)
        }
    })
}

/// Split a list of dense ids into per-group runs `(group, mask)`, where
/// `group = id / per_group` and bit `id % per_group` of `mask` is set. A
/// run ends where the group changes or an id repeats, so every id lands in
/// exactly one run and a repeated id starts a new run of its own group.
/// `per_group` must be in `1..=64`.
pub fn runs<I: IntoIterator<Item = u32>>(
    ids: I,
    per_group: u32,
) -> impl Iterator<Item = (u32, u64)> {
    debug_assert!((1..=64).contains(&per_group));
    let mut ids = ids.into_iter();
    let mut pending = None;
    std::iter::from_fn(move || {
        let first = pending.take().or_else(|| ids.next())?;
        let group = first / per_group;
        let base = group * per_group;
        let mut mask = 1u64 << (first - base);
        for id in ids.by_ref() {
            let bit = id.wrapping_sub(base);
            if bit >= per_group || mask & (1 << bit) != 0 {
                pending = Some(id);
                break;
            }
            mask |= 1 << bit;
        }
        Some((group, mask))
    })
}

/// The lowest `n` set bits of `mask` as a new mask. Panics in debug builds
/// if `mask` has fewer than `n` set bits.
#[inline]
pub fn lowest_n_bits(mask: u64, n: u32) -> u64 {
    debug_assert!(mask.count_ones() >= n);
    let mut out = 0u64;
    let mut m = mask;
    for _ in 0..n {
        let b = m.trailing_zeros();
        out |= 1 << b;
        m &= m - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports bit already set");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn iteration_is_ascending_and_complete() {
        let s = BitSet::from_indices(200, [5usize, 63, 64, 65, 190]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 65, 190]);
    }

    #[test]
    fn intersects_and_union() {
        let a = BitSet::from_indices(100, [1usize, 50, 99]);
        let b = BitSet::from_indices(100, [2usize, 51]);
        assert!(!a.intersects(&b));
        let c = BitSet::from_indices(100, [50usize]);
        assert!(a.intersects(&c));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 5);
    }

    #[test]
    fn clear_and_is_empty() {
        let mut s = BitSet::from_indices(10, [3usize, 7]);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn mask_helpers() {
        let m = 0b1011_0100u64;
        let bits: Vec<_> = iter_mask(m).collect();
        assert_eq!(bits, vec![2, 4, 5, 7]);
        assert_eq!(lowest_n_bits(m, 2), 0b0001_0100);
        assert_eq!(lowest_n_bits(m, 4), m);
        assert_eq!(lowest_n_bits(m, 0), 0);
    }

    #[test]
    fn runs_split_on_group_change_and_repeat() {
        let got: Vec<_> = runs([0u32, 2, 3, 9, 8, 1, 9, 9], 4).collect();
        assert_eq!(
            got,
            vec![
                (0, 0b1101),
                (2, 0b0011),
                (0, 0b0010),
                (2, 0b0010),
                (2, 0b0010)
            ]
        );
        assert_eq!(runs([], 4).count(), 0);
        let wide: Vec<_> = runs([0u32, 63, 64], 64).collect();
        assert_eq!(wide, vec![(0, 1 | 1 << 63), (1, 1)]);
    }

    #[test]
    fn bitset_roundtrips_serde() {
        let s = BitSet::from_indices(70, [0usize, 69]);
        let json = serde_json::to_string(&s).unwrap();
        let t: BitSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, t);
    }
}
