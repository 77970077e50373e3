use crate::rng::StdRng;

use crate::{CsrMatrix, Index, Value};

/// Marks a free slot. No coordinate packs to it: indices are below a
/// dimension that fits in 32 bits, so neither half is ever `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// The set of distinct `(row, col)` coordinates a generator samples into.
///
/// Each coordinate is packed as `row << 32 | col` into an open-addressing
/// table with linear probing under a multiplicative (Fibonacci) hash. The
/// packing preserves row-major order, so sorting the packed keys sorts
/// the coordinates. The table has at least twice as many slots as the
/// coordinates it is sized for, which keeps probes short.
#[derive(Debug)]
pub(crate) struct CoordSet {
    slots: Vec<u64>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash is the product's top bits.
    shift: u32,
}

impl CoordSet {
    /// An empty set for up to `expected` distinct coordinates.
    pub(crate) fn with_capacity(expected: usize) -> Self {
        let slots = expected.saturating_mul(2).next_power_of_two().max(8);
        Self {
            slots: vec![EMPTY; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Number of distinct coordinates inserted.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Inserts `(r, c)`, returning whether it was not already present.
    ///
    /// # Panics
    ///
    /// Panics when a new coordinate would fill more than half the table,
    /// which a caller within its `expected` count never does.
    pub(crate) fn insert(&mut self, r: Index, c: Index) -> bool {
        let key = (u64::from(r) << 32) | u64::from(c);
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                EMPTY => break,
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
        assert!(
            2 * (self.len + 1) <= self.slots.len(),
            "coordinate set over capacity"
        );
        self.slots[i] = key;
        self.len += 1;
        true
    }

    /// Builds a `dim`×`dim` CSR matrix from the coordinates, drawing one
    /// uniform `[0, 1)` value per nonzero from `rng` in row-major order.
    /// The keys are compacted and sorted inside the table's own storage,
    /// and the free tail is released before the CSR arrays are allocated.
    pub(crate) fn into_csr(self, dim: usize, rng: &mut StdRng) -> CsrMatrix {
        let mut keys = self.slots;
        keys.retain(|&k| k != EMPTY);
        keys.shrink_to_fit();
        keys.sort_unstable();
        let mut row_ptr = vec![0usize; dim + 1];
        for &k in &keys {
            row_ptr[(k >> 32) as usize + 1] += 1;
        }
        for r in 0..dim {
            row_ptr[r + 1] += row_ptr[r];
        }
        let mut col_idx = Vec::with_capacity(keys.len());
        let mut values = Vec::with_capacity(keys.len());
        for k in keys {
            col_idx.push(k as Index);
            values.push(rng.random::<Value>());
        }
        CsrMatrix::from_parts_unchecked(dim, dim, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_new_coordinates_only() {
        let mut s = CoordSet::with_capacity(4);
        assert!(s.insert(1, 2));
        assert!(!s.insert(1, 2));
        assert!(s.insert(2, 1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn overfilling_panics_instead_of_probing_forever() {
        let mut s = CoordSet::with_capacity(4);
        for i in 0..5 {
            s.insert(0, i);
        }
    }

    #[test]
    fn extreme_indices_stay_distinct_from_free_slots() {
        let top = u32::MAX - 1;
        let mut s = CoordSet::with_capacity(2);
        assert!(s.insert(top, top));
        assert!(s.insert(top, 0));
        assert!(!s.insert(top, top));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn csr_is_row_major() {
        let mut s = CoordSet::with_capacity(3);
        for (r, c) in [(3, 1), (0, 2), (0, 0)] {
            s.insert(r, c);
        }
        let m = s.into_csr(4, &mut StdRng::seed_from_u64(1));
        assert_eq!(m.row_ptr(), &[0, 2, 2, 2, 3]);
        assert_eq!(m.col_idx(), &[0, 2, 1]);
    }
}
