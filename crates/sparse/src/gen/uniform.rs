use crate::rng::StdRng;

use crate::{CsrMatrix, Index};

use super::coords::CoordSet;

/// Generates a square uniform random matrix by sampling nonzero coordinates
/// uniformly until `nnz` distinct coordinates have been collected — the
/// procedure that produced Table 3's N1–N8 matrices.
///
/// Values are uniform in `[0, 1)`. Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `nnz > dim * dim` (the matrix cannot hold that many distinct
/// nonzeros) or if `dim` exceeds the 32-bit index range.
///
/// # Example
///
/// ```
/// let m = menda_sparse::gen::uniform(1024, 4096, 42);
/// assert_eq!(m.nnz(), 4096);
/// assert_eq!(m.nrows(), 1024);
/// ```
pub fn uniform(dim: usize, nnz: usize, seed: u64) -> CsrMatrix {
    assert!(dim <= u32::MAX as usize, "dimension exceeds 32-bit range");
    assert!(
        nnz <= dim.saturating_mul(dim),
        "cannot place {nnz} distinct nonzeros in a {dim}x{dim} matrix"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = CoordSet::with_capacity(nnz);
    while seen.len() < nnz {
        let r = rng.random_range(0..dim) as Index;
        let c = rng.random_range(0..dim) as Index;
        seen.insert(r, c);
    }
    seen.into_csr(dim, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_nnz_and_dims() {
        let m = uniform(100, 500, 7);
        assert_eq!(m.nnz(), 500);
        assert_eq!(m.nrows(), 100);
        assert_eq!(m.ncols(), 100);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(uniform(64, 200, 1), uniform(64, 200, 1));
        assert_ne!(uniform(64, 200, 1), uniform(64, 200, 2));
    }

    #[test]
    fn dense_case_fills_matrix() {
        let m = uniform(4, 16, 3);
        assert_eq!(m.nnz(), 16);
        for r in 0..4 {
            assert_eq!(m.row_nnz(r), 4);
        }
    }

    #[test]
    fn rows_are_roughly_balanced() {
        let m = uniform(256, 8192, 11);
        let max = (0..256).map(|r| m.row_nnz(r)).max().unwrap();
        // expectation is 32/row; a uniform sample should stay well under 4x
        assert!(max < 128, "max row nnz {max} suspiciously skewed");
    }

    #[test]
    #[should_panic(expected = "distinct nonzeros")]
    fn overfull_panics() {
        let _ = uniform(2, 5, 0);
    }
}
