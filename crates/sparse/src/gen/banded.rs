use crate::rng::StdRng;

use crate::{CsrMatrix, Index};

use super::coords::CoordSet;

/// Generates a banded matrix with `nnz` nonzeros concentrated within
/// `half_bandwidth` of the diagonal, plus a `scatter` fraction of uniformly
/// scattered entries.
///
/// This is the stand-in recipe for the structural / circuit-simulation /
/// fluid-dynamics SuiteSparse matrices of Table 4, whose spy plots show a
/// dominant band with sparse off-band fill.
///
/// When the band cannot hold the in-band target (near-dense scaled-down
/// matrices), the remainder is scattered uniformly.
///
/// # Panics
///
/// Panics if `scatter` is outside `[0, 1]`, `dim` is zero or exceeds the
/// 32-bit index range, or `nnz > dim * dim`.
///
/// # Example
///
/// ```
/// let m = menda_sparse::gen::banded(512, 4096, 16, 0.05, 7);
/// assert_eq!(m.nnz(), 4096);
/// ```
pub fn banded(dim: usize, nnz: usize, half_bandwidth: usize, scatter: f64, seed: u64) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&scatter), "scatter must be in [0, 1]");
    assert!(dim > 0 && dim <= u32::MAX as usize, "bad dimension {dim}");
    let band_capacity: usize = (0..dim)
        .map(|r| {
            let lo = r.saturating_sub(half_bandwidth);
            let hi = (r + half_bandwidth + 1).min(dim);
            hi - lo
        })
        .sum();
    // Clamp rather than reject: a near-dense scaled-down matrix may have a
    // band too small for the target, in which case the remainder scatters.
    let band_target = (((nnz as f64) * (1.0 - scatter)) as usize).min(band_capacity);
    assert!(
        nnz <= dim.saturating_mul(dim),
        "matrix cannot hold {nnz} nonzeros"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = CoordSet::with_capacity(nnz);
    // Diagonal first: these matrices virtually always have full diagonals.
    for r in 0..dim.min(band_target) {
        seen.insert(r as Index, r as Index);
    }
    while seen.len() < band_target {
        let r = rng.random_range(0..dim);
        let lo = r.saturating_sub(half_bandwidth);
        let hi = (r + half_bandwidth + 1).min(dim);
        let c = rng.random_range(lo..hi);
        seen.insert(r as Index, c as Index);
    }
    while seen.len() < nnz {
        let r = rng.random_range(0..dim) as Index;
        let c = rng.random_range(0..dim) as Index;
        seen.insert(r, c);
    }
    seen.into_csr(dim, &mut rng)
}

/// Generates a block-structured matrix: `blocks` dense-ish diagonal blocks
/// with uniform intra-block fill plus a `scatter` fraction of global
/// entries. Stand-in for the economics-kind Table 4 matrices.
///
/// # Panics
///
/// Panics on invalid `scatter`, zero `blocks`, or impossible `nnz`.
///
/// # Example
///
/// ```
/// let m = menda_sparse::gen::block_structured(512, 4096, 8, 0.1, 9);
/// assert_eq!(m.nnz(), 4096);
/// ```
pub fn block_structured(
    dim: usize,
    nnz: usize,
    blocks: usize,
    scatter: f64,
    seed: u64,
) -> CsrMatrix {
    assert!((0.0..=1.0).contains(&scatter), "scatter must be in [0, 1]");
    assert!(blocks > 0, "need at least one block");
    assert!(dim > 0 && dim <= u32::MAX as usize, "bad dimension {dim}");
    assert!(
        nnz <= dim.saturating_mul(dim),
        "matrix cannot hold {nnz} nonzeros"
    );
    let block_size = dim.div_ceil(blocks);
    let block_capacity: usize = (0..blocks)
        .map(|b| {
            let lo = b * block_size;
            let hi = ((b + 1) * block_size).min(dim);
            (hi - lo) * (hi - lo)
        })
        .sum();
    let block_target = (((nnz as f64) * (1.0 - scatter)) as usize).min(block_capacity);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = CoordSet::with_capacity(nnz);
    while seen.len() < block_target {
        let b = rng.random_range(0..blocks);
        let lo = b * block_size;
        let hi = ((b + 1) * block_size).min(dim);
        if lo >= hi {
            continue;
        }
        let r = rng.random_range(lo..hi) as Index;
        let c = rng.random_range(lo..hi) as Index;
        seen.insert(r, c);
    }
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
    fn banded_exact_nnz() {
        let m = banded(256, 2000, 8, 0.05, 1);
        assert_eq!(m.nnz(), 2000);
    }

    #[test]
    fn banded_entries_mostly_in_band() {
        let m = banded(512, 4000, 8, 0.1, 2);
        let in_band = m.iter().filter(|&(r, c, _)| r.abs_diff(c) <= 8).count();
        assert!(
            in_band as f64 >= 0.85 * m.nnz() as f64,
            "only {in_band}/{} in band",
            m.nnz()
        );
    }

    #[test]
    fn banded_deterministic() {
        assert_eq!(banded(128, 1000, 4, 0.0, 5), banded(128, 1000, 4, 0.0, 5));
    }

    #[test]
    fn banded_overfull_band_scatters_remainder() {
        // Band of half-width 1 on a 16x16 matrix holds 46 entries; the rest
        // of the 200 requested must scatter.
        let m = banded(16, 200, 1, 0.0, 0);
        assert_eq!(m.nnz(), 200);
        let off_band = m.iter().filter(|&(r, c, _)| r.abs_diff(c) > 1).count();
        assert!(off_band >= 154);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn banded_impossible_nnz_panics() {
        let _ = banded(4, 17, 1, 0.0, 0);
    }

    #[test]
    fn block_structured_exact_nnz() {
        let m = block_structured(256, 3000, 4, 0.1, 3);
        assert_eq!(m.nnz(), 3000);
    }

    #[test]
    fn block_structured_entries_mostly_in_blocks() {
        let m = block_structured(256, 3000, 4, 0.1, 4);
        let bs = 64;
        let in_block = m.iter().filter(|&(r, c, _)| r / bs == c / bs).count();
        assert!(in_block as f64 >= 0.8 * m.nnz() as f64);
    }

    #[test]
    fn block_capacity_clamps_target() {
        // Tiny blocks force the block target to clamp to capacity, with the
        // remainder scattered globally.
        let m = block_structured(64, 1024, 64, 0.0, 6);
        assert_eq!(m.nnz(), 1024);
    }
}
