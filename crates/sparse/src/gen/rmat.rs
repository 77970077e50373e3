use crate::rng::StdRng;

use crate::{CsrMatrix, Index};

use super::coords::CoordSet;

/// Quadrant probabilities for the recursive R-MAT generator.
///
/// Each edge is placed by recursively descending into one of the four
/// quadrants of the adjacency matrix with probabilities `a`, `b`, `c` and
/// `d = 1 - a - b - c`. The paper generates its power-law matrices with
/// SNAP's `GenRMat(dimension, nnz, 0.1, 0.2, 0.3)`, i.e. `a = 0.1`,
/// `b = 0.2`, `c = 0.3`, `d = 0.4`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant.
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
}

impl RmatParams {
    /// The parameters the paper uses (`GenRMat(.., 0.1, 0.2, 0.3)`).
    pub const PAPER: RmatParams = RmatParams {
        a: 0.1,
        b: 0.2,
        c: 0.3,
    };

    /// Probability of the bottom-right quadrant (`1 - a - b - c`).
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Checks that all four probabilities are valid.
    pub fn is_valid(&self) -> bool {
        self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d() >= 0.0
    }
}

impl Default for RmatParams {
    fn default() -> Self {
        Self::PAPER
    }
}

/// Generates a square power-law matrix with the recursive-matrix (R-MAT)
/// procedure, mirroring SNAP's `GenRMat` as used for Table 3's P1–P8.
///
/// `dim` is rounded up internally to a power of two for the recursion and
/// coordinates outside `dim` are rejected, so the result has exactly the
/// requested dimension and `nnz` distinct nonzeros. Unlike SNAP, the
/// quadrant probabilities carry no per-level noise: a duplicate or
/// out-of-range sample is simply redrawn. Deterministic per seed.
///
/// # Panics
///
/// Panics if `params` are invalid, if `dim` exceeds the 32-bit index range,
/// or if `nnz > dim * dim`.
///
/// # Example
///
/// ```
/// use menda_sparse::gen::{rmat, RmatParams};
///
/// let m = rmat(1 << 10, 8192, RmatParams::PAPER, 42);
/// assert_eq!(m.nnz(), 8192);
/// ```
pub fn rmat(dim: usize, nnz: usize, params: RmatParams, seed: u64) -> CsrMatrix {
    assert!(params.is_valid(), "rmat quadrant probabilities invalid");
    assert!(dim <= u32::MAX as usize, "dimension exceeds 32-bit range");
    assert!(
        nnz <= dim.saturating_mul(dim),
        "cannot place {nnz} distinct nonzeros in a {dim}x{dim} matrix"
    );
    let levels = dim.next_power_of_two().trailing_zeros();
    // Cumulative quadrant bounds, each sum taken left to right.
    let bounds = [
        params.a,
        params.a + params.b,
        params.a + params.b + params.c,
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = CoordSet::with_capacity(nnz);
    while seen.len() < nnz {
        if let Some((r, c)) = sample(&mut rng, levels, dim, &bounds) {
            seen.insert(r as Index, c as Index);
        }
    }
    seen.into_csr(dim, &mut rng)
}

/// Places one sample by descending `levels` quadrant levels, one `f64`
/// draw per level; `None` when the cell falls outside `dim`.
///
/// The descent stops as soon as the partial row or column already puts
/// every completion outside `dim`, and then skips the remaining levels'
/// draws unused. Each sample therefore consumes exactly `levels` draws
/// whether it is kept or not, so the random stream, and with it the
/// matrix, is the same as for a full descent.
fn sample(rng: &mut StdRng, levels: u32, dim: usize, bounds: &[f64; 3]) -> Option<(usize, usize)> {
    let (mut r, mut c) = (0usize, 0usize);
    for rest in (0..levels).rev() {
        let p: f64 = rng.random();
        // Quadrant 0–3 (top-left, top-right, bottom-left, bottom-right)
        // is the number of bounds at or below `p`.
        let q =
            usize::from(p >= bounds[0]) + usize::from(p >= bounds[1]) + usize::from(p >= bounds[2]);
        r = (r << 1) | (q >> 1);
        c = (c << 1) | (q & 1);
        if r.max(c) << rest >= dim {
            for _ in 0..rest {
                rng.next_u64();
            }
            return None;
        }
    }
    Some((r, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_nnz() {
        let m = rmat(256, 2048, RmatParams::PAPER, 5);
        assert_eq!(m.nnz(), 2048);
        assert_eq!(m.nrows(), 256);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = RmatParams::PAPER;
        assert_eq!(rmat(128, 512, p, 9), rmat(128, 512, p, 9));
        assert_ne!(rmat(128, 512, p, 9), rmat(128, 512, p, 10));
    }

    #[test]
    fn power_law_is_more_skewed_than_uniform() {
        let dim = 1 << 12;
        let nnz = 1 << 15;
        let pl = rmat(dim, nnz, RmatParams::PAPER, 3);
        let un = super::super::uniform(dim, nnz, 3);
        let max_pl = (0..dim).map(|r| pl.row_nnz(r)).max().unwrap();
        let max_un = (0..dim).map(|r| un.row_nnz(r)).max().unwrap();
        assert!(
            max_pl > 2 * max_un,
            "rmat max row nnz {max_pl} not skewed vs uniform {max_un}"
        );
    }

    #[test]
    fn non_power_of_two_dim() {
        let m = rmat(300, 1000, RmatParams::PAPER, 1);
        assert_eq!(m.nrows(), 300);
        assert_eq!(m.nnz(), 1000);
        for (_, c, _) in m.iter() {
            assert!(c < 300);
        }
    }

    #[test]
    fn every_sample_consumes_one_draw_per_level() {
        let p = RmatParams::PAPER;
        let bounds = [p.a, p.a + p.b, p.a + p.b + p.c];
        for dim in [1usize, 2, 3, 1000, 1025, 37_412] {
            let levels = dim.next_power_of_two().trailing_zeros();
            let mut rng = StdRng::seed_from_u64(dim as u64);
            let mut kept = 0;
            for _ in 0..500 {
                let mut full = rng.clone();
                if let Some((r, c)) = sample(&mut rng, levels, dim, &bounds) {
                    assert!(r < dim && c < dim);
                    kept += 1;
                }
                for _ in 0..levels {
                    full.next_u64();
                }
                assert_eq!(rng.next_u64(), full.next_u64(), "dim {dim}");
            }
            assert!(kept > 0, "dim {dim}: every sample rejected");
        }
    }

    #[test]
    fn params_d_and_validity() {
        let p = RmatParams::PAPER;
        assert!((p.d() - 0.4).abs() < 1e-12);
        assert!(p.is_valid());
        let bad = RmatParams {
            a: 0.9,
            b: 0.2,
            c: 0.3,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn invalid_params_panic() {
        let bad = RmatParams {
            a: 0.9,
            b: 0.2,
            c: 0.3,
        };
        let _ = rmat(16, 10, bad, 0);
    }
}
