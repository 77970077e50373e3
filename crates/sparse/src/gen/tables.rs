//! The exact synthetic-matrix specifications of Table 3.

use crate::CsrMatrix;

use super::{rmat, scaled_size, uniform, RmatParams};

/// One row of Table 3: a named synthetic matrix specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table3Entry {
    /// Matrix name (`N1`–`N8` for uniform, `P1`–`P8` for power-law).
    pub name: &'static str,
    /// Square dimension.
    pub dimension: usize,
    /// Number of nonzeros.
    pub nnz: usize,
}

/// Table 3's uniform matrices N1–N8. N1–N4 share a dimension of 262,144
/// with halving NNZ; N5–N8 share 8,388,608 nonzeros with doubling
/// dimension.
pub const TABLE3_UNIFORM: [Table3Entry; 8] = [
    Table3Entry {
        name: "N1",
        dimension: 262_144,
        nnz: 3_435_973,
    },
    Table3Entry {
        name: "N2",
        dimension: 262_144,
        nnz: 1_717_986,
    },
    Table3Entry {
        name: "N3",
        dimension: 262_144,
        nnz: 858_993,
    },
    Table3Entry {
        name: "N4",
        dimension: 262_144,
        nnz: 429_496,
    },
    Table3Entry {
        name: "N5",
        dimension: 524_288,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "N6",
        dimension: 1_048_576,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "N7",
        dimension: 2_097_152,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "N8",
        dimension: 4_194_304,
        nnz: 8_388_608,
    },
];

/// Table 3's power-law matrices P1–P8 (same dimensions/NNZ as N1–N8,
/// generated with `GenRMat(dim, nnz, 0.1, 0.2, 0.3)`).
pub const TABLE3_POWER_LAW: [Table3Entry; 8] = [
    Table3Entry {
        name: "P1",
        dimension: 262_144,
        nnz: 3_435_973,
    },
    Table3Entry {
        name: "P2",
        dimension: 262_144,
        nnz: 1_717_986,
    },
    Table3Entry {
        name: "P3",
        dimension: 262_144,
        nnz: 858_993,
    },
    Table3Entry {
        name: "P4",
        dimension: 262_144,
        nnz: 429_496,
    },
    Table3Entry {
        name: "P5",
        dimension: 524_288,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "P6",
        dimension: 1_048_576,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "P7",
        dimension: 2_097_152,
        nnz: 8_388_608,
    },
    Table3Entry {
        name: "P8",
        dimension: 4_194_304,
        nnz: 8_388_608,
    },
];

/// Looks up a Table 3 entry by name (`"N1"`..`"N8"`, `"P1"`..`"P8"`).
pub fn table3_spec(name: &str) -> Option<Table3Entry> {
    TABLE3_UNIFORM
        .iter()
        .chain(TABLE3_POWER_LAW.iter())
        .copied()
        .find(|e| e.name.eq_ignore_ascii_case(name))
}

impl Table3Entry {
    /// Whether this is a power-law (R-MAT) entry.
    pub fn is_power_law(&self) -> bool {
        self.name.starts_with('P')
    }

    /// Generates the matrix at full Table 3 size.
    ///
    /// For cycle-level simulation you usually want [`Table3Entry::generate_scaled`].
    pub fn generate(&self, seed: u64) -> CsrMatrix {
        self.generate_scaled(1, seed)
    }

    /// Generates the matrix with dimension and NNZ divided by `scale`
    /// (rounding up to at least one), preserving the density and skew of
    /// the full-size specification.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn generate_scaled(&self, scale: usize, seed: u64) -> CsrMatrix {
        assert!(scale > 0, "scale must be positive");
        let (dim, nnz) = scaled_size(self.dimension, self.nnz, scale);
        if self.is_power_law() {
            rmat(dim, nnz, RmatParams::PAPER, seed)
        } else {
            uniform(dim, nnz, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let n1 = table3_spec("N1").unwrap();
        assert_eq!(n1.dimension, 262_144);
        assert_eq!(n1.nnz, 3_435_973);
        let p8 = table3_spec("p8").unwrap();
        assert!(p8.is_power_law());
        assert!(table3_spec("Q1").is_none());
    }

    #[test]
    fn n1_to_n4_halve_nnz() {
        for w in TABLE3_UNIFORM[..4].windows(2) {
            assert_eq!(w[0].dimension, w[1].dimension);
            let ratio = w[0].nnz as f64 / w[1].nnz as f64;
            assert!((ratio - 2.0).abs() < 0.01);
        }
    }

    #[test]
    fn n5_to_n8_double_dimension() {
        for w in TABLE3_UNIFORM[4..].windows(2) {
            assert_eq!(w[0].nnz, w[1].nnz);
            assert_eq!(w[1].dimension, 2 * w[0].dimension);
        }
    }

    #[test]
    fn scaled_generation_matches_spec_shape() {
        let n5 = table3_spec("N5").unwrap();
        let m = n5.generate_scaled(1024, 42);
        assert_eq!(m.nrows(), 524_288 / 1024);
        assert_eq!(m.nnz(), 8_388_608 / 1024);
        let p5 = table3_spec("P5").unwrap();
        let pm = p5.generate_scaled(1024, 42);
        assert_eq!(pm.nnz(), m.nnz());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        let _ = table3_spec("N1").unwrap().generate_scaled(0, 0);
    }
}
