//! The SpMV adaptation of MeNDA (§3.6).
//!
//! Outer-product SpMV has the same multi-way merge dataflow as
//! transposition: each column of the (horizontally partitioned, CSC-stored)
//! matrix is a sorted stream of row indices; scaling each column by its
//! vector element and merging all columns by row index yields the output
//! vector. MeNDA adds:
//!
//! * a vectorized floating-point multiplier next to the prefetch buffers
//!   (values are scaled as they are fetched — iteration 0 only),
//! * an auxiliary pointer array marking which pointer-array blocks contain
//!   non-empty columns, so pointer and vector loads for empty columns are
//!   skipped,
//! * vector-element fetches issued alongside pointer fetches (the delay
//!   buffer of §3.6 covers response reordering; modeled as traffic),
//! * a reduction unit (three pipelined FP adders) behind the root PE that
//!   merges packets with equal row index,
//! * dense output: intermediate runs are (index, value) pairs, the final
//!   vector is written densely.

use menda_sparse::partition::RowPartition;
use menda_sparse::CsrMatrix;

use crate::backend::BackendKind;
use crate::config::MendaConfig;
use crate::engine::{run_kind, KernelSpec};
use crate::job::{FinalOutput, IntermediateFormat, JobSource, PuJob};
use crate::layout::{AddressLayout, BLOCK_BYTES, PTR_BYTES};
use crate::prefetch::{StreamDescriptor, StreamKind};
use crate::pu::{PtrGate, PuResult};
use crate::stats::{PuStats, RunStats};

/// Result of an SpMV execution on the MeNDA system.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvResult {
    /// The output vector `y = A·x`.
    pub y: Vec<f32>,
    /// Execution time in PU cycles (max over PUs).
    pub cycles: u64,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Giga-traversed-edges per second (edges = nonzeros; the paper's
    /// GTEPS metric).
    pub gteps: f64,
    /// Per-PU statistics.
    pub pu_stats: Vec<PuStats>,
    /// Aggregated instrumentation report, present only when
    /// [`MendaConfig::trace`] enables a sink.
    pub trace: Option<menda_trace::TraceReport>,
}

impl SpmvResult {
    /// Iso-bandwidth throughput in GTEPS per GB/s of internal bandwidth
    /// (the paper's fair-comparison metric against HBM designs, §6.8).
    pub fn gteps_per_gbs(&self, internal_bandwidth_gbs: f64) -> f64 {
        if internal_bandwidth_gbs == 0.0 {
            return 0.0;
        }
        self.gteps / internal_bandwidth_gbs
    }
}

/// Options for the SpMV dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmvOptions {
    /// Use the auxiliary pointer array (§3.6): skip pointer/vector block
    /// loads for regions with only empty columns. Disable to measure its
    /// contribution.
    pub aux_pointer_array: bool,
}

impl Default for SpmvOptions {
    fn default() -> Self {
        Self {
            aux_pointer_array: true,
        }
    }
}

/// Runs `y = A·x` on the MeNDA system.
///
/// The input matrix is given as CSR for convenience; each PU's partition is
/// converted to the partitioned CSC format the paper prescribes before
/// simulation (this conversion models the *storage format*, not timed
/// preprocessing — CoSPARSE-style frameworks already store the sparse-
/// iteration operand in CSC, §4.1).
///
/// # Panics
///
/// Panics if `x.len() != a.ncols()`.
pub fn run(config: &MendaConfig, a: &CsrMatrix, x: &[f32]) -> SpmvResult {
    run_with_backend(config, a, x, SpmvOptions::default(), BackendKind::Menda)
}

/// [`run`] with explicit [`SpmvOptions`], on the backend `kind` names.
/// Output values match the MeNDA backend to floating-point tolerance
/// (reduction order is backend-specific), not bit for bit.
///
/// # Panics
///
/// Panics if `x.len() != a.ncols()`.
pub fn run_with_backend(
    config: &MendaConfig,
    a: &CsrMatrix,
    x: &[f32],
    options: SpmvOptions,
    kind: BackendKind,
) -> SpmvResult {
    run_kind(config, kind, &make_spec(a, x, options, config.num_pus()))
}

/// Builds the engine spec [`run_with_backend`] executes, for callers that
/// need the [`KernelSpec`] itself (the job run path in
/// [`crate::jobspec`]).
pub(crate) fn make_spec<'m>(
    a: &'m CsrMatrix,
    x: &'m [f32],
    options: SpmvOptions,
    pus: usize,
) -> SpmvSpec<'m> {
    assert_eq!(x.len(), a.ncols(), "vector length must equal ncols");
    SpmvSpec {
        a,
        x,
        partition: RowPartition::by_nnz(a, pus),
        options,
    }
}

/// SpMV as an engine kernel: one gated scaled-column merge job per
/// partition with pair intermediates and a dense final output, assembled
/// by summing each PU's partial vector into `y`.
///
/// Crate-visible so the job run path ([`crate::jobspec`]) can drive
/// SpMV through any engine entry point, checkpointing ones included.
pub(crate) struct SpmvSpec<'m> {
    a: &'m CsrMatrix,
    x: &'m [f32],
    partition: RowPartition,
    options: SpmvOptions,
}

impl KernelSpec for SpmvSpec<'_> {
    type Output = SpmvResult;

    #[allow(clippy::needless_range_loop)] // c is a column id into several arrays
    fn make_job(&self, p: usize) -> PuJob {
        let part = self.partition.extract(self.a, p);
        let offset = self.partition.range(p).start as u32;
        let csc = part.to_csc();
        let layout = AddressLayout::rank_default();

        // Global row indices so every PU's output lands directly in y.
        let rows_global: Vec<u32> = csc.row_idx().iter().map(|&r| r + offset).collect();
        let vals: Vec<f32> = csc.values().to_vec();

        // Streams: non-empty columns, scaled by the vector element.
        // Pointer gating: only aux-marked pointer blocks are read (§3.6).
        let entries_per_block = BLOCK_BYTES / PTR_BYTES; // 8
        let mut descriptors = Vec::new();
        let mut needed_blocks: Vec<u64> = Vec::new();
        let mut release_block: Vec<u64> = Vec::new();
        for c in 0..csc.ncols() {
            let (s, e) = (csc.col_ptr()[c], csc.col_ptr()[c + 1]);
            if s == e {
                continue;
            }
            descriptors.push(StreamDescriptor {
                start: s as u64,
                end: e as u64,
                kind: StreamKind::SpmvCol { scale: self.x[c] },
            });
            let b0 = c as u64 / entries_per_block;
            let b1 = (c as u64 + 1) / entries_per_block;
            for b in [b0, b1] {
                if needed_blocks.last() != Some(&b) {
                    needed_blocks.push(b);
                }
            }
            release_block.push(b1);
        }
        needed_blocks.dedup();
        if !self.options.aux_pointer_array {
            // Without the auxiliary array the controller streams the whole
            // pointer array, empty-column regions included.
            let total = (csc.ncols() as u64 + 1).div_ceil(entries_per_block);
            needed_blocks = (0..total).collect();
        }
        let release_after: Vec<usize> = release_block
            .iter()
            .map(|b| needed_blocks.partition_point(|&x| x <= *b))
            .collect();
        let gate = PtrGate {
            ptr_base: layout.row_ptr,
            blocks: needed_blocks,
            release_after,
            vector_base: Some(layout.vector),
        };

        PuJob {
            descriptors,
            source: JobSource::ScaledCsc {
                rows: rows_global,
                vals,
            },
            gate: Some(gate),
            intermediate: IntermediateFormat::Pair,
            final_out: FinalOutput::Dense {
                rows: part.nrows() as u64,
            },
            reduce: true,
        }
    }

    fn assemble(&self, results: Vec<PuResult>, run: RunStats) -> SpmvResult {
        let mut y = vec![0.0f32; self.a.nrows()];
        for r in &results {
            for (&row, &v) in r.majors.iter().zip(&r.values) {
                y[row as usize] += v;
            }
        }
        SpmvResult {
            y,
            cycles: run.cycles,
            seconds: run.seconds,
            gteps: run.throughput(self.a.nnz() as u64) / 1e9,
            pu_stats: run.pu_stats,
            trace: run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_sparse::gen;

    fn check_spmv(a: &CsrMatrix, seed: u64) {
        let x: Vec<f32> = (0..a.ncols())
            .map(|i| ((i as u64 * 2654435761 + seed) % 17) as f32 * 0.25 - 2.0)
            .collect();
        let golden = a.spmv(&x);
        let r = run(&MendaConfig::small_test(), a, &x);
        assert_eq!(r.y.len(), golden.len());
        for (i, (got, want)) in r.y.iter().zip(&golden).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "row {i}: got {got}, want {want}"
            );
        }
        assert!(r.cycles > 0);
        assert!(r.gteps > 0.0);
    }

    #[test]
    fn spmv_matches_golden_uniform() {
        check_spmv(&gen::uniform(96, 800, 31), 1);
    }

    #[test]
    fn spmv_matches_golden_power_law() {
        check_spmv(&gen::rmat(128, 1024, gen::RmatParams::PAPER, 32), 2);
    }

    #[test]
    fn spmv_multi_iteration() {
        // 200 non-empty columns per partition on a 16-leaf tree forces
        // multiple iterations with pair intermediates.
        let a = gen::uniform(256, 3000, 33);
        let x: Vec<f32> = (0..256).map(|i| (i % 5) as f32).collect();
        let r = run(&MendaConfig::small_test(), &a, &x);
        let golden = a.spmv(&x);
        for (got, want) in r.y.iter().zip(&golden) {
            assert!((got - want).abs() <= 1e-3 * want.abs().max(1.0));
        }
        assert!(r.pu_stats.iter().any(|s| s.num_iterations() > 1));
    }

    #[test]
    fn empty_matrix_yields_zero_vector() {
        let a = CsrMatrix::zeros(16, 16);
        let r = run(&MendaConfig::small_test(), &a, &[1.0; 16]);
        assert!(r.y.iter().all(|&v| v == 0.0));
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn gteps_per_gbs_is_scaled() {
        let a = gen::uniform(64, 512, 35);
        let x = vec![1.0f32; 64];
        let r = run(&MendaConfig::small_test(), &a, &x);
        let cfg = MendaConfig::small_test();
        let iso = r.gteps_per_gbs(cfg.internal_bandwidth_gbs());
        assert!(iso > 0.0);
        assert!(iso < r.gteps);
    }

    #[test]
    fn aux_pointer_array_reduces_pointer_loads() {
        // Very sparse matrix: most pointer blocks cover only empty
        // columns, which the auxiliary array skips (§3.6).
        let a = gen::uniform(1 << 11, 600, 37);
        let x = vec![1.0f32; 1 << 11];
        let with_aux = run_with_backend(
            &MendaConfig::small_test(),
            &a,
            &x,
            SpmvOptions {
                aux_pointer_array: true,
            },
            BackendKind::Menda,
        );
        let without = run_with_backend(
            &MendaConfig::small_test(),
            &a,
            &x,
            SpmvOptions {
                aux_pointer_array: false,
            },
            BackendKind::Menda,
        );
        for (g, w) in with_aux.y.iter().zip(&without.y) {
            assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0));
        }
        let loads = |r: &SpmvResult| -> u64 {
            r.pu_stats
                .iter()
                .flat_map(|s| s.iterations.iter())
                .map(|i| i.loads_issued)
                .sum()
        };
        assert!(
            loads(&with_aux) < loads(&without),
            "aux array did not reduce loads: {} vs {}",
            loads(&with_aux),
            loads(&without)
        );
        assert!(with_aux.cycles <= without.cycles);
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn wrong_vector_length_panics() {
        let a = gen::uniform(8, 16, 36);
        let _ = run(&MendaConfig::small_test(), &a, &[1.0; 4]);
    }
}
