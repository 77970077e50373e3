//! SpGEMM merge-phase extension: outer-product sparse matrix-matrix
//! multiplication on the MeNDA merge dataflow.
//!
//! The paper positions MeNDA as "an extensible solution ... easily adapted
//! to support other sparse primitives" built on multi-way merge, and its
//! motivation (Fig. 2b) contrasts transposition with outer-product SpMM
//! accelerators (OuterSPACE, SpArch). Those designs compute `C = A·B` in
//! two phases: a *multiply* phase producing, per column `k` of `A` (row
//! `k` of `B`), one partial-product stream sorted by `(row, col)`, and a
//! *merge* phase that multi-way merges all streams while summing
//! duplicate coordinates. The merge phase is exactly MeNDA's dataflow
//! with the §3.6 reduction unit enabled, so this module runs it on the
//! simulated PU:
//!
//! * each PU owns a horizontal partition of `A` (rows of `C`),
//! * the multiply phase is modeled as streaming writes of the partial
//!   products (COO) at rank bandwidth — OuterSPACE's multiply phase also
//!   materializes partial products in memory,
//! * merge iterations then run on the cycle-level PU with `reduce` keyed
//!   on `(row, col)`.

use menda_sparse::partition::RowPartition;
use menda_sparse::CsrMatrix;

use crate::config::MendaConfig;
use crate::engine::{Engine, KernelSpec};
use crate::job::{FinalOutput, IntermediateFormat, JobSource, PuJob};
use crate::pu::{runs_to_descriptors, PuResult};
use crate::stats::{PuStats, RunStats};

/// Result of an SpGEMM merge-phase execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SpgemmResult {
    /// The product `C = A·B`.
    pub c: CsrMatrix,
    /// Total partial products generated by the multiply phase.
    pub partial_products: u64,
    /// Merge-phase PU cycles (max over PUs).
    pub merge_cycles: u64,
    /// Modeled multiply-phase cycles (partial-product streaming writes at
    /// rank bandwidth; max over PUs).
    pub multiply_cycles: u64,
    /// Seconds for both phases at the PU clock.
    pub seconds: f64,
    /// Compression ratio `partial products / nnz(C)` — how much the merge
    /// reduces (SpArch's headline metric).
    pub compression: f64,
    /// Per-PU statistics of the merge phase.
    pub pu_stats: Vec<PuStats>,
}

/// Golden reference: row-wise (Gustavson) SpGEMM.
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm_golden(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let mut row_ptr = vec![0usize; a.nrows() + 1];
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    let mut acc: Vec<f32> = vec![0.0; b.ncols()];
    let mut touched: Vec<u32> = Vec::new();
    for i in 0..a.nrows() {
        let (aks, avs) = a.row(i);
        for (&k, &av) in aks.iter().zip(avs) {
            let (bjs, bvs) = b.row(k as usize);
            for (&j, &bv) in bjs.iter().zip(bvs) {
                if acc[j as usize] == 0.0 {
                    touched.push(j);
                }
                acc[j as usize] += av * bv;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            // Exact zeros from cancellation are kept (they were touched),
            // matching the merge-phase semantics.
            cols.push(j);
            vals.push(acc[j as usize]);
            acc[j as usize] = 0.0;
        }
        touched.clear();
        row_ptr[i + 1] = cols.len();
    }
    CsrMatrix::from_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals)
}

/// Runs `C = A·B` with the multiply phase modeled and the merge phase
/// simulated cycle-accurately on the MeNDA system.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
pub fn run(config: &MendaConfig, a: &CsrMatrix, b: &CsrMatrix) -> SpgemmResult {
    Engine::new(config).run(&make_spec(a, b, config))
}

/// Builds the engine spec [`run`] executes, for callers that need the
/// [`KernelSpec`] itself (the job run path in [`crate::jobspec`]). The
/// multiply phase is host-modeled and deterministic, so it is recomputed
/// rather than checkpointed.
pub(crate) fn make_spec<'m>(
    a: &'m CsrMatrix,
    b: &'m CsrMatrix,
    config: &MendaConfig,
) -> SpgemmSpec<'m> {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    config.pu.validate();
    let pus = config.num_pus();
    let partition = RowPartition::by_nnz(a, pus);
    // Multiply phase, modeled on the host: per PU, the partial-product
    // runs it materializes in its rank before the merge starts.
    let phases: Vec<MultiplyPhase> = (0..pus)
        .map(|p| multiply_phase(a, b, &partition, p))
        .collect();
    SpgemmSpec { a, b, phases }
}

/// One PU's modeled multiply phase: partial-product runs sorted by
/// (global row of A, col of B), one run per contributing column.
struct MultiplyPhase {
    /// C row index per partial product (the major merge key).
    majors: Vec<u32>,
    /// C column index per partial product (the minor merge key).
    minors: Vec<u32>,
    vals: Vec<f32>,
    /// Prefix length of each run.
    boundaries: Vec<usize>,
    /// Modeled multiply-phase cycles for this PU.
    cycles: u64,
}

fn multiply_phase(
    a: &CsrMatrix,
    b: &CsrMatrix,
    partition: &RowPartition,
    p: usize,
) -> MultiplyPhase {
    let part = partition.extract(a, p);
    let offset = partition.range(p).start as u32;
    // The partition in CSC: its columns drive the outer products.
    let part_csc = part.to_csc();
    let mut majors: Vec<u32> = Vec::new();
    let mut minors: Vec<u32> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    let mut boundaries: Vec<usize> = Vec::new();
    for k in 0..part_csc.ncols() {
        let (ais, avs) = part_csc.col(k);
        if ais.is_empty() {
            continue;
        }
        let (bjs, bvs) = b.row(k);
        if bjs.is_empty() {
            continue;
        }
        for (&i, &av) in ais.iter().zip(avs) {
            for (&j, &bv) in bjs.iter().zip(bvs) {
                majors.push(i + offset);
                minors.push(j);
                vals.push(av * bv);
            }
        }
        boundaries.push(majors.len());
    }
    // Multiply-phase timing: reading A-col/B-row inputs and streaming
    // 12 B per partial product to memory at the rank's ~19.2 GB/s,
    // i.e. ~1 partial product per PU cycle once write-bound.
    let input_bytes = (part.nnz() + b.nnz()) as u64 * 8;
    let cycles = majors.len() as u64 + input_bytes / 24;
    MultiplyPhase {
        majors,
        minors,
        vals,
        boundaries,
        cycles,
    }
}

/// The SpGEMM merge phase as an engine kernel: COO partial-product runs
/// merged with (row, col) reduction into CSC-of-Cᵀ per partition, then
/// assembled into the CSR product.
/// Crate-visible so the job run path ([`crate::jobspec`]) can drive
/// SpGEMM's merge phase through any engine entry point, checkpointing
/// ones included.
pub(crate) struct SpgemmSpec<'m> {
    a: &'m CsrMatrix,
    b: &'m CsrMatrix,
    phases: Vec<MultiplyPhase>,
}

impl KernelSpec for SpgemmSpec<'_> {
    type Output = SpgemmResult;

    fn make_job(&self, p: usize) -> PuJob {
        let ph = &self.phases[p];
        PuJob {
            // The multiply phase deposits the runs in ping-pong region 1
            // (the merge's first intermediate write goes to region 0).
            descriptors: runs_to_descriptors(&ph.boundaries, 1),
            source: JobSource::Coo {
                minors: ph.minors.clone(),
                majors: ph.majors.clone(),
                vals: ph.vals.clone(),
            },
            gate: None,
            intermediate: IntermediateFormat::Coo,
            final_out: FinalOutput::Csc {
                ncols: self.a.nrows() as u64,
            },
            reduce: true,
        }
    }

    fn assemble(&self, results: Vec<PuResult>, run: RunStats) -> SpgemmResult {
        // Assemble C: per-PU outputs are disjoint row ranges, each sorted
        // by (row, col) — majors are C rows, minors are C columns.
        let nnz: usize = results.iter().map(|r| r.values.len()).sum();
        let mut row_ptr = vec![0usize; self.a.nrows() + 1];
        for r in &results {
            for &i in &r.majors {
                row_ptr[i as usize + 1] += 1;
            }
        }
        for i in 0..self.a.nrows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0f32; nnz];
        let mut cursor = row_ptr.clone();
        for r in &results {
            for ((&i, &j), &v) in r.majors.iter().zip(&r.minors).zip(&r.values) {
                let dst = cursor[i as usize];
                cols[dst] = j;
                vals[dst] = v;
                cursor[i as usize] += 1;
            }
        }
        let c =
            CsrMatrix::from_parts_unchecked(self.a.nrows(), self.b.ncols(), row_ptr, cols, vals);

        let partials_total: u64 = self.phases.iter().map(|ph| ph.majors.len() as u64).sum();
        let multiply_cycles = self.phases.iter().map(|ph| ph.cycles).max().unwrap_or(0);
        let merge_cycles = run.cycles;
        let seconds = (merge_cycles + multiply_cycles) as f64 / (run.frequency_mhz as f64 * 1e6);
        SpgemmResult {
            compression: if c.nnz() > 0 {
                partials_total as f64 / c.nnz() as f64
            } else {
                0.0
            },
            c,
            partial_products: partials_total,
            merge_cycles,
            multiply_cycles,
            seconds,
            pu_stats: run.pu_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_sparse::gen;

    fn check(a: &CsrMatrix, b: &CsrMatrix) {
        let golden = spgemm_golden(a, b);
        let r = run(&MendaConfig::small_test(), a, b);
        assert_eq!(r.c.nrows(), golden.nrows());
        assert_eq!(r.c.ncols(), golden.ncols());
        assert_eq!(r.c.nnz(), golden.nnz(), "structure mismatch");
        for (i, j, v) in golden.iter() {
            let got = r.c.get(i, j).expect("entry present");
            assert!(
                (got - v).abs() <= 1e-3 * v.abs().max(1.0),
                "C[{i}][{j}] = {got}, want {v}"
            );
        }
    }

    #[test]
    fn squares_a_small_uniform_matrix() {
        let a = gen::uniform(48, 300, 1);
        check(&a, &a);
    }

    #[test]
    fn multiplies_rectangular_chain() {
        let a = gen::uniform(40, 250, 2);
        let b = gen::uniform(40, 220, 3);
        check(&a, &b);
    }

    #[test]
    fn power_law_square() {
        let a = gen::rmat(64, 400, gen::RmatParams::PAPER, 4);
        check(&a, &a);
    }

    #[test]
    fn reduction_compresses_partial_products() {
        let a = gen::uniform(48, 500, 5);
        let r = run(&MendaConfig::small_test(), &a, &a);
        assert!(r.partial_products > r.c.nnz() as u64);
        assert!(r.compression > 1.0);
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a = CsrMatrix::zeros(16, 16);
        let r = run(&MendaConfig::small_test(), &a, &a);
        assert_eq!(r.c.nnz(), 0);
        assert_eq!(r.partial_products, 0);
    }

    #[test]
    fn golden_matches_identity() {
        let a = gen::uniform(32, 200, 6);
        let i = CsrMatrix::identity(32);
        let c = spgemm_golden(&a, &i);
        assert_eq!(c, a);
        let c2 = spgemm_golden(&i, &a);
        assert_eq!(c2, a);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = gen::uniform(8, 16, 7);
        let b = gen::uniform(4, 8, 8);
        let _ = run(&MendaConfig::small_test(), &a, &b);
    }
}
