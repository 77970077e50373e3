//! The multi-PU MeNDA system (§3.5): one PU per DRAM rank, each
//! transposing a contiguous NNZ-balanced horizontal partition of the input
//! matrix with no inter-PU communication.

use menda_sparse::partition::RowPartition;
use menda_sparse::{CscMatrix, CsrMatrix};

use crate::backend::BackendKind;
use crate::checkpoint::{SnapshotError, SnapshotOutcome, ToCycle};
use crate::config::MendaConfig;
use crate::engine::{dispatch, run_kind, KernelSpec};
use crate::job::{self, PuJob};
use crate::pu::PuResult;
use crate::stats::{PuStats, RunStats};

/// Result of a system-level transposition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransposeResult {
    /// The transposed matrix assembled from the per-rank partitions (each
    /// rank holds the CSC of its horizontal partition; the assembly
    /// concatenates sub-columns in partition order, which preserves row
    /// order because partitions are contiguous row ranges).
    pub output: CscMatrix,
    /// Execution time in PU cycles: PUs run concurrently, so this is the
    /// maximum over PUs.
    pub cycles: u64,
    /// Execution time in seconds at the configured PU frequency.
    pub seconds: f64,
    /// Throughput in nonzeros per second (the paper's NNZ/s metric).
    pub nnz_per_sec: f64,
    /// Per-PU statistics.
    pub pu_stats: Vec<PuStats>,
    /// The row partition used.
    pub partition: RowPartition,
    /// Aggregated instrumentation report, present only when
    /// [`MendaConfig::trace`] enables a sink.
    pub trace: Option<menda_trace::TraceReport>,
}

impl TransposeResult {
    /// Total memory traffic across PUs, in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.pu_stats.iter().map(|s| s.total_traffic_bytes()).sum()
    }

    /// Aggregate achieved bandwidth across PUs in GB/s (traffic divided by
    /// wall-clock execution time).
    pub fn aggregate_bandwidth_gbs(&self) -> f64 {
        if self.seconds == 0.0 {
            return 0.0;
        }
        self.total_traffic_bytes() as f64 / self.seconds / 1e9
    }

    /// The largest number of iterations any PU needed.
    pub fn max_iterations(&self) -> usize {
        self.pu_stats
            .iter()
            .map(|s| s.num_iterations())
            .max()
            .unwrap_or(0)
    }
}

/// The MeNDA system: `channels × ranks_per_channel` PUs.
///
/// # Example
///
/// ```
/// use menda_core::{MendaConfig, MendaSystem};
/// use menda_sparse::gen;
///
/// let m = gen::uniform(128, 1024, 7);
/// let mut sys = MendaSystem::new(MendaConfig::small_test());
/// let r = sys.transpose(&m);
/// assert_eq!(r.output, m.to_csc());
/// ```
#[derive(Debug)]
pub struct MendaSystem {
    config: MendaConfig,
}

impl MendaSystem {
    /// Creates a system from `config`.
    pub fn new(config: MendaConfig) -> Self {
        config.pu.validate();
        Self { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MendaConfig {
        &self.config
    }

    /// Transposes `matrix`: partitions rows by NNZ across the PUs (§3.5),
    /// runs each PU's multi-iteration merge (§3.1) on its own rank via the
    /// execution engine, and assembles the global CSC output.
    pub fn transpose(&mut self, matrix: &CsrMatrix) -> TransposeResult {
        self.transpose_with(matrix, BackendKind::Menda)
    }

    /// Like [`MendaSystem::transpose`] but simulating the backend `kind`
    /// names beside each rank. Transposition keys are unique, so the
    /// assembled output is bit-identical across backends; only the timing
    /// and traffic statistics differ.
    pub fn transpose_with(&mut self, matrix: &CsrMatrix, kind: BackendKind) -> TransposeResult {
        run_kind(&self.config, kind, &self.spec(matrix))
    }

    /// Checkpoint-capable transposition on the backend `kind` names (see
    /// [`crate::checkpoint`]): starts fresh, or restores `resume` — a
    /// snapshot of the same matrix, backend and configuration — and runs
    /// until every PU finishes or reaches device cycle `pause_at`,
    /// capturing a restorable snapshot in the latter case. `None` never
    /// pauses. A finished run is bit-identical to the uninterrupted one.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] describing why `resume` does not match this
    /// system and matrix or cannot be decoded, and
    /// [`SnapshotError::TracingActive`] when instrumentation is enabled
    /// and a snapshot would be read or written.
    pub fn transpose_to_cycle(
        &mut self,
        matrix: &CsrMatrix,
        kind: BackendKind,
        resume: Option<&[u8]>,
        pause_at: Option<u64>,
    ) -> Result<SnapshotOutcome<TransposeResult>, SnapshotError> {
        let mut drive = ToCycle { resume, pause_at };
        dispatch(&self.config, kind, &self.spec(matrix), &mut drive).map(Into::into)
    }

    fn spec<'m>(&self, matrix: &'m CsrMatrix) -> TransposeSpec<'m> {
        TransposeSpec {
            matrix,
            partition: RowPartition::by_nnz(matrix, self.config.num_pus()),
        }
    }
}

/// Transposition as an engine kernel: one gated CSR-row merge job per
/// partition, assembled into a global CSC matrix.
///
/// Public so callers can run transposition through the engine's
/// checkpoint entry ([`crate::Engine::run_to_cycle`]), which needs the
/// [`KernelSpec`] rather than the [`MendaSystem`] convenience wrapper.
#[derive(Debug)]
pub struct TransposeSpec<'m> {
    matrix: &'m CsrMatrix,
    partition: RowPartition,
}

impl<'m> TransposeSpec<'m> {
    /// Creates the kernel spec for transposing `matrix` under `partition`.
    ///
    /// Use [`RowPartition::by_nnz`] with [`MendaConfig::num_pus`] parts to
    /// match what [`MendaSystem::transpose`] runs.
    pub fn new(matrix: &'m CsrMatrix, partition: RowPartition) -> Self {
        Self { matrix, partition }
    }
}

impl KernelSpec for TransposeSpec<'_> {
    type Output = TransposeResult;

    fn make_job(&self, p: usize) -> PuJob {
        let part = self.partition.extract(self.matrix, p);
        let offset = self.partition.range(p).start;
        job::transpose_job(part, offset)
    }

    fn assemble(&self, results: Vec<PuResult>, run: RunStats) -> TransposeResult {
        let output = assemble_csc(self.matrix.nrows(), self.matrix.ncols(), &results);
        TransposeResult {
            output,
            cycles: run.cycles,
            seconds: run.seconds,
            nnz_per_sec: run.throughput(self.matrix.nnz() as u64),
            pu_stats: run.pu_stats,
            partition: self.partition.clone(),
            trace: run.trace,
        }
    }
}

/// Assembles per-PU partition outputs (each sorted by column then global
/// row) into one global CSC matrix.
fn assemble_csc(nrows: usize, ncols: usize, results: &[PuResult]) -> CscMatrix {
    let nnz: usize = results.iter().map(|r| r.values.len()).sum();
    let mut col_ptr = vec![0usize; ncols + 1];
    for r in results {
        for &c in &r.majors {
            col_ptr[c as usize + 1] += 1;
        }
    }
    for c in 0..ncols {
        col_ptr[c + 1] += col_ptr[c];
    }
    let mut cursor = col_ptr.clone();
    let mut row_idx = vec![0u32; nnz];
    let mut values = vec![0.0f32; nnz];
    // Partitions are ascending row ranges, so visiting PUs in order writes
    // each column's rows in ascending order.
    for r in results {
        for ((&c, &row), &v) in r.majors.iter().zip(&r.minors).zip(&r.values) {
            let dst = cursor[c as usize];
            row_idx[dst] = row;
            values[dst] = v;
            cursor[c as usize] += 1;
        }
    }
    CscMatrix::from_parts_unchecked(nrows, ncols, col_ptr, row_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_sparse::gen;

    #[test]
    fn system_transpose_matches_golden_uniform() {
        let m = gen::uniform(128, 1024, 21);
        let mut sys = MendaSystem::new(MendaConfig::small_test());
        let r = sys.transpose(&m);
        assert_eq!(r.output, m.to_csc());
        assert!(r.cycles > 0);
        assert!(r.nnz_per_sec > 0.0);
    }

    #[test]
    fn system_transpose_matches_golden_power_law() {
        let m = gen::rmat(256, 2048, gen::RmatParams::PAPER, 22);
        let mut sys = MendaSystem::new(MendaConfig::small_test());
        let r = sys.transpose(&m);
        assert_eq!(r.output, m.to_csc());
    }

    #[test]
    fn more_pus_reduce_cycles() {
        let m = gen::uniform(256, 4096, 23);
        let run = |pus: usize| {
            let cfg = MendaConfig::small_test()
                .with_channels(1)
                .with_ranks_per_channel(pus);
            MendaSystem::new(cfg).transpose(&m).cycles
        };
        let one = run(1);
        let four = run(4);
        assert!(
            (four as f64) < 0.55 * one as f64,
            "4 PUs {four} cycles vs 1 PU {one}"
        );
    }

    #[test]
    fn rectangular_matrix_transposes() {
        let m = gen::uniform(64, 512, 24);
        // Make it rectangular by extracting a partition.
        let part = RowPartition::by_nnz(&m, 2).extract(&m, 0);
        assert!(part.nrows() < 64);
        let mut sys = MendaSystem::new(MendaConfig::small_test());
        let r = sys.transpose(&part);
        assert_eq!(r.output, part.to_csc());
    }

    #[test]
    fn empty_matrix_is_trivial() {
        let m = CsrMatrix::zeros(32, 32);
        let mut sys = MendaSystem::new(MendaConfig::small_test());
        let r = sys.transpose(&m);
        assert_eq!(r.output.nnz(), 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn traffic_and_bandwidth_reported() {
        let m = gen::uniform(128, 2048, 25);
        let mut sys = MendaSystem::new(MendaConfig::small_test());
        let r = sys.transpose(&m);
        // At least the NZ payload must cross memory twice (read + write).
        assert!(r.total_traffic_bytes() as usize > 2048 * 8);
        assert!(r.aggregate_bandwidth_gbs() > 0.0);
        assert!(r.max_iterations() >= 1);
    }
}
