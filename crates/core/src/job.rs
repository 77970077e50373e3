//! Per-PU job descriptions and the shared multi-iteration driver.
//!
//! Every MeNDA kernel — transposition (§3.1), SpMV (§3.6) and the SpGEMM
//! merge phase — runs the same loop on a PU: an iteration-0 merge over
//! kernel-specific streams, then `ceil(log_l streams) - 1` further merges
//! over ping-pong intermediate runs, with the last iteration writing the
//! final output format. [`PuJob`] captures everything that differs between
//! kernels and [`JobRun`] runs the loop, so the kernel drivers contain no
//! per-iteration plumbing of their own.

use menda_dram::{fnv1a, Decoder, Encoder, SnapError};
use menda_sparse::CsrMatrix;

use crate::layout::{AddressLayout, BLOCK_BYTES, PTR_BYTES};
use crate::prefetch::{StreamDescriptor, StreamKind};
use crate::pu::{
    iterations_needed, pair_runs_to_descriptors, runs_to_descriptors, EmittedTriples, IterParams,
    IterSource, IterState, OutputMode, ProcessingUnit, PtrGate, PuResult,
};
use crate::stats::{IterationStats, PuStats};

/// The iteration-0 data a job owns. Jobs own their inputs (rather than
/// borrowing them) so the engine can build and run them on worker threads.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// Transposition: the PU's CSR partition (streams are rows).
    Csr(CsrMatrix),
    /// SpMV: CSC row indices (already globalized) and values; each
    /// stream descriptor carries the scale factor of its column.
    ScaledCsc {
        /// Row index per nonzero.
        rows: Vec<u32>,
        /// Value per nonzero.
        vals: Vec<f32>,
    },
    /// Pre-materialized COO runs (SpGEMM partial products). `minors` and
    /// `majors` are the output key order: packets are emitted as
    /// `(major, minor, value)`.
    Coo {
        /// Minor sort key per element (e.g. C's column index).
        minors: Vec<u32>,
        /// Major sort key per element (e.g. C's row index).
        majors: Vec<u32>,
        /// Value per element.
        vals: Vec<f32>,
    },
}

impl JobSource {
    pub(crate) fn iter_source(&self) -> IterSource<'_> {
        match self {
            JobSource::Csr(m) => IterSource::Csr {
                cols: m.col_idx(),
                vals: m.values(),
            },
            JobSource::ScaledCsc { rows, vals } => IterSource::ScaledCsc { rows, vals },
            JobSource::Coo {
                minors,
                majors,
                vals,
            } => IterSource::Coo {
                rows: minors,
                cols: majors,
                vals,
            },
        }
    }
}

/// The intermediate-run format between iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntermediateFormat {
    /// 12-byte COO triples (transposition, SpGEMM).
    Coo,
    /// 8-byte (index, value) pairs (SpMV, §3.6).
    Pair,
}

/// The final iteration's output format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalOutput {
    /// CSC index/value arrays plus a paced column pointer array.
    Csc {
        /// Columns in the output pointer array.
        ncols: u64,
    },
    /// A dense vector, 4 bytes per row (SpMV).
    Dense {
        /// Rows of the output vector partition.
        rows: u64,
    },
}

/// One PU's complete work for one kernel launch.
///
/// The first intermediate iteration writes ping-pong region 0, so
/// iteration-0 `descriptors` that read a COO region (SpGEMM) must
/// reference region 1.
#[derive(Debug, Clone)]
pub struct PuJob {
    /// Iteration-0 stream descriptors in assignment order.
    pub descriptors: Vec<StreamDescriptor>,
    /// Iteration-0 backing data.
    pub source: JobSource,
    /// Iteration-0 pointer-read gating, if the controller must stream the
    /// pointer array before stream addresses are known.
    pub gate: Option<PtrGate>,
    /// Format of intermediate runs between iterations.
    pub intermediate: IntermediateFormat,
    /// Format of the last iteration's output.
    pub final_out: FinalOutput,
    /// Merge packets with equal (major, minor) keys at the root (the
    /// reduction unit of §3.6).
    pub reduce: bool,
}

/// Builds the transposition job for one CSR partition whose local row 0
/// is global row `row_offset` (§3.1: one gated stream per non-empty row,
/// COO intermediates, CSC output).
pub fn transpose_job(part: CsrMatrix, row_offset: usize) -> PuJob {
    let layout = AddressLayout::rank_default();
    let entries_per_block = BLOCK_BYTES / PTR_BYTES; // 8
    let mut descriptors = Vec::new();
    let mut release_after = Vec::new();
    let row_ptr = part.row_ptr();
    for r in 0..part.nrows() {
        let (s, e) = (row_ptr[r], row_ptr[r + 1]);
        if s == e {
            continue;
        }
        descriptors.push(StreamDescriptor {
            start: s as u64,
            end: e as u64,
            kind: StreamKind::CsrRow {
                row: (row_offset + r) as u32,
            },
        });
        // Needs pointer entries r and r+1.
        release_after.push(((r as u64 + 1) / entries_per_block + 1) as usize);
    }
    let total_ptr_blocks = (part.nrows() as u64 + 1).div_ceil(entries_per_block);
    let gate = PtrGate {
        ptr_base: layout.row_ptr,
        blocks: (0..total_ptr_blocks).collect(),
        release_after: release_after
            .iter()
            .map(|&b| b.min(total_ptr_blocks as usize))
            .collect(),
        vector_base: None,
    };
    let ncols = part.ncols() as u64;
    PuJob {
        descriptors,
        source: JobSource::Csr(part),
        gate: Some(gate),
        intermediate: IntermediateFormat::Coo,
        final_out: FinalOutput::Csc { ncols },
        reduce: false,
    }
}

/// The output mode of iteration `it` out of `iterations`. Intermediate
/// iterations ping-pong between the two COO regions: iteration `it`
/// writes region `it % 2` (and therefore reads region `(it - 1) % 2`).
fn out_mode(job: &PuJob, it: u32, iterations: u32) -> OutputMode {
    if it + 1 >= iterations {
        match job.final_out {
            FinalOutput::Csc { ncols } => OutputMode::FinalCsc { ncols },
            FinalOutput::Dense { rows } => OutputMode::FinalDense { rows },
        }
    } else {
        let region = (it % 2) as u8;
        match job.intermediate {
            IntermediateFormat::Coo => OutputMode::Intermediate { region },
            IntermediateFormat::Pair => OutputMode::IntermediatePair { region },
        }
    }
}

/// One PU's multi-iteration job execution as a pausable state machine:
/// iteration 0 over the job's own streams, then merges of the ping-pong
/// intermediates until a single run remains. A job with no streams
/// finishes immediately with empty output and zero iterations — the
/// uniform empty-work accounting all kernels share.
///
/// Between calls the run is parked either *between iterations* (`paused`
/// empty: the next call starts iteration `it` from scratch) or *mid
/// iteration* (`paused` holds the in-flight iteration state, frozen at
/// the top of the cycle loop). Both parking positions serialize;
/// everything derivable from the job (descriptor lists of later
/// iterations, output modes, geometry) is recomputed at restore rather
/// than stored.
///
/// The type is public only so it can serve as
/// [`crate::AcceleratorBackend::Run`] for the MeNDA backend; drive it
/// through the [`crate::Engine`].
#[derive(Debug)]
pub struct JobRun {
    job: PuJob,
    /// Total iterations this job needs (`ceil(log_l streams)`).
    iterations: u32,
    /// Current iteration index; `== iterations` once finished.
    it: u32,
    finished: bool,
    /// Statistics of completed iterations.
    iter_stats: Vec<IterationStats>,
    /// Output of the most recently completed iteration: the next
    /// iteration's input, or the final output once finished.
    prev: EmittedTriples,
    /// Run boundaries of the most recently completed iteration.
    boundaries: Vec<usize>,
    /// Descriptors of the current iteration when `it > 0` (iteration 0
    /// reads the job's own descriptors). Recomputed from `boundaries`.
    descriptors: Vec<StreamDescriptor>,
    /// The in-flight iteration, parked at a cycle boundary.
    paused: Option<IterState>,
}

impl JobRun {
    /// Prepares `job` for execution on a PU with `leaves` merge-tree
    /// leaves without running any cycles. A job with no streams is
    /// finished immediately (zero iterations, empty output).
    pub(crate) fn new(leaves: u64, job: PuJob) -> Self {
        let iterations = iterations_needed(job.descriptors.len() as u64, leaves);
        Self {
            job,
            iterations,
            it: 0,
            finished: iterations == 0,
            iter_stats: Vec::new(),
            prev: (Vec::new(), Vec::new(), Vec::new()),
            boundaries: Vec::new(),
            descriptors: Vec::new(),
            paused: None,
        }
    }

    /// PU cycles of completed iterations (the current iteration's partial
    /// cycles are inside `paused`).
    fn base_cycles(&self) -> u64 {
        self.iter_stats.iter().map(|s| s.cycles).sum()
    }

    /// Total PU cycles simulated so far, including the in-flight
    /// iteration.
    pub fn cycles_so_far(&self) -> u64 {
        self.base_cycles() + self.paused.as_ref().map_or(0, |st| st.cycles)
    }

    /// Whether the job has run to completion.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Advances the job until it finishes (returns `true`) or the PU's
    /// cumulative cycle count for this job reaches `pause_at` (returns
    /// `false`, parked at a cycle boundary). Resuming — in this process or
    /// after a serialize/restore round trip — continues bit-identically to
    /// an unpaused run.
    pub(crate) fn run_until(&mut self, pu: &mut ProcessingUnit, pause_at: Option<u64>) -> bool {
        while !self.finished {
            let base = self.base_cycles();
            let paused = self.paused.take();
            if paused.is_none() && pause_at.is_some_and(|t| t <= base) {
                return false;
            }
            let p = self.params();
            let mut st = match paused {
                Some(st) => st,
                None => {
                    let st = IterState::new(pu, &p);
                    if st.trivially_done {
                        // No trace span, default statistics, empty output.
                        self.complete_iteration(Default::default(), Vec::new(), st.it);
                        continue;
                    }
                    pu.begin_iteration_trace();
                    st
                }
            };
            let local = pause_at.map(|t| t.saturating_sub(base));
            if pu.iter_loop(&p, &mut st, local) {
                let (emitted, bounds, s) = pu.finish_iteration(st);
                self.complete_iteration(emitted, bounds, s);
            } else {
                self.paused = Some(st);
                return false;
            }
        }
        true
    }

    /// The inputs of iteration `it`: the job's own streams for iteration
    /// 0, the previous iteration's runs after that.
    fn params(&self) -> IterParams<'_> {
        let (descriptors, source, gate) = if self.it == 0 {
            let job = &self.job;
            (
                &job.descriptors[..],
                job.source.iter_source(),
                job.gate.as_ref(),
            )
        } else {
            // Feeding the raw (minors, majors) back as the COO
            // (rows, cols) arrays re-emits each element with unchanged
            // keys, for every kernel.
            let (minors, majors, vals) = &self.prev;
            let source = match self.job.intermediate {
                IntermediateFormat::Coo => IterSource::Coo {
                    rows: minors,
                    cols: majors,
                    vals,
                },
                IntermediateFormat::Pair => IterSource::Pair { idx: majors, vals },
            };
            (&self.descriptors[..], source, None)
        };
        IterParams {
            descriptors,
            source,
            gate,
            out: out_mode(&self.job, self.it, self.iterations),
            reduce: self.job.reduce,
        }
    }

    /// Records a completed iteration's output and statistics, then moves
    /// to the next iteration or marks the job done.
    fn complete_iteration(
        &mut self,
        emitted: EmittedTriples,
        boundaries: Vec<usize>,
        stats: IterationStats,
    ) {
        self.iter_stats.push(stats);
        self.prev = emitted;
        self.boundaries = boundaries;
        self.it += 1;
        self.finished = self.it >= self.iterations;
        self.descriptors = self.run_descriptors();
    }

    /// Stream descriptors over the previous iteration's runs, which the
    /// current iteration reads (empty for iteration 0 and once finished).
    fn run_descriptors(&self) -> Vec<StreamDescriptor> {
        if self.finished || self.it == 0 {
            return Vec::new();
        }
        let read_region = ((self.it - 1) % 2) as u8;
        match self.job.intermediate {
            IntermediateFormat::Coo => runs_to_descriptors(&self.boundaries, read_region),
            IntermediateFormat::Pair => pair_runs_to_descriptors(&self.boundaries, read_region),
        }
    }

    /// Consumes a finished run into the shared per-PU result.
    pub(crate) fn finish(self, pu: &ProcessingUnit) -> PuResult {
        debug_assert!(self.finished, "finish on an unfinished job run");
        let stats = PuStats {
            iterations: self.iter_stats,
            dram: pu.dram_stats(),
        };
        PuResult {
            majors: self.prev.1,
            minors: self.prev.0,
            values: self.prev.2,
            stats,
        }
    }

    /// Serializes the run's dynamic state. The job itself is *not*
    /// written — the restore side rebuilds it deterministically and the
    /// container layer guards the pairing with [`job_fingerprint`].
    pub(crate) fn save_state(&self, enc: &mut Encoder) {
        enc.u32(self.it);
        enc.bool(self.finished);
        enc.seq(self.iter_stats.len());
        for s in &self.iter_stats {
            s.save_state(enc);
        }
        enc.u32s(&self.prev.0);
        enc.u32s(&self.prev.1);
        enc.f32s(&self.prev.2);
        enc.seq(self.boundaries.len());
        for &b in &self.boundaries {
            enc.usize(b);
        }
        match &self.paused {
            Some(st) => {
                enc.u8(1);
                st.save_state(enc);
            }
            None => enc.u8(0),
        }
    }

    /// Rebuilds a run from bytes written by [`JobRun::save_state`],
    /// validating every structural quantity against what `job` implies so
    /// corrupt bytes yield a typed error, never a panic or a partially
    /// restored state.
    pub(crate) fn restore_state(
        pu: &ProcessingUnit,
        job: PuJob,
        dec: &mut Decoder<'_>,
    ) -> Result<Self, SnapError> {
        let iterations = iterations_needed(job.descriptors.len() as u64, pu.leaves() as u64);
        let it = dec.u32()?;
        let finished = dec.bool()?;
        if it > iterations || finished != (it >= iterations) {
            return Err(SnapError::BadValue);
        }
        let n_stats = dec.len_capped(88)?;
        if n_stats != if finished { iterations } else { it } as usize {
            return Err(SnapError::BadValue);
        }
        let iter_stats = (0..n_stats)
            .map(|_| IterationStats::restore_state(dec))
            .collect::<Result<Vec<_>, _>>()?;
        let prev = (dec.u32s()?, dec.u32s()?, dec.f32s()?);
        if prev.1.len() != prev.0.len() || prev.2.len() != prev.0.len() {
            return Err(SnapError::BadValue);
        }
        let n_bounds = dec.len_capped(8)?;
        let mut boundaries = Vec::with_capacity(n_bounds);
        let mut last = 0usize;
        for _ in 0..n_bounds {
            let b = dec.usize()?;
            if b < last || b > prev.0.len() {
                return Err(SnapError::BadValue);
            }
            last = b;
            boundaries.push(b);
        }
        let has_paused = match dec.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SnapError::BadValue),
        };
        if has_paused && finished {
            return Err(SnapError::BadValue);
        }
        let mut run = Self {
            job,
            iterations,
            it,
            finished,
            iter_stats,
            prev,
            boundaries,
            descriptors: Vec::new(),
            paused: None,
        };
        run.descriptors = run.run_descriptors();
        if has_paused {
            let st = IterState::restore_state(pu, &run.params(), dec)?;
            run.paused = Some(st);
        }
        Ok(run)
    }
}

/// FNV-1a fingerprint over a canonical encoding of everything a job
/// contains — descriptors, source data, gating, formats and the reduce
/// flag. A snapshot records it per unit; restore recomputes it from the
/// kernel's regenerated job and refuses a mismatch, so a checkpoint can
/// never silently resume against different input data.
pub(crate) fn job_fingerprint(job: &PuJob) -> u64 {
    let mut enc = Encoder::new();
    enc.seq(job.descriptors.len());
    for d in &job.descriptors {
        d.save_state(&mut enc);
    }
    match &job.source {
        JobSource::Csr(m) => {
            enc.u8(0);
            enc.usize(m.nrows());
            enc.usize(m.ncols());
            enc.seq(m.row_ptr().len());
            for &x in m.row_ptr() {
                enc.usize(x);
            }
            enc.u32s(m.col_idx());
            enc.f32s(m.values());
        }
        JobSource::ScaledCsc { rows, vals } => {
            enc.u8(1);
            enc.u32s(rows);
            enc.f32s(vals);
        }
        JobSource::Coo {
            minors,
            majors,
            vals,
        } => {
            enc.u8(2);
            enc.u32s(minors);
            enc.u32s(majors);
            enc.f32s(vals);
        }
    }
    match &job.gate {
        Some(g) => {
            enc.u8(1);
            enc.u64(g.ptr_base);
            enc.u64s(&g.blocks);
            enc.seq(g.release_after.len());
            for &r in &g.release_after {
                enc.usize(r);
            }
            enc.opt_u64(g.vector_base);
        }
        None => enc.u8(0),
    }
    enc.u8(match job.intermediate {
        IntermediateFormat::Coo => 0,
        IntermediateFormat::Pair => 1,
    });
    match job.final_out {
        FinalOutput::Csc { ncols } => {
            enc.u8(0);
            enc.u64(ncols);
        }
        FinalOutput::Dense { rows } => {
            enc.u8(1);
            enc.u64(rows);
        }
    }
    enc.bool(job.reduce);
    fnv1a(enc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MendaConfig;
    use menda_sparse::gen;

    /// Runs `job` on `pu` to completion in one unbounded step.
    fn execute(pu: &mut ProcessingUnit, job: PuJob) -> PuResult {
        let mut run = JobRun::new(pu.leaves() as u64, job);
        assert!(run.run_until(pu, None));
        run.finish(pu)
    }

    #[test]
    fn transpose_job_gates_all_pointer_blocks() {
        let m = gen::uniform(64, 512, 3);
        let job = transpose_job(m.clone(), 0);
        let gate = job.gate.as_ref().expect("transpose is gated");
        assert_eq!(gate.blocks.len(), (64usize + 1).div_ceil(8));
        assert_eq!(gate.release_after.len(), job.descriptors.len());
        assert!(gate.vector_base.is_none());
        assert_eq!(job.final_out, FinalOutput::Csc { ncols: 64 });
        assert!(!job.reduce);
    }

    #[test]
    fn empty_job_reports_zero_iterations() {
        let job = transpose_job(CsrMatrix::zeros(16, 16), 0);
        let mut pu = ProcessingUnit::new(&MendaConfig::small_test());
        let r = execute(&mut pu, job);
        assert!(r.majors.is_empty());
        assert_eq!(r.stats.num_iterations(), 0);
        assert_eq!(r.stats.total_cycles(), 0);
        assert_eq!(r.stats.total_traffic_bytes(), 0);
    }

    #[test]
    fn executed_job_matches_pu_transpose() {
        let m = gen::rmat(64, 512, gen::RmatParams::PAPER, 9);
        let mut pu = ProcessingUnit::new(&MendaConfig::small_test());
        let direct = pu.transpose(&m, 5);
        let mut pu2 = ProcessingUnit::new(&MendaConfig::small_test());
        let via_job = execute(&mut pu2, transpose_job(m.clone(), 5));
        assert_eq!(direct, via_job);
    }

    #[test]
    fn paused_job_run_matches_straight_execution() {
        let m = gen::rmat(96, 900, gen::RmatParams::PAPER, 31);
        let cfg = MendaConfig::small_test();
        let mut pu = ProcessingUnit::new(&cfg);
        let direct = execute(&mut pu, transpose_job(m.clone(), 0));

        // Drive the same job in many small slices; every pause lands at a
        // different cycle boundary.
        let mut pu2 = ProcessingUnit::new(&cfg);
        let mut run = JobRun::new(pu2.leaves() as u64, transpose_job(m.clone(), 0));
        let mut target = 97u64;
        let mut slices = 0;
        while !run.run_until(&mut pu2, Some(target)) {
            assert!(run.cycles_so_far() <= target);
            target += 97;
            slices += 1;
        }
        assert!(slices > 3, "test must actually pause ({slices} slices)");
        assert_eq!(direct, run.finish(&pu2));
    }

    #[test]
    fn job_run_serializes_mid_flight_bit_identically() {
        let m = gen::rmat(80, 700, gen::RmatParams::PAPER, 41);
        let cfg = MendaConfig::small_test();
        let mut pu = ProcessingUnit::new(&cfg);
        let direct = execute(&mut pu, transpose_job(m.clone(), 0));
        let total = direct.stats.total_cycles();

        for frac in [1u64, 3, 7, 9] {
            let cut = total * frac / 10;
            let mut pu_a = ProcessingUnit::new(&cfg);
            let mut run = JobRun::new(pu_a.leaves() as u64, transpose_job(m.clone(), 0));
            assert!(!run.run_until(&mut pu_a, Some(cut)));
            let mut enc = Encoder::new();
            pu_a.save_unit_state(&mut enc);
            run.save_state(&mut enc);
            let bytes = enc.into_bytes();

            let mut pu_b = ProcessingUnit::new(&cfg);
            let mut dec = Decoder::new(&bytes);
            pu_b.restore_unit_state(&mut dec).expect("unit restore");
            let mut restored = JobRun::restore_state(&pu_b, transpose_job(m.clone(), 0), &mut dec)
                .expect("run restore");
            assert!(dec.is_empty(), "trailing bytes at cut {cut}");
            assert!(restored.run_until(&mut pu_b, None));
            assert_eq!(direct, restored.finish(&pu_b), "cut {cut}");
        }
    }

    #[test]
    fn job_fingerprint_tracks_content() {
        let a = transpose_job(gen::uniform(32, 256, 1), 0);
        let b = transpose_job(gen::uniform(32, 256, 2), 0);
        assert_eq!(job_fingerprint(&a), job_fingerprint(&a));
        assert_ne!(job_fingerprint(&a), job_fingerprint(&b));
        let mut c = a.clone();
        c.reduce = true;
        assert_ne!(job_fingerprint(&a), job_fingerprint(&c));
    }
}
