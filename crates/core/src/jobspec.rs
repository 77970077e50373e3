//! Validated job descriptions: the shared entry point for batch and
//! service execution.
//!
//! A [`JobSpec`] names a matrix source, a kernel, a backend and a set of
//! configuration overrides. It parses from JSON (the wire format of
//! `menda-server` and the file format of `repro job`), validates every
//! field *without panicking* — untrusted input must never abort the
//! process hosting the simulation — and executes to a [`JobOutcome`]
//! whose [`JobOutcome::to_json`] serialization is deterministic: the same
//! spec produces byte-identical outcome JSON whether it runs in the batch
//! CLI or behind the daemon's worker pool. That byte-identity is what the
//! wire-vs-batch differential suite asserts.
//!
//! The module deliberately routes around the panicking `validate()`
//! helpers on [`PuConfig`](crate::PuConfig) and friends: every structural
//! constraint they assert is re-checked here and surfaced as a
//! [`JobError`] instead.

use std::fmt::{self, Write};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};

use menda_dram::DramConfig;
use menda_sparse::gen;
use menda_sparse::CsrMatrix;
use menda_trace::json::{escape, one_of, parse, JsonValue, Object};
use menda_trace::TraceConfig;

use menda_sparse::partition::RowPartition;

use crate::backend::{AcceleratorBackend, BackendKind};
use crate::checkpoint::{SnapshotError, SnapshotOutcome, ToCycle};
use crate::config::MendaConfig;
use crate::engine::{dispatch, Drive, Engine, KernelSpec, Straight};
use crate::spgemm;
use crate::spmv;
use crate::stats::PuStats;
use crate::system::TransposeSpec;

/// An error raised while parsing, validating or executing a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The request text is not well-formed JSON or has the wrong shape.
    Parse(String),
    /// The request parsed but names an unknown entity or violates a
    /// structural constraint.
    Invalid(String),
    /// The simulation itself failed (a caught panic — this indicates a
    /// simulator bug, not bad input, but it must not kill a daemon).
    Failed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Parse(m) => write!(f, "parse error: {m}"),
            JobError::Invalid(m) => write!(f, "invalid job: {m}"),
            JobError::Failed(m) => write!(f, "job failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// A checkpoint-layer error describes input this spec cannot accept
/// (corrupt bytes, a snapshot from a different job, a snapshot read or
/// written while tracing), so every variant surfaces as
/// [`JobError::Invalid`] — never a panic.
impl From<SnapshotError> for JobError {
    fn from(e: SnapshotError) -> Self {
        JobError::Invalid(format!("snapshot: {e}"))
    }
}

/// Where the job's input matrix comes from. Everything is generated
/// deterministically from the spec plus the job seed, so a job
/// description fully determines its input.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixSource {
    /// A Table 3 synthetic matrix by name (`N1`–`N8`, `P1`–`P8`).
    Table3(String),
    /// A Table 4 SuiteSparse stand-in by name (e.g. `amazon`).
    Table4(String),
    /// A uniform random matrix.
    Uniform {
        /// Square dimension.
        dim: usize,
        /// Number of nonzeros.
        nnz: usize,
    },
    /// An R-MAT power-law matrix with the paper's parameters.
    Rmat {
        /// Square dimension.
        dim: usize,
        /// Number of nonzeros.
        nnz: usize,
    },
    /// A banded matrix with off-band scatter.
    Banded {
        /// Square dimension.
        dim: usize,
        /// Number of nonzeros.
        nnz: usize,
        /// Half bandwidth of the diagonal band.
        half_bandwidth: usize,
        /// Fraction of nonzeros scattered off-band, in `[0, 1]`.
        scatter: f64,
    },
}

impl MatrixSource {
    /// The nonzero count of the matrix this source generates at `scale`
    /// ([`gen::scaled_size`]); 0 for an unknown Table 3 or Table 4 name.
    pub fn scaled_nnz(&self, scale: usize) -> u64 {
        let (dim, nnz) = match self {
            MatrixSource::Table3(name) => match gen::table3_spec(name) {
                Some(e) => (e.dimension, e.nnz),
                None => return 0,
            },
            MatrixSource::Table4(name) => match gen::suite_matrix(name) {
                Some(e) => (e.dimension, e.nnz),
                None => return 0,
            },
            MatrixSource::Uniform { dim, nnz }
            | MatrixSource::Rmat { dim, nnz }
            | MatrixSource::Banded { dim, nnz, .. } => (*dim, *nnz),
        };
        gen::scaled_size(dim, nnz, scale).1 as u64
    }

    fn generate(&self, scale: usize, seed: u64) -> Result<CsrMatrix, JobError> {
        match self {
            MatrixSource::Table3(name) => gen::table3_spec(name)
                .map(|e| e.generate_scaled(scale, seed))
                .ok_or_else(|| {
                    JobError::Invalid(format!(
                        "unknown Table 3 matrix '{name}' (expected N1-N8 or P1-P8)"
                    ))
                }),
            MatrixSource::Table4(name) => gen::suite_matrix(name)
                .map(|e| e.generate_scaled(scale, seed))
                .ok_or_else(|| JobError::Invalid(format!("unknown Table 4 matrix '{name}'"))),
            MatrixSource::Uniform { dim, nnz } => {
                let (dim, nnz) = gen::scaled_size(*dim, *nnz, scale);
                Ok(gen::uniform(dim, nnz, seed))
            }
            MatrixSource::Rmat { dim, nnz } => {
                let (dim, nnz) = gen::scaled_size(*dim, *nnz, scale);
                Ok(gen::rmat(dim, nnz, gen::RmatParams::PAPER, seed))
            }
            MatrixSource::Banded {
                dim,
                nnz,
                half_bandwidth,
                scatter,
            } => {
                let (dim, nnz) = gen::scaled_size(*dim, *nnz, scale);
                let hb = (half_bandwidth / scale).clamp(1, dim);
                Ok(gen::banded(dim, nnz, hb, *scatter, seed))
            }
        }
    }
}

/// The kernel a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKernel {
    /// Sparse transposition (CSR → CSC).
    Transpose,
    /// Sparse matrix-vector multiplication; the input vector is derived
    /// deterministically from the job seed.
    Spmv,
    /// Outer-product SpGEMM (`C = A·B` with `B` generated from the same
    /// source under a derived seed).
    Spgemm,
}

impl JobKernel {
    const ALL: [Self; 3] = [Self::Transpose, Self::Spmv, Self::Spgemm];

    /// The kernel's stable identifier.
    pub fn label(&self) -> &'static str {
        match self {
            JobKernel::Transpose => "transpose",
            JobKernel::Spmv => "spmv",
            JobKernel::Spgemm => "spgemm",
        }
    }
}

/// The DRAM substrate preset a job runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramProfile {
    /// DDR4-2400R (the paper's configuration).
    Ddr4_2400,
    /// One HBM2 pseudo-channel.
    Hbm2,
    /// LPDDR4-3200.
    Lpddr4,
}

impl DramProfile {
    const ALL: [Self; 3] = [Self::Ddr4_2400, Self::Hbm2, Self::Lpddr4];

    /// The profile's stable identifier.
    pub fn label(&self) -> &'static str {
        match self {
            DramProfile::Ddr4_2400 => "ddr4-2400",
            DramProfile::Hbm2 => "hbm2",
            DramProfile::Lpddr4 => "lpddr4",
        }
    }

    fn config(&self) -> DramConfig {
        match self {
            DramProfile::Ddr4_2400 => DramConfig::ddr4_2400r(),
            DramProfile::Hbm2 => DramConfig::hbm2_pseudo_channel(),
            DramProfile::Lpddr4 => DramConfig::lpddr4_3200(),
        }
    }
}

/// A complete, self-contained job description.
///
/// Every field except `matrix` has a default, so the minimal request is
/// `{"matrix": {"source": "table3", "name": "N1"}}`. Defaults are pinned
/// (not inherited from environment variables) so the same spec means the
/// same simulation everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Input matrix source.
    pub matrix: MatrixSource,
    /// Downscaling divisor applied to the source's nominal size (1 =
    /// full size).
    pub scale: usize,
    /// Seed for matrix generation (and vector derivation for SpMV).
    pub seed: u64,
    /// The kernel to run.
    pub kernel: JobKernel,
    /// The accelerator backend to simulate.
    pub backend: BackendKind,
    /// Memory channels (default: the paper's 4).
    pub channels: usize,
    /// Ranks (= accelerator units) per channel (default: the paper's 2).
    pub ranks_per_channel: usize,
    /// Merge-tree leaves per PU (default: the paper's 1024).
    pub leaves: usize,
    /// Entries per prefetch buffer (default: the paper's 32).
    pub prefetch_buffer_entries: usize,
    /// Stall-reducing prefetching enabled.
    pub prefetch: bool,
    /// Request coalescing enabled.
    pub coalescing: bool,
    /// PU clock in MHz.
    pub frequency_mhz: u64,
    /// Host worker threads for the engine (`None` = auto).
    pub threads: Option<usize>,
    /// Event-driven fast-forwarding (default on; results are identical
    /// either way).
    pub fast_forward: bool,
    /// DRAM substrate preset.
    pub dram: DramProfile,
    /// DRAM refresh enabled.
    pub refresh: bool,
    /// Counting instrumentation: when set, the outcome reports the number
    /// of trace events observed (simulated results are unaffected).
    pub trace_counting: bool,
}

impl JobSpec {
    /// A job with pinned defaults for the given matrix source.
    pub fn new(matrix: MatrixSource) -> Self {
        Self {
            matrix,
            scale: 1,
            seed: 1,
            kernel: JobKernel::Transpose,
            backend: BackendKind::Menda,
            channels: 4,
            ranks_per_channel: 2,
            leaves: 1024,
            prefetch_buffer_entries: 32,
            prefetch: true,
            coalescing: true,
            frequency_mhz: 800,
            threads: None,
            fast_forward: true,
            dram: DramProfile::Ddr4_2400,
            refresh: true,
            trace_counting: false,
        }
    }

    /// Parses a job description from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Parse`] for malformed JSON and
    /// [`JobError::Invalid`] for well-formed JSON that fails validation
    /// (unknown fields are rejected so typos cannot silently change a
    /// job's meaning).
    pub fn from_json_str(text: &str) -> Result<Self, JobError> {
        let value =
            parse(text).map_err(|(pos, msg)| JobError::Parse(format!("{msg} at byte {pos}")))?;
        Self::from_json(&value)
    }

    /// Parses a job description from an already-parsed JSON value.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::from_json_str`].
    pub fn from_json(value: &JsonValue) -> Result<Self, JobError> {
        let obj = Object::new(value)
            .ok_or_else(|| JobError::Parse("job must be a JSON object".into()))?;
        obj.check(|key| JOB_FIELDS.iter().any(|field| field.key == key))
            .map_err(|key| JobError::Invalid(format!("unknown field '{key}'")))?;
        // `matrix` is required and read first, so the placeholder never
        // survives a successful read.
        let mut spec = JobSpec::new(MatrixSource::Table3(String::new()));
        for field in JOB_FIELDS {
            (field.read)(&mut spec, obj, field.key)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every structural constraint the simulator's config types
    /// would otherwise `assert!` on, plus sanity caps that keep a single
    /// job's resource use bounded.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] naming the offending field.
    pub fn validate(&self) -> Result<(), JobError> {
        fn fail(msg: String) -> Result<(), JobError> {
            Err(JobError::Invalid(msg))
        }
        match &self.matrix {
            MatrixSource::Table3(name) => {
                if gen::table3_spec(name).is_none() {
                    return fail(format!(
                        "unknown Table 3 matrix '{name}' (expected N1-N8 or P1-P8)"
                    ));
                }
            }
            MatrixSource::Table4(name) => {
                if gen::suite_matrix(name).is_none() {
                    return fail(format!("unknown Table 4 matrix '{name}'"));
                }
            }
            MatrixSource::Uniform { dim, nnz }
            | MatrixSource::Rmat { dim, nnz }
            | MatrixSource::Banded { dim, nnz, .. } => {
                if *dim < 2 {
                    return fail(format!("matrix dim must be at least 2, got {dim}"));
                }
                if *dim > 1 << 28 {
                    return fail(format!("matrix dim {dim} exceeds the 2^28 cap"));
                }
                if *nnz == 0 {
                    return fail("matrix nnz must be positive".into());
                }
                if *nnz > 1 << 33 {
                    return fail(format!("matrix nnz {nnz} exceeds the 2^33 cap"));
                }
            }
        }
        if let MatrixSource::Banded {
            half_bandwidth,
            scatter,
            ..
        } = &self.matrix
        {
            if *half_bandwidth == 0 {
                return fail("half_bandwidth must be positive".into());
            }
            if !(0.0..=1.0).contains(scatter) {
                return fail(format!("scatter must be in [0, 1], got {scatter}"));
            }
        }
        if self.scale == 0 {
            return fail("scale must be positive".into());
        }
        if self.channels == 0 || self.channels > 64 {
            return fail(format!(
                "channels must be in [1, 64], got {}",
                self.channels
            ));
        }
        if self.ranks_per_channel == 0 || self.ranks_per_channel > 8 {
            return fail(format!(
                "ranks_per_channel must be in [1, 8], got {}",
                self.ranks_per_channel
            ));
        }
        if !self.leaves.is_power_of_two() || self.leaves < 2 || self.leaves > 65_536 {
            return fail(format!(
                "leaves must be a power of two in [2, 65536], got {}",
                self.leaves
            ));
        }
        if self.prefetch_buffer_entries == 0 || self.prefetch_buffer_entries > 4096 {
            return fail(format!(
                "prefetch_buffer_entries must be in [1, 4096], got {}",
                self.prefetch_buffer_entries
            ));
        }
        if self.frequency_mhz == 0 || self.frequency_mhz > 100_000 {
            return fail(format!(
                "frequency_mhz must be in [1, 100000], got {}",
                self.frequency_mhz
            ));
        }
        if let Some(t) = self.threads {
            if t == 0 || t > 1024 {
                return fail(format!("threads must be in [1, 1024], got {t}"));
            }
        }
        Ok(())
    }

    /// The job's admission-control cost: nonzeros it will simulate (the
    /// SpGEMM `B` operand doubles it). Servers compare this against their
    /// per-job size cap before queueing.
    pub fn cost_nnz(&self) -> u64 {
        let base = self.matrix.scaled_nnz(self.scale);
        match self.kernel {
            JobKernel::Spgemm => base.saturating_mul(2),
            _ => base,
        }
    }

    /// Builds the simulator configuration this job runs under.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] if validation fails.
    pub fn build_config(&self) -> Result<MendaConfig, JobError> {
        self.validate()?;
        let trace = if self.trace_counting {
            TraceConfig::counting()
        } else {
            TraceConfig::off()
        };
        // Pinned here, not left to the preset's `MENDA_TRACE` default: the
        // checkpoint layer refuses to snapshot a rank that traces.
        let mut dram = self.dram.config();
        dram.refresh_enabled = self.refresh;
        dram.trace = trace;
        let mut config = MendaConfig {
            pu: crate::PuConfig {
                frequency_mhz: self.frequency_mhz,
                leaves: self.leaves,
                prefetch_buffer_entries: self.prefetch_buffer_entries,
                stall_reducing_prefetch: self.prefetch,
                request_coalescing: self.coalescing,
                ..crate::PuConfig::paper()
            },
            channels: self.channels,
            ranks_per_channel: self.ranks_per_channel,
            dram,
            trace,
            ..MendaConfig::paper()
        };
        config.sim.fast_forward = self.fast_forward;
        config.sim.threads = self.threads;
        Ok(config)
    }

    /// Canonical JSON serialization with every field explicit, in fixed
    /// order. Parsing it back yields an equal spec.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = ObjectPrinter::open(&mut out);
        for field in JOB_FIELDS {
            (field.print)(self, field.key, &mut obj);
        }
        obj.close();
        out
    }

    /// Runs the job to completion.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Invalid`] if validation fails and
    /// [`JobError::Failed`] if the simulation panics (the panic is caught
    /// so a hosting daemon survives; this indicates a simulator bug).
    pub fn execute(&self) -> Result<JobOutcome, JobError> {
        match self.run(Straight)? {
            ControlFlow::Continue(outcome) => Ok(outcome),
            ControlFlow::Break(never) => match never {},
        }
    }

    /// Assembles a [`JobOutcome`] — the single construction site for
    /// every drive, so all of them produce byte-identical outcome JSON.
    #[allow(clippy::too_many_arguments)]
    fn finish_outcome(
        &self,
        (nrows, ncols, nnz): (usize, usize, usize),
        cycles: u64,
        seconds: f64,
        checksum: u64,
        out_nnz: u64,
        pu_stats: &[PuStats],
        trace_events: Option<u64>,
    ) -> JobOutcome {
        JobOutcome {
            job: self.to_json(),
            kernel: self.kernel.label(),
            backend: self.backend.label(),
            nrows,
            ncols,
            nnz,
            out_nnz,
            cycles,
            seconds,
            output_digest: checksum,
            pu: pu_stats.iter().map(PuSummary::from_stats).collect(),
            trace_events,
        }
    }

    /// Checkpoint-capable execution: runs the job until it finishes or
    /// every accelerator unit reaches device cycle `pause_at`, capturing
    /// a restorable snapshot in the latter case. A finished job's
    /// [`JobOutcome`] is byte-identical (JSON and digest included) to
    /// [`JobSpec::execute`]'s — the server preemption suite asserts that.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] for validation failures and for a traced
    /// job that pauses (its snapshot is refused), [`JobError::Failed`]
    /// for caught simulator panics.
    pub fn execute_to_cycle(&self, pause_at: u64) -> Result<JobProgress, JobError> {
        Ok(self
            .run(ToCycle {
                resume: None,
                pause_at: Some(pause_at),
            })?
            .into())
    }

    /// Restores a snapshot from [`JobSpec::execute_to_cycle`] (or from
    /// this method) and runs until completion or `pause_at`; `u64::MAX`
    /// runs to completion.
    ///
    /// # Errors
    ///
    /// [`JobError::Invalid`] when the snapshot is corrupt or was taken
    /// for a different job/configuration, plus
    /// [`JobSpec::execute_to_cycle`]'s failure modes.
    pub fn resume_to_cycle(&self, snapshot: &[u8], pause_at: u64) -> Result<JobProgress, JobError> {
        Ok(self
            .run(ToCycle {
                resume: Some(snapshot),
                pause_at: Some(pause_at),
            })?
            .into())
    }

    /// Preemptible execution: runs the job in quanta of `quantum` device
    /// cycles against live simulator state — no snapshot is encoded or
    /// restored between quanta, so traced jobs run in quanta too — and
    /// calls `at_boundary` with the boundary cycle each time the run
    /// pauses at one. Returns `Continue` with the finished
    /// [`JobOutcome`], byte-identical to [`JobSpec::execute`]'s (trace
    /// event count included), or `Break` with the boundary cycle at which
    /// `at_boundary` stopped the run.
    ///
    /// # Errors
    ///
    /// As [`JobSpec::execute`].
    pub fn execute_in_quanta(
        &self,
        quantum: u64,
        at_boundary: impl FnMut(u64) -> ControlFlow<()>,
    ) -> Result<ControlFlow<u64, JobOutcome>, JobError> {
        self.run(Quanta {
            quantum: quantum.max(1),
            at_boundary,
        })
    }

    /// The one run path: validates, then runs the job under `drive` on
    /// its backend inside `catch_unwind`, so a simulator panic fails the
    /// job instead of the process hosting it.
    fn run<D: Drive>(&self, drive: D) -> Result<ControlFlow<D::Stop, JobOutcome>, JobError> {
        let config = self.build_config()?;
        catch_unwind(AssertUnwindSafe(|| self.run_inner(&config, drive)))
            .map_err(|panic| JobError::Failed(panic_message(panic.as_ref())))?
    }

    fn run_inner<D: Drive>(
        &self,
        config: &MendaConfig,
        mut drive: D,
    ) -> Result<ControlFlow<D::Stop, JobOutcome>, JobError> {
        let matrix = self.matrix.generate(self.scale, self.seed)?;
        let dims = (matrix.nrows(), matrix.ncols(), matrix.nnz());
        let ended = match self.kernel {
            JobKernel::Transpose => {
                let spec =
                    TransposeSpec::new(&matrix, RowPartition::by_nnz(&matrix, config.num_pus()));
                dispatch(config, self.backend, &spec, &mut drive)?.map_continue(|r| {
                    let events = r.trace.as_ref().map(|t| t.sink.events);
                    let digest = transpose_digest(&r);
                    let out_nnz = r.output.nnz() as u64;
                    (r.cycles, r.seconds, digest, out_nnz, r.pu_stats, events)
                })
            }
            JobKernel::Spmv => {
                let x = derive_vector(dims.1, self.seed);
                let spec =
                    spmv::make_spec(&matrix, &x, spmv::SpmvOptions::default(), config.num_pus());
                dispatch(config, self.backend, &spec, &mut drive)?.map_continue(|r| {
                    let events = r.trace.as_ref().map(|t| t.sink.events);
                    let digest = spmv_digest(&r);
                    let out_nnz = r.y.len() as u64;
                    (r.cycles, r.seconds, digest, out_nnz, r.pu_stats, events)
                })
            }
            JobKernel::Spgemm => {
                let b = self
                    .matrix
                    .generate(self.scale, self.seed ^ 0x0053_4745_4D4D_u64)?;
                if matrix.ncols() != b.nrows() {
                    return Err(JobError::Invalid(format!(
                        "spgemm operands disagree: A is {}x{}, B is {}x{}",
                        dims.0,
                        dims.1,
                        b.nrows(),
                        b.ncols()
                    )));
                }
                let spec = spgemm::make_spec(&matrix, &b, config);
                dispatch(config, self.backend, &spec, &mut drive)?.map_continue(|r| {
                    let cycles = r.merge_cycles + r.multiply_cycles;
                    let digest = spgemm_digest(&r);
                    (
                        cycles,
                        r.seconds,
                        digest,
                        r.c.nnz() as u64,
                        r.pu_stats,
                        None,
                    )
                })
            }
        };
        Ok(ended.map_continue(
            |(cycles, seconds, checksum, out_nnz, pu_stats, trace_events)| {
                self.finish_outcome(
                    dims,
                    cycles,
                    seconds,
                    checksum,
                    out_nnz,
                    &pu_stats,
                    trace_events,
                )
            },
        ))
    }
}

/// Progress of a bounded job execution ([`JobSpec::execute_to_cycle`],
/// [`JobSpec::resume_to_cycle`]): the finished [`JobOutcome`], or the
/// snapshot that resumes the job.
pub type JobProgress = SnapshotOutcome<JobOutcome>;

/// One live launch advanced a quantum at a time, asking `at_boundary`
/// between quanta whether to go on; stops with the boundary cycle.
struct Quanta<F> {
    quantum: u64,
    at_boundary: F,
}

impl<F: FnMut(u64) -> ControlFlow<()>> Drive for Quanta<F> {
    type Stop = u64;

    fn drive<B: AcceleratorBackend, S: KernelSpec>(
        &mut self,
        engine: &Engine<'_, B>,
        spec: &S,
    ) -> Result<ControlFlow<u64, S::Output>, SnapshotError> {
        let mut launch = engine.start(spec);
        let mut pause_at = self.quantum;
        while !launch.advance(Some(pause_at))? {
            if (self.at_boundary)(pause_at).is_break() {
                return Ok(ControlFlow::Break(pause_at));
            }
            pause_at = pause_at.saturating_add(self.quantum);
        }
        launch.finish().map(ControlFlow::Continue)
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("unknown panic")
        .into()
}

/// Output digest of a finished transposition (shared by the batch and
/// preemptible paths).
fn transpose_digest(r: &crate::system::TransposeResult) -> u64 {
    let mut d = Digest::new();
    d.push_usize_slice(r.output.col_ptr());
    d.push_u32_slice(r.output.row_idx());
    d.push_f32_slice(r.output.values());
    d.finish()
}

/// Output digest of a finished SpMV.
fn spmv_digest(r: &spmv::SpmvResult) -> u64 {
    let mut d = Digest::new();
    d.push_f32_slice(&r.y);
    d.finish()
}

/// Output digest of a finished SpGEMM.
fn spgemm_digest(r: &spgemm::SpgemmResult) -> u64 {
    let mut d = Digest::new();
    d.push_usize_slice(r.c.row_ptr());
    d.push_u32_slice(r.c.col_idx());
    d.push_f32_slice(r.c.values());
    d.finish()
}

/// The wire fields of a [`JobSpec`], in canonical print order. Each line
/// names a spec field, its JSON key when that differs, and its codec;
/// [`JobSpec::from_json`]'s allowlist, its parse and [`JobSpec::to_json`]
/// all walk this one table. Reads run in this order too, so `matrix`
/// comes first.
const JOB_FIELDS: &[JobField] = job_fields![
    matrix: MATRIX,
    scale: USIZE,
    seed: U64,
    kernel: KERNEL,
    backend: BACKEND,
    channels: USIZE,
    ranks_per_channel: USIZE,
    leaves: USIZE,
    prefetch_buffer_entries: USIZE,
    prefetch: BOOL,
    coalescing: BOOL,
    frequency_mhz: U64,
    threads: THREADS,
    fast_forward: BOOL,
    dram: DRAM,
    refresh: BOOL,
    trace_counting as "trace": TRACE_MODE,
];

/// The matrix-source kinds: each entry gives the `source` label, the
/// variant, and its fields in print order with their codecs. Every field
/// is required unless its codec supplies a default.
const SOURCES: &[SourceKind] = &[
    source_kind!("table3" => Table3(name: NAME)),
    source_kind!("table4" => Table4(name: NAME)),
    source_kind!("uniform" => Uniform { dim: USIZE, nnz: USIZE }),
    source_kind!("rmat" => Rmat { dim: USIZE, nnz: USIZE }),
    source_kind!("banded" => Banded { dim: USIZE, nnz: USIZE, half_bandwidth: USIZE, scatter: SCATTER }),
];

const USIZE: Codec<usize> = Codec {
    read: |obj, key| obj.usize(key).map_err(JobError::Parse),
    print: |n, key, obj| obj.value(key, n),
};
const U64: Codec<u64> = Codec {
    read: |obj, key| obj.u64(key).map_err(JobError::Parse),
    print: |n, key, obj| obj.value(key, n),
};
const BOOL: Codec<bool> = Codec {
    read: |obj, key| obj.bool(key).map_err(JobError::Parse),
    print: |b, key, obj| obj.value(key, b),
};
/// `None` (automatic) prints as an absent key.
const THREADS: Codec<Option<usize>> = Codec {
    read: |obj, key| Ok(obj.usize(key).map_err(JobError::Parse)?.map(Some)),
    print: |threads, key, obj| {
        if let Some(n) = threads {
            obj.value(key, n);
        }
    },
};
const NAME: Codec<String> = Codec {
    read: |obj, key| Ok(obj.str(key).map_err(JobError::Parse)?.map(str::to_string)),
    print: |name, key, obj| obj.string(key, name),
};
/// Optional on the wire: an absent `scatter` reads as 0.
const SCATTER: Codec<f64> = Codec {
    read: |obj, key| Ok(Some(obj.f64(key).map_err(JobError::Parse)?.unwrap_or(0.0))),
    print: |x, key, obj| obj.value(key, x),
};
const MATRIX: Codec<MatrixSource> = Codec {
    read: |obj, key| match obj.get(key) {
        Some(value) => MatrixSource::from_json(value).map(Some),
        None => Err(JobError::Invalid(format!("missing required field '{key}'"))),
    },
    print: |matrix, key, obj| matrix.print(obj.member(key)),
};
const KERNEL: Codec<JobKernel> = labels!("kernel", JobKernel::ALL, JobKernel::label);
const BACKEND: Codec<BackendKind> = labels!("backend", BackendKind::ALL, BackendKind::label);
const DRAM: Codec<DramProfile> = labels!("dram profile", DramProfile::ALL, DramProfile::label);
const TRACE_MODE: Codec<bool> = labels!("trace mode", [false, true], trace_mode);

/// The label of a job's trace setting: counting instrumentation on or off.
fn trace_mode(counting: &bool) -> &'static str {
    ["off", "counting"][usize::from(*counting)]
}

/// How values of one type read from and print to the wire.
struct Codec<T> {
    /// Reads `key`; `Ok(None)` when it is absent.
    read: fn(Object<'_>, &str) -> Result<Option<T>, JobError>,
    /// Prints a value as member `key`; a value that prints nothing
    /// leaves its key out.
    print: fn(&T, &str, &mut ObjectPrinter<'_>),
}

/// A codec for values printed as their labels: `labels!(what, all,
/// label)` reads a label back as the value in `all` that `label` prints
/// that way; `what` names the set in the error for any other label.
macro_rules! labels {
    ($what:literal, $all:expr, $label:expr) => {
        Codec {
            read: |obj, key| {
                let Some(name) = obj.str(key).map_err(JobError::Parse)? else {
                    return Ok(None);
                };
                let found = $all.into_iter().find(|value| $label(value) == name);
                found.map(Some).ok_or_else(|| {
                    let expected = one_of($all.iter().map($label));
                    JobError::Invalid(format!("unknown {} '{name}' (expected {expected})", $what))
                })
            },
            print: |value, key, obj| obj.string(key, $label(value)),
        }
    };
}
use labels;

/// One [`JOB_FIELDS`] entry.
struct JobField {
    key: &'static str,
    /// Reads `key` into the spec when present.
    read: fn(&mut JobSpec, Object<'_>, &str) -> Result<(), JobError>,
    /// Prints the spec's field as member `key`.
    print: fn(&JobSpec, &str, &mut ObjectPrinter<'_>),
}

/// Builds [`JOB_FIELDS`]: `field: CODEC` or `field as "key": CODEC`.
macro_rules! job_fields {
    ($($field:ident $(as $key:literal)?: $codec:expr),* $(,)?) => {
        &[$(JobField {
            key: job_fields!(@key $field $($key)?),
            read: |spec, obj, key| {
                if let Some(value) = ($codec.read)(obj, key)? {
                    spec.$field = value;
                }
                Ok(())
            },
            print: |spec, key, obj| ($codec.print)(&spec.$field, key, obj),
        }),*]
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}
use job_fields;

/// One [`SOURCES`] entry.
struct SourceKind {
    label: &'static str,
    /// Checks the object's keys against this kind's and reads its fields.
    read: fn(Object<'_>) -> Result<MatrixSource, JobError>,
    /// Prints a source of this kind as a JSON object into the buffer;
    /// `false`, printing nothing, for a source of another kind.
    print: fn(&MatrixSource, &mut String) -> bool,
}

/// Builds a [`SOURCES`] entry from `"label" => Variant(field: CODEC)` or
/// `"label" => Variant { field: CODEC, .. }`; each field's JSON key is
/// its name.
macro_rules! source_kind {
    ($label:literal => $variant:ident ($($field:ident: $codec:expr),*)) => {
        source_kind!(@ $label, [MatrixSource::$variant($($field),*)], $($field: $codec),*)
    };
    ($label:literal => $variant:ident { $($field:ident: $codec:expr),* }) => {
        source_kind!(@ $label, [MatrixSource::$variant { $($field),* }], $($field: $codec),*)
    };
    (@ $label:literal, [$($shape:tt)*], $($field:ident: $codec:expr),*) => {
        SourceKind {
            label: $label,
            read: |obj| {
                obj.check(|key| key == "source" $(|| key == stringify!($field))*).map_err(|key| {
                    JobError::Invalid(format!("unknown matrix field '{key}' for source '{}'", $label))
                })?;
                $(let $field = ($codec.read)(obj, stringify!($field))?.ok_or_else(|| {
                    JobError::Invalid(format!(
                        "matrix source '{}' requires '{}'", $label, stringify!($field)
                    ))
                })?;)*
                Ok($($shape)*)
            },
            print: |matrix, out| match matrix {
                $($shape)* => {
                    let mut obj = ObjectPrinter::open(out);
                    obj.string("source", $label);
                    $(($codec.print)($field, stringify!($field), &mut obj);)*
                    obj.close();
                    true
                }
                _ => false,
            },
        }
    };
}
use source_kind;

impl MatrixSource {
    fn from_json(value: &JsonValue) -> Result<Self, JobError> {
        let obj = Object::new(value)
            .ok_or_else(|| JobError::Parse("'matrix' must be a JSON object".into()))?;
        let source = obj
            .str("source")
            .map_err(JobError::Parse)?
            .ok_or_else(|| JobError::Invalid("matrix is missing required field 'source'".into()))?;
        let Some(kind) = SOURCES.iter().find(|kind| kind.label == source) else {
            let expected = one_of(SOURCES.iter().map(|kind| kind.label));
            return Err(JobError::Invalid(format!(
                "unknown matrix source '{source}' (expected {expected})"
            )));
        };
        (kind.read)(obj)
    }

    fn print(&self, out: &mut String) {
        let printed = SOURCES.iter().any(|kind| (kind.print)(self, out));
        assert!(printed, "every matrix source has a kind");
    }
}

/// Prints one JSON object into a caller's buffer, member by member.
struct ObjectPrinter<'b> {
    out: &'b mut String,
    empty: bool,
}

impl<'b> ObjectPrinter<'b> {
    fn open(out: &'b mut String) -> Self {
        out.push('{');
        Self { out, empty: true }
    }

    /// Starts member `key` and returns the buffer its value goes into.
    fn member(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push_str(", ");
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\": ");
        self.out
    }

    /// Member `key` printed as `value` displays.
    fn value(&mut self, key: &str, value: impl fmt::Display) {
        let _ = write!(self.member(key), "{value}");
    }

    /// Member `key` as a JSON string literal holding `s`.
    fn string(&mut self, key: &str, s: &str) {
        let out = self.member(key);
        out.push('"');
        out.push_str(&escape(s));
        out.push('"');
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// Deterministic input vector for SpMV jobs, derived from the seed (the
/// wire and batch paths must agree on it exactly).
fn derive_vector(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 17) as f32 * 0.25 - 2.0
        })
        .collect()
}

/// FNV-1a 64-bit streaming digest (used for output checksums and the
/// outcome-JSON digest the differential suite compares).
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn push_usize_slice(&mut self, xs: &[usize]) {
        for &x in xs {
            self.push_bytes(&(x as u64).to_le_bytes());
        }
    }

    fn push_u32_slice(&mut self, xs: &[u32]) {
        for &x in xs {
            self.push_bytes(&x.to_le_bytes());
        }
    }

    fn push_f32_slice(&mut self, xs: &[f32]) {
        for &x in xs {
            self.push_bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Convenience: digest of a byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.push_bytes(bytes);
        d.finish()
    }
}

/// Per-PU roll-up included in a job outcome (a deterministic projection
/// of [`PuStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PuSummary {
    /// Total PU cycles.
    pub cycles: u64,
    /// Merge iterations executed.
    pub iterations: u64,
    /// Load block requests issued.
    pub loads_issued: u64,
    /// Loads merged by coalescing.
    pub loads_coalesced: u64,
    /// Store block requests issued.
    pub stores_issued: u64,
    /// DRAM row hits.
    pub row_hits: u64,
    /// DRAM row misses.
    pub row_misses: u64,
    /// DRAM row conflicts.
    pub row_conflicts: u64,
    /// DRAM read transactions.
    pub dram_reads: u64,
    /// DRAM write transactions.
    pub dram_writes: u64,
}

impl PuSummary {
    fn from_stats(s: &PuStats) -> Self {
        Self {
            cycles: s.total_cycles(),
            iterations: s.num_iterations() as u64,
            loads_issued: s.iterations.iter().map(|i| i.loads_issued).sum(),
            loads_coalesced: s.total_coalesced(),
            stores_issued: s.iterations.iter().map(|i| i.stores_issued).sum(),
            row_hits: s.iterations.iter().map(|i| i.dram_row_hits).sum(),
            row_misses: s.iterations.iter().map(|i| i.dram_row_misses).sum(),
            row_conflicts: s.iterations.iter().map(|i| i.dram_row_conflicts).sum(),
            dram_reads: s.dram.reads,
            dram_writes: s.dram.writes,
        }
    }

    fn print(&self, out: &mut String) {
        let mut obj = ObjectPrinter::open(out);
        obj.value("cycles", self.cycles);
        obj.value("iterations", self.iterations);
        obj.value("loads_issued", self.loads_issued);
        obj.value("loads_coalesced", self.loads_coalesced);
        obj.value("stores_issued", self.stores_issued);
        obj.value("row_hits", self.row_hits);
        obj.value("row_misses", self.row_misses);
        obj.value("row_conflicts", self.row_conflicts);
        obj.value("dram_reads", self.dram_reads);
        obj.value("dram_writes", self.dram_writes);
        obj.close();
    }
}

/// The result of executing a [`JobSpec`]: simulated statistics plus an
/// output digest, with a deterministic JSON form.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The canonical JSON of the spec that produced this outcome.
    pub job: String,
    /// Kernel label.
    pub kernel: &'static str,
    /// Backend label.
    pub backend: &'static str,
    /// Input rows.
    pub nrows: usize,
    /// Input columns.
    pub ncols: usize,
    /// Input nonzeros.
    pub nnz: usize,
    /// Output nonzeros (vector length for SpMV).
    pub out_nnz: u64,
    /// Simulated device cycles (max over units; both phases for SpGEMM).
    pub cycles: u64,
    /// Simulated seconds at the device clock.
    pub seconds: f64,
    /// FNV-1a digest of the kernel output's bit representation.
    pub output_digest: u64,
    /// Per-unit statistics roll-up.
    pub pu: Vec<PuSummary>,
    /// Total trace events, when counting instrumentation was requested.
    pub trace_events: Option<u64>,
}

impl JobOutcome {
    /// Deterministic JSON serialization: fixed key order, integer-exact
    /// fields, digests in fixed-width hex. Byte-identical across the
    /// batch CLI and the server for the same spec.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut obj = ObjectPrinter::open(&mut out);
        obj.member("job").push_str(&self.job);
        obj.string("kernel", self.kernel);
        obj.string("backend", self.backend);
        obj.value("nrows", self.nrows);
        obj.value("ncols", self.ncols);
        obj.value("nnz", self.nnz);
        obj.value("out_nnz", self.out_nnz);
        obj.value("cycles", self.cycles);
        obj.value("seconds", self.seconds);
        obj.value(
            "output_digest",
            format_args!("\"{:016x}\"", self.output_digest),
        );
        let pu = obj.member("pu");
        pu.push('[');
        for (i, summary) in self.pu.iter().enumerate() {
            if i > 0 {
                pu.push_str(", ");
            }
            summary.print(pu);
        }
        pu.push(']');
        if let Some(events) = self.trace_events {
            obj.value("trace_events", events);
        }
        obj.close();
        out
    }

    /// FNV-1a digest of [`JobOutcome::to_json`] — the compact
    /// bit-identity witness the server sends alongside results.
    pub fn digest(&self) -> u64 {
        Digest::of(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        let mut spec = JobSpec::new(MatrixSource::Uniform { dim: 64, nnz: 512 });
        spec.channels = 1;
        spec.ranks_per_channel = 2;
        spec.leaves = 16;
        spec.refresh = false;
        spec.threads = Some(1);
        spec
    }

    #[test]
    fn minimal_json_round_trips() {
        let spec = JobSpec::from_json_str(r#"{"matrix": {"source": "table3", "name": "N1"}}"#)
            .expect("parses");
        assert_eq!(spec.matrix, MatrixSource::Table3("N1".into()));
        assert_eq!(spec.kernel, JobKernel::Transpose);
        let round = JobSpec::from_json_str(&spec.to_json()).expect("canonical form parses");
        assert_eq!(spec, round);
    }

    #[test]
    fn full_json_round_trips() {
        let text = r#"{
            "matrix": {"source": "banded", "dim": 4096, "nnz": 65536,
                       "half_bandwidth": 32, "scatter": 0.25},
            "scale": 16, "seed": 42, "kernel": "spmv", "backend": "pim",
            "channels": 2, "ranks_per_channel": 1, "leaves": 64,
            "prefetch_buffer_entries": 8, "prefetch": false,
            "coalescing": false, "frequency_mhz": 600, "threads": 2,
            "fast_forward": false, "dram": "hbm2", "refresh": false,
            "trace": "counting"
        }"#;
        let spec = JobSpec::from_json_str(text).expect("parses");
        assert_eq!(spec.backend, BackendKind::Pim);
        assert_eq!(spec.dram, DramProfile::Hbm2);
        assert!(spec.trace_counting);
        let round = JobSpec::from_json_str(&spec.to_json()).expect("round trips");
        assert_eq!(spec, round);
    }

    #[test]
    fn rejects_malformed_and_unknown() {
        assert!(matches!(
            JobSpec::from_json_str("{not json"),
            Err(JobError::Parse(_))
        ));
        assert!(matches!(
            JobSpec::from_json_str("[1, 2]"),
            Err(JobError::Parse(_))
        ));
        let e = JobSpec::from_json_str(r#"{"matrix": {"source": "table3", "name": "Q9"}}"#)
            .unwrap_err();
        assert!(
            matches!(e, JobError::Invalid(ref m) if m.contains("Q9")),
            "{e}"
        );
        let e = JobSpec::from_json_str(
            r#"{"matrix": {"source": "table3", "name": "N1"}, "kernel": "sort"}"#,
        )
        .unwrap_err();
        assert!(
            matches!(e, JobError::Invalid(ref m) if m.contains("sort")),
            "{e}"
        );
        let e =
            JobSpec::from_json_str(r#"{"matrix": {"source": "table3", "name": "N1"}, "bogus": 1}"#)
                .unwrap_err();
        assert!(
            matches!(e, JobError::Invalid(ref m) if m.contains("bogus")),
            "{e}"
        );
        let e =
            JobSpec::from_json_str(r#"{"matrix": {"source": "table3", "name": "N1", "dim": 4}}"#)
                .unwrap_err();
        assert!(
            matches!(e, JobError::Invalid(ref m) if m.contains("dim")),
            "{e}"
        );
    }

    #[test]
    fn rejects_structural_violations_without_panicking() {
        let mut spec = tiny_spec();
        spec.leaves = 48; // not a power of two — PuConfig::validate would panic
        assert!(matches!(spec.validate(), Err(JobError::Invalid(_))));
        assert!(spec.execute().is_err());

        let mut spec = tiny_spec();
        spec.scale = 0;
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.channels = 0;
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.frequency_mhz = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn executes_transpose_and_verifies() {
        let spec = tiny_spec();
        let outcome = spec.execute().expect("runs");
        assert_eq!(outcome.kernel, "transpose");
        assert_eq!(outcome.nnz, 512);
        assert!(outcome.cycles > 0);
        // Digest matches a direct recomputation of the golden transpose.
        let m = spec.matrix.generate(1, spec.seed).unwrap();
        let csc = m.to_csc();
        let mut d = Digest::new();
        d.push_usize_slice(csc.col_ptr());
        d.push_u32_slice(csc.row_idx());
        d.push_f32_slice(csc.values());
        assert_eq!(outcome.output_digest, d.finish());
    }

    #[test]
    fn outcome_json_is_deterministic_and_thread_invariant() {
        let mut spec = tiny_spec();
        spec.kernel = JobKernel::Spmv;
        let a = spec.execute().expect("runs").to_json();
        let b = spec.execute().expect("runs again").to_json();
        assert_eq!(a, b);
        // Host thread count must not leak into the outcome.
        let mut threaded = spec.clone();
        threaded.threads = Some(2);
        let c = threaded.execute().expect("threaded run");
        // The job echo differs (threads field), but simulated results are
        // identical.
        assert_eq!(
            JobSpec::from_json_str(&spec.to_json())
                .unwrap()
                .execute()
                .unwrap()
                .output_digest,
            c.output_digest
        );
        assert_eq!(spec.execute().unwrap().cycles, c.cycles);
    }

    #[test]
    fn spgemm_executes_on_tiny_input() {
        let mut spec = tiny_spec();
        spec.matrix = MatrixSource::Uniform { dim: 32, nnz: 128 };
        spec.kernel = JobKernel::Spgemm;
        let outcome = spec.execute().expect("runs");
        assert_eq!(outcome.kernel, "spgemm");
        assert!(outcome.cycles > 0);
        assert!(outcome.out_nnz > 0);
    }

    #[test]
    fn quanta_match_straight_run_and_stop_at_a_boundary() {
        let mut spec = tiny_spec();
        spec.threads = Some(2);
        let straight = spec.execute().expect("straight");
        let mut boundaries = Vec::new();
        let ran = spec
            .execute_in_quanta(300, |cycle| {
                boundaries.push(cycle);
                ControlFlow::Continue(())
            })
            .expect("quanta");
        assert_eq!(ran, ControlFlow::Continue(straight.clone()));
        assert!(boundaries.len() >= 2, "job too short for several quanta");
        assert!(boundaries
            .iter()
            .enumerate()
            .all(|(i, &c)| c == 300 * (i as u64 + 1)));
        let stopped = spec
            .execute_in_quanta(300, |cycle| {
                if cycle >= 600 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .expect("stopped run");
        assert_eq!(stopped, ControlFlow::Break(600));
        let mut traced = spec.clone();
        traced.trace_counting = true;
        let traced_straight = traced.execute().expect("traced straight");
        assert!(traced_straight.trace_events.is_some());
        assert_eq!(
            traced.execute_in_quanta(300, |_| ControlFlow::Continue(())),
            Ok(ControlFlow::Continue(traced_straight))
        );
    }

    #[test]
    fn cost_reflects_scaled_size() {
        let mut spec = JobSpec::new(MatrixSource::Table3("N1".into()));
        spec.scale = 64;
        assert_eq!(spec.cost_nnz(), 3_435_973 / 64);
        spec.kernel = JobKernel::Spgemm;
        assert_eq!(spec.cost_nnz(), 2 * (3_435_973 / 64));
        assert_eq!(
            MatrixSource::Table3("nope".into()).scaled_nnz(1),
            0,
            "unknown names cost nothing (they are rejected by validate)"
        );
        // The cost is the generated matrix's size for every source kind,
        // clamps included: at 1/65536 N1 is 4x4 with 52 nonzeros asked
        // for, at 1/2^24 every named matrix is 2x2, and at 1/1024 the
        // 4096-row sources are 4x4 with 64 asked for.
        let check = |source: &MatrixSource, scale: usize| {
            let generated = source.generate(scale, 7).expect("known source");
            let want = generated.nnz() as u64;
            assert_eq!(source.scaled_nnz(scale), want, "{source:?} at 1/{scale}");
        };
        let tables = [
            MatrixSource::Table3("N1".into()),
            MatrixSource::Table3("P1".into()),
        ];
        let table4 = gen::TABLE4
            .iter()
            .map(|e| MatrixSource::Table4(e.name.into()));
        for source in tables.into_iter().chain(table4) {
            for scale in [4096, 65_536, 1 << 24] {
                check(&source, scale);
            }
        }
        let (dim, nnz) = (4096, 65_536);
        let scatter = 0.1;
        let half_bandwidth = 64;
        for source in [
            MatrixSource::Uniform { dim, nnz },
            MatrixSource::Rmat { dim, nnz },
            MatrixSource::Banded {
                dim,
                nnz,
                half_bandwidth,
                scatter,
            },
        ] {
            for scale in [1, 16, 1024] {
                check(&source, scale);
            }
        }
    }

    #[test]
    fn trace_counting_reports_events_without_perturbing_results() {
        let plain = tiny_spec();
        let mut traced = tiny_spec();
        traced.trace_counting = true;
        let p = plain.execute().expect("plain");
        let t = traced.execute().expect("traced");
        assert!(t.trace_events.is_some());
        assert_eq!(p.output_digest, t.output_digest);
        assert_eq!(p.cycles, t.cycles);
    }

    #[test]
    fn digest_is_stable_fnv() {
        assert_eq!(Digest::of(b""), 0xcbf2_9ce4_8422_2325);
        // Known FNV-1a vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(Digest::of(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
