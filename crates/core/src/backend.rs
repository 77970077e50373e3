//! The accelerator backend seam.
//!
//! The DRAM substrate already sweeps DDR4/HBM2/LPDDR4 configurations, but
//! until this module existed the accelerator side was hard-wired to the
//! MeNDA processing unit. [`AcceleratorBackend`] abstracts "the compute
//! device beside one DRAM rank" so the execution engine, the kernel specs
//! and the repro drivers are generic over the near-memory design being
//! simulated:
//!
//! * [`MendaBackend`] — the paper's merge-tree PU
//!   ([`crate::ProcessingUnit`]): prefetch buffers, coalescing queue and
//!   the multi-iteration merge-sort dataflow. The default; behavior is
//!   identical to the pre-seam engine.
//! * [`crate::pim::PimBackend`] — a SparseP-style UPMEM many-core PIM
//!   model: DPU-like cores with local scratchpads, 1D stream partitioning
//!   and a rank-level merge (arXiv:2204.00900).
//!
//! Both backends execute the same backend-agnostic [`PuJob`] descriptions
//! against the same cycle-level [`menda_dram`] rank model, report the same
//! [`PuResult`]/[`menda_dram::DramStats`] shapes and hand their
//! instrumentation off through the same [`TraceReport`] path, so every
//! kernel driver, statistic, energy model and trace consumer works
//! unchanged on either device.

use menda_dram::{Decoder, Encoder, Snap, SnapError};
use menda_trace::TraceReport;

use crate::config::MendaConfig;
use crate::job::{JobRun, PuJob};
use crate::pu::{ProcessingUnit, PuResult};

/// One near-memory accelerator design: a factory for per-rank compute
/// units plus the steps the execution engine drives each unit's job
/// through — start, advance, finish — and the serialization of an
/// in-flight job that checkpointing ([`crate::checkpoint`]) builds on.
///
/// Implementations must be `Sync` (the engine drives units on worker
/// threads) and deterministic: a unit's result must be a pure function of
/// the unit's configuration and the job, so serial and threaded engine
/// runs are bit-identical for any backend.
///
/// Every launch drives a unit the same way: `start_job`, then `advance`
/// until it returns `true`, then `finish_run`. Any sequence of `advance`
/// calls with increasing pause targets — with or without an intervening
/// `save_run`/`restore_run` round trip through fresh units — must produce
/// the same [`PuResult`], the same cycle counts, the same
/// [`menda_dram::DramStats`] and the same DRAM command log as a single
/// unbounded `advance`. The differential suite
/// `tests/checkpoint_equivalence.rs` enforces this for every backend.
///
/// Serialization only captures *dynamic* state; anything derivable from
/// the job and the configuration is recomputed at restore.
pub trait AcceleratorBackend: Sync {
    /// The per-rank device model (owns its rank's [`menda_dram`]
    /// simulator). Its [`Snap`] encoding is the unit-level dynamic state
    /// (cycle counters, request ids, the rank's DRAM simulator).
    type Unit: Send + Snap;
    /// An in-flight job on one unit: the dynamic state of its execution,
    /// reified so it can pause and serialize.
    type Run: Send;

    /// Stable backend identifier used in statistics, artifacts and trace
    /// labels (e.g. `"menda"`, `"pim"`).
    fn name(&self) -> &'static str;

    /// The device clock in MHz under `config`, used to convert cycle
    /// counts into seconds.
    fn frequency_mhz(&self, config: &MendaConfig) -> u64;

    /// Builds one unit beside one DRAM rank. Only the per-rank parts of
    /// `config` apply; system-level fields (channels, ranks) stay with
    /// the engine.
    fn build_unit(&self, config: &MendaConfig) -> Self::Unit;

    /// Starts (but does not advance) a job on `unit`.
    fn start_job(&self, unit: &Self::Unit, job: PuJob) -> Self::Run;

    /// Advances the run until it finishes (returns `true`) or the unit's
    /// job-relative cycle count reaches `pause_at` (returns `false`).
    /// `None` never pauses.
    fn advance(&self, unit: &mut Self::Unit, run: &mut Self::Run, pause_at: Option<u64>) -> bool;

    /// Consumes a finished run and produces its result.
    fn finish_run(&self, unit: &Self::Unit, run: Self::Run) -> PuResult;

    /// Ends instrumentation and hands the unit's trace report to the
    /// engine, which retags it with the unit's id
    /// ([`TraceReport::absorb_as`]). `None` when tracing is off.
    fn take_trace_report(&self, unit: &mut Self::Unit) -> Option<TraceReport>;

    /// Serializes the unit-level dynamic state.
    fn save_unit(&self, unit: &Self::Unit, enc: &mut Encoder) {
        unit.save(enc);
    }

    /// Restores state saved by [`AcceleratorBackend::save_unit`] into a
    /// freshly built unit of the same configuration.
    fn restore_unit(&self, unit: &mut Self::Unit, dec: &mut Decoder<'_>) -> Result<(), SnapError> {
        unit.load(dec)
    }

    /// Serializes the run-level dynamic state.
    fn save_run(&self, run: &Self::Run, enc: &mut Encoder);

    /// Rebuilds a run from `job` plus state saved by
    /// [`AcceleratorBackend::save_run`]. The unit must already have been
    /// restored ([`AcceleratorBackend::restore_unit`]) — run
    /// reconstruction may consult unit geometry.
    fn restore_run(
        &self,
        unit: &Self::Unit,
        job: PuJob,
        dec: &mut Decoder<'_>,
    ) -> Result<Self::Run, SnapError>;
}

/// The MeNDA merge-tree processing unit as a backend — the paper's design
/// and the default for every existing entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MendaBackend;

impl AcceleratorBackend for MendaBackend {
    type Unit = ProcessingUnit;
    type Run = JobRun;

    fn name(&self) -> &'static str {
        "menda"
    }

    fn frequency_mhz(&self, config: &MendaConfig) -> u64 {
        config.pu.frequency_mhz
    }

    fn build_unit(&self, config: &MendaConfig) -> ProcessingUnit {
        ProcessingUnit::new(config)
    }

    fn start_job(&self, unit: &ProcessingUnit, job: PuJob) -> JobRun {
        JobRun::new(unit.leaves() as u64, job)
    }

    fn advance(&self, unit: &mut ProcessingUnit, run: &mut JobRun, pause_at: Option<u64>) -> bool {
        run.run_until(unit, pause_at)
    }

    fn finish_run(&self, unit: &ProcessingUnit, run: JobRun) -> PuResult {
        run.finish(unit)
    }

    fn take_trace_report(&self, unit: &mut ProcessingUnit) -> Option<TraceReport> {
        unit.take_trace_report()
    }

    fn save_run(&self, run: &JobRun, enc: &mut Encoder) {
        run.save_run(enc);
    }

    fn restore_run(
        &self,
        unit: &ProcessingUnit,
        job: PuJob,
        dec: &mut Decoder<'_>,
    ) -> Result<JobRun, SnapError> {
        JobRun::restore(unit, job, dec)
    }
}

/// Runtime backend selection for drivers that pick the accelerator from
/// a flag or a job description rather than at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The MeNDA merge-tree PU ([`MendaBackend`]).
    Menda,
    /// The SparseP-style UPMEM PIM model ([`crate::pim::PimBackend`]).
    Pim,
}

impl BackendKind {
    /// All selectable backends, in presentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Menda, BackendKind::Pim];

    /// The backend's stable identifier (matches
    /// [`AcceleratorBackend::name`]).
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Menda => "menda",
            BackendKind::Pim => "pim",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menda_sparse::gen;

    #[test]
    fn menda_backend_matches_direct_pu_execution() {
        let cfg = MendaConfig::small_test();
        let m = gen::uniform(32, 256, 17);
        let backend = MendaBackend;
        let mut unit = backend.build_unit(&cfg);
        let mut run = backend.start_job(&unit, crate::job::transpose_job(m.clone(), 0));
        assert!(backend.advance(&mut unit, &mut run, None));
        let via_backend = backend.finish_run(&unit, run);
        let mut pu = ProcessingUnit::new(&cfg);
        let direct = pu.transpose(&m, 0);
        assert_eq!(via_backend, direct);
        assert_eq!(backend.name(), "menda");
        assert_eq!(backend.frequency_mhz(&cfg), cfg.pu.frequency_mhz);
    }

    #[test]
    fn backend_kind_labels_are_stable() {
        assert_eq!(BackendKind::Menda.label(), "menda");
        assert_eq!(BackendKind::Pim.label(), "pim");
        assert_eq!(BackendKind::ALL.len(), 2);
    }
}
