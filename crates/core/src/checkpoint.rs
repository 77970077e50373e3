//! Checkpoint/replay for simulator runs.
//!
//! A checkpoint captures the *complete dynamic state* of an in-flight
//! kernel launch — every unit's accelerator state (merge-tree PEs,
//! prefetch buffers, request queues, parked buckets, coalescing entries —
//! or the PIM phase machine), the per-rank DRAM simulators (bank/rank
//! timing shadow, controller queues, refresh counters, command-log
//! position, protocol-checker shadow), and the engine-level job progress —
//! into a self-describing binary container. Restoring the container into a
//! freshly built engine of the same configuration and running to
//! completion is **bit-identical** to the uninterrupted run: same outputs,
//! same cycle counts, same statistics, same DRAM command log. The
//! differential suite `tests/checkpoint_equivalence.rs` enforces that
//! contract for both backends, both execution disciplines (per-cycle
//! reference and event-driven fast-forward) and any host thread count.
//!
//! # Container format (version 1)
//!
//! ```text
//! magic    8 B   b"MENDACKP"
//! version  4 B   little-endian u32, currently 1
//! config   8 B   fnv1a fingerprint of the simulated-machine configuration
//! backend  var   length-prefixed backend name ("menda", "pim", ...)
//! units    var   unit count, then one length-prefixed blob per unit:
//!                  job fingerprint (8 B) + unit state + run state
//! checksum 8 B   fnv1a over all preceding bytes
//! ```
//!
//! The config fingerprint covers everything that shapes simulated
//! behavior (PU/PIM parameters, channel/rank topology, the full DRAM
//! organization/timing/policy) and deliberately excludes the host-side
//! knobs that provably don't ([`crate::SimOptions::threads`],
//! [`crate::SimOptions::fast_forward`], tracing): a checkpoint taken under
//! the per-cycle reference path restores into a fast-forwarding engine and
//! vice versa.
//!
//! Corrupt or mismatched snapshots are rejected with a typed
//! [`SnapshotError`] before any state is touched — restore never panics
//! and never partially applies. A *forged* snapshot (checksum recomputed
//! over tampered bytes) that decodes into an unreachable machine state is
//! caught one layer deeper: restored runs execute under `catch_unwind`,
//! so in-simulator assertions such as the PU deadlock watchdog surface as
//! [`SnapshotError::Corrupt`] instead of unwinding into the caller.
//!
//! Trace sinks are host-side observers, not simulated machine state, so
//! writing or reading snapshot bytes is refused while instrumentation is
//! on ([`SnapshotError::TracingActive`]). A traced launch may still pause
//! and continue in memory any number of times; its trace report equals
//! the uninterrupted run's.

use std::fmt;
use std::ops::ControlFlow;

use menda_dram::{fnv1a, Decoder, Encoder, MappingScheme, RowPolicy, Snap, SnapError};

use crate::backend::AcceleratorBackend;
use crate::config::MendaConfig;
use crate::engine::{fan_out, Drive, Engine, KernelSpec, LiveUnit};
use crate::job::job_fingerprint;

/// Magic bytes opening every snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MENDACKP";

/// Container format version written (and required) by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be produced or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with [`SNAPSHOT_MAGIC`] (or are shorter
    /// than a header).
    BadMagic,
    /// The container checksum does not match its payload — the snapshot
    /// was truncated or corrupted in storage/transit.
    ChecksumMismatch,
    /// The container is a [`SNAPSHOT_VERSION`] this build cannot read.
    BadVersion,
    /// The snapshot was taken under a different simulated-machine
    /// configuration (PU/PIM parameters, topology or DRAM config differ).
    ConfigMismatch,
    /// The snapshot was taken on a different accelerator backend.
    BackendMismatch,
    /// The snapshot was taken for a different kernel/input (per-unit job
    /// fingerprints differ).
    JobMismatch,
    /// The payload is structurally invalid (truncated fields, impossible
    /// values) even though the checksum matched.
    Corrupt,
    /// Writing or restoring a snapshot is refused while instrumentation
    /// is active — trace sinks are host-side observers, not simulated
    /// machine state.
    TracingActive,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a MeNDA snapshot (bad magic)"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::BadVersion => write!(f, "unsupported snapshot format version"),
            SnapshotError::ConfigMismatch => {
                write!(f, "snapshot was taken under a different configuration")
            }
            SnapshotError::BackendMismatch => {
                write!(f, "snapshot was taken on a different backend")
            }
            SnapshotError::JobMismatch => {
                write!(f, "snapshot was taken for a different kernel or input")
            }
            SnapshotError::Corrupt => write!(f, "snapshot payload is corrupt"),
            SnapshotError::TracingActive => {
                write!(f, "checkpointing is not supported while tracing is active")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(_: SnapError) -> Self {
        SnapshotError::Corrupt
    }
}

/// Fingerprint of the parts of a [`MendaConfig`] that shape simulated
/// behavior.
///
/// Includes the PU and PIM parameters, the channel/rank topology and the
/// complete per-rank DRAM configuration (organization, all timing
/// parameters, address mapping, queue depths, clock, refresh, row policy,
/// and the command-log/protocol-checker switches, which add serialized
/// state to the DRAM snapshot). Excludes host-simulation knobs that are
/// proven results-neutral — [`crate::SimOptions`] and tracing — so
/// checkpoints restore across `threads`/`fast_forward` settings.
pub fn config_fingerprint(config: &MendaConfig) -> u64 {
    let mut e = Encoder::new();
    let pu = &config.pu;
    e.u64(pu.frequency_mhz);
    e.usize(pu.leaves);
    e.usize(pu.fifo_entries);
    e.usize(pu.prefetch_buffer_entries);
    e.usize(pu.read_queue_entries);
    e.usize(pu.write_queue_entries);
    e.bool(pu.stall_reducing_prefetch);
    e.bool(pu.request_coalescing);
    e.usize(pu.output_buffer_bytes);
    e.usize(pu.pointer_read_depth);
    pu.host_read_interval.save(&mut e);
    let pim = &config.pim;
    e.u64(pim.frequency_mhz);
    e.usize(pim.dpus_per_rank);
    e.usize(pim.wram_bytes);
    e.u64(pim.elem_cpi);
    e.u64(pim.sort_cpi);
    e.u64(pim.merge_cpi);
    e.usize(config.channels);
    e.usize(config.ranks_per_channel);
    let d = &config.dram;
    e.usize(d.org.channels);
    e.usize(d.org.ranks);
    e.usize(d.org.bank_groups);
    e.usize(d.org.banks_per_group);
    e.usize(d.org.rows);
    e.usize(d.org.columns);
    e.usize(d.org.transaction_bytes);
    let t = &d.timing;
    [
        t.t_rc, t.t_rcd, t.t_cl, t.t_cwl, t.t_rp, t.t_ras, t.t_bl, t.t_ccd_s, t.t_ccd_l, t.t_rrd_s,
        t.t_rrd_l, t.t_faw, t.t_wtr, t.t_wr, t.t_rtp, t.t_refi, t.t_rfc,
    ]
    .save(&mut e);
    e.u8(match d.mapping {
        MappingScheme::RoBaRaCoCh => 0,
        MappingScheme::ChRaBaRoCo => 1,
        MappingScheme::RoCoBaRaCh => 2,
    });
    e.usize(d.read_queue);
    e.usize(d.write_queue);
    e.u64(d.clock_mhz);
    e.bool(d.refresh_enabled);
    e.bool(d.log_commands);
    e.bool(d.check_protocol);
    e.u8(match d.row_policy {
        RowPolicy::OpenPage => 0,
        RowPolicy::ClosedPage => 1,
    });
    fnv1a(e.as_bytes())
}

/// Outcome of a bounded checkpoint run: either the kernel finished before
/// the pause target, or it paused and serialized.
#[derive(Debug, Clone)]
pub enum SnapshotOutcome<T> {
    /// The kernel ran to completion; no snapshot was produced.
    Finished(T),
    /// The run paused at the target cycle; the container restores it.
    Paused(Vec<u8>),
}

impl<T> SnapshotOutcome<T> {
    /// The snapshot bytes, if the run paused.
    pub fn snapshot(self) -> Option<Vec<u8>> {
        match self {
            SnapshotOutcome::Paused(bytes) => Some(bytes),
            SnapshotOutcome::Finished(_) => None,
        }
    }

    /// The kernel output, if the run finished.
    pub fn finished(self) -> Option<T> {
        match self {
            SnapshotOutcome::Finished(out) => Some(out),
            SnapshotOutcome::Paused(_) => None,
        }
    }
}

impl<T> From<ControlFlow<Vec<u8>, T>> for SnapshotOutcome<T> {
    fn from(flow: ControlFlow<Vec<u8>, T>) -> Self {
        match flow {
            ControlFlow::Continue(out) => SnapshotOutcome::Finished(out),
            ControlFlow::Break(bytes) => SnapshotOutcome::Paused(bytes),
        }
    }
}

/// A kernel launch held live in memory: every unit with its in-flight
/// [`AcceleratorBackend::Run`], started fresh ([`Engine::start`]) or
/// restored from a snapshot container ([`Engine::restore`]).
///
/// A launch advances in steps ([`LiveLaunch::advance`]), can be captured
/// at any pause point ([`LiveLaunch::snapshot`]) and ends with
/// [`LiveLaunch::finish`]. Advancing in several steps is bit-identical to
/// one unbounded step, so a caller that runs a job in quanta keeps the
/// launch live between them and pays for no serialization at all; the
/// snapshot entry point ([`Engine::run_to_cycle`]) is a composition of
/// the same steps. Each unit goes through the same start, advance and
/// finish steps as in [`Engine::run`], which holds a unit only while it
/// runs.
///
/// A restored launch runs every step under `catch_unwind`: a forged
/// container (valid checksum over tampered bytes) can decode into a
/// machine state the simulator could never reach, and the in-simulator
/// assertions that then fire — the PU deadlock watchdog, slice bounds
/// during result assembly — surface as [`SnapshotError::Corrupt`] rather
/// than unwinding into the caller. Drop a launch once a step has failed.
pub(crate) struct LiveLaunch<'l, B: AcceleratorBackend, S: KernelSpec> {
    engine: &'l Engine<'l, B>,
    spec: &'l S,
    units: Vec<LiveUnit<B>>,
    restored: bool,
}

/// Runs one launch step, containing a panic as
/// [`SnapshotError::Corrupt`] when the launch was restored from bytes.
fn contain<T>(
    restored: bool,
    step: impl FnOnce() -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    if !restored {
        return step();
    }
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(step))
        .unwrap_or(Err(SnapshotError::Corrupt))
}

impl<'a, B: AcceleratorBackend> Engine<'a, B> {
    /// The engine's checkpoint entry: starts `spec` fresh, or restores
    /// `resume` — a snapshot of the same kernel launch on this backend
    /// and configuration — and runs until every unit finishes or reaches
    /// device cycle `pause_at` (`None` never pauses). If *any* unit
    /// paused, the whole launch is captured as a snapshot (finished units
    /// serialize their terminal state alongside). A finished run is
    /// bit-identical to [`Engine::run`]'s.
    ///
    /// Before touching any state, a restore revalidates the container,
    /// the configuration fingerprint, the backend and every per-unit job
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant describing why `resume` cannot be
    /// restored; [`SnapshotError::TracingActive`] when a snapshot would be
    /// read or written with instrumentation enabled.
    pub fn run_to_cycle<S: KernelSpec>(
        &self,
        spec: &S,
        resume: Option<&[u8]>,
        pause_at: Option<u64>,
    ) -> Result<SnapshotOutcome<S::Output>, SnapshotError> {
        ToCycle { resume, pause_at }
            .drive(self, spec)
            .map(Into::into)
    }

    /// Starts `spec` as a [`LiveLaunch`]: builds every unit and starts its
    /// job without advancing it.
    pub(crate) fn start<'l, S: KernelSpec>(&'l self, spec: &'l S) -> LiveLaunch<'l, B, S> {
        LiveLaunch {
            engine: self,
            spec,
            units: fan_out(self.unit_threads(), 0..self.config().num_pus(), |p| {
                self.start_unit(spec, p)
            }),
            restored: false,
        }
    }

    /// Restores a snapshot container into a [`LiveLaunch`] of `spec`,
    /// after validating the container envelope and every per-unit job
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] describing why the snapshot cannot be
    /// restored; no state is applied on error.
    pub(crate) fn restore<'l, S: KernelSpec>(
        &'l self,
        spec: &'l S,
        snapshot: &[u8],
    ) -> Result<LiveLaunch<'l, B, S>, SnapshotError> {
        self.refuse_tracing()?;
        let blobs = self.parse_container(snapshot, self.config().num_pus())?;
        // Each unit restores under its own net so a forged blob is
        // contained before it can unwind through a fan-out worker.
        let units = contain(true, || {
            fan_out(
                self.unit_threads(),
                blobs.into_iter().enumerate(),
                |(p, blob)| contain(true, || self.restore_unit(spec, p, blob)),
            )
            .into_iter()
            .collect()
        })?;
        Ok(LiveLaunch {
            engine: self,
            spec,
            units,
            restored: true,
        })
    }

    fn refuse_tracing(&self) -> Result<(), SnapshotError> {
        if self.config().trace.enabled() || self.config().dram.trace.enabled() {
            return Err(SnapshotError::TracingActive);
        }
        Ok(())
    }

    fn restore_unit<S: KernelSpec>(
        &self,
        spec: &S,
        p: usize,
        blob: &[u8],
    ) -> Result<LiveUnit<B>, SnapshotError> {
        let backend = self.backend();
        let mut unit = backend.build_unit(self.config());
        let job = spec.make_job(p);
        let mut dec = Decoder::new(blob);
        if dec.u64()? != job_fingerprint(&job) {
            return Err(SnapshotError::JobMismatch);
        }
        backend.restore_unit(&mut unit, &mut dec)?;
        let run = backend.restore_run(&unit, job, &mut dec)?;
        if !dec.is_empty() {
            return Err(SnapshotError::Corrupt);
        }
        Ok(LiveUnit {
            unit,
            run,
            done: false,
        })
    }

    /// Assembles the versioned container around per-unit payloads.
    fn encode_container(&self, unit_blobs: &[Vec<u8>]) -> Vec<u8> {
        let mut e = Encoder::new();
        SNAPSHOT_MAGIC.save(&mut e);
        e.u32(SNAPSHOT_VERSION);
        e.u64(config_fingerprint(self.config()));
        e.bytes(self.backend().name().as_bytes());
        e.usize(unit_blobs.len());
        for blob in unit_blobs {
            e.bytes(blob);
        }
        let checksum = fnv1a(e.as_bytes());
        e.u64(checksum);
        e.into_bytes()
    }

    /// Validates the container envelope and splits out the per-unit
    /// payloads. Precedence: magic, checksum, version, configuration,
    /// backend, then structure.
    fn parse_container<'s>(
        &self,
        bytes: &'s [u8],
        pus: usize,
    ) -> Result<Vec<&'s [u8]>, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // Magic + version + config fingerprint + trailing checksum.
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 + 8 {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let body = &bytes[..bytes.len() - 8];
        let mut tail = Decoder::new(&bytes[bytes.len() - 8..]);
        let stored = tail.u64().expect("8-byte tail");
        if fnv1a(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut dec = Decoder::new(&body[SNAPSHOT_MAGIC.len()..]);
        if dec.u32()? != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion);
        }
        if dec.u64()? != config_fingerprint(self.config()) {
            return Err(SnapshotError::ConfigMismatch);
        }
        if dec.bytes()? != self.backend().name().as_bytes() {
            return Err(SnapshotError::BackendMismatch);
        }
        let n = dec.len_capped(1)?;
        if n != pus {
            return Err(SnapshotError::ConfigMismatch);
        }
        let mut units = Vec::with_capacity(n);
        for _ in 0..n {
            units.push(dec.bytes()?);
        }
        if !dec.is_empty() {
            return Err(SnapshotError::Corrupt);
        }
        Ok(units)
    }
}

impl<'l, B: AcceleratorBackend, S: KernelSpec> LiveLaunch<'l, B, S> {
    /// Advances every unfinished unit until it finishes or its
    /// job-relative cycle count reaches `pause_at` (`None` runs to
    /// completion), serially or on the engine's scoped workers. Returns
    /// whether every unit has finished.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when a restored launch trips an
    /// in-simulator assertion.
    pub(crate) fn advance(&mut self, pause_at: Option<u64>) -> Result<bool, SnapshotError> {
        if self.units.iter().all(|u| u.done) {
            return Ok(true);
        }
        let (backend, restored) = (self.engine.backend(), self.restored);
        let units = self.units.iter_mut();
        contain(restored, || {
            fan_out(self.engine.unit_threads(), units, |u| {
                contain(restored, || Ok(u.advance(backend, pause_at)))
            })
            .into_iter()
            .try_fold(true, |all, done| Ok(all & done?))
        })
    }

    /// Serializes the launch into a snapshot container: per unit, the job
    /// fingerprint, the unit state and the run state (finished units
    /// serialize their terminal state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TracingActive`] when instrumentation is enabled;
    /// [`SnapshotError::Corrupt`] when a restored launch trips an
    /// in-simulator assertion.
    pub(crate) fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        self.engine.refuse_tracing()?;
        let backend = self.engine.backend();
        contain(self.restored, || {
            let blobs: Vec<Vec<u8>> = self
                .units
                .iter()
                .enumerate()
                .map(|(p, u)| {
                    let mut enc = Encoder::new();
                    enc.u64(job_fingerprint(&self.spec.make_job(p)));
                    backend.save_unit(&u.unit, &mut enc);
                    backend.save_run(&u.run, &mut enc);
                    enc.into_bytes()
                })
                .collect();
            Ok(self.engine.encode_container(&blobs))
        })
    }

    /// Runs every unit to completion, finishes each into its result and
    /// trace report, and assembles the kernel output.
    ///
    /// # Errors
    ///
    /// As [`LiveLaunch::advance`].
    pub(crate) fn finish(mut self) -> Result<S::Output, SnapshotError> {
        self.advance(None)?;
        let (engine, spec, restored) = (self.engine, self.spec, self.restored);
        let backend = engine.backend();
        let units = self.units;
        contain(restored, || {
            let finished = fan_out(engine.unit_threads(), units.into_iter(), |u| {
                u.finish(backend)
            });
            Ok(engine.assemble(spec, finished))
        })
    }
}

/// [`Engine::run_to_cycle`] as a [`Drive`]: starts a launch — or
/// restores it from `resume` — and runs it to `pause_at`, stopping with a
/// snapshot if it paused there.
pub(crate) struct ToCycle<'s> {
    pub(crate) resume: Option<&'s [u8]>,
    pub(crate) pause_at: Option<u64>,
}

impl Drive for ToCycle<'_> {
    type Stop = Vec<u8>;

    fn drive<B: AcceleratorBackend, S: KernelSpec>(
        &mut self,
        engine: &Engine<'_, B>,
        spec: &S,
    ) -> Result<ControlFlow<Vec<u8>, S::Output>, SnapshotError> {
        let mut launch = match self.resume {
            Some(bytes) => engine.restore(spec, bytes)?,
            None => engine.start(spec),
        };
        Ok(if launch.advance(self.pause_at)? {
            ControlFlow::Continue(launch.finish()?)
        } else {
            ControlFlow::Break(launch.snapshot()?)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MendaBackend;
    use crate::pim::PimBackend;
    use crate::system::TransposeSpec;
    use menda_sparse::partition::RowPartition;
    use menda_sparse::{gen, CsrMatrix};
    use menda_trace::TraceConfig;

    fn spec<'m>(m: &'m CsrMatrix, cfg: &MendaConfig) -> TransposeSpec<'m> {
        TransposeSpec::new(m, RowPartition::by_nnz(m, cfg.num_pus()))
    }

    #[test]
    fn fingerprint_ignores_host_knobs_but_tracks_machine() {
        let base = MendaConfig::small_test();
        let fp = config_fingerprint(&base);
        assert_eq!(
            fp,
            config_fingerprint(&base.clone().with_threads(7).with_fast_forward(false)),
            "host-simulation knobs must not change the fingerprint"
        );
        assert_ne!(fp, config_fingerprint(&base.clone().with_channels(2)));
        let mut other = base.clone();
        other.pu.leaves *= 2;
        assert_ne!(fp, config_fingerprint(&other));
        let mut dram = base.clone();
        dram.dram.timing.t_rcd += 1;
        assert_ne!(fp, config_fingerprint(&dram));
    }

    #[test]
    fn pause_restore_resume_matches_straight_run() {
        let cfg = MendaConfig::small_test();
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 11);
        let engine = Engine::new(&cfg);
        let direct = engine.run(&spec(&m, &cfg));
        let outcome = engine
            .run_to_cycle(&spec(&m, &cfg), None, Some(500))
            .unwrap();
        let snapshot = outcome.snapshot().expect("run must pause at cycle 500");
        let resumed = engine
            .run_to_cycle(&spec(&m, &cfg), Some(&snapshot), None)
            .unwrap()
            .finished()
            .expect("an unbounded resume finishes");
        assert_eq!(direct.output, resumed.output);
        assert_eq!(direct.cycles, resumed.cycles);
        assert_eq!(direct.pu_stats, resumed.pu_stats);
    }

    #[test]
    fn pim_backend_pause_resume_matches_straight_run() {
        let cfg = MendaConfig::small_test();
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 13);
        let engine = Engine::with_backend(&cfg, PimBackend);
        let direct = engine.run(&spec(&m, &cfg));
        let outcome = engine
            .run_to_cycle(&spec(&m, &cfg), None, Some(700))
            .unwrap();
        let snapshot = outcome.snapshot().expect("run must pause at cycle 700");
        let resumed = engine
            .run_to_cycle(&spec(&m, &cfg), Some(&snapshot), None)
            .unwrap()
            .finished()
            .expect("an unbounded resume finishes");
        assert_eq!(direct.output, resumed.output);
        assert_eq!(direct.cycles, resumed.cycles);
        assert_eq!(direct.pu_stats, resumed.pu_stats);
    }

    #[test]
    fn pause_past_completion_finishes() {
        let cfg = MendaConfig::small_test();
        let m = gen::uniform(24, 96, 3);
        let engine = Engine::new(&cfg);
        let direct = engine.run(&spec(&m, &cfg));
        let outcome = engine
            .run_to_cycle(&spec(&m, &cfg), None, Some(u64::MAX))
            .unwrap();
        let finished = outcome.finished().expect("must run to completion");
        assert_eq!(direct.output, finished.output);
        assert_eq!(direct.cycles, finished.cycles);
    }

    #[test]
    fn tracing_refuses_checkpointing() {
        let cfg = MendaConfig::small_test().with_trace(TraceConfig::counting());
        let m = gen::uniform(16, 64, 5);
        let engine = Engine::new(&cfg);
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m, &cfg), None, Some(10))
                .unwrap_err(),
            SnapshotError::TracingActive
        );
    }

    /// A traced launch keeps its trace sinks live across pauses, so the
    /// full trace report of a launch advanced in quanta equals a traced
    /// straight run's, for both sinks, both backends and both paths.
    #[test]
    fn traced_launch_in_quanta_matches_straight_run() {
        let m = gen::rmat(256, 4096, gen::RmatParams::PAPER, 19);
        for trace in [TraceConfig::counting(), TraceConfig::chrome()] {
            for fast in [false, true] {
                let cfg = MendaConfig::small_test()
                    .with_threads(1)
                    .with_fast_forward(fast)
                    .with_trace(trace);
                let what = format!("{:?} ff={fast}", trace.mode);
                traced_quanta(&Engine::new(&cfg), &m, &format!("menda {what}"));
                traced_quanta(
                    &Engine::with_backend(&cfg, PimBackend),
                    &m,
                    &format!("pim {what}"),
                );
            }
        }
    }

    fn traced_quanta<B: AcceleratorBackend>(engine: &Engine<'_, B>, m: &CsrMatrix, what: &str) {
        let spec = spec(m, engine.config());
        let straight = engine.run(&spec);
        assert!(straight.trace.is_some(), "{what}: straight run is untraced");
        for quantum in [1, 37, 300, 5000] {
            let mut launch = engine.start(&spec);
            let mut pause_at = quantum;
            while !launch.advance(Some(pause_at)).unwrap() {
                pause_at += quantum;
            }
            assert!(pause_at > quantum, "{what}: quantum {quantum} never paused");
            // `TransposeResult` equality covers the whole trace report.
            let stepped = launch.finish().unwrap();
            assert_eq!(stepped, straight, "{what}: quantum {quantum}");
        }
    }

    #[test]
    fn container_rejects_tampering_with_typed_errors() {
        let cfg = MendaConfig::small_test();
        let m = gen::uniform(48, 384, 9);
        let engine = Engine::<MendaBackend>::new(&cfg);
        let snapshot = engine
            .run_to_cycle(&spec(&m, &cfg), None, Some(300))
            .unwrap()
            .snapshot()
            .unwrap();

        // Bad magic.
        let mut bad = snapshot.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m, &cfg), Some(&bad), None)
                .unwrap_err(),
            SnapshotError::BadMagic
        );
        // Any mid-payload bit flip trips the checksum.
        let mut bad = snapshot.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m, &cfg), Some(&bad), None)
                .unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        // Truncation trips the checksum too.
        let short = &snapshot[..snapshot.len() - 9];
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m, &cfg), Some(short), None)
                .unwrap_err(),
            SnapshotError::ChecksumMismatch
        );
        // A version bump with a refreshed checksum is rejected as such.
        let mut bad = snapshot.clone();
        bad[8] = 0xfe;
        refresh_checksum(&mut bad);
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m, &cfg), Some(&bad), None)
                .unwrap_err(),
            SnapshotError::BadVersion
        );
        // The untouched snapshot still restores.
        assert!(engine
            .run_to_cycle(&spec(&m, &cfg), Some(&snapshot), None)
            .is_ok());
    }

    #[test]
    fn config_and_job_mismatches_are_detected() {
        let cfg = MendaConfig::small_test();
        let m = gen::uniform(48, 384, 9);
        let engine = Engine::new(&cfg);
        let snapshot = engine
            .run_to_cycle(&spec(&m, &cfg), None, Some(300))
            .unwrap()
            .snapshot()
            .unwrap();

        // Different machine configuration.
        let other_cfg = MendaConfig::small_test().with_ranks_per_channel(4);
        let other_engine = Engine::new(&other_cfg);
        assert_eq!(
            other_engine
                .run_to_cycle(&spec(&m, &other_cfg), Some(&snapshot), None)
                .unwrap_err(),
            SnapshotError::ConfigMismatch
        );
        // Same configuration, different input matrix.
        let m2 = gen::uniform(48, 384, 10);
        assert_eq!(
            engine
                .run_to_cycle(&spec(&m2, &cfg), Some(&snapshot), None)
                .unwrap_err(),
            SnapshotError::JobMismatch
        );
    }

    /// Recomputes the trailing checksum after deliberate header edits.
    fn refresh_checksum(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = fnv1a(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }
}
