//! Restore-anywhere differential suite for checkpoint/replay (ISSUE 9).
//!
//! The contract under test: pausing a kernel launch at *any* device
//! cycle, serializing the complete simulator state into the snapshot
//! container, restoring it into freshly built units, and running to
//! completion is **bit-identical** to the uninterrupted run — same
//! outputs, same cycle counts, same per-PU statistics (which embed the
//! DRAM command/row-hit counters), and the same DRAM command log, entry
//! for entry.
//!
//! Coverage axes, mirroring the house differential style
//! (`fast_forward_equivalence.rs`, `backend_equivalence.rs`):
//!
//! * both backends — the MeNDA merge-tree PU and the SparseP-style PIM
//!   model,
//! * both execution disciplines — per-cycle reference and event-driven
//!   fast-forward — including *cross-restores* (snapshot under one,
//!   resume under the other: the config fingerprint deliberately
//!   excludes host-simulation knobs),
//! * serial and threaded engine execution, again cross-restored,
//! * adversarial pause cycles: 0, 1, mid-burst, around the refresh
//!   interval (mid-refresh), just before completion, at completion, and
//!   past completion,
//! * seeded xoshiro-driven random pause cycles per (kernel × backend ×
//!   config) combo — the ISSUE's property-fuzz satellite — with the
//!   SpMV/SpGEMM kernels driven through the `JobSpec` preemption seam,
//! * the live DDR4 protocol checker forced on throughout, so every
//!   restored run is also revalidated against the JEDEC timing rules.

use menda_core::{
    transpose_job, AcceleratorBackend, BackendKind, JobKernel, JobProgress, JobSpec, MatrixSource,
    MendaBackend, MendaConfig, MendaSystem, PimBackend, TransposeResult,
};
use menda_sparse::gen;
use menda_sparse::partition::RowPartition;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

type Engine<'a, B> = menda_core::Engine<'a, B>;
type TransposeSpec<'m> = menda_core::TransposeSpec<'m>;

/// Runs `f` with the live protocol checker forced on (equivalent to
/// `MENDA_CHECK_PROTOCOL=1`), restoring environment-driven behaviour
/// once the last concurrent caller is done, even if `f` panics. The
/// default is process-wide and tests run in parallel, so an early
/// restore would switch the checker off under another test — and change
/// the configuration fingerprint between a job's pause and its resume.
fn with_checker<R>(f: impl FnOnce() -> R) -> R {
    static ACTIVE: std::sync::Mutex<usize> = std::sync::Mutex::new(0);
    fn active() -> std::sync::MutexGuard<'static, usize> {
        ACTIVE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            let mut n = active();
            *n -= 1;
            if *n == 0 {
                menda_dram::set_check_protocol_default(None);
            }
        }
    }
    *active() += 1;
    menda_dram::set_check_protocol_default(Some(true));
    let _reset = Reset;
    f()
}

fn config(threads: usize, fast: bool) -> MendaConfig {
    MendaConfig::small_test()
        .with_threads(threads)
        .with_fast_forward(fast)
}

fn spec<'m>(m: &'m CsrMatrix, cfg: &MendaConfig) -> TransposeSpec<'m> {
    TransposeSpec::new(m, RowPartition::by_nnz(m, cfg.num_pus()))
}

fn assert_identical(direct: &TransposeResult, resumed: &TransposeResult, what: &str) {
    assert_eq!(direct.output, resumed.output, "{what}: outputs differ");
    assert_eq!(direct.cycles, resumed.cycles, "{what}: cycles differ");
    assert_eq!(
        direct.pu_stats, resumed.pu_stats,
        "{what}: per-PU stats (incl. DramStats) differ"
    );
    assert_eq!(direct.seconds, resumed.seconds, "{what}: seconds differ");
    assert_eq!(
        direct.partition, resumed.partition,
        "{what}: partitions differ"
    );
}

/// Snapshot `m`'s transposition at `pause_at` under `cfg_pause`, restore
/// under `cfg_resume`, and assert the completed run is bit-identical to
/// `direct`. Quietly verifies completion instead when the run finishes
/// before the pause target.
fn pause_restore_check<B: AcceleratorBackend + Copy>(
    backend: B,
    m: &CsrMatrix,
    cfg_pause: &MendaConfig,
    cfg_resume: &MendaConfig,
    direct: &TransposeResult,
    pause_at: u64,
    what: &str,
) {
    let paused = Engine::with_backend(cfg_pause, backend)
        .run_to_cycle(&spec(m, cfg_pause), pause_at)
        .unwrap_or_else(|e| panic!("{what}: pause at {pause_at} failed: {e}"));
    match paused.snapshot() {
        Some(snapshot) => {
            let resumed = Engine::with_backend(cfg_resume, backend)
                .resume(&spec(m, cfg_resume), &snapshot)
                .unwrap_or_else(|e| panic!("{what}: resume from {pause_at} failed: {e}"));
            assert_identical(direct, &resumed, &format!("{what} @ {pause_at}"));
        }
        None => {
            // Ran to completion before the pause target; the bounded run
            // itself must still match the straight-through run.
            let finished = Engine::with_backend(cfg_pause, backend)
                .run_to_cycle(&spec(m, cfg_pause), pause_at)
                .unwrap()
                .finished()
                .expect("checked paused above");
            assert_identical(
                direct,
                &finished,
                &format!("{what} @ {pause_at} (finished)"),
            );
        }
    }
}

/// Adversarial pause targets for a run of `total` device cycles under
/// `cfg`: boundary cycles, mid-burst offsets, the refresh interval
/// neighbourhood (in device clocks), and completion edges.
fn adversarial_cycles(cfg: &MendaConfig, total: u64) -> Vec<u64> {
    let (num, den) = (cfg.dram.clock_mhz, cfg.pu.frequency_mhz);
    // t_refi is in DRAM bus cycles; convert to device cycles.
    let refi_dev = cfg.dram.timing.t_refi * den / num.max(1);
    let mut cycles = vec![
        0,
        1,
        2,
        3,
        5,
        17,
        63,
        64,
        65,
        refi_dev.saturating_sub(1),
        refi_dev,
        refi_dev + 1,
        total / 2,
        total.saturating_sub(2),
        total.saturating_sub(1),
        total,
        total + 10,
    ];
    cycles.retain(|&c| c <= total + 10);
    cycles.dedup();
    cycles
}

#[test]
fn menda_restores_anywhere_on_both_paths() {
    with_checker(|| {
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 41);
        for fast in [false, true] {
            let cfg = config(1, fast);
            let direct = MendaSystem::new(cfg.clone()).transpose(&m);
            assert_eq!(direct.output, m.to_csc(), "direct run wrong");
            for pause_at in adversarial_cycles(&cfg, direct.cycles) {
                pause_restore_check(
                    MendaBackend,
                    &m,
                    &cfg,
                    &cfg,
                    &direct,
                    pause_at,
                    &format!("menda ff={fast}"),
                );
            }
        }
    });
}

#[test]
fn pim_restores_anywhere_on_both_paths() {
    with_checker(|| {
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 43);
        for fast in [false, true] {
            let cfg = config(1, fast);
            let direct = MendaSystem::new(cfg.clone()).transpose_with(&m, BackendKind::Pim);
            assert_eq!(direct.output, m.to_csc(), "direct run wrong");
            for pause_at in adversarial_cycles(&cfg, direct.cycles) {
                pause_restore_check(
                    PimBackend,
                    &m,
                    &cfg,
                    &cfg,
                    &direct,
                    pause_at,
                    &format!("pim ff={fast}"),
                );
            }
        }
    });
}

/// A snapshot taken under the per-cycle reference path restores into a
/// fast-forwarding engine (and vice versa) — the config fingerprint
/// excludes host-simulation knobs precisely because the two paths are
/// proven bit-identical.
#[test]
fn snapshots_cross_restore_between_ref_and_ff() {
    with_checker(|| {
        let m = gen::banded(96, 960, 10, 0.2, 47);
        let cfg_ref = config(1, false);
        let cfg_ff = config(1, true);
        let direct = MendaSystem::new(cfg_ref.clone()).transpose(&m);
        for pause_at in [1, 333, direct.cycles / 2, direct.cycles.saturating_sub(1)] {
            pause_restore_check(
                MendaBackend,
                &m,
                &cfg_ref,
                &cfg_ff,
                &direct,
                pause_at,
                "menda ref→ff",
            );
            pause_restore_check(
                MendaBackend,
                &m,
                &cfg_ff,
                &cfg_ref,
                &direct,
                pause_at,
                "menda ff→ref",
            );
        }
        // The PIM backend cross-restores too, against its own timing.
        let pim_direct = MendaSystem::new(cfg_ref.clone()).transpose_with(&m, BackendKind::Pim);
        for pause_at in [1, 333, pim_direct.cycles / 2] {
            pause_restore_check(
                PimBackend,
                &m,
                &cfg_ref,
                &cfg_ff,
                &pim_direct,
                pause_at,
                "pim ref→ff",
            );
            pause_restore_check(
                PimBackend,
                &m,
                &cfg_ff,
                &cfg_ref,
                &pim_direct,
                pause_at,
                "pim ff→ref",
            );
        }
    });
}

/// Serial and threaded engines snapshot and restore interchangeably.
#[test]
fn snapshots_cross_restore_between_serial_and_threaded() {
    with_checker(|| {
        let m = gen::uniform(128, 1024, 53);
        let serial = config(1, true);
        let threaded = config(4, true);
        let direct = MendaSystem::new(serial.clone()).transpose(&m);
        for pause_at in [77, direct.cycles / 3, direct.cycles.saturating_sub(1)] {
            pause_restore_check(
                MendaBackend,
                &m,
                &serial,
                &threaded,
                &direct,
                pause_at,
                "serial→threaded",
            );
            pause_restore_check(
                MendaBackend,
                &m,
                &threaded,
                &serial,
                &direct,
                pause_at,
                "threaded→serial",
            );
        }
    });
}

/// Chained `resume_to_cycle` hops — pause, restore, pause again — land
/// on the same terminal state as the uninterrupted run.
#[test]
fn chained_pause_hops_match_straight_run() {
    with_checker(|| {
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 59);
        let cfg = config(1, true);
        let direct = MendaSystem::new(cfg.clone()).transpose(&m);
        for backend_kind in BackendKind::ALL {
            let resumed = match backend_kind {
                BackendKind::Menda => chained_hops(MendaBackend, &m, &cfg, 170),
                BackendKind::Pim => chained_hops(PimBackend, &m, &cfg, 170),
            };
            if backend_kind == BackendKind::Menda {
                assert_identical(&direct, &resumed, "chained hops (menda)");
            } else {
                // The PIM backend has its own timing; compare against its
                // own straight-through run instead.
                let pim_direct = MendaSystem::new(cfg.clone()).transpose_with(&m, BackendKind::Pim);
                assert_identical(&pim_direct, &resumed, "chained hops (pim)");
            }
        }
    });
}

fn chained_hops<B: AcceleratorBackend + Copy>(
    backend: B,
    m: &CsrMatrix,
    cfg: &MendaConfig,
    quantum: u64,
) -> TransposeResult {
    let engine = Engine::with_backend(cfg, backend);
    let mut pause_at = quantum;
    let mut outcome = engine
        .run_to_cycle(&spec(m, cfg), pause_at)
        .expect("first hop");
    let mut hops = 0u32;
    loop {
        match outcome {
            menda_core::SnapshotOutcome::Finished(result) => {
                assert!(hops >= 2, "quantum too coarse to exercise chained hops");
                return result;
            }
            menda_core::SnapshotOutcome::Paused(snapshot) => {
                hops += 1;
                pause_at += quantum;
                outcome = engine
                    .resume_to_cycle(&spec(m, cfg), &snapshot, pause_at)
                    .expect("resume hop");
            }
        }
    }
}

/// A zero-progress hop — `resume_to_cycle` onto the cycle the snapshot
/// already paused at — restores and re-captures the launch without
/// simulating, so it must hand back the snapshot byte for byte. Covers
/// both backends, both execution paths and serial/threaded engines.
#[test]
fn zero_progress_hop_returns_identical_snapshot() {
    with_checker(|| {
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 73);
        for (threads, fast) in [(1, false), (1, true), (2, true)] {
            let cfg = config(threads, fast);
            let what = format!("threads={threads} ff={fast}");
            zero_progress_hops(MendaBackend, &m, &cfg, &format!("menda {what}"));
            zero_progress_hops(PimBackend, &m, &cfg, &format!("pim {what}"));
        }
    });
}

fn zero_progress_hops<B: AcceleratorBackend + Copy>(
    backend: B,
    m: &CsrMatrix,
    cfg: &MendaConfig,
    what: &str,
) {
    let engine = Engine::with_backend(cfg, backend);
    let total = engine
        .run_to_cycle(&spec(m, cfg), u64::MAX)
        .expect("straight run")
        .finished()
        .expect("unbounded pause target finishes")
        .cycles;
    for pause_at in [1, total / 3, total / 2, total.saturating_sub(1)] {
        let snapshot = engine
            .run_to_cycle(&spec(m, cfg), pause_at)
            .expect("pause")
            .snapshot()
            .unwrap_or_else(|| panic!("{what}: run finished before cycle {pause_at}"));
        let again = engine
            .resume_to_cycle(&spec(m, cfg), &snapshot, pause_at)
            .expect("zero-progress hop")
            .snapshot()
            .unwrap_or_else(|| panic!("{what}: zero-progress hop @ {pause_at} finished"));
        assert!(
            again == snapshot,
            "{what}: zero-progress hop @ {pause_at} changed the snapshot"
        );
    }
}

/// The strongest signal: the *DRAM command log* — every ACT/PRE/RD/WR/REF
/// with its issue cycle and full coordinates — is identical entry for
/// entry across a pause/restore round trip. Driven at the unit level
/// through the public `AcceleratorBackend` seam (the engine does not
/// expose per-rank logs).
#[test]
fn dram_command_logs_survive_restore_bit_identically() {
    with_checker(|| {
        let m = gen::rmat(80, 640, gen::RmatParams::PAPER, 61);
        let mut cfg = MendaConfig::small_test()
            .with_channels(1)
            .with_ranks_per_channel(1)
            .with_fast_forward(true);
        cfg.dram.log_commands = true;
        cfg.dram.refresh_enabled = true;

        // MeNDA unit.
        {
            let backend = MendaBackend;
            let job = transpose_job(m.clone(), 0);
            let mut straight_unit = backend.build_unit(&cfg);
            let mut run = backend.start_job(&straight_unit, job.clone());
            assert!(backend.advance(&mut straight_unit, &mut run, None));
            let straight = backend.finish_run(&straight_unit, run);

            for pause_at in [1u64, 100, 1000] {
                let mut unit = backend.build_unit(&cfg);
                let mut run = backend.start_job(&unit, job.clone());
                let done = backend.advance(&mut unit, &mut run, Some(pause_at));
                let (mut unit, mut run) = if done {
                    (unit, run)
                } else {
                    // Serialize, rebuild from scratch, restore.
                    let mut enc = menda_dram::Encoder::new();
                    backend.save_unit(&unit, &mut enc);
                    backend.save_run(&run, &mut enc);
                    let bytes = enc.into_bytes();
                    let mut dec = menda_dram::Decoder::new(&bytes);
                    let mut fresh = backend.build_unit(&cfg);
                    backend.restore_unit(&mut fresh, &mut dec).expect("unit");
                    let run = backend
                        .restore_run(&fresh, job.clone(), &mut dec)
                        .expect("run");
                    (fresh, run)
                };
                assert!(backend.advance(&mut unit, &mut run, None));
                let resumed = backend.finish_run(&unit, run);
                assert_eq!(resumed, straight, "menda result diverged @ {pause_at}");
                assert_eq!(
                    unit.dram_command_log(),
                    straight_unit.dram_command_log(),
                    "menda DRAM command log diverged @ {pause_at}"
                );
            }
        }

        // PIM unit.
        {
            let backend = PimBackend;
            let job = transpose_job(m.clone(), 0);
            let mut straight_unit = backend.build_unit(&cfg);
            let mut run = backend.start_job(&straight_unit, job.clone());
            assert!(backend.advance(&mut straight_unit, &mut run, None));
            let straight = backend.finish_run(&straight_unit, run);

            for pause_at in [1u64, 100, 1000] {
                let mut unit = backend.build_unit(&cfg);
                let mut run = backend.start_job(&unit, job.clone());
                let done = backend.advance(&mut unit, &mut run, Some(pause_at));
                let (mut unit, mut run) = if done {
                    (unit, run)
                } else {
                    let mut enc = menda_dram::Encoder::new();
                    backend.save_unit(&unit, &mut enc);
                    backend.save_run(&run, &mut enc);
                    let bytes = enc.into_bytes();
                    let mut dec = menda_dram::Decoder::new(&bytes);
                    let mut fresh = backend.build_unit(&cfg);
                    backend.restore_unit(&mut fresh, &mut dec).expect("unit");
                    let run = backend
                        .restore_run(&fresh, job.clone(), &mut dec)
                        .expect("run");
                    (fresh, run)
                };
                assert!(backend.advance(&mut unit, &mut run, None));
                let resumed = backend.finish_run(&unit, run);
                assert_eq!(resumed, straight, "pim result diverged @ {pause_at}");
                assert_eq!(
                    unit.dram_command_log(),
                    straight_unit.dram_command_log(),
                    "pim DRAM command log diverged @ {pause_at}"
                );
            }
        }
    });
}

/// ISSUE 9 satellite: seeded xoshiro property fuzz. For every (kernel ×
/// backend × config) combo, N pause cycles are drawn from the repo's
/// xoshiro256++ generator and each must restore bit-identically.
/// Transposition runs through the engine seam; SpMV and SpGEMM run
/// through the `JobSpec` preemption seam (outcome JSON compared byte
/// for byte).
#[test]
fn xoshiro_fuzzed_pause_cycles_restore_bit_identically() {
    with_checker(|| {
        let mut rng = StdRng::seed_from_u64(0x0C4E_C4B0_1957);
        const FUZZ_PER_COMBO: usize = 5;

        // Transposition at the engine level, both backends, both paths.
        let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 67);
        for fast in [false, true] {
            let cfg = config(1, fast);
            let menda_direct = MendaSystem::new(cfg.clone()).transpose(&m);
            let pim_direct = MendaSystem::new(cfg.clone()).transpose_with(&m, BackendKind::Pim);
            for _ in 0..FUZZ_PER_COMBO {
                let k = rng.random_range(1..menda_direct.cycles as usize) as u64;
                pause_restore_check(
                    MendaBackend,
                    &m,
                    &cfg,
                    &cfg,
                    &menda_direct,
                    k,
                    &format!("fuzz menda ff={fast}"),
                );
                let k = rng.random_range(1..pim_direct.cycles as usize) as u64;
                pause_restore_check(
                    PimBackend,
                    &m,
                    &cfg,
                    &cfg,
                    &pim_direct,
                    k,
                    &format!("fuzz pim ff={fast}"),
                );
            }
        }

        // SpMV and SpGEMM through the JobSpec seam, both backends.
        for kernel in [JobKernel::Spmv, JobKernel::Spgemm] {
            for backend in BackendKind::ALL {
                let mut js = JobSpec::new(MatrixSource::Rmat { dim: 96, nnz: 768 });
                js.channels = 1;
                js.ranks_per_channel = 2;
                js.leaves = 16;
                js.prefetch_buffer_entries = 4;
                js.threads = Some(1);
                js.seed = 71;
                js.kernel = kernel;
                js.backend = backend;
                let straight = js.execute().expect("straight job");
                for _ in 0..FUZZ_PER_COMBO {
                    let k = rng.random_range(1..straight.cycles.max(2) as usize) as u64;
                    let resumed = match js.execute_to_cycle(k).expect("pause") {
                        JobProgress::Finished(outcome) => outcome,
                        JobProgress::Paused(snapshot) => js.resume(&snapshot).expect("resume"),
                    };
                    assert_eq!(
                        straight.to_json(),
                        resumed.to_json(),
                        "{kernel:?}/{backend:?}: outcome diverged across restore @ {k}"
                    );
                }
            }
        }
    });
}
