//! Backend-parameterized equivalence suite (ISSUE 6).
//!
//! The engine-equivalence and fast-forward differential properties must
//! hold for *every* [`menda_core::AcceleratorBackend`], not just the
//! MeNDA PU: serial and threaded engine runs bit-identical, event-driven
//! fast-forward bit-identical to the per-cycle reference, and all kernels
//! correct against their golden references. The live DDR4 protocol
//! checker is forced on for the differential runs, so both backends'
//! fast paths are re-validated against the JEDEC timing rules while they
//! are compared. Transposition keys are unique, so its output must also
//! be bit-identical *across* backends; SpMV reduces floating-point sums
//! in backend-specific order and is compared to tolerance.

use menda_core::{
    spmv, BackendKind, Engine, KernelSpec, MendaConfig, MendaSystem, PimBackend, PuJob, PuResult,
    RunStats, TraceConfig,
};
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

/// Runs `f` with the live protocol checker forced on (equivalent to
/// `MENDA_CHECK_PROTOCOL=1`), restoring environment-driven behaviour
/// afterwards even if `f` panics.
fn with_checker<R>(f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            menda_dram::set_check_protocol_default(None);
        }
    }
    menda_dram::set_check_protocol_default(Some(true));
    let _reset = Reset;
    f()
}

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    let mut rng = StdRng::seed_from_u64(0xBAC6);
    vec![
        (
            "N1/1024",
            gen::table3_spec("N1")
                .unwrap()
                .generate_scaled(1024, rng.next_u64()),
        ),
        (
            "P1/1024",
            gen::table3_spec("P1")
                .unwrap()
                .generate_scaled(1024, rng.next_u64()),
        ),
        ("banded", gen::banded(128, 1024, 10, 0.2, rng.next_u64())),
    ]
}

fn config(pus: usize, threads: usize, fast: bool) -> MendaConfig {
    MendaConfig::small_test()
        .with_channels(1)
        .with_ranks_per_channel(pus)
        .with_threads(threads)
        .with_fast_forward(fast)
}

/// Serial and threaded engine runs are bit-identical for every backend —
/// the cross-backend determinism property: a unit's result must be a pure
/// function of (config, job) regardless of which worker thread runs it.
#[test]
fn serial_vs_threaded_is_bit_identical_for_every_backend() {
    for (name, m) in matrices() {
        for kind in BackendKind::ALL {
            for pus in [2usize, 4] {
                let serial = MendaSystem::new(config(pus, 1, true)).transpose_with(&m, kind);
                for threads in [2usize, 8] {
                    let par = MendaSystem::new(config(pus, threads, true)).transpose_with(&m, kind);
                    let tag = format!("{name} {} pus {pus} threads {threads}", kind.label());
                    assert_eq!(par.output, serial.output, "{tag}");
                    assert_eq!(par.cycles, serial.cycles, "{tag}");
                    assert_eq!(par.pu_stats, serial.pu_stats, "{tag}");
                }
            }
        }
    }
}

/// The event-driven fast-forward path is bit-identical to the per-cycle
/// reference on every backend, under the live protocol checker.
#[test]
fn fast_forward_differential_holds_for_every_backend() {
    with_checker(|| {
        for (name, m) in matrices() {
            for kind in BackendKind::ALL {
                let ff = MendaSystem::new(config(4, 2, true)).transpose_with(&m, kind);
                let reference = MendaSystem::new(config(4, 2, false)).transpose_with(&m, kind);
                let tag = format!("{name} {}", kind.label());
                assert_eq!(ff.output, reference.output, "{tag}");
                assert_eq!(ff.cycles, reference.cycles, "{tag}");
                assert_eq!(ff.seconds, reference.seconds, "{tag}");
                assert_eq!(ff.pu_stats, reference.pu_stats, "{tag}");
            }
        }
    });
}

/// Scale-8 fast-forward differential on the paper configuration for
/// every backend. Ignored by default (release-only runtime); the CI
/// `bench-scale` job runs it with `--ignored` under the live protocol
/// checker (equivalent to `MENDA_CHECK_PROTOCOL=1`).
#[test]
#[ignore = "release-scale differential; run by the CI bench-scale job"]
fn fast_forward_scale8_differential_holds_for_every_backend() {
    with_checker(|| {
        let mut rng = StdRng::seed_from_u64(0xBAC68);
        for name in ["N4", "P4"] {
            let m = gen::table3_spec(name)
                .unwrap()
                .generate_scaled(8, rng.next_u64());
            let paper = |fast: bool| MendaConfig::paper().with_threads(1).with_fast_forward(fast);
            for kind in BackendKind::ALL {
                let ff = MendaSystem::new(paper(true)).transpose_with(&m, kind);
                let reference = MendaSystem::new(paper(false)).transpose_with(&m, kind);
                let tag = format!("{name}/8 {}", kind.label());
                assert_eq!(ff.output, m.to_csc(), "{tag}: wrong transpose");
                assert_eq!(ff.output, reference.output, "{tag}");
                assert_eq!(ff.cycles, reference.cycles, "{tag}");
                assert_eq!(ff.seconds, reference.seconds, "{tag}");
                assert_eq!(ff.pu_stats, reference.pu_stats, "{tag}");
            }
        }
    });
}

/// Transposition has unique (column, row) keys, so the assembled CSC is
/// bit-identical across backends — only timing and traffic may differ.
#[test]
fn transpose_output_is_bit_identical_across_backends() {
    for (name, m) in matrices() {
        let golden = m.to_csc();
        let menda = MendaSystem::new(config(4, 2, true)).transpose_with(&m, BackendKind::Menda);
        let pim = MendaSystem::new(config(4, 2, true)).transpose_with(&m, BackendKind::Pim);
        assert_eq!(menda.output, golden, "{name} menda vs golden");
        assert_eq!(pim.output, golden, "{name} pim vs golden");
        assert!(pim.cycles > 0 && menda.cycles > 0, "{name}");
    }
}

/// SpMV on either backend matches the dense reference to tolerance, and
/// each backend is internally deterministic across thread counts.
#[test]
fn spmv_matches_golden_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x51D);
    let m = gen::rmat(128, 1024, gen::RmatParams::PAPER, rng.next_u64());
    let x: Vec<f32> = (0..m.ncols())
        .map(|_| rng.random_range(0..9) as f32 - 4.0)
        .collect();
    let golden = m.spmv(&x);
    for kind in BackendKind::ALL {
        let serial = spmv::run_with_backend(&config(4, 1, true), &m, &x, Default::default(), kind);
        for (i, (got, want)) in serial.y.iter().zip(&golden).enumerate() {
            assert!(
                (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                "{} row {i}: {got} vs {want}",
                kind.label()
            );
        }
        let par = spmv::run_with_backend(&config(4, 8, true), &m, &x, Default::default(), kind);
        assert_eq!(par.y, serial.y, "{} threaded", kind.label());
        assert_eq!(par.pu_stats, serial.pu_stats, "{} threaded", kind.label());
    }
}

/// The backend's name and device clock propagate into [`RunStats`]: a
/// PIM run reports `backend = "pim"` and seconds at the DPU frequency.
#[test]
fn run_stats_carry_the_backend_label_and_clock() {
    struct Raw {
        m: CsrMatrix,
    }
    impl KernelSpec for Raw {
        type Output = RunStats;
        fn make_job(&self, _p: usize) -> PuJob {
            menda_core::transpose_job(self.m.clone(), 0)
        }
        fn assemble(&self, _results: Vec<PuResult>, run: RunStats) -> RunStats {
            run
        }
    }
    let cfg = config(1, 1, true);
    let spec = Raw {
        m: gen::uniform(32, 256, 3),
    };
    let pim = Engine::with_backend(&cfg, PimBackend).run(&spec);
    assert_eq!(pim.backend, "pim");
    assert!(pim.cycles > 0);
    let expect = pim.cycles as f64 / (cfg.pim.frequency_mhz as f64 * 1e6);
    assert_eq!(pim.seconds, expect);
    let menda = Engine::new(&cfg).run(&spec);
    assert_eq!(menda.backend, "menda");
    assert_eq!(
        menda.seconds,
        menda.cycles as f64 / (cfg.pu.frequency_mhz as f64 * 1e6)
    );
}

/// Tracing is observational on every backend: a traced run's outputs and
/// statistics are identical to an untraced run's, and the report arrives
/// retagged per unit.
#[test]
fn tracing_is_observational_for_every_backend() {
    let m = gen::rmat(96, 768, gen::RmatParams::PAPER, 0xC0DE);
    for kind in BackendKind::ALL {
        let plain = MendaSystem::new(config(2, 1, true)).transpose_with(&m, kind);
        let traced_cfg = config(2, 1, true).with_trace(TraceConfig::counting());
        let traced = MendaSystem::new(traced_cfg).transpose_with(&m, kind);
        assert_eq!(plain.output, traced.output, "{}", kind.label());
        assert_eq!(plain.cycles, traced.cycles, "{}", kind.label());
        assert_eq!(plain.pu_stats, traced.pu_stats, "{}", kind.label());
        assert!(plain.trace.is_none());
        assert!(traced.trace.is_some(), "{}", kind.label());
    }
}
