//! Differential tests for the event-driven fast-forward core (ISSUE 5).
//!
//! `SimOptions::fast_forward` must be a pure wall-clock optimisation: a
//! fast-forwarded run has to be *bit-identical* to the per-cycle reference
//! in everything the simulator reports — transposed output, PU cycle
//! counts, per-PU statistics (which embed the DRAM command/row-hit
//! counters), simulated seconds, and the full instrumentation report
//! (histogram buckets, counter series, sample cycles). The live DDR4
//! protocol checker is forced on for every run here, so each fast path is
//! also re-validated against the JEDEC timing rules while it is compared
//! against the reference.

use menda_core::{
    spmv, transpose_job, AcceleratorBackend, MendaBackend, MendaConfig, MendaSystem, PimBackend,
    TraceConfig, TransposeResult,
};
use menda_dram::RowPolicy;
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
    let mut rng = StdRng::seed_from_u64(0xFF5);
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
        ("banded", gen::banded(192, 1536, 12, 0.15, rng.next_u64())),
    ]
}

fn config(pus: usize, threads: usize, policy: RowPolicy, fast: bool) -> MendaConfig {
    let mut cfg = MendaConfig::small_test()
        .with_channels(1)
        .with_ranks_per_channel(pus)
        .with_threads(threads)
        .with_trace(TraceConfig::counting())
        .with_fast_forward(fast);
    cfg.dram.row_policy = policy;
    cfg
}

/// Asserts two transposition results are bit-identical, trace report
/// included.
fn assert_identical(reference: &TransposeResult, fast: &TransposeResult, what: &str) {
    assert_eq!(reference.output, fast.output, "{what}: outputs differ");
    assert_eq!(reference.cycles, fast.cycles, "{what}: cycles differ");
    assert_eq!(
        reference.pu_stats, fast.pu_stats,
        "{what}: per-PU stats differ"
    );
    assert_eq!(reference.seconds, fast.seconds, "{what}: seconds differ");
    assert_eq!(
        reference.partition, fast.partition,
        "{what}: partitions differ"
    );
    assert_eq!(reference.trace, fast.trace, "{what}: trace reports differ");
}

/// The headline differential: transposition under fast-forward is
/// bit-identical to the per-cycle reference for uniform (N1), power-law
/// (P1) and banded matrices, under both row policies, at 1/2/4 PUs and
/// 1/4 host threads, with the protocol checker live on both paths.
#[test]
fn fast_forward_transpose_is_bit_identical_to_reference() {
    with_checker(|| {
        for (name, m) in matrices() {
            for policy in [RowPolicy::OpenPage, RowPolicy::ClosedPage] {
                for pus in [1usize, 2, 4] {
                    for threads in [1usize, 4] {
                        let what = format!("{name} {policy:?} pus={pus} threads={threads}");
                        let reference =
                            MendaSystem::new(config(pus, threads, policy, false)).transpose(&m);
                        let fast =
                            MendaSystem::new(config(pus, threads, policy, true)).transpose(&m);
                        assert_eq!(reference.output, m.to_csc(), "{what}: wrong transpose");
                        assert_identical(&reference, &fast, &what);
                    }
                }
            }
        }
    });
}

/// SpMV exercises the FinalCsc-less dataflow (vector gather + merge): the
/// fast path must reproduce the reference bit for bit there too.
#[test]
fn fast_forward_spmv_is_bit_identical_to_reference() {
    with_checker(|| {
        let mut rng = StdRng::seed_from_u64(0x5B4F);
        let m = gen::table3_spec("P1")
            .unwrap()
            .generate_scaled(2048, rng.next_u64());
        let x: Vec<f32> = (0..m.ncols())
            .map(|_| rng.random_range(0..17) as f32 - 8.0)
            .collect();
        for policy in [RowPolicy::OpenPage, RowPolicy::ClosedPage] {
            for pus in [1usize, 2] {
                let what = format!("spmv {policy:?} pus={pus}");
                let reference = spmv::run(&config(pus, 2, policy, false), &m, &x);
                let fast = spmv::run(&config(pus, 2, policy, true), &m, &x);
                assert_eq!(reference, fast, "{what}: SpMV results differ");
            }
        }
    });
}

/// Scale-8 differential on the full paper configuration (1024-leaf
/// trees, 8 PUs, DDR4-2400): much deeper queues and far longer runs than
/// the `small_test` cases above, so the event-driven scheduling,
/// prefetch parking and DRAM fast-forward are exercised at realistic
/// occupancy. Ignored by default (release-only runtime, ~minutes with
/// the checker live); the CI `bench-scale` job runs it with
/// `--ignored`, equivalent to `MENDA_CHECK_PROTOCOL=1`.
#[test]
#[ignore = "release-scale differential; run by the CI bench-scale job"]
fn fast_forward_scale8_paper_config_is_bit_identical() {
    with_checker(|| {
        let mut rng = StdRng::seed_from_u64(0x5CA1E8);
        for name in ["N1", "P1"] {
            let m = gen::table3_spec(name)
                .unwrap()
                .generate_scaled(8, rng.next_u64());
            let paper = |fast: bool| MendaConfig::paper().with_threads(1).with_fast_forward(fast);
            let what = format!("{name}/8 paper config");
            let reference = MendaSystem::new(paper(false)).transpose(&m);
            let fast = MendaSystem::new(paper(true)).transpose(&m);
            assert_eq!(reference.output, m.to_csc(), "{what}: wrong transpose");
            assert_identical(&reference, &fast, &what);

            let x: Vec<f32> = (0..m.ncols())
                .map(|_| rng.random_range(0..17) as f32 - 8.0)
                .collect();
            let reference = spmv::run(&paper(false), &m, &x);
            let fast = spmv::run(&paper(true), &m, &x);
            assert_eq!(reference, fast, "{what}: SpMV results differ");
        }
    });
}

/// The threads × path differential matrix: every combination of host
/// worker threads (serial and per-PU fan-out) and execution path
/// (fast-forward vs per-cycle reference) must reproduce one golden
/// serial reference run bit for bit — output, cycles, per-PU stats
/// (which embed the DRAM counters), simulated seconds and the full
/// trace report.
#[test]
fn threads_path_matrix_is_bit_identical() {
    with_checker(|| {
        for (name, m) in matrices() {
            let golden = MendaSystem::new(config(2, 1, RowPolicy::OpenPage, false)).transpose(&m);
            assert_eq!(golden.output, m.to_csc(), "{name}: wrong transpose");
            for threads in [1usize, 2, 4] {
                for fast in [true, false] {
                    let what = format!("{name} threads={threads} fast={fast}");
                    let cfg = config(2, threads, RowPolicy::OpenPage, fast);
                    let r = MendaSystem::new(cfg).transpose(&m);
                    assert_identical(&golden, &r, &what);
                }
            }
        }
    });
}

/// The DRAM command log — every ACT/PRE/RD/WR/REF with its issue cycle
/// and full coordinates — is identical entry for entry between the
/// per-cycle reference and the fast-forward path, on both accelerator
/// backends. Driven at the unit level through the public backend seam
/// (the engine does not expose per-rank logs), so this pins the *order
/// and timing* of every command the scheduler emitted, not just the
/// counters the engine-level differentials compare.
#[test]
fn dram_command_logs_identical_across_paths() {
    with_checker(|| {
        let m = gen::rmat(80, 640, gen::RmatParams::PAPER, 61);
        let build_cfg = |fast: bool| {
            let mut cfg = MendaConfig::small_test()
                .with_channels(1)
                .with_ranks_per_channel(1)
                .with_fast_forward(fast);
            cfg.dram.log_commands = true;
            cfg.dram.refresh_enabled = true;
            cfg
        };
        // Duck-typed over the two concrete backends: `dram_command_log`
        // lives on the unit types, not on a trait.
        macro_rules! check_backend {
            ($backend:expr, $label:expr) => {{
                let backend = $backend;
                let run_logged = |cfg: &MendaConfig| {
                    let mut unit = backend.build_unit(cfg);
                    let mut run = backend.start_job(&unit, transpose_job(m.clone(), 0));
                    assert!(backend.advance(&mut unit, &mut run, None));
                    let result = backend.finish_run(&unit, run);
                    let log = unit.dram_command_log().to_vec();
                    (result, log)
                };
                let (golden_result, golden_log) = run_logged(&build_cfg(false));
                assert!(!golden_log.is_empty(), "{}: empty command log", $label);
                let (result, log) = run_logged(&build_cfg(true));
                assert_eq!(result, golden_result, "{}: job result diverged", $label);
                assert_eq!(log, golden_log, "{}: DRAM command log diverged", $label);
            }};
        }
        check_backend!(MendaBackend, "menda");
        check_backend!(PimBackend, "pim");
    });
}

/// Host-interference traffic injects extra DRAM requests on a fixed PU
/// cycle cadence; the fast path must never skip over an injection cycle.
#[test]
fn fast_forward_preserves_host_interference_cadence() {
    with_checker(|| {
        let m = gen::uniform(128, 1024, 0x1F);
        let interfering = |interval: u64, fast: bool| {
            let mut cfg = config(2, 1, RowPolicy::OpenPage, fast);
            cfg.pu = cfg.pu.with_host_interference(interval);
            cfg
        };
        for interval in [50u64, 97] {
            let reference = MendaSystem::new(interfering(interval, false)).transpose(&m);
            let fast = MendaSystem::new(interfering(interval, true)).transpose(&m);
            assert_eq!(reference.output, m.to_csc(), "interference {interval}");
            assert_identical(&reference, &fast, &format!("interference {interval}"));
        }
    });
}

/// Degenerate inputs hit the quiescence predicate's edge cases (empty
/// worklists, instant drains); they must not deadlock or diverge.
#[test]
fn fast_forward_handles_degenerate_matrices() {
    with_checker(|| {
        let from_entries = |n: usize, entries: Vec<(usize, usize, f32)>| {
            CsrMatrix::try_from(menda_sparse::CooMatrix::from_entries(n, n, entries).unwrap())
                .unwrap()
        };
        let cases = [
            ("empty", from_entries(4, vec![])),
            ("single", from_entries(4, vec![(2, 1, 3.0)])),
            (
                "one-row",
                from_entries(8, (0..8).map(|c| (0, c, c as f32)).collect()),
            ),
        ];
        for (name, m) in cases {
            for pus in [1usize, 2] {
                let reference =
                    MendaSystem::new(config(pus, 1, RowPolicy::OpenPage, false)).transpose(&m);
                let fast =
                    MendaSystem::new(config(pus, 1, RowPolicy::OpenPage, true)).transpose(&m);
                assert_eq!(reference.output, m.to_csc(), "{name} pus={pus}");
                assert_identical(&reference, &fast, &format!("{name} pus={pus}"));
            }
        }
    });
}
