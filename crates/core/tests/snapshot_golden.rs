//! Golden digests of snapshot containers.
//!
//! Each case pauses a launch at a fixed device cycle (half the job's
//! cycles unless the case says otherwise) and pins two FNV-1a digests:
//! the snapshot container's bytes, and the finished run's outcome. It
//! then restores the container, pauses again at the same cycle and
//! requires the same bytes back, which loads and re-saves every field
//! the container holds; and it resumes the container to completion and
//! requires the pinned outcome.
//!
//! The cases put every serialized field in play: both backends;
//! transposition, SpMV and SpGEMM; a multi-iteration job paused in its
//! second iteration; refresh with a pause while a refresh is pending;
//! closed-page auto-precharges still buffered; the command log; the live
//! protocol checker on and off; two ranks per channel with one unit
//! already finished beside one that is paused.
//!
//! Nothing here follows the environment. Engine cases set tracing and
//! the protocol checker on their configuration. `JobSpec` cases build
//! their configuration from the process-wide checker default, which
//! `MENDA_CHECK_PROTOCOL` drives, so every test forces that default off
//! through one `Once` before it builds anything, and no test changes it.
//!
//! Regenerating a digest is a deliberate edit: the container format and
//! the simulated results are both meant to stay fixed.

use std::sync::Once;

use menda_core::{
    AcceleratorBackend, BackendKind, Digest, Engine, JobKernel, JobProgress, JobSpec, MatrixSource,
    MendaBackend, MendaConfig, PimBackend, TraceConfig, TransposeResult, TransposeSpec,
};
use menda_dram::{fnv1a, RowPolicy};
use menda_sparse::partition::RowPartition;
use menda_sparse::{gen, CsrMatrix};

/// Pinned digests of one case.
struct Pin {
    container: u64,
    outcome: u64,
}

/// Forces the process-wide protocol-checker default off, once, before any
/// configuration is built.
fn pin_environment() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| menda_dram::set_check_protocol_default(Some(false)));
}

fn check(case: &str, snapshot: &[u8], outcome: u64, pin: Pin) {
    let container = fnv1a(snapshot);
    assert!(
        container == pin.container && outcome == pin.outcome,
        "{case}: container {container:#018x} (pinned {:#018x}), \
         outcome {outcome:#018x} (pinned {:#018x}), {} container bytes",
        pin.container,
        pin.outcome,
        snapshot.len(),
    );
}

/// A small engine configuration with every byte-shaping switch explicit.
fn engine_config(checker: bool, log: bool, policy: RowPolicy) -> MendaConfig {
    let mut cfg = MendaConfig::small_test()
        .with_threads(1)
        .with_trace(TraceConfig::off());
    cfg.dram.trace = TraceConfig::off();
    cfg.dram.refresh_enabled = true;
    cfg.dram.check_protocol = checker;
    cfg.dram.log_commands = log;
    cfg.dram.row_policy = policy;
    cfg
}

/// Digest of everything a finished transposition reports: the output,
/// the cycle count and every per-unit counter, stall counters included.
fn result_digest(r: &TransposeResult) -> u64 {
    let mut d = Digest::new();
    let mut word = |x: u64| d.push_bytes(&x.to_le_bytes());
    r.output.col_ptr().iter().for_each(|&x| word(x as u64));
    r.output.row_idx().iter().for_each(|&x| word(x as u64));
    r.output
        .values()
        .iter()
        .for_each(|x| word(x.to_bits() as u64));
    word(r.cycles);
    for s in &r.pu_stats {
        for i in &s.iterations {
            let counters = [
                i.cycles,
                i.nz_emitted,
                i.rounds,
                i.loads_issued,
                i.loads_coalesced,
                i.stores_issued,
                i.root_stall_cycles,
                i.output_stall_cycles,
                i.dram_row_hits,
                i.dram_row_misses,
                i.dram_row_conflicts,
            ];
            counters.into_iter().for_each(&mut word);
        }
        let m = &s.dram;
        let counters = [
            m.cycles,
            m.reads,
            m.forwarded_reads,
            m.writes,
            m.activates,
            m.precharges,
            m.refreshes,
            m.row_hits,
            m.row_misses,
            m.row_conflicts,
            m.read_latency_sum,
            m.read_latency_max,
            m.bus_busy_cycles,
            m.queue_full_rejections,
        ];
        counters.into_iter().for_each(&mut word);
    }
    d.finish()
}

/// Runs a transposition straight through, pauses a second launch at
/// `pause_at(total cycles)`, checks the container round trip and the
/// resumed outcome, and returns the straight run and the pause cycle.
fn engine_case<B: AcceleratorBackend + Copy>(
    case: &str,
    backend: B,
    cfg: &MendaConfig,
    m: &CsrMatrix,
    partition: &RowPartition,
    pause_at: impl FnOnce(u64) -> u64,
    pin: Pin,
) -> (TransposeResult, u64) {
    let engine = Engine::with_backend(cfg, backend);
    let spec = || TransposeSpec::new(m, partition.clone());
    let direct = engine.run(&spec());
    assert_eq!(direct.output, m.to_csc(), "{case}: straight run is wrong");
    let pause = pause_at(direct.cycles);
    let snapshot = engine
        .run_to_cycle(&spec(), None, Some(pause))
        .unwrap()
        .snapshot()
        .unwrap_or_else(|| panic!("{case}: no pause at cycle {pause}"));
    let again = engine
        .run_to_cycle(&spec(), Some(&snapshot), Some(pause))
        .unwrap()
        .snapshot()
        .unwrap_or_else(|| panic!("{case}: restored run did not pause"));
    assert!(again == snapshot, "{case}: re-pause changed the container");
    let resumed = engine
        .run_to_cycle(&spec(), Some(&snapshot), None)
        .unwrap()
        .finished()
        .expect("an unbounded resume finishes");
    assert_eq!(result_digest(&resumed), result_digest(&direct), "{case}");
    check(case, &snapshot, result_digest(&direct), pin);
    (direct, pause)
}

/// Runs a `JobSpec` straight through and through a container taken at
/// half its cycles, with the same round-trip checks as [`engine_case`].
fn jobspec_case(case: &str, spec: &JobSpec, pin: Pin) {
    pin_environment();
    let direct = spec.execute().unwrap();
    let pause = direct.cycles / 2;
    let JobProgress::Paused(snapshot) = spec.execute_to_cycle(pause).unwrap() else {
        panic!("{case}: no pause at cycle {pause}");
    };
    let JobProgress::Paused(again) = spec.resume_to_cycle(&snapshot, pause).unwrap() else {
        panic!("{case}: restored run did not pause");
    };
    assert!(again == snapshot, "{case}: re-pause changed the container");
    let resumed = spec.resume_to_cycle(&snapshot, u64::MAX).unwrap();
    assert_eq!(resumed.finished().as_ref(), Some(&direct), "{case}");
    check(case, &snapshot, direct.digest(), pin);
}

fn small_job(matrix: MatrixSource, kernel: JobKernel, backend: BackendKind) -> JobSpec {
    let mut spec = JobSpec::new(matrix);
    spec.kernel = kernel;
    spec.backend = backend;
    spec.channels = 1;
    spec.ranks_per_channel = 2;
    spec.leaves = 16;
    spec.threads = Some(1);
    spec
}

/// Checker and command log on, open page. Rows are split evenly, so the
/// R-MAT head lands on unit 0: unit 1 has finished at the pause while
/// unit 0 is in its second merge iteration.
#[test]
fn menda_checked_logged_with_a_finished_unit() {
    pin_environment();
    let cfg = engine_config(true, true, RowPolicy::OpenPage);
    let m = gen::rmat(1024, 6144, gen::RmatParams::PAPER, 3);
    let partition = RowPartition::by_rows(m.nrows(), cfg.num_pus());
    let (direct, pause) = engine_case(
        "menda checked+logged",
        MendaBackend,
        &cfg,
        &m,
        &partition,
        |total| total / 2,
        Pin {
            container: 0x9898_53ac_e764_8e6f,
            outcome: 0x53eb_2381_d8cf_44a6,
        },
    );
    let units = &direct.pu_stats;
    assert!(units.iter().any(|s| s.total_cycles() <= pause));
    assert!(units.iter().any(|s| {
        let it = &s.iterations;
        it.len() >= 3 && it[0].cycles < pause && pause < it[0].cycles + it[1].cycles
    }));
}

/// Closed page with the command log on, so auto-precharges wait in
/// `pending_autopre`, and the checker off. The pause lands 8 device
/// cycles past the first refresh interval: both units' ranks then have
/// a refresh pending while they drain their open work, with two
/// auto-precharges still buffered each.
#[test]
fn menda_closed_page_refresh_pending() {
    pin_environment();
    let cfg = engine_config(false, true, RowPolicy::ClosedPage);
    let m = gen::uniform(512, 8192, 5);
    let partition = RowPartition::by_nnz(&m, cfg.num_pus());
    let refi = cfg.dram.timing.t_refi * cfg.pu.frequency_mhz / cfg.dram.clock_mhz;
    engine_case(
        "menda closed-page",
        MendaBackend,
        &cfg,
        &m,
        &partition,
        |_| refi + 8,
        Pin {
            container: 0x68a6_a82e_8709_b6b6,
            outcome: 0x845b_fff2_b3b8_b938,
        },
    );
}

/// The PIM phase machine with the checker on. Rows are split evenly, so
/// unit 0 has finished when unit 1, past its first phase, is reading its
/// sorted runs back (a drive phase with its request cursor mid-list).
#[test]
fn pim_checked_with_a_finished_unit() {
    pin_environment();
    let cfg = engine_config(true, false, RowPolicy::OpenPage);
    let m = gen::rmat(1024, 6144, gen::RmatParams::PAPER, 7);
    let partition = RowPartition::by_rows(m.nrows(), cfg.num_pus());
    let (direct, pause) = engine_case(
        "pim checked",
        PimBackend,
        &cfg,
        &m,
        &partition,
        |_| 16_000,
        Pin {
            container: 0x952a_b062_6f26_c8a8,
            outcome: 0xfccb_3345_a0e0_ee35,
        },
    );
    let units = &direct.pu_stats;
    assert!(units.iter().any(|s| s.total_cycles() <= pause));
    assert!(units
        .iter()
        .any(|s| s.iterations[0].cycles < pause && pause < s.total_cycles()));
}

#[test]
fn jobspec_spmv_on_both_backends() {
    let matrix = MatrixSource::Rmat {
        dim: 512,
        nnz: 4096,
    };
    jobspec_case(
        "spmv menda",
        &small_job(matrix.clone(), JobKernel::Spmv, BackendKind::Menda),
        Pin {
            container: 0xe4d7_da66_651e_1f0a,
            outcome: 0x2241_5e95_60df_e86f,
        },
    );
    jobspec_case(
        "spmv pim",
        &small_job(matrix, JobKernel::Spmv, BackendKind::Pim),
        Pin {
            container: 0x4b87_e02e_2673_d9a1,
            outcome: 0xd165_b3cc_9697_9f59,
        },
    );
}

#[test]
fn jobspec_spgemm_on_both_backends() {
    let matrix = MatrixSource::Uniform { dim: 128, nnz: 512 };
    jobspec_case(
        "spgemm menda",
        &small_job(matrix.clone(), JobKernel::Spgemm, BackendKind::Menda),
        Pin {
            container: 0x748e_8ff7_99eb_d648,
            outcome: 0xb973_b629_51a4_ce5f,
        },
    );
    jobspec_case(
        "spgemm pim",
        &small_job(matrix, JobKernel::Spgemm, BackendKind::Pim),
        Pin {
            container: 0xf8c9_9860_19d0_5025,
            outcome: 0xef86_da2a_4c7c_0a02,
        },
    );
}
