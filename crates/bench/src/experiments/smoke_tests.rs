//! Smoke tests for the experiment harness itself: every experiment must
//! run at a tiny scale and produce a report containing its key markers.
//! These catch regressions in the reproduction pipeline without the cost
//! of the full-scale runs.

#![cfg(test)]

use std::path::PathBuf;

use crate::experiments;
use crate::util::Scale;

/// Large scale factor = tiny matrices = fast runs.
fn tiny() -> Scale {
    Scale(512)
}

/// Scratch output dir: non-artifact experiments never write, but the
/// dispatch signature needs one.
fn scratch() -> PathBuf {
    std::env::temp_dir().join("menda-smoke-scratch")
}

fn run(id: &str) -> String {
    experiments::run(id, tiny(), &scratch()).expect("experiment runs")
}

#[test]
fn tab1_contains_table1_values() {
    let r = run("tab1");
    assert!(r.contains("DDR4_2400R"));
    assert!(r.contains("FRFCFS_PriorHit"));
    assert!(r.contains("1024"));
    assert!(r.contains("800"));
}

#[test]
fn tab2_contains_platforms() {
    let r = run("tab2");
    assert!(r.contains("Threadripper"));
    assert!(r.contains("V100"));
}

#[test]
fn tab3_lists_all_synthetic_matrices() {
    let r = run("tab3");
    for name in ["N1", "N8", "P1", "P8"] {
        assert!(r.contains(name), "{name} missing");
    }
}

#[test]
fn tab4_lists_all_suite_matrices() {
    let r = run("tab4");
    for name in ["amazon", "wiki-Talk", "bcsstk32", "webbase-1M"] {
        assert!(r.contains(name), "{name} missing");
    }
}

#[test]
fn fig2a_reports_overheads() {
    let r = run("fig2a");
    assert!(r.contains("mergeTrans"));
    assert!(r.contains("MeNDA"));
    assert!(r.contains("overhead"));
}

#[test]
fn fig2b_reports_published_ratios() {
    let r = run("fig2b");
    assert!(r.contains("SpArch"));
    assert!(r.contains("0.12"));
}

#[test]
fn fig3_reports_bandwidth() {
    let a = run("fig3a");
    assert!(a.contains("roof"));
    let b = run("fig3b");
    assert!(b.contains("GB/s"));
    assert!(b.contains("64"));
}

#[test]
fn fig11_reports_three_configurations() {
    let r = run("fig11");
    assert!(r.contains("~2x storage"));
    assert!(r.contains("mergeTrans"));
    assert!(r.contains("MeNDA"));
    assert!(r.contains("storage"));
}

#[test]
fn fig12_reports_all_variants() {
    let r = run("fig12");
    for v in ["baseline (16)", "prefetch+coal (64)", "normalized"] {
        assert!(r.contains(v), "{v} missing");
    }
}

#[test]
fn fig14_reports_ratio_column() {
    let r = run("fig14");
    assert!(r.contains("P/N ratio"));
    assert!(r.contains("N8/P8"));
}

#[test]
fn fig15_reports_both_sweeps() {
    let r = run("fig15");
    assert!(r.contains("frequency (MHz)"));
    assert!(r.contains("leaves"));
    assert!(r.contains("EDP"));
}

#[test]
fn power_reports_paper_numbers() {
    let r = run("power");
    assert!(r.contains("78.6 mW"));
    assert!(r.contains("7.1 mm2"));
}

#[test]
fn energy_reports_comparison() {
    let r = run("energy");
    assert!(r.contains("MeNDA (8 PUs)"));
    assert!(r.contains("mergeTrans (CPU)"));
    assert!(r.contains("less energy"));
}

#[test]
fn threads_reports_identical_outputs() {
    let r = run("threads");
    assert!(r.contains("sim threads"));
    assert!(r.contains("identical"));
    assert!(!r.contains("DIFFERS"));
}

#[test]
fn verify_dram_reports_clean() {
    let r = run("verify-dram");
    assert!(!r.contains("VIOLATION"), "protocol violations:\n{r}");
    assert!(r.contains("All scenarios clean"));
    for s in [
        "ddr4-2400r",
        "ddr4-2rank",
        "ddr4-closed-page",
        "ddr4-write-heavy",
        "hbm2-pseudo-ch",
        "lpddr4-3200",
    ] {
        assert!(r.contains(s), "{s} missing");
    }
}

#[test]
fn experiments_run_clean_under_live_protocol_checking() {
    // Force the live checker on for every DramConfig constructed below
    // (a violation panics inside the simulator). Covers cpu-mode replay,
    // the MeNDA PU dataflow and the energy comparison end to end.
    menda_dram::set_check_protocol_default(Some(true));
    for id in ["fig3a", "fig3b", "fig12", "energy"] {
        assert!(
            experiments::run(id, tiny(), &scratch()).is_ok(),
            "{id} failed"
        );
    }
    menda_dram::set_check_protocol_default(None);
}

#[test]
fn trace_writes_valid_artifacts_and_full_table() {
    let dir = std::env::temp_dir().join("menda-trace-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // The experiment validates internally: reports must be well-formed,
    // the JSON must round-trip through the in-repo parser with events,
    // and every utilization metric must be derivable (panic otherwise).
    let r = experiments::trace::run(tiny(), &dir).expect("trace runs");
    for component in ["merge tree", "prefetch", "coalescer", "DRAM"] {
        assert!(r.contains(component), "{component} missing from table");
    }
    for artifact in ["trace_transpose.json", "trace_spmv.json"] {
        let meta = std::fs::metadata(dir.join(artifact)).expect("artifact exists");
        assert!(meta.len() > 0, "{artifact} is empty");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_honours_scale_and_writes_artifact() {
    let dir = std::env::temp_dir().join("menda-bench-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // Two distinct --scale values, both coarser than the oracle floor so
    // every run is an oracle run: the report must echo the requested
    // scale, and the experiment validates bit-identity between the
    // fast-forward and reference paths internally (panicking on
    // divergence).
    for scale in [Scale(512), Scale(256)] {
        let r = experiments::bench::run(scale, &dir).expect("bench runs");
        let factor = scale.factor();
        assert!(
            r.contains(&format!("measured at 1/{factor} scale")),
            "--scale {factor} not honoured:\n{r}"
        );
        for marker in ["N1", "P8", "transpose", "spmv"] {
            assert!(r.contains(marker), "{marker} missing");
        }
        // Table 4 stand-ins ride along as a transposition-only tier.
        for marker in ["amazon", "wiki-Talk", "Table 4"] {
            assert!(r.contains(marker), "{marker} missing");
        }
        let text = std::fs::read_to_string(dir.join("BENCH_10.json")).expect("artifact exists");
        let json = menda_trace::json::parse(&text).expect("artifact parses");
        assert_eq!(
            json.get("scale").and_then(|v| v.as_num()),
            Some(factor as f64)
        );
        // 16 Table 3 matrices x 2 kernels per Table 3 tier, 15 Table 4
        // transpositions; every run carries its simulated cycles.
        for (tier, len) in [("runs", 32), ("oracle_runs", 32), ("table4_runs", 15)] {
            let runs = json.get(tier).and_then(|v| v.as_arr()).expect(tier);
            assert_eq!(runs.len(), len, "{tier}");
            for run in runs {
                let cycles = run.get("sim_cycles").and_then(|v| v.as_num());
                assert!(cycles.is_some_and(|c| c > 0.0), "{tier}: bad run {run:?}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_honours_threads_and_other_experiments_reject_it() {
    let dir = std::env::temp_dir().join("menda-bench-threads-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // threads=2 exercises the per-PU fan-out; the oracle tier inside the
    // experiment asserts bit-identity against the reference path at that
    // thread count, and the artifact must match the serial run's byte
    // for byte.
    let mut artifacts = Vec::new();
    for threads in [1, 2] {
        let out = dir.join(format!("t{threads}"));
        let r = experiments::run_with("bench", Scale(512), threads, &out).expect("bench runs");
        assert!(
            r.contains(&format!("{threads} host thread(s)")),
            "threads not echoed:\n{r}"
        );
        artifacts.push(std::fs::read(out.join("BENCH_10.json")).expect("artifact exists"));
    }
    assert!(
        artifacts[0] == artifacts[1],
        "BENCH_10.json differs between threads=1 and threads=2"
    );
    let err = experiments::run_with("fig11", Scale(512), 2, &scratch()).unwrap_err();
    assert!(err.contains("--threads applies"), "unhelpful error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backends_reports_both_backends_and_writes_artifact() {
    let dir = std::env::temp_dir().join("menda-backends-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // The experiment validates internally: both backends must reproduce
    // the golden transposition bit-identically and hit the SpMV
    // tolerance (panic otherwise).
    let r = experiments::backends::run(tiny(), &dir).expect("backends runs");
    for marker in ["menda", "pim", "transpose", "spmv"] {
        assert!(r.contains(marker), "{marker} missing");
    }
    let meta = std::fs::metadata(dir.join("BACKENDS_6.json")).expect("artifact exists");
    assert!(meta.len() > 0, "BACKENDS_6.json is empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_round_trips_and_writes_artifact() {
    let dir = std::env::temp_dir().join("menda-checkpoint-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // The experiment validates internally: every restored run must be
    // bit-identical to the straight run (error otherwise).
    let r = experiments::checkpoint::run(tiny(), &dir).expect("checkpoint runs");
    assert!(r.contains("mismatches: 0"), "report:\n{r}");
    for marker in ["menda", "pim", "ref", "ff"] {
        assert!(r.contains(marker), "{marker} missing:\n{r}");
    }
    let meta = std::fs::metadata(dir.join("CHECKPOINT_9.txt")).expect("artifact exists");
    assert!(meta.len() > 0, "CHECKPOINT_9.txt is empty");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_converges_with_prefix_reuse() {
    let dir = std::env::temp_dir().join("menda-sweep-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    // First run builds the prefix cache (all misses), second must hit it;
    // both gate internally on zero cold/warm divergence.
    let cold = experiments::sweep::run(tiny(), &dir).expect("sweep runs");
    assert!(cold.contains("0 divergence"), "report:\n{cold}");
    assert!(cold.contains("miss"), "first run should miss:\n{cold}");
    let warm = experiments::sweep::run(tiny(), &dir).expect("sweep reruns");
    assert!(
        warm.contains("hit"),
        "second run should hit the cache:\n{warm}"
    );
    assert!(!warm.contains("miss"), "stale cache keys:\n{warm}");
    let json = std::fs::read_to_string(dir.join("SWEEP_9.json")).expect("artifact exists");
    assert!(json.contains("\"divergences\": 0"), "bad artifact: {json}");
    assert!(json.contains("\"cache\": \"hit\""), "bad artifact: {json}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_experiment_is_an_error() {
    let err = experiments::run("fig99", tiny(), &scratch()).unwrap_err();
    assert!(err.contains("unknown experiment"), "unhelpful error: {err}");
    assert!(err.contains("sweep"), "error must list service ids");
}

#[test]
fn all_ids_dispatch() {
    // Excludes the heaviest experiments (15+ cycle-level simulations each,
    // or fixed large effective scales); their components are covered
    // elsewhere.
    for id in experiments::ALL {
        if matches!(
            *id,
            "fig10"
                | "fig13"
                | "fig16"
                | "conflicts"
                | "threads"
                | "trace"
                | "bench"
                | "backends"
                | "checkpoint"
        ) {
            // "threads" runs 8-PU simulations at four thread counts;
            // "trace", "bench", "backends" and "checkpoint" write
            // artifacts; all have dedicated smoke tests with a scratch
            // directory.
            continue;
        }
        assert!(
            experiments::run(id, tiny(), &scratch()).is_ok(),
            "{id} failed"
        );
    }
}
