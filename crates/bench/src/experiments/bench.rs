//! Simulator oracle: the event-driven fast-forward core against the
//! per-cycle reference path, over every Table 3 and Table 4 workload.
//! It verifies and does not time; perfbench measures host time.
//!
//! Three tiers:
//!
//! * **Oracle tier** — all sixteen Table 3 matrices (N1–N8, P1–P8);
//!   transposition and SpMV run on *both* paths and must agree
//!   bit-for-bit in outputs, cycles and statistics (panicking on
//!   divergence — the CI `bench`/`bench-scale` jobs rely on that as
//!   their correctness gate). The reference path is only tractable on
//!   reduced matrices, so this tier never runs finer than 1/16 scale.
//! * **Measured tier** — the same sixteen matrices at the requested
//!   `--scale`, honoured exactly. At 1/16 or coarser the oracle runs
//!   are this tier; finer (toward the paper's full sizes, `--scale 1`)
//!   the runs are fast-forward only, each verified functionally
//!   (transposition against [`menda_sparse::CsrMatrix::to_csc`], SpMV
//!   against the functional golden [`menda_sparse::CsrMatrix::spmv`]).
//! * **Table 4 tier** — the fifteen SuiteSparse stand-ins of Table 4
//!   (the paper's transposition workload set), fast-forward
//!   transposition at the requested `--scale`, each verified against
//!   [`menda_sparse::CsrMatrix::to_csc`].
//!
//! Writes `BENCH_10.json` into the output directory with every run's
//! simulated cycles. Nothing in it depends on the host, so the file is
//! byte-identical across runs and across `--threads` values.

use std::path::Path;

use menda_core::{spmv, MendaConfig, MendaSystem};
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

use crate::util::{self, Scale, Table};

/// Every Table 3 matrix, uniform and power-law.
const MATRICES: [&str; 16] = [
    "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
];

/// The oracle tier never runs coarser than this divisor: the per-cycle
/// reference path on full-size matrices would take hours.
const ORACLE_MAX_FACTOR: usize = 16;

/// One verified run.
struct Run {
    matrix: &'static str,
    kernel: &'static str,
    cycles: u64,
}

impl Run {
    fn json(&self) -> String {
        format!(
            "    {{\"matrix\": \"{}\", \"kernel\": \"{}\", \"sim_cycles\": {}}}",
            self.matrix, self.kernel, self.cycles
        )
    }
}

fn runs_json(runs: &[Run]) -> String {
    runs.iter().map(Run::json).collect::<Vec<_>>().join(",\n")
}

/// The paper configuration with the requested host-thread count
/// (simulated results are bit-identical at every count).
fn cfg(fast: bool, threads: usize) -> MendaConfig {
    MendaConfig::paper()
        .with_threads(threads)
        .with_fast_forward(fast)
}

/// Deterministic per-matrix input vector for SpMV.
fn x_vector(m: &CsrMatrix, seed: u64) -> Vec<f32> {
    (0..m.ncols())
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 * 0.25 - 2.0)
        .collect()
}

/// Oracle runs for one matrix: both kernels on both paths, asserting
/// bit-identity.
fn oracle_runs(name: &'static str, m: &CsrMatrix, seed: u64, threads: usize) -> [Run; 2] {
    let reference = MendaSystem::new(cfg(false, threads)).transpose(m);
    let fast = MendaSystem::new(cfg(true, threads)).transpose(m);
    assert_eq!(reference.output, m.to_csc(), "{name}: wrong transpose");
    assert!(
        reference.output == fast.output
            && reference.cycles == fast.cycles
            && reference.pu_stats == fast.pu_stats,
        "{name}: fast-forward transposition diverged from the per-cycle reference"
    );
    let transpose_cycles = fast.cycles;

    let x = x_vector(m, seed);
    let reference = spmv::run(&cfg(false, threads), m, &x);
    let fast = spmv::run(&cfg(true, threads), m, &x);
    assert!(
        reference == fast,
        "{name}: fast-forward SpMV diverged from the per-cycle reference"
    );
    [
        Run {
            matrix: name,
            kernel: "transpose",
            cycles: transpose_cycles,
        },
        Run {
            matrix: name,
            kernel: "spmv",
            cycles: fast.cycles,
        },
    ]
}

/// Fast-forward-only runs for one matrix, each functionally verified
/// (the bit-identity oracle for the same seeds runs at the oracle tier).
fn measured_runs(name: &'static str, m: &CsrMatrix, seed: u64, threads: usize) -> [Run; 2] {
    let transpose = transpose_run(name, m, threads);

    let x = x_vector(m, seed);
    let fast = spmv::run(&cfg(true, threads), m, &x);
    let golden = m.spmv(&x);
    assert_eq!(fast.y.len(), golden.len(), "{name}: wrong SpMV length");
    for (i, (got, want)) in fast.y.iter().zip(&golden).enumerate() {
        assert!(
            (got - want).abs() <= 1e-3 * want.abs().max(1.0),
            "{name}: SpMV row {i}: got {got}, want {want}"
        );
    }
    [
        transpose,
        Run {
            matrix: name,
            kernel: "spmv",
            cycles: fast.cycles,
        },
    ]
}

/// One functionally-verified fast-forward transposition run.
fn transpose_run(name: &'static str, m: &CsrMatrix, threads: usize) -> Run {
    let fast = MendaSystem::new(cfg(true, threads)).transpose(m);
    assert_eq!(fast.output, m.to_csc(), "{name}: wrong transpose");
    Run {
        matrix: name,
        kernel: "transpose",
        cycles: fast.cycles,
    }
}

/// Runs every tier at the requested scale with the default host
/// thread count (1). See [`run_with`].
///
/// # Errors
///
/// Returns an error if the artifact cannot be written.
pub fn run(scale: Scale, dir: &Path) -> Result<String, String> {
    run_with(scale, 1, dir)
}

/// Runs every tier at the requested scale and host-thread count,
/// writes `BENCH_10.json` into `dir`, and returns the report.
///
/// # Errors
///
/// Returns an error if the artifact cannot be written.
///
/// # Panics
///
/// Panics if any oracle run diverges between the two paths, or any
/// measured or Table 4 run fails functional verification — those are
/// correctness gates (the CI `bench`/`bench-scale` jobs rely on them),
/// not input errors.
pub fn run_with(scale: Scale, threads: usize, dir: &Path) -> Result<String, String> {
    let factor = scale.factor();
    let oracle_factor = factor.max(ORACLE_MAX_FACTOR);
    let two_tier = oracle_factor != factor;

    let mut rng = StdRng::seed_from_u64(0xBE5C);
    let mut oracle = Vec::new();
    let mut measured = Vec::new();
    for name in MATRICES {
        let spec =
            gen::table3_spec(name).ok_or_else(|| format!("Table 3 has no entry named '{name}'"))?;
        // Seeds are drawn in a fixed order so each tier's matrices are
        // reproducible regardless of the other tier.
        let seed_o = rng.next_u64();
        let seed_m = rng.next_u64();
        let xseed = rng.next_u64();
        let mo = spec.generate_scaled(oracle_factor, seed_o);
        oracle.extend(oracle_runs(name, &mo, xseed, threads));
        if two_tier {
            let mm = spec.generate_scaled(factor, seed_m);
            measured.extend(measured_runs(name, &mm, xseed, threads));
        }
    }
    let measured = if two_tier { &measured } else { &oracle };

    // Table 4 tier: the SuiteSparse stand-ins, transposition only (the
    // paper uses Table 4 as its transposition workload set). Seeds are
    // drawn *after* the entire Table 3 chain so the Table 3 matrices —
    // and the scale-4/8 activation fingerprints pinned to this chain —
    // are unchanged by this tier's existence.
    let mut table4 = Vec::new();
    for spec in &gen::TABLE4 {
        let seed = rng.next_u64();
        let m = spec.generate_scaled(factor, seed);
        table4.push(transpose_run(spec.name, &m, threads));
    }

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"bench\",\n  \"scale\": {},\n  \"oracle_scale\": {},\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"oracle_runs\": [\n{}\n  ],\n",
            "  \"table4_runs\": [\n{}\n  ]\n}}\n"
        ),
        factor,
        oracle_factor,
        runs_json(measured),
        runs_json(&oracle),
        runs_json(&table4),
    );
    let path = util::write_artifact(dir, "BENCH_10.json", &json)
        .map_err(|e| format!("writing BENCH_10.json to {}: {e}", dir.display()))?;

    let mut out = format!(
        "Simulator oracle: event-driven fast-forward vs per-cycle reference\n\
         (paper 8-PU system, {threads} host thread(s); measured at 1/{factor} scale, oracle bit-identity at 1/{oracle_factor} scale)\n\n",
    );
    let mut t = Table::new(&["matrix", "kernel", "sim cycles"]);
    for r in measured {
        t.row(&[
            r.matrix.to_string(),
            r.kernel.to_string(),
            r.cycles.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nTable 4 stand-ins (transposition, fast-forward, at 1/{factor} scale):\n\n"
    ));
    let mut t4 = Table::new(&["matrix", "sim cycles"]);
    for r in &table4 {
        t4.row(&[r.matrix.to_string(), r.cycles.to_string()]);
    }
    out.push_str(&t4.render());
    out.push_str(&format!("\nAll runs verified.\nWrote {}\n", path.display()));
    Ok(out)
}
