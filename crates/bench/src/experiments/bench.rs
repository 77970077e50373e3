//! Simulator-performance benchmark: wall-clock cost of the cycle-exact
//! simulation itself, with the event-driven fast-forward core on vs. the
//! per-cycle reference path.
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
//!   double as the measurement; finer (toward the paper's full sizes,
//!   `--scale 1`) the measured runs are fast-forward only, each verified
//!   functionally (transposition against
//!   [`menda_sparse::CsrMatrix::to_csc`], SpMV against the functional
//!   golden [`menda_sparse::CsrMatrix::spmv`]).
//! * **Table 4 tier** — the fifteen SuiteSparse stand-ins of Table 4
//!   (the paper's transposition workload set), fast-forward
//!   transposition at the requested `--scale`, each verified against
//!   [`menda_sparse::CsrMatrix::to_csc`].
//!
//! Writes `BENCH_10.json` into the output directory with per-run
//! cycles/sec and the fast-forward geomean relative to the
//! reference-path geomean.

use std::path::Path;

use menda_core::{spmv, MendaConfig, MendaSystem};
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

use crate::timing;
use crate::util::{self, geomean, Scale, Table};

/// Every Table 3 matrix, uniform and power-law.
const MATRICES: [&str; 16] = [
    "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8",
];

/// The oracle tier never runs coarser than this divisor: the per-cycle
/// reference path on full-size matrices would take hours.
const ORACLE_MAX_FACTOR: usize = 16;

struct Measurement {
    matrix: &'static str,
    kernel: &'static str,
    cycles: u64,
    /// Reference-path wall time; `None` for fast-forward-only runs.
    ref_wall_s: Option<f64>,
    ff_wall_s: f64,
}

impl Measurement {
    fn speedup(&self) -> Option<f64> {
        self.ref_wall_s.map(|r| {
            if self.ff_wall_s > 0.0 {
                r / self.ff_wall_s
            } else {
                f64::INFINITY
            }
        })
    }

    fn ff_cps(&self) -> f64 {
        self.cycles as f64 / self.ff_wall_s.max(1e-12)
    }

    fn ref_cps(&self) -> Option<f64> {
        self.ref_wall_s.map(|r| self.cycles as f64 / r.max(1e-12))
    }

    fn json(&self) -> String {
        let mut s = format!(
            concat!(
                "    {{\"matrix\": \"{}\", \"kernel\": \"{}\", \"sim_cycles\": {}, ",
                "\"fast_forward_wall_s\": {:.6}, \"fast_forward_cycles_per_sec\": {:.0}"
            ),
            self.matrix,
            self.kernel,
            self.cycles,
            self.ff_wall_s,
            self.ff_cps(),
        );
        if let (Some(r), Some(cps), Some(sp)) = (self.ref_wall_s, self.ref_cps(), self.speedup()) {
            s.push_str(&format!(
                ", \"reference_wall_s\": {r:.6}, \"reference_cycles_per_sec\": {cps:.0}, \"speedup\": {sp:.3}"
            ));
        }
        s.push('}');
        s
    }
}

/// The paper configuration with the requested host-thread count
/// (`threads == 1`, the default, pins one worker so the two paths' wall
/// clocks are directly comparable — no scheduler jitter across the 8 PU
/// workers).
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
/// bit-identity. Returns the timed measurements.
fn oracle_runs(name: &'static str, m: &CsrMatrix, seed: u64, threads: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    let (ref_wall, reference) =
        timing::time(1, || MendaSystem::new(cfg(false, threads)).transpose(m));
    let (ff_wall, fast) = timing::time(1, || MendaSystem::new(cfg(true, threads)).transpose(m));
    assert_eq!(reference.output, m.to_csc(), "{name}: wrong transpose");
    assert!(
        reference.output == fast.output
            && reference.cycles == fast.cycles
            && reference.pu_stats == fast.pu_stats,
        "{name}: fast-forward transposition diverged from the per-cycle reference"
    );
    out.push(Measurement {
        matrix: name,
        kernel: "transpose",
        cycles: fast.cycles,
        ref_wall_s: Some(ref_wall.as_secs_f64()),
        ff_wall_s: ff_wall.as_secs_f64(),
    });

    let x = x_vector(m, seed);
    let (ref_wall, reference) = timing::time(1, || spmv::run(&cfg(false, threads), m, &x));
    let (ff_wall, fast) = timing::time(1, || spmv::run(&cfg(true, threads), m, &x));
    assert!(
        reference == fast,
        "{name}: fast-forward SpMV diverged from the per-cycle reference"
    );
    out.push(Measurement {
        matrix: name,
        kernel: "spmv",
        cycles: fast.cycles,
        ref_wall_s: Some(ref_wall.as_secs_f64()),
        ff_wall_s: ff_wall.as_secs_f64(),
    });
    out
}

/// Fast-forward-only runs for one matrix, each functionally verified
/// (the bit-identity oracle for the same seeds runs at the oracle tier).
fn measured_runs(name: &'static str, m: &CsrMatrix, seed: u64, threads: usize) -> Vec<Measurement> {
    let mut out = Vec::new();
    out.push(transpose_run(name, m, threads));

    let x = x_vector(m, seed);
    let (ff_wall, fast) = timing::time(1, || spmv::run(&cfg(true, threads), m, &x));
    let golden = m.spmv(&x);
    assert_eq!(fast.y.len(), golden.len(), "{name}: wrong SpMV length");
    for (i, (got, want)) in fast.y.iter().zip(&golden).enumerate() {
        assert!(
            (got - want).abs() <= 1e-3 * want.abs().max(1.0),
            "{name}: SpMV row {i}: got {got}, want {want}"
        );
    }
    out.push(Measurement {
        matrix: name,
        kernel: "spmv",
        cycles: fast.cycles,
        ref_wall_s: None,
        ff_wall_s: ff_wall.as_secs_f64(),
    });
    out
}

/// One functionally-verified fast-forward transposition run.
fn transpose_run(name: &'static str, m: &CsrMatrix, threads: usize) -> Measurement {
    let (ff_wall, fast) = timing::time(1, || MendaSystem::new(cfg(true, threads)).transpose(m));
    assert_eq!(fast.output, m.to_csc(), "{name}: wrong transpose");
    Measurement {
        matrix: name,
        kernel: "transpose",
        cycles: fast.cycles,
        ref_wall_s: None,
        ff_wall_s: ff_wall.as_secs_f64(),
    }
}

/// Runs the benchmark at the requested scale with the default host
/// thread count (1). See [`run_with`].
///
/// # Errors
///
/// Returns an error if the artifact cannot be written.
pub fn run(scale: Scale, dir: &Path) -> Result<String, String> {
    run_with(scale, 1, dir)
}

/// Runs the benchmark at the requested scale and host-thread count,
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
    if !two_tier {
        measured = oracle
            .iter()
            .map(|m| Measurement {
                matrix: m.matrix,
                kernel: m.kernel,
                cycles: m.cycles,
                ref_wall_s: m.ref_wall_s,
                ff_wall_s: m.ff_wall_s,
            })
            .collect();
    }

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

    // The headline ratio: fast-forward throughput at the requested scale
    // vs the per-cycle reference path's throughput (oracle tier — the
    // only tier where running the reference is tractable).
    let ref_geomean_cps = geomean(
        &oracle
            .iter()
            .filter_map(Measurement::ref_cps)
            .collect::<Vec<_>>(),
    );
    let ff_geomean_cps = geomean(&measured.iter().map(Measurement::ff_cps).collect::<Vec<_>>());
    // The oracle tier's own fast-forward geomean: scale-independent of
    // the measured tier, so the CI `bench-scale` job (which reruns only
    // the oracle tier) can gate on it as a throughput floor.
    let oracle_ff_geomean_cps =
        geomean(&oracle.iter().map(Measurement::ff_cps).collect::<Vec<_>>());
    let table4_ff_geomean_cps =
        geomean(&table4.iter().map(Measurement::ff_cps).collect::<Vec<_>>());
    let vs_reference = ff_geomean_cps / ref_geomean_cps.max(1e-12);

    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"bench\",\n  \"scale\": {},\n  \"oracle_scale\": {},\n",
            "  \"threads\": {},\n",
            "  \"divergence\": false,\n  \"reference_geomean_cycles_per_sec\": {:.0},\n",
            "  \"fast_forward_geomean_cycles_per_sec\": {:.0},\n",
            "  \"oracle_fast_forward_geomean_cycles_per_sec\": {:.0},\n",
            "  \"table4_fast_forward_geomean_cycles_per_sec\": {:.0},\n",
            "  \"throughput_vs_reference_path\": {:.3},\n  \"runs\": [\n{}\n  ],\n",
            "  \"oracle_runs\": [\n{}\n  ],\n",
            "  \"table4_runs\": [\n{}\n  ]\n}}\n"
        ),
        factor,
        oracle_factor,
        threads,
        ref_geomean_cps,
        ff_geomean_cps,
        oracle_ff_geomean_cps,
        table4_ff_geomean_cps,
        vs_reference,
        measured
            .iter()
            .map(Measurement::json)
            .collect::<Vec<_>>()
            .join(",\n"),
        oracle
            .iter()
            .map(Measurement::json)
            .collect::<Vec<_>>()
            .join(",\n"),
        table4
            .iter()
            .map(Measurement::json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let path = util::write_artifact(dir, "BENCH_10.json", &json)
        .map_err(|e| format!("writing BENCH_10.json to {}: {e}", dir.display()))?;

    let mut out = format!(
        "Simulator benchmark: event-driven fast-forward vs per-cycle reference\n\
         (paper 8-PU system, {threads} host thread(s); measured at 1/{factor} scale, oracle bit-identity at 1/{oracle_factor} scale)\n\n",
    );
    let mut t = Table::new(&[
        "matrix",
        "kernel",
        "sim cycles",
        "reference",
        "fast-fwd",
        "Mcyc/s",
        "speedup",
    ]);
    for m in &measured {
        t.row(&[
            m.matrix.to_string(),
            m.kernel.to_string(),
            format!("{}", m.cycles),
            m.ref_wall_s.map_or("-".into(), util::fmt_time),
            util::fmt_time(m.ff_wall_s),
            format!("{:.2}", m.ff_cps() / 1e6),
            m.speedup().map_or("-".into(), |s| format!("{s:.2}x")),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nTable 4 stand-ins (transposition, fast-forward, at 1/{factor} scale):\n\n"
    ));
    let mut t4 = Table::new(&["matrix", "sim cycles", "fast-fwd", "Mcyc/s"]);
    for m in &table4 {
        t4.row(&[
            m.matrix.to_string(),
            format!("{}", m.cycles),
            util::fmt_time(m.ff_wall_s),
            format!("{:.2}", m.ff_cps() / 1e6),
        ]);
    }
    out.push_str(&t4.render());
    out.push_str(&format!(
        "\nFast-forward geomean: {:.0} cycles/sec — {:.1}x the reference path's {:.0} cycles/sec\n\
         Table 4 geomean: {:.0} cycles/sec\nWrote {}\n",
        ff_geomean_cps,
        vs_reference,
        ref_geomean_cps,
        table4_ff_geomean_cps,
        path.display()
    ));
    Ok(out)
}
