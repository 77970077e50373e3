//! Absolute cycle-fingerprint regression tests for the merge-tree
//! activation policy (ISSUE 9, closing a seam noted in the ROADMAP).
//!
//! The ref/ff differential suites prove the two execution paths agree
//! with *each other*, but both share the per-cycle `tick()` machinery —
//! a change to the activation calculus (which buffers wake, when parked
//! plans retry, how chunk completions re-arm the worklist) shifts both
//! paths identically and sails straight through every differential. The
//! only guard against silent activation drift is pinning *absolute*
//! cycle counts on known inputs.
//!
//! The pinned values are the four scale-4 fingerprints that were held
//! invariant through every hot-path rewrite of the BENCH_7 overhaul
//! (see CHANGES.md): Table 3's N1 and P1, transpose and SpMV, under the
//! paper configuration. A deliberate timing-model change is allowed to
//! move them — update the constants in the same commit and say why. An
//! "optimisation" that moves them is a bug.
//!
//! The scale-4 tier is `#[ignore]`d (minutes of simulated work; CI runs
//! it in release). The scale-64/32 tiers pin the same seeds at reduced
//! size and run on every `cargo test`.
//!
//! The ladder also holds scale-8 fingerprints for both accelerator
//! backends (MeNDA merge-tree PU and the SparseP-style PIM model), PIM
//! fingerprints at the everyday tiers, and an invariance test proving
//! every pinned count holds at host thread counts 1/2/4 — the per-PU
//! fan-out is a wall-clock mode only.

use menda_core::{spmv, BackendKind, MendaConfig, MendaSystem};
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

/// The paper configuration pinned to one host thread — the exact
/// configuration the fingerprints were recorded under (`repro bench`'s
/// `cfg`). Thread count cannot move cycle counts (the engine is proven
/// thread-invariant), but pinning it keeps the recipe exact.
fn cfg(fast: bool) -> MendaConfig {
    MendaConfig::paper().with_threads(1).with_fast_forward(fast)
}

/// The two pinned matrix seeds: the first two draws of `repro bench`'s
/// seed chain (`StdRng::seed_from_u64(0xBE5C)`), assigned N1 then P1.
fn seeds() -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0xBE5C);
    (rng.next_u64(), rng.next_u64())
}

/// Deterministic SpMV input vector (`repro bench`'s `x_vector`). Values
/// cannot move cycle counts — timing depends only on structure — but
/// the pinned recipe is reproduced exactly.
fn x_vector(m: &CsrMatrix, seed: u64) -> Vec<f32> {
    (0..m.ncols())
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 17) as f32 * 0.25 - 2.0)
        .collect()
}

fn transpose_cycles(m: &CsrMatrix, fast: bool) -> u64 {
    let r = MendaSystem::new(cfg(fast)).transpose(m);
    assert_eq!(r.output, m.to_csc(), "transpose output wrong");
    r.cycles
}

fn spmv_cycles(m: &CsrMatrix, seed: u64, fast: bool) -> u64 {
    let x = x_vector(m, seed);
    spmv::run(&cfg(fast), m, &x).cycles
}

fn pim_transpose_cycles(m: &CsrMatrix, fast: bool) -> u64 {
    let r = MendaSystem::new(cfg(fast)).transpose_with(m, BackendKind::Pim);
    assert_eq!(r.output, m.to_csc(), "PIM transpose output wrong");
    r.cycles
}

fn pim_spmv_cycles(m: &CsrMatrix, seed: u64, fast: bool) -> u64 {
    let x = x_vector(m, seed);
    spmv::run_with_backend(&cfg(fast), m, &x, Default::default(), BackendKind::Pim).cycles
}

/// One matrix at one scale against its four pinned cycle counts
/// (transpose/SpMV × fast-forward/reference).
fn check(
    name: &str,
    scale: usize,
    seed: u64,
    want_transpose: u64,
    want_spmv: u64,
    both_paths: bool,
) {
    let m = gen::table3_spec(name)
        .expect("table 3 name")
        .generate_scaled(scale, seed);
    assert_eq!(
        transpose_cycles(&m, true),
        want_transpose,
        "{name}/{scale}: transpose fingerprint moved — activation-policy drift?"
    );
    assert_eq!(
        spmv_cycles(&m, seed, true),
        want_spmv,
        "{name}/{scale}: SpMV fingerprint moved — activation-policy drift?"
    );
    if both_paths {
        assert_eq!(
            transpose_cycles(&m, false),
            want_transpose,
            "{name}/{scale}: reference-path transpose fingerprint moved"
        );
        assert_eq!(
            spmv_cycles(&m, seed, false),
            want_spmv,
            "{name}/{scale}: reference-path SpMV fingerprint moved"
        );
    }
}

/// One matrix at one scale against its PIM-backend pinned cycle counts.
/// The SparseP-style PIM model has its own activation machinery (DPU
/// work queues, rank-level scheduling), so it gets its own absolute
/// fingerprints rather than inheriting the merge-tree PU's.
fn check_pim(
    name: &str,
    scale: usize,
    seed: u64,
    want_transpose: u64,
    want_spmv: u64,
    both_paths: bool,
) {
    let m = gen::table3_spec(name)
        .expect("table 3 name")
        .generate_scaled(scale, seed);
    assert_eq!(
        pim_transpose_cycles(&m, true),
        want_transpose,
        "{name}/{scale}: PIM transpose fingerprint moved"
    );
    assert_eq!(
        pim_spmv_cycles(&m, seed, true),
        want_spmv,
        "{name}/{scale}: PIM SpMV fingerprint moved"
    );
    if both_paths {
        assert_eq!(
            pim_transpose_cycles(&m, false),
            want_transpose,
            "{name}/{scale}: reference-path PIM transpose fingerprint moved"
        );
        assert_eq!(
            pim_spmv_cycles(&m, seed, false),
            want_spmv,
            "{name}/{scale}: reference-path PIM SpMV fingerprint moved"
        );
    }
}

#[test]
fn scale64_fingerprints_hold() {
    let (n1, p1) = seeds();
    check("N1", 64, n1, 10141, 12149, true);
    check("P1", 64, p1, 26824, 14071, true);
}

#[test]
fn scale32_fingerprints_hold() {
    let (n1, p1) = seeds();
    check("N1", 32, n1, 54587, 30745, true);
    check("P1", 32, p1, 56805, 29669, true);
}

#[test]
fn pim_scale64_fingerprints_hold() {
    let (n1, p1) = seeds();
    check_pim("N1", 64, n1, 22813, 26791, true);
    check_pim("P1", 64, p1, 35804, 24988, true);
}

#[test]
fn pim_scale32_fingerprints_hold() {
    let (n1, p1) = seeds();
    check_pim("N1", 32, n1, 45379, 52879, true);
    check_pim("P1", 32, p1, 62080, 49211, true);
}

/// The per-PU fan-out is a pure wall-clock mode: every pinned
/// fingerprint must hold at every thread count, on the fast-forward
/// path. A moved count here means threading changed *observable*
/// simulation state, not just its schedule.
#[test]
fn fingerprints_invariant_across_threads() {
    let (n1, p1) = seeds();
    for (name, seed, want_t, want_s) in [("N1", n1, 10141u64, 12149u64), ("P1", p1, 26824, 14071)] {
        let m = gen::table3_spec(name)
            .expect("table 3 name")
            .generate_scaled(64, seed);
        let x = x_vector(&m, seed);
        for threads in [1usize, 2, 4] {
            let what = format!("{name}/64 threads={threads}");
            let c = MendaConfig::paper()
                .with_threads(threads)
                .with_fast_forward(true);
            let r = MendaSystem::new(c.clone()).transpose(&m);
            assert_eq!(r.output, m.to_csc(), "{what}: transpose output wrong");
            assert_eq!(r.cycles, want_t, "{what}: transpose fingerprint moved");
            assert_eq!(
                spmv::run(&c, &m, &x).cycles,
                want_s,
                "{what}: SpMV fingerprint moved"
            );
        }
    }
}

/// The four PR 7 fingerprints. Run by the CI `checkpoint` job in
/// release: `cargo test -p menda-core --release --test
/// activation_fingerprints -- --ignored`.
#[test]
#[ignore = "minutes of simulated work; CI runs it in release"]
fn scale4_fingerprints_hold() {
    let (n1, p1) = seeds();
    check("N1", 4, n1, 357_065, 416_047, false);
    check("P1", 4, p1, 448_699, 325_685, false);
}

/// Scale-8 fingerprints for both backends (ISSUE 10), extending the
/// pinned ladder one octave finer than the everyday tiers. Run by the
/// CI `checkpoint` job in release (`--include-ignored`) alongside the
/// scale-4 tier.
#[test]
#[ignore = "release-scale runs; CI runs it in release"]
fn scale8_fingerprints_hold() {
    let (n1, p1) = seeds();
    check("N1", 8, n1, 186_666, 189_757, false);
    check("P1", 8, p1, 215_473, 145_585, false);
    check_pim("N1", 8, n1, 184_271, 214_103, false);
    check_pim("P1", 8, p1, 206_948, 194_740, false);
}
