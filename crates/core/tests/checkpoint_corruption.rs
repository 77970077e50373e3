//! Negative-path suite for the snapshot container (ISSUE 9 satellite):
//! hostile bytes must produce typed [`SnapshotError`]s — never a panic,
//! never a partial restore, never an absurd allocation.
//!
//! Layers of defence exercised here, in rejection-precedence order:
//!
//! 1. magic — anything that doesn't open with `b"MENDACKP"` is
//!    [`SnapshotError::BadMagic`],
//! 2. checksum — the trailing FNV-1a covers every preceding byte, so any
//!    single-bit flip or truncation is [`SnapshotError::ChecksumMismatch`],
//! 3. version / config fingerprint / backend name / unit count — header
//!    fields are revalidated even when an attacker *forges* the checksum,
//! 4. payload structure — forged-checksum bodies that survive the header
//!    still hit the bounds-checked decoder, which rejects truncated fields
//!    and out-of-domain values without allocating.
//!
//! The fuzz tests forge checksums deliberately: a flipped byte plus a
//! recomputed trailing hash models an adversary (or a cosmic-ray-plus-
//! rehash pipeline) rather than simple bit rot, and the contract there is
//! "typed error or a clean completed run" — nothing in between.

use menda_core::{
    BackendKind, JobSpec, MatrixSource, MendaConfig, MendaSystem, SnapshotError, SNAPSHOT_MAGIC,
};
use menda_dram::fnv1a;
use menda_sparse::gen;
use menda_sparse::rng::StdRng;
use menda_sparse::CsrMatrix;

fn cfg() -> MendaConfig {
    MendaConfig::small_test()
}

fn matrix() -> CsrMatrix {
    gen::rmat(96, 768, gen::RmatParams::PAPER, 21)
}

/// A small matrix for the byte-level fuzz loops: each probe re-parses
/// (and, when the forged payload decodes, re-simulates) the whole
/// container, so fuzz cost scales with snapshot size squared.
fn small_matrix() -> CsrMatrix {
    gen::uniform(48, 384, 9)
}

/// Fuzz probe positions over a snapshot of `len` bytes: the whole header
/// region exhaustively, then `samples` xoshiro-drawn positions across the
/// payload.
fn fuzz_positions(len: usize, samples: usize, rng: &mut StdRng) -> Vec<usize> {
    let header = SNAPSHOT_MAGIC.len() + 4 + 8 + 8 + "menda".len() + 8;
    let mut positions: Vec<usize> = (0..header.min(len)).collect();
    for _ in 0..samples {
        positions.push(rng.random_range(0..len));
    }
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// A valid paused snapshot of `m`'s transposition under `cfg`.
fn valid_snapshot(m: &CsrMatrix, cfg: &MendaConfig) -> Vec<u8> {
    MendaSystem::new(cfg.clone())
        .transpose_to_cycle(m, BackendKind::Menda, None, Some(400))
        .expect("pause")
        .snapshot()
        .expect("run must pause at cycle 400")
}

/// Recomputes the trailing checksum after deliberate edits — the forged
/// checksum an adversary controlling the bytes would supply.
fn refresh_checksum(bytes: &mut [u8]) {
    let n = bytes.len();
    let sum = fnv1a(&bytes[..n - 8]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
}

fn resume(m: &CsrMatrix, cfg: &MendaConfig, bytes: &[u8]) -> Result<(), SnapshotError> {
    MendaSystem::new(cfg.clone())
        .transpose_to_cycle(m, BackendKind::Menda, Some(bytes), None)
        .map(|outcome| {
            let result = outcome.finished().expect("no pause target");
            // If hostile bytes do restore (forged checksum that decodes
            // cleanly), the run must still complete to a full result —
            // no partial state, no torn output.
            assert_eq!(result.output.nnz(), m.nnz(), "restore produced torn output");
        })
}

#[test]
fn garbage_and_empty_inputs_are_bad_magic() {
    let m = matrix();
    let cfg = cfg();
    assert_eq!(resume(&m, &cfg, &[]), Err(SnapshotError::BadMagic));
    assert_eq!(resume(&m, &cfg, b"MENDACK"), Err(SnapshotError::BadMagic));
    assert_eq!(
        resume(&m, &cfg, b"not a snapshot at all"),
        Err(SnapshotError::BadMagic)
    );
    // 4 KiB of deterministic noise.
    let mut rng = StdRng::seed_from_u64(0x0BAD_5EED);
    let noise: Vec<u8> = (0..4096).map(|_| rng.random_range(0..256) as u8).collect();
    assert_eq!(resume(&m, &cfg, &noise), Err(SnapshotError::BadMagic));
    // Magic alone, nothing behind it.
    assert_eq!(
        resume(&m, &cfg, &SNAPSHOT_MAGIC),
        Err(SnapshotError::ChecksumMismatch)
    );
}

/// Truncations of a valid snapshot are rejected with a typed error — the
/// checksum guards the tail, the magic guards the head. Exhaustive over
/// the header, sampled across the payload.
#[test]
fn truncation_is_rejected() {
    let m = small_matrix();
    let cfg = cfg();
    let snapshot = valid_snapshot(&m, &cfg);
    let mut rng = StdRng::seed_from_u64(0xC07_0FF);
    for cut in fuzz_positions(snapshot.len(), 256, &mut rng) {
        let err = resume(&m, &cfg, &snapshot[..cut]).expect_err("truncation must fail");
        let expected = if cut < SNAPSHOT_MAGIC.len() {
            SnapshotError::BadMagic
        } else {
            SnapshotError::ChecksumMismatch
        };
        assert_eq!(err, expected, "cut={cut}");
    }
    // The untouched snapshot still restores.
    assert!(resume(&m, &cfg, &snapshot).is_ok());
}

/// Byte-level corruption fuzz: flip one bit at header and sampled payload
/// positions of a valid snapshot. Without a forged checksum, every flip
/// must surface as `BadMagic` (head) or `ChecksumMismatch` (everywhere
/// else) — and must never panic.
#[test]
fn single_bit_flips_are_caught() {
    let m = small_matrix();
    let cfg = cfg();
    let snapshot = valid_snapshot(&m, &cfg);
    let mut rng = StdRng::seed_from_u64(0xF11B_1234);
    for i in fuzz_positions(snapshot.len(), 256, &mut rng) {
        let mut bad = snapshot.clone();
        bad[i] ^= 1 << rng.random_range(0..8);
        let err = resume(&m, &cfg, &bad).expect_err("bit flip must fail");
        let expected = if i < SNAPSHOT_MAGIC.len() {
            SnapshotError::BadMagic
        } else {
            SnapshotError::ChecksumMismatch
        };
        assert_eq!(err, expected, "flip at byte {i}");
    }
}

/// Adversarial corruption fuzz: flip a bit *and* forge the trailing
/// checksum so the payload reaches the structural decoder. The contract:
/// a typed error or a cleanly completed run — never a panic escaping the
/// checkpoint layer, never an absurd allocation. A forged state is a
/// *fabricated machine state*, so two outcome classes are legitimate:
/// the run may complete (with whatever results that state produces), or
/// the in-simulator assertions fire and the checkpoint layer converts
/// the unwind to [`SnapshotError::Corrupt`]. Forged states can also
/// fabricate unbounded *work* (a huge-but-plausible progress counter is
/// indistinguishable from a long legitimate run); those probes are
/// abandoned on a watchdog timeout — the property under test is safety,
/// not time-boundedness.
#[test]
fn forged_checksum_corruption_never_panics() {
    let m = small_matrix();
    let cfg = cfg();
    let snapshot = valid_snapshot(&m, &cfg);
    let mut rng = StdRng::seed_from_u64(0x00DD_5EED);
    // The checkpoint layer catches forged-state panics internally, but
    // the default hook would still print each one; silence it for the
    // duration of the fuzz. Failures are collected and asserted after
    // the hook is restored so their messages stay visible.
    let hook = std::panic::take_hook();
    if std::env::var_os("FUZZ_SHOW_PANICS").is_none() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let mut failures = Vec::new();
    let mut slow = 0usize;
    for i in fuzz_positions(snapshot.len() - 8, 192, &mut rng) {
        let mut bad = snapshot.clone();
        bad[i] ^= 1 << rng.random_range(0..8);
        refresh_checksum(&mut bad);
        let (tx, rx) = std::sync::mpsc::channel();
        let m2 = m.clone();
        let cfg2 = cfg.clone();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                MendaSystem::new(cfg2)
                    .transpose_to_cycle(&m2, BackendKind::Menda, Some(&bad), None)
                    .map(drop)
            }));
            let _ = tx.send(outcome);
        });
        match rx.recv_timeout(std::time::Duration::from_millis(500)) {
            Ok(Ok(Ok(()))) => {} // completed cleanly — acceptable
            Ok(Ok(Err(
                SnapshotError::BadMagic
                | SnapshotError::BadVersion
                | SnapshotError::ConfigMismatch
                | SnapshotError::BackendMismatch
                | SnapshotError::JobMismatch
                | SnapshotError::Corrupt,
            ))) => {}
            Ok(Ok(Err(e))) => failures.push(format!("byte {i}: unexpected error {e:?}")),
            Ok(Err(_)) => failures.push(format!("byte {i}: panic escaped checkpoint layer")),
            // Fabricated long-running state; the probe thread is
            // abandoned (it dies with the test process).
            Err(_) => slow += 1,
        }
        if slow > 16 {
            break; // enough runaway threads; coverage point made
        }
    }
    std::panic::set_hook(hook);
    assert!(failures.is_empty(), "forged-corruption fuzz: {failures:?}");
}

/// An unsupported format version is rejected as such even with a forged
/// checksum.
#[test]
fn wrong_version_is_rejected() {
    let m = matrix();
    let cfg = cfg();
    let mut bad = valid_snapshot(&m, &cfg);
    // Version is the little-endian u32 right after the 8-byte magic.
    bad[SNAPSHOT_MAGIC.len()] = 0xfe;
    refresh_checksum(&mut bad);
    assert_eq!(resume(&m, &cfg, &bad), Err(SnapshotError::BadVersion));
}

/// A snapshot taken under one machine configuration refuses to restore
/// into another — and the mismatch is reported as such, not as generic
/// corruption.
#[test]
fn config_fingerprint_mismatch_is_rejected() {
    let m = matrix();
    let base = cfg();
    let snapshot = valid_snapshot(&m, &base);

    let mut more_leaves = base.clone();
    more_leaves.pu.leaves *= 2;
    let mut slower_dram = base.clone();
    slower_dram.dram.timing.t_rcd += 1;
    let other_topology = base.clone().with_ranks_per_channel(4);
    for other in [more_leaves, slower_dram, other_topology] {
        assert_eq!(
            MendaSystem::new(other)
                .transpose_to_cycle(&m, BackendKind::Menda, Some(&snapshot), None)
                .map(drop),
            Err(SnapshotError::ConfigMismatch)
        );
    }
    // Fingerprint-neutral host knobs still restore.
    let host_knobs = base.clone().with_threads(4).with_fast_forward(false);
    assert!(MendaSystem::new(host_knobs)
        .transpose_to_cycle(&m, BackendKind::Menda, Some(&snapshot), None)
        .is_ok());
}

/// A MeNDA snapshot refuses to restore into the PIM backend (and vice
/// versa) with a dedicated error.
#[test]
fn backend_mismatch_is_rejected() {
    let m = matrix();
    let cfg = cfg();
    let menda_snapshot = valid_snapshot(&m, &cfg);
    assert_eq!(
        MendaSystem::new(cfg.clone())
            .transpose_to_cycle(&m, BackendKind::Pim, Some(&menda_snapshot), None)
            .map(drop),
        Err(SnapshotError::BackendMismatch)
    );

    let pim_snapshot = MendaSystem::new(cfg.clone())
        .transpose_to_cycle(&m, BackendKind::Pim, None, Some(400))
        .expect("pause")
        .snapshot()
        .expect("pim run must pause at cycle 400");
    assert_eq!(
        MendaSystem::new(cfg.clone())
            .transpose_to_cycle(&m, BackendKind::Menda, Some(&pim_snapshot), None)
            .map(drop),
        Err(SnapshotError::BackendMismatch)
    );
}

/// A tampered unit count (forged checksum) is caught before any unit
/// payload is interpreted.
#[test]
fn tampered_unit_count_is_rejected() {
    let m = matrix();
    let cfg = cfg();
    let mut bad = valid_snapshot(&m, &cfg);
    // Offset of the unit count: magic + version + config fingerprint +
    // length-prefixed backend name ("menda").
    let count_at = SNAPSHOT_MAGIC.len() + 4 + 8 + 8 + "menda".len();
    bad[count_at] = bad[count_at].wrapping_add(1);
    refresh_checksum(&mut bad);
    let err = resume(&m, &cfg, &bad).expect_err("tampered count must fail");
    assert!(
        matches!(err, SnapshotError::ConfigMismatch | SnapshotError::Corrupt),
        "unexpected error {err:?}"
    );
}

/// A snapshot never restores into a different kernel launch: the JobSpec
/// seam maps every snapshot failure to a typed job error, and the owning
/// spec still resumes cleanly afterwards — failed attempts leave nothing
/// behind.
#[test]
fn jobspec_seam_reports_and_recovers() {
    let mut spec = JobSpec::new(MatrixSource::Rmat { dim: 96, nnz: 768 });
    spec.channels = 1;
    spec.ranks_per_channel = 2;
    spec.leaves = 16;
    spec.prefetch_buffer_entries = 4;
    spec.threads = Some(1);
    spec.seed = 23;

    let menda_core::JobProgress::Paused(snapshot) = spec.execute_to_cycle(300).expect("pause")
    else {
        panic!("job finished before the pause target");
    };

    // Corrupt bytes surface as a typed job error.
    let mut bad = snapshot.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    let err = spec.resume(&bad).expect_err("corrupt snapshot must fail");
    assert!(err.to_string().contains("snapshot"), "unexpected: {err}");

    // So do someone else's bytes.
    let mut other = spec.clone();
    other.seed = 24;
    assert!(other.resume(&snapshot).is_err());

    // And after both failures the rightful owner still restores to the
    // byte-identical outcome.
    let straight = spec.execute().expect("straight run");
    let resumed = spec.resume(&snapshot).expect("owner resumes");
    assert_eq!(straight.to_json(), resumed.to_json());
    assert_eq!(straight.digest(), resumed.digest());
}
