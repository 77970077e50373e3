//! `repro checkpoint` — demonstrates the snapshot container end to end.
//!
//! Pauses a transposition at several points, persists each snapshot
//! container to disk under `<dir>/checkpoints/`, restores it from the
//! file into a *fresh* system, and verifies the resumed run is
//! bit-identical to the straight uninterrupted run. Also exercises the
//! cross-scheduler guarantee the container format is built around: a
//! snapshot captured under the per-cycle reference scheduler restores
//! under the event-driven fast-forward scheduler (host knobs are
//! excluded from the config fingerprint), and vice versa.

use std::path::Path;

use menda_core::{BackendKind, MendaConfig, MendaSystem, TransposeResult};
use menda_sparse::gen;

use crate::util::{self, Scale, Table};

fn identical(a: &TransposeResult, b: &TransposeResult) -> bool {
    a.output == b.output && a.cycles == b.cycles && a.pu_stats == b.pu_stats
}

fn config(fast_forward: bool) -> MendaConfig {
    MendaConfig::small_test()
        .with_threads(1)
        .with_fast_forward(fast_forward)
}

fn pause_snapshot(
    cfg: &MendaConfig,
    backend: BackendKind,
    m: &menda_sparse::CsrMatrix,
    pause_at: u64,
) -> Option<Vec<u8>> {
    MendaSystem::new(cfg.clone())
        .transpose_to_cycle(m, backend, None, Some(pause_at))
        .expect("tracing disabled, pause cannot be refused")
        .snapshot()
}

fn resume(
    cfg: &MendaConfig,
    backend: BackendKind,
    m: &menda_sparse::CsrMatrix,
    snapshot: &[u8],
) -> Result<TransposeResult, menda_core::SnapshotError> {
    MendaSystem::new(cfg.clone())
        .transpose_to_cycle(m, backend, Some(snapshot), None)
        .map(|outcome| outcome.finished().expect("no pause target"))
}

/// Runs the checkpoint demonstration and writes `CHECKPOINT_9.txt` into
/// `dir`.
///
/// # Errors
///
/// Returns an error if any restored run differs from its straight-run
/// baseline, or on a filesystem failure.
pub fn run(scale: Scale, dir: &Path) -> Result<String, String> {
    let factor = scale.factor();
    let m = gen::table3_spec("N1")
        .ok_or_else(|| "Table 3 has no entry named 'N1'".to_string())?
        .generate_scaled(factor, 0xC4E);
    let ckpt_dir = dir.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("creating {}: {e}", ckpt_dir.display()))?;

    let mut t = Table::new(&[
        "backend",
        "capture",
        "resume",
        "pause",
        "container",
        "match",
    ]);
    let mut mismatches = 0usize;

    for backend in BackendKind::ALL {
        let cfg_ff = config(true);
        let cfg_ref = config(false);
        let direct = MendaSystem::new(cfg_ff.clone()).transpose_with(&m, backend);

        // Round-trip through disk at three points of the run, restoring
        // on the same scheduler the snapshot was captured under.
        for quarters in [1u64, 2, 3] {
            let pause = (direct.cycles * quarters / 4).max(1);
            let Some(bytes) = pause_snapshot(&cfg_ff, backend, &m, pause) else {
                t.row(&[
                    backend.label().to_string(),
                    "ff".into(),
                    "ff".into(),
                    format!("{pause}"),
                    "-".into(),
                    "finished early".into(),
                ]);
                continue;
            };
            let file = ckpt_dir.join(format!("ckpt_{}_{}.menda", backend.label(), pause));
            std::fs::write(&file, &bytes)
                .map_err(|e| format!("writing {}: {e}", file.display()))?;
            let from_disk =
                std::fs::read(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
            let resumed = resume(&cfg_ff, backend, &m, &from_disk)
                .map_err(|e| format!("restore from {}: {e}", file.display()))?;
            let ok = identical(&direct, &resumed);
            mismatches += usize::from(!ok);
            t.row(&[
                backend.label().to_string(),
                "ff".into(),
                "ff".into(),
                format!("{pause}"),
                format!("{:.1} KiB", bytes.len() as f64 / 1024.0),
                if ok { "yes" } else { "DIVERGED" }.to_string(),
            ]);
        }

        // Cross-scheduler restore: capture under the reference per-cycle
        // scheduler, resume under fast-forward, and the reverse.
        for (capture_cfg, resume_cfg, cap, res) in [
            (&cfg_ref, &cfg_ff, "ref", "ff"),
            (&cfg_ff, &cfg_ref, "ff", "ref"),
        ] {
            let pause = (direct.cycles / 3).max(1);
            let Some(bytes) = pause_snapshot(capture_cfg, backend, &m, pause) else {
                continue;
            };
            let resumed = resume(resume_cfg, backend, &m, &bytes)
                .map_err(|e| format!("{cap}->{res} restore: {e}"))?;
            let ok = identical(&direct, &resumed);
            mismatches += usize::from(!ok);
            t.row(&[
                backend.label().to_string(),
                cap.into(),
                res.into(),
                format!("{pause}"),
                format!("{:.1} KiB", bytes.len() as f64 / 1024.0),
                if ok { "yes" } else { "DIVERGED" }.to_string(),
            ]);
        }
    }

    let mut out = format!(
        "Checkpoint round-trips over N1 (1/{factor} scale); containers under {}\n\n",
        ckpt_dir.display()
    );
    out.push_str(&t.render());
    out.push_str(&format!("\nmismatches: {mismatches}\n"));
    let path = util::write_artifact(dir, "CHECKPOINT_9.txt", &out)
        .map_err(|e| format!("writing CHECKPOINT_9.txt to {}: {e}", dir.display()))?;
    out.push_str(&format!("Wrote {}\n", path.display()));
    if mismatches > 0 {
        return Err(format!("{mismatches} restored run(s) diverged\n\n{out}"));
    }
    Ok(out)
}
