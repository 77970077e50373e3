//! `repro sweep` — resumable design-space exploration built on the
//! checkpoint subsystem.
//!
//! Sweeps 32 machine configurations (compute units × PU count × DRAM
//! substrate × row policy × backend) over one workload. Every
//! configuration runs twice:
//!
//! * **cold** — a straight uninterrupted simulation (the baseline), and
//! * **warm** — resumed from the *longest cached simulation prefix*: a
//!   snapshot container persisted under `<dir>/sweep_ckpt/`, keyed by
//!   the configuration fingerprint (which the restore path revalidates,
//!   so a stale or foreign cache entry degrades to a cold build rather
//!   than a wrong result).
//!
//! On a cache miss the explorer builds the prefix chain itself — pause
//! at ¼ of the cold run, serialize, resume to ½, serialize again — so a
//! *re-run* of the sweep (same results dir) resumes every configuration
//! from the ½-cycle prefix and demonstrably skips that work. The warm
//! result must be **bit-identical** to the cold run (outputs, cycle
//! count, per-PU stats); any mismatch counts as a divergence and fails
//! the experiment. The explorer emits `SWEEP_9.json` with per-config
//! cycles, modeled energy, wall times, reused-prefix depth and the
//! Pareto front minimizing (cycles, energy).

use std::path::{Path, PathBuf};
use std::time::Instant;

use menda_core::energy::PowerModel;
use menda_core::{
    config_fingerprint, BackendKind, MendaConfig, MendaSystem, SnapshotOutcome, TransposeResult,
};
use menda_dram::power::{energy as dram_energy, Interface};
use menda_dram::{DramConfig, RowPolicy};
use menda_sparse::gen;

use crate::util::{self, Scale, Table};

/// One point of the design space.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Merge-tree leaves (MeNDA) or DPUs per rank (PIM).
    units: usize,
    /// Ranks on the single swept channel (= PUs).
    ranks: usize,
    dram: Substrate,
    policy: RowPolicy,
    backend: BackendKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Substrate {
    Ddr4,
    Lpddr4,
}

impl Substrate {
    fn label(self) -> &'static str {
        match self {
            Substrate::Ddr4 => "ddr4-2400",
            Substrate::Lpddr4 => "lpddr4-3200",
        }
    }

    fn config(self) -> DramConfig {
        match self {
            Substrate::Ddr4 => DramConfig::ddr4_2400r(),
            Substrate::Lpddr4 => DramConfig::lpddr4_3200(),
        }
    }
}

fn policy_label(policy: RowPolicy) -> &'static str {
    match policy {
        RowPolicy::OpenPage => "open",
        RowPolicy::ClosedPage => "closed",
    }
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{}/u{}/r{}/{}/{}",
            self.backend.label(),
            self.units,
            self.ranks,
            self.dram.label(),
            policy_label(self.policy),
        )
    }

    /// The machine configuration for this point. Host knobs are pinned
    /// (serial, fast-forward) so wall times compare like for like.
    fn config(&self) -> MendaConfig {
        let mut cfg = MendaConfig::small_test()
            .with_channels(1)
            .with_ranks_per_channel(self.ranks)
            .with_threads(1)
            .with_fast_forward(true);
        match self.backend {
            BackendKind::Menda => cfg.pu.leaves = self.units,
            BackendKind::Pim => cfg.pim.dpus_per_rank = self.units,
        }
        cfg.dram = self.dram.config();
        cfg.dram.row_policy = self.policy;
        cfg
    }
}

/// The full grid: 2 × 2 × 2 × 2 × 2 = 32 configurations.
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for backend in BackendKind::ALL {
        for units in [8, 16] {
            for ranks in [1, 2] {
                for dram in [Substrate::Ddr4, Substrate::Lpddr4] {
                    for policy in [RowPolicy::OpenPage, RowPolicy::ClosedPage] {
                        points.push(Point {
                            units,
                            ranks,
                            dram,
                            policy,
                            backend,
                        });
                    }
                }
            }
        }
    }
    points
}

struct Run {
    label: String,
    fingerprint: u64,
    cycles: u64,
    seconds: f64,
    dram_energy_j: f64,
    compute_energy_j: f64,
    compute_modeled: bool,
    cold_ms: f64,
    warm_ms: f64,
    reused_prefix_cycles: u64,
    cache: &'static str,
    divergent: bool,
    pareto: bool,
}

impl Run {
    fn energy_j(&self) -> f64 {
        self.dram_energy_j + self.compute_energy_j
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "    {{\"config\": \"{}\", \"fingerprint\": \"{:016x}\", ",
                "\"cycles\": {}, \"seconds\": {:.9}, ",
                "\"dram_energy_j\": {:.9}, \"compute_energy_j\": {:.9}, ",
                "\"compute_energy_modeled\": {}, \"energy_j\": {:.9}, ",
                "\"cold_ms\": {:.3}, \"warm_ms\": {:.3}, ",
                "\"reused_prefix_cycles\": {}, \"cache\": \"{}\", ",
                "\"divergent\": {}, \"pareto\": {}}}"
            ),
            self.label,
            self.fingerprint,
            self.cycles,
            self.seconds,
            self.dram_energy_j,
            self.compute_energy_j,
            self.compute_modeled,
            self.energy_j(),
            self.cold_ms,
            self.warm_ms,
            self.reused_prefix_cycles,
            self.cache,
            self.divergent,
            self.pareto,
        )
    }
}

/// The deepest cached prefix for `(backend, fingerprint)`, if any:
/// `(pause_cycle, path)`. The backend is part of the key because the
/// config fingerprint hashes the *machine description* — which carries
/// both PU and PIM parameters — not which backend interprets it, so two
/// points of the grid can legitimately share a fingerprint.
fn deepest_prefix(
    cache_dir: &Path,
    backend: BackendKind,
    fingerprint: u64,
) -> Option<(u64, PathBuf)> {
    let prefix = format!("{}_{fingerprint:016x}_", backend.label());
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(cache_dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(cycle) = rest.strip_suffix(".ckpt").and_then(|c| c.parse().ok()) else {
            continue;
        };
        if best.as_ref().is_none_or(|(c, _)| cycle > *c) {
            best = Some((cycle, entry.path()));
        }
    }
    best
}

fn cache_path(cache_dir: &Path, backend: BackendKind, fingerprint: u64, cycle: u64) -> PathBuf {
    cache_dir.join(format!(
        "{}_{fingerprint:016x}_{cycle}.ckpt",
        backend.label()
    ))
}

fn identical(a: &TransposeResult, b: &TransposeResult) -> bool {
    a.output == b.output && a.cycles == b.cycles && a.pu_stats == b.pu_stats
}

/// Runs the 32-configuration sweep, writes `SWEEP_9.json` into `dir`,
/// and returns the report.
///
/// # Errors
///
/// Returns an error if a simulation cannot be paused where expected, if
/// any warm (prefix-resumed) result diverges from its cold baseline, or
/// if the artifact cannot be written.
pub fn run(scale: Scale, dir: &Path) -> Result<String, String> {
    let factor = scale.factor();
    let m = gen::table3_spec("N1")
        .ok_or_else(|| "Table 3 has no entry named 'N1'".to_string())?
        .generate_scaled(factor, 0x5EEB);
    let cache_dir = dir.join("sweep_ckpt");
    std::fs::create_dir_all(&cache_dir)
        .map_err(|e| format!("creating {}: {e}", cache_dir.display()))?;

    let mut runs = Vec::new();
    let mut divergences = 0usize;
    for point in grid() {
        let cfg = point.config();
        let fingerprint = config_fingerprint(&cfg);

        // Cold baseline: the straight uninterrupted run.
        let started = Instant::now();
        let cold = MendaSystem::new(cfg.clone()).transpose_with(&m, point.backend);
        let cold_ms = started.elapsed().as_secs_f64() * 1e3;

        // Warm run: resume from the deepest cached prefix, building the
        // ¼ → ½ prefix chain first on a cache miss.
        let cached = deepest_prefix(&cache_dir, point.backend, fingerprint)
            .and_then(|(cycle, path)| Some((std::fs::read(&path).ok()?, cycle)));
        let cache = if cached.is_some() { "hit" } else { "miss" };
        let (snapshot, reused) = match cached {
            Some((bytes, cycle)) => (Some(bytes), cycle),
            None => {
                let quarter = (cold.cycles / 4).max(1);
                let half = (cold.cycles / 2).max(2);
                match build_prefix_chain(&cfg, point.backend, &m, quarter, half) {
                    Some((bytes, cycle)) => {
                        let path = cache_path(&cache_dir, point.backend, fingerprint, cycle);
                        std::fs::write(&path, &bytes)
                            .map_err(|e| format!("writing {}: {e}", path.display()))?;
                        (Some(bytes), cycle)
                    }
                    // The run finished before the prefix target (tiny
                    // workload); nothing to reuse.
                    None => (None, 0),
                }
            }
        };
        let (warm, warm_ms, reused) = match &snapshot {
            Some(bytes) => {
                let started = Instant::now();
                let warm = resume_from(&cfg, point.backend, &m, bytes)
                    .map_err(|e| format!("{}: warm resume failed: {e}", point.label()))?;
                (warm, started.elapsed().as_secs_f64() * 1e3, reused)
            }
            None => {
                let started = Instant::now();
                let warm = MendaSystem::new(cfg.clone()).transpose_with(&m, point.backend);
                (warm, started.elapsed().as_secs_f64() * 1e3, 0)
            }
        };

        let divergent = !identical(&cold, &warm);
        divergences += divergent as usize;

        let rank_cfg = cfg.dram.clone().with_channels(1).with_ranks(1);
        let dram_energy_j: f64 = cold
            .pu_stats
            .iter()
            .map(|s| dram_energy(&s.dram, &rank_cfg, Interface::OnDimm).total_j())
            .sum();
        // energy.rs models the MeNDA PU; the PIM backend's DPU logic is
        // inside the DRAM device and carries no separate compute model.
        let (compute_energy_j, compute_modeled) = match point.backend {
            BackendKind::Menda => (
                PowerModel::transpose(&cfg.pu).energy_j(cold.seconds) * cfg.num_pus() as f64,
                true,
            ),
            BackendKind::Pim => (0.0, false),
        };

        runs.push(Run {
            label: point.label(),
            fingerprint,
            cycles: cold.cycles,
            seconds: cold.seconds,
            dram_energy_j,
            compute_energy_j,
            compute_modeled,
            cold_ms,
            warm_ms,
            reused_prefix_cycles: reused,
            cache,
            divergent,
            pareto: false,
        });
    }

    // Pareto front minimizing (cycles, energy).
    for i in 0..runs.len() {
        let dominated = runs.iter().enumerate().any(|(j, other)| {
            j != i
                && other.cycles <= runs[i].cycles
                && other.energy_j() <= runs[i].energy_j()
                && (other.cycles < runs[i].cycles || other.energy_j() < runs[i].energy_j())
        });
        runs[i].pareto = !dominated;
    }

    let cold_total: f64 = runs.iter().map(|r| r.cold_ms).sum();
    let warm_total: f64 = runs.iter().map(|r| r.warm_ms).sum();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"sweep\",\n  \"scale\": {},\n",
            "  \"matrix\": \"N1\",\n  \"configs\": {},\n",
            "  \"divergences\": {},\n",
            "  \"cold_wall_ms_total\": {:.3},\n  \"warm_wall_ms_total\": {:.3},\n",
            "  \"pareto\": [{}],\n",
            "  \"runs\": [\n{}\n  ]\n}}\n"
        ),
        factor,
        runs.len(),
        divergences,
        cold_total,
        warm_total,
        runs.iter()
            .filter(|r| r.pareto)
            .map(|r| format!("\"{}\"", r.label))
            .collect::<Vec<_>>()
            .join(", "),
        runs.iter().map(Run::json).collect::<Vec<_>>().join(",\n"),
    );
    let path = util::write_artifact(dir, "SWEEP_9.json", &json)
        .map_err(|e| format!("writing SWEEP_9.json to {}: {e}", dir.display()))?;

    let mut out = format!(
        "Design-space sweep over N1 (1/{factor} scale): {} configs, {} divergence(s)\n\
         (warm runs resume from cached prefixes under {}; re-run to hit the cache)\n\n",
        runs.len(),
        divergences,
        cache_dir.display(),
    );
    let mut t = Table::new(&[
        "config", "cycles", "energy", "cold", "warm", "reused", "cache", "pareto",
    ]);
    for r in &runs {
        t.row(&[
            r.label.clone(),
            format!("{}", r.cycles),
            format!("{:.2} uJ", r.energy_j() * 1e6),
            format!("{:.1} ms", r.cold_ms),
            format!("{:.1} ms", r.warm_ms),
            format!("{}", r.reused_prefix_cycles),
            r.cache.to_string(),
            if r.pareto { "*".into() } else { String::new() },
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\ncold wall total {:.1} ms, warm wall total {:.1} ms\nWrote {}\n",
        cold_total,
        warm_total,
        path.display()
    ));
    if divergences > 0 {
        return Err(format!(
            "{divergences} configuration(s) diverged across prefix resume\n\n{out}"
        ));
    }
    Ok(out)
}

/// Builds the ¼ → ½ prefix chain for one configuration and returns the
/// deeper snapshot (`None` if the run finishes before the targets).
fn build_prefix_chain(
    cfg: &MendaConfig,
    backend: BackendKind,
    m: &menda_sparse::CsrMatrix,
    quarter: u64,
    half: u64,
) -> Option<(Vec<u8>, u64)> {
    let mut system = MendaSystem::new(cfg.clone());
    let quarter_snapshot = system
        .transpose_to_cycle(m, backend, None, Some(quarter))
        .expect("pause target refused")
        .snapshot()?;
    let second = system
        .transpose_to_cycle(m, backend, Some(&quarter_snapshot), Some(half))
        .expect("own snapshot must restore");
    match second {
        SnapshotOutcome::Paused(bytes) => Some((bytes, half)),
        SnapshotOutcome::Finished(_) => Some((quarter_snapshot, quarter)),
    }
}

fn resume_from(
    cfg: &MendaConfig,
    backend: BackendKind,
    m: &menda_sparse::CsrMatrix,
    bytes: &[u8],
) -> Result<TransposeResult, menda_core::SnapshotError> {
    MendaSystem::new(cfg.clone())
        .transpose_to_cycle(m, backend, Some(bytes), None)
        .map(|outcome| outcome.finished().expect("no pause target"))
}
