//! One module per paper artifact (table or figure).
//!
//! Every experiment returns its rendered report; the `repro` binary
//! prints it. Experiments that produce file artifacts take an explicit
//! output directory — nothing in here reads or mutates process-global
//! state, so experiments can run concurrently (e.g. under the
//! simulation service) with different output locations. EXPERIMENTS.md
//! records the paper-reported values next to a captured run.

pub mod backends;
pub mod bench;
pub mod checkpoint;
pub mod conflicts;
pub mod energy;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig15;
pub mod fig16;
pub mod fig2;
pub mod fig3;
pub mod host;
pub mod sweep;
pub mod tables;
pub mod threads;
pub mod trace;
pub mod verify;

#[cfg(test)]
mod smoke_tests;

use std::path::Path;

use crate::util::Scale;

/// All experiment ids in presentation order.
pub const ALL: &[&str] = &[
    "tab1",
    "tab2",
    "tab3",
    "tab4",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "power",
    "energy",
    "host",
    "conflicts",
    "threads",
    "trace",
    "verify-dram",
    "bench",
    "backends",
    "checkpoint",
];

/// Heavyweight experiments dispatchable by id but excluded from
/// `repro all`: they exercise the infrastructure (the resumable
/// design-space sweep) rather than reproduce a paper artifact, and are
/// wall-clock heavy. The daemon's load test is the `menda-server`
/// crate's `loadgen` binary.
pub const SERVICE: &[&str] = &["sweep"];

/// Dispatches an experiment by id. Artifacts (trace JSON, benchmark
/// reports) are written into `dir`.
///
/// # Errors
///
/// Returns an error message for unknown ids, for invalid inputs inside
/// an experiment, and for artifact-write failures.
pub fn run(id: &str, scale: Scale, dir: &Path) -> Result<String, String> {
    run_with(id, scale, 1, dir)
}

/// Like [`run`], with an explicit host worker-thread count for the
/// simulation engine. Only `bench` models host parallelism today; every
/// other experiment rejects a non-default value rather than silently
/// ignoring it.
///
/// # Errors
///
/// Returns an error for unknown ids, for `threads != 1` on an
/// experiment that does not honour it, and for the same failures as
/// [`run`].
pub fn run_with(id: &str, scale: Scale, threads: usize, dir: &Path) -> Result<String, String> {
    if threads != 1 && id != "bench" {
        return Err(format!(
            "--threads applies to the 'bench' experiment only, not '{id}'"
        ));
    }
    match id {
        "tab1" => Ok(tables::tab1()),
        "tab2" => Ok(tables::tab2()),
        "tab3" => Ok(tables::tab3(scale)),
        "tab4" => Ok(tables::tab4(scale)),
        "fig2a" => Ok(fig2::fig2a(scale)),
        "fig2b" => Ok(fig2::fig2b()),
        "fig3a" => Ok(fig3::fig3a(scale)),
        "fig3b" => Ok(fig3::fig3b(scale)),
        "fig10" => Ok(fig10::run(scale)),
        "fig11" => Ok(fig11::run(scale)),
        "fig12" => Ok(fig12::run(scale)),
        "fig13" => Ok(fig13::fig13(scale)),
        "fig14" => Ok(fig13::fig14(scale)),
        "fig15" => Ok(fig15::run(scale)),
        "fig16" => Ok(fig16::run(scale)),
        "power" => Ok(fig15::power()),
        "energy" => Ok(energy::run(scale)),
        "host" => Ok(host::run(scale)),
        "conflicts" => Ok(conflicts::run(scale)),
        "threads" => Ok(threads::run(scale)),
        "trace" => trace::run(scale, dir),
        "verify-dram" => Ok(verify::run(scale)),
        "bench" => bench::run_with(scale, threads, dir),
        "backends" => backends::run(scale, dir),
        "checkpoint" => checkpoint::run(scale, dir),
        "sweep" => sweep::run(scale, dir),
        other => Err(format!(
            "unknown experiment '{other}'; available: {}, {}",
            ALL.join(", "),
            SERVICE.join(", ")
        )),
    }
}
