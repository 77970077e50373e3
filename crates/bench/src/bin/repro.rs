//! Regenerates the MeNDA paper's tables and figures and runs one JSON job
//! description through the batch path (the resident simulation service
//! is the `menda-server` crate: its daemon and its `loadgen` load test).
//!
//! ```text
//! repro all                 # every experiment at the default 1/64 scale
//! repro fig10 fig13         # selected experiments
//! repro fig10 --scale 16    # bigger matrices (slower, closer to paper)
//! repro all --out results   # additionally write each report to results/<id>.txt
//! repro --list              # available experiment ids
//!
//! repro job FILE            # run one JSON job description (batch path)
//! ```
//!
//! Experiments that produce file artifacts (e.g. `trace`, `bench`,
//! `sweep`) write into the output directory: `--out DIR` if given,
//! else `$MENDA_RESULTS_DIR`, else `results/`. The directory is resolved
//! once here and passed down explicitly — nothing below the CLI reads
//! the environment.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use menda_bench::experiments;
use menda_bench::util;
use menda_bench::Scale;
use menda_core::JobSpec;

fn usage() -> String {
    format!(
        concat!(
            "usage: repro [--scale N] [--threads N] [--out DIR] [--list] <experiment...|all>\n",
            "       repro job FILE [--threads N] [--out DIR]\n",
            "available experiments: {}\n",
            "service experiments:   {}\n"
        ),
        experiments::ALL.join(", "),
        experiments::SERVICE.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("job") => run_job(&args[1..]),
        _ => run_experiments(&args),
    }
}

/// `repro <ids> [--scale N] [--out DIR]` — the batch experiment path.
fn run_experiments(args: &[String]) -> ExitCode {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut threads = 1usize;
    let mut out_dir: Option<PathBuf> = None;
    let mut write_reports = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--list" => {
                println!(
                    "available experiments: {}\nservice experiments:   {}",
                    experiments::ALL.join(", "),
                    experiments::SERVICE.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            "--scale" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(f) if f > 0 => scale = Scale(f),
                _ => {
                    eprintln!("--scale requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (1..=1024).contains(&n) => threads = n,
                _ => {
                    eprintln!("--threads requires an integer in [1, 1024]");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(dir) => {
                    out_dir = Some(PathBuf::from(dir));
                    write_reports = true;
                }
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "all" => ids.extend(experiments::ALL.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    // The one place output location is decided: CLI flag beats the
    // environment default. Everything below takes the directory as a
    // parameter.
    let dir = out_dir.unwrap_or_else(util::results_dir);

    for id in &ids {
        let started = Instant::now();
        match experiments::run_with(id, scale, threads, &dir) {
            Ok(report) => {
                println!("==================== {id} ====================");
                println!("{report}");
                println!("[{id} completed in {:.1?}]\n", started.elapsed());
                if write_reports {
                    if let Err(e) = util::write_artifact(&dir, &format!("{id}.txt"), &report) {
                        eprintln!("error writing {id}.txt: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(err) => {
                eprintln!("error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro job FILE [--threads N] [--out DIR]` — executes one JSON job
/// description through the same validated path the server uses and
/// prints the deterministic outcome JSON (with its digest on stderr).
/// This is the batch half of the wire/batch differential check.
/// `--threads` overrides the job's own `threads` field (same [1, 1024]
/// range the JSON schema enforces); simulated results are bit-identical
/// at every thread count, only the wall clock changes.
fn run_job(args: &[String]) -> ExitCode {
    let mut file: Option<String> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => match iter.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if (1..=1024).contains(&n) => threads = Some(n),
                _ => {
                    eprintln!("--threads requires an integer in [1, 1024]");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            other if file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("repro job requires a job JSON file\n{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match JobSpec::from_json_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid job: {e}");
            return ExitCode::FAILURE;
        }
    };
    if threads.is_some() {
        spec.threads = threads;
    }
    let outcome = match spec.execute() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("job failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = outcome.to_json();
    println!("{stats}");
    eprintln!("stats_digest: {:016x}", outcome.digest());
    if let Some(dir) = out_dir {
        if let Err(e) = util::write_artifact(&dir, "job_outcome.json", &format!("{stats}\n")) {
            eprintln!("error writing job_outcome.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
