//! Host-time benchmark of the MeNDA simulator and its daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3-1t --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! * `table3-1t` — all sixteen Table 3 matrices, transposition and SpMV,
//!   on the paper system pinned to one host thread;
//! * `table4-1t` — the fifteen Table 4 stand-ins transposed on the MeNDA
//!   and the PIM backend, on one host thread;
//! * `serve-preempt` — an in-process `menda-server` with a preemption
//!   quantum, driven by a seeded open-loop client over loopback.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans and prints the per-layer metrics instead, and writes the spans
//! as Chrome trace-event JSON under `perfbench/out/`.

mod batch;
mod layers;
mod serve;
mod spans;
mod stats;
mod sys;

use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input, job list and arrival schedule derives
    /// from it.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table3-1t", "table4-1t", "serve-preempt"];

/// End-to-end metrics every untraced run prints, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [&str; 10] = [
    "sim_cycles",
    "wall_s",
    "sim_cycles_per_s",
    "p50_ms.rate_lo",
    "p90_ms.rate_lo",
    "p50_ms.rate_hi",
    "p90_ms.rate_hi",
    "max_rate_jobs_s",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run prints, in `BENCHMARK.json` order.
pub const PER_LAYER: [&str; 33] = [
    "sparse.gen_s",
    "engine.transpose.ns_per_cycle",
    "engine.spmv.ns_per_cycle",
    "pim.transpose.ns_per_cycle",
    "engine.cpu_per_wall",
    "merge_tree.ns_per_pop.l1024",
    "merge_tree.ns_per_pop.l64",
    "dram.ns_per_request.stream",
    "dram.ns_per_request.random",
    "merge_tree.iterations",
    "merge_tree.root_stall_cycles",
    "merge_tree.output_stall_cycles",
    "coalesce.loads_issued",
    "coalesce.loads_coalesced",
    "dram.reads",
    "dram.writes",
    "dram.row_hits",
    "dram.row_conflicts",
    "checkpoint.hop_ms",
    "checkpoint.hops",
    "checkpoint.snapshot_bytes",
    "jobspec.parse_us",
    "jobspec.outcome_json_us",
    "server.queue_ms.p50",
    "server.queue_ms.p90",
    "server.run_ms.p50",
    "server.run_ms.p90",
    "server.wire_ms.p50",
    "server.rejected",
    "loadgen.late_ms.p90",
    "trace.overhead_ratio",
    "host.wall_s_raw",
    "host.reference_ms",
];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs executed, requests sent, checks made).
    pub attempted: u64,
    /// Operations that failed: wrong outputs, cycle mismatches,
    /// rejections, failed jobs.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "table3-1t" => batch::run(batch::Table::Three, &args),
        "table4-1t" => batch::run(batch::Table::Four, &args),
        _ => serve::run(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::FAILURE;
    }
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let mut want: Vec<&str> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    names.sort_unstable();
    want.sort_unstable();
    if names != want {
        eprintln!("perfbench: reported metrics {names:?} differ from {want:?}");
        return ExitCode::FAILURE;
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &report.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-preempt",
            "--seed",
            "9",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "serve-preempt");
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "table3-1t"]).is_err());
        assert!(args(&["--workload", "table3-1t", "--seed", "1", "--trace", "2"]).is_err());
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let v = menda_trace::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|l| l.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("per_layer"), PER_LAYER);
        assert_eq!(names("workloads"), WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![
                metric("wall_s", 1.25, "s"),
                metric("sim_cycles", 7.0, "cycles"),
            ],
        };
        let line = result_json(&report);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        let v = menda_trace::json::parse(&line).expect("valid JSON");
        let menda_trace::json::JsonValue::Obj(pairs) = &v else {
            panic!("not an object")
        };
        assert_eq!(pairs.len(), 4);
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(|x| x.as_num()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
    }
}
