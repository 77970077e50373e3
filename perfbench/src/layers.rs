//! Per-layer metrics of the traced run.
//!
//! Every workload's traced run prints every per-layer metric. A layer the
//! workload drives itself is measured from the spans around its own calls;
//! the rest come from probes that run only here: the engine and PIM
//! kernels a workload does not run are run over its own matrices, the
//! merge tree and the DRAM model are timed standalone over seeded inputs,
//! checkpoint hops and job JSON are timed on the workload's jobs written as
//! daemon job descriptions, and batch workloads get a short daemon session
//! for the server metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use menda_core::{
    BackendKind, JobOutcome, JobProgress, JobSpec, MergeTree, Packet, PuStats, SliceLeafSource,
};
use menda_dram::{DramConfig, MemRequest, MemorySystem};
use menda_sparse::rng::StdRng;

use crate::batch::{self, Golden, Inputs, Job, Kernel, Passes, Table};
use crate::serve::{self, Expected, Session};
use crate::spans::{self, Span, Tracer};
use crate::{metric, stats, sys, Args, Metric, Report};

/// Every kernel a layer metric times; a workload's traced run runs the
/// ones its job list lacks over its own matrices.
const KERNELS: [(Kernel, BackendKind); 3] = [
    (Kernel::Transpose, BackendKind::Menda),
    (Kernel::Spmv, BackendKind::Menda),
    (Kernel::Transpose, BackendKind::Pim),
];
/// Job ids of the extra kernel runs start here, clear of the job list's.
const EXTRA_JOB_BASE: u64 = 1 << 20;
/// Repetitions of each probe; each keeps its fastest.
const PROBE_REPEATS: usize = 5;
/// Batch workloads time checkpoint hops and job JSON on at most this many
/// of their jobs (paper-size snapshots are large).
const MAX_SPEC_PROBES: usize = 8;

/// Per-layer metrics of a traced batch run.
///
/// # Errors
///
/// Returns an error when a probe fails at the job level.
#[allow(clippy::too_many_arguments)]
pub fn batch_layers(
    table: Table,
    args: &Args,
    inputs: &Inputs,
    golden: &Golden,
    jobs: &[Job],
    passes: &Passes,
    gen_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<Metric>, String> {
    let mut cycles: BTreeMap<u64, u64> =
        (0..jobs.len() as u64).zip(passes.cycles.clone()).collect();
    cycles.extend(extra_kernels(
        jobs,
        inputs,
        golden,
        &table.config(),
        tracer,
        report,
    ));
    let mut metrics = vec![metric("sparse.gen_s", gen_s, "s")];
    metrics.extend(engine_metrics(
        tracer.spans(),
        &cycles,
        passes.engine_cpu_s / passes.engine_wall_s,
    )?);
    metrics.extend(probe_metrics(args.seed));
    metrics.extend(count_metrics(&passes.stats));

    let specs = batch::job_specs(table, inputs, jobs);
    let step = specs.len().div_ceil(MAX_SPEC_PROBES);
    let probed: Vec<JobSpec> = specs.into_iter().step_by(step).collect();
    let outcomes = probed
        .iter()
        .map(|s| s.execute().map_err(|e| format!("batch execute: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    metrics.extend(spec_metrics(&probed, &outcomes, None, tracer, report)?);

    let session = serve::server_probe(args.seed, tracer)?;
    report.attempted += session.attempted;
    report.failed += session.failed;
    metrics.extend(serve::server_metrics(&session)?);

    let traced = stats::sum_of_job_medians(&batch::normalized(&passes.traced, &passes.traced_refs));
    let plain = stats::sum_of_job_medians(&batch::normalized(&passes.samples, &passes.refs));
    metrics.push(metric("trace.overhead_ratio", traced / plain, "ratio"));
    metrics.push(metric(
        "host.wall_s_raw",
        stats::sum_of_job_minimums(&passes.samples),
        "s",
    ));
    let refs: Vec<f64> = passes.refs.iter().flatten().copied().collect();
    metrics.push(metric(
        "host.reference_ms",
        stats::middle(&refs) * 1e3,
        "ms",
    ));
    Ok(metrics)
}

/// Per-layer metrics of a traced `serve-preempt` run.
///
/// # Errors
///
/// Returns an error when a probe fails at the job level.
#[allow(clippy::too_many_arguments)]
pub fn serve_layers(
    args: &Args,
    jobs: &[JobSpec],
    expected: &[Expected],
    inputs: &Inputs,
    session: &Session,
    gen_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<Metric>, String> {
    // The daemon's engine calls cannot be spanned from outside, so the
    // job list also runs in-process on the daemon's configuration.
    let config = jobs[0]
        .build_config()
        .map_err(|e| format!("job config: {e}"))?;
    let batch_jobs: Vec<Job> = jobs
        .iter()
        .enumerate()
        .map(|(matrix, spec)| Job {
            matrix,
            kernel: match spec.kernel {
                menda_core::JobKernel::Spmv => Kernel::Spmv,
                _ => Kernel::Transpose,
            },
            backend: spec.backend,
        })
        .collect();
    let golden = Golden::of(inputs);
    // Warm-up, one traced pass, one untraced pass.
    let passes = batch::run_passes(
        &batch_jobs,
        inputs,
        &golden,
        &config,
        0.0,
        3,
        true,
        tracer,
        &mut |_| {},
    );
    report.attempted += passes.attempted;
    report.failed += passes.failed;
    let mut cycles: BTreeMap<u64, u64> =
        (0..jobs.len() as u64).zip(passes.cycles.clone()).collect();
    cycles.extend(extra_kernels(
        &batch_jobs,
        inputs,
        &golden,
        &config,
        tracer,
        report,
    ));

    let mut metrics = vec![metric("sparse.gen_s", gen_s, "s")];
    metrics.extend(engine_metrics(
        tracer.spans(),
        &cycles,
        passes.engine_cpu_s / passes.engine_wall_s,
    )?);
    metrics.extend(probe_metrics(args.seed));
    metrics.extend(count_metrics(&passes.stats));
    let outcomes: Vec<JobOutcome> = expected.iter().map(|e| e.outcome.clone()).collect();
    metrics.extend(spec_metrics(
        jobs,
        &outcomes,
        Some(serve::QUANTUM),
        tracer,
        report,
    )?);
    metrics.extend(serve::server_metrics(session)?);

    let traced = serve::latencies(session, serve::RATE_LO, |s| s.round % 2 == 1);
    let plain = serve::latencies(session, serve::RATE_LO, |s| s.round % 2 == 0);
    let overhead = match (stats::median(&traced), stats::median(&plain)) {
        (Some(t), Some(p)) => t / p,
        _ => return Err("too few rate_lo samples to compare traced and untraced rounds".into()),
    };
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    metrics.extend(serve::host_metrics(session)?);
    Ok(metrics)
}

/// Runs, traced and twice each, the kernels of [`KERNELS`] that `jobs`
/// lacks, on every matrix; returns the cycles of each extra job id.
fn extra_kernels(
    jobs: &[Job],
    inputs: &Inputs,
    golden: &Golden,
    config: &menda_core::MendaConfig,
    tracer: &mut Tracer,
    report: &mut Report,
) -> BTreeMap<u64, u64> {
    let mut cycles = BTreeMap::new();
    tracer.set_enabled(true);
    let missing = KERNELS
        .iter()
        .filter(|(k, b)| !jobs.iter().any(|j| j.kernel == *k && j.backend == *b));
    let extra: Vec<Job> = missing
        .flat_map(|&(kernel, backend)| {
            (0..inputs.matrices.len()).map(move |matrix| Job {
                matrix,
                kernel,
                backend,
            })
        })
        .collect();
    for _ in 0..2 {
        for (i, job) in extra.iter().enumerate() {
            let id = EXTRA_JOB_BASE + i as u64;
            let run = batch::execute(job, inputs, golden, config, tracer, id);
            report.attempted += 1;
            let first = *cycles.entry(id).or_insert(run.cycles);
            if !run.correct || run.cycles != first {
                report.failed += 1;
            }
        }
    }
    cycles
}

/// Host ns per simulated cycle of each engine layer (sum over jobs of the
/// fastest self time of the job's layer span, over the sum of the jobs'
/// cycles), plus engine CPU per wall second.
fn engine_metrics(
    spans: &[Span],
    cycles: &BTreeMap<u64, u64>,
    cpu_per_wall: f64,
) -> Result<Vec<Metric>, String> {
    let self_ns = spans::self_times(spans);
    let mut out = Vec::new();
    for (name, layer) in [
        ("engine.transpose.ns_per_cycle", "engine.transpose"),
        ("engine.spmv.ns_per_cycle", "engine.spmv"),
        ("pim.transpose.ns_per_cycle", "pim.transpose"),
    ] {
        let mut fastest: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, &ns) in spans.iter().zip(&self_ns) {
            if s.name == layer {
                let f = fastest.entry(s.job).or_insert(u64::MAX);
                *f = (*f).min(ns);
            }
        }
        let ns: u64 = fastest.values().sum();
        let cyc: u64 = fastest.keys().filter_map(|j| cycles.get(j)).sum();
        if cyc == 0 {
            return Err(format!("no traced {layer} spans"));
        }
        out.push(metric(name, ns as f64 / cyc as f64, "ns/cycle"));
    }
    out.push(metric("engine.cpu_per_wall", cpu_per_wall, "ratio"));
    Ok(out)
}

/// Model counts of one pass over the job list.
fn count_metrics(stats: &[Vec<PuStats>]) -> Vec<Metric> {
    let pus = || stats.iter().flatten();
    let iters = || pus().flat_map(|p| &p.iterations);
    let sum = |f: fn(&menda_core::IterationStats) -> u64| iters().map(f).sum::<u64>() as f64;
    let dram = |f: fn(&menda_dram::DramStats) -> u64| pus().map(|p| f(&p.dram)).sum::<u64>() as f64;
    vec![
        metric("merge_tree.iterations", iters().count() as f64, "count"),
        metric(
            "merge_tree.root_stall_cycles",
            sum(|i| i.root_stall_cycles),
            "cycles",
        ),
        metric(
            "merge_tree.output_stall_cycles",
            sum(|i| i.output_stall_cycles),
            "cycles",
        ),
        metric("coalesce.loads_issued", sum(|i| i.loads_issued), "count"),
        metric(
            "coalesce.loads_coalesced",
            sum(|i| i.loads_coalesced),
            "count",
        ),
        metric("dram.reads", dram(|d| d.reads), "count"),
        metric("dram.writes", dram(|d| d.writes), "count"),
        metric("dram.row_hits", dram(|d| d.row_hits), "count"),
        metric("dram.row_conflicts", dram(|d| d.row_conflicts), "count"),
    ]
}

/// Standalone merge-tree and DRAM probes.
fn probe_metrics(seed: u64) -> Vec<Metric> {
    vec![
        metric(
            "merge_tree.ns_per_pop.l1024",
            merge_tree_ns_per_pop(1024, seed),
            "ns",
        ),
        metric(
            "merge_tree.ns_per_pop.l64",
            merge_tree_ns_per_pop(64, seed),
            "ns",
        ),
        metric(
            "dram.ns_per_request.stream",
            dram_ns_per_request(false, seed),
            "ns",
        ),
        metric(
            "dram.ns_per_request.random",
            dram_ns_per_request(true, seed),
            "ns",
        ),
    ]
}

/// Host ns per packet popped by a `leaves`-leaf [`MergeTree`] merging one
/// round of seeded sorted streams (16k packets in all).
pub fn merge_tree_ns_per_pop(leaves: usize, seed: u64) -> f64 {
    let per_stream = 16_384 / leaves;
    let mut rng = StdRng::seed_from_u64(seed ^ leaves as u64);
    let streams: Vec<Vec<Packet>> = (0..leaves as u32)
        .map(|port| {
            let mut row = 0u32;
            (0..per_stream)
                .map(|_| {
                    row += 1 + rng.random_range(0..4) as u32;
                    Packet::nz(row, port, 1.0)
                })
                .collect()
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let mut src = SliceLeafSource::from_streams(leaves, streams.clone());
        let mut tree = MergeTree::new(leaves, 2);
        let t = Instant::now();
        while tree.rounds_completed() < 1 {
            black_box(tree.tick(&mut src, 1));
        }
        let ns = t.elapsed().as_nanos() as f64;
        assert_eq!(
            tree.pops(),
            (leaves * per_stream) as u64,
            "merge tree lost packets"
        );
        best = best.min(ns / tree.pops() as f64);
    }
    best
}

/// Host ns per read through the DDR4-2400 [`MemorySystem`] (refresh off):
/// 4096 reads at a 64 B stride, or at seeded random block addresses.
pub fn dram_ns_per_request(random: bool, seed: u64) -> f64 {
    const COUNT: u64 = 4096;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD4A);
    let addrs: Vec<u64> = (0..COUNT)
        .map(|i| {
            if random {
                rng.random_range(0..1 << 24) as u64 * 64
            } else {
                i * 64
            }
        })
        .collect();
    let mut config = DramConfig::ddr4_2400r();
    config.refresh_enabled = false;
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_REPEATS {
        let mut mem = MemorySystem::new(config.clone());
        let (mut sent, mut done) = (0u64, 0u64);
        let t = Instant::now();
        while done < COUNT {
            if sent < COUNT && mem.try_enqueue(MemRequest::read(addrs[sent as usize], sent)) {
                sent += 1;
            }
            mem.tick();
            while mem.pop_response().is_some() {
                done += 1;
            }
        }
        best = best.min(t.elapsed().as_nanos() as f64 / COUNT as f64);
    }
    best
}

/// Checkpoint and job-JSON layer metrics over daemon job descriptions.
///
/// A hop is one `JobSpec::resume_to_cycle` that restores a snapshot taken
/// at half the job's cycles and pauses again at once: matrix
/// regeneration, snapshot decode and re-encode, with no simulation.
/// `quantum` is the workload's preemption quantum, if it has one: `hops`
/// is then the number of quantum pauses one pass of the job list takes
/// (checked to end in the batch outcome), otherwise 0.
fn spec_metrics(
    specs: &[JobSpec],
    outcomes: &[JobOutcome],
    quantum: Option<u64>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<Metric>, String> {
    let err = |e: menda_core::JobError| format!("job probe: {e}");
    let (mut hop_s, mut hop_jobs, mut bytes) = (0.0, 0u64, 0u64);
    let (mut parse_s, mut json_s) = (0.0, 0.0);
    for (j, (spec, outcome)) in specs.iter().zip(outcomes).enumerate() {
        let half = outcome.cycles / 2;
        if let JobProgress::Paused(snapshot) = spec.execute_to_cycle(half).map_err(err)? {
            let mut best = f64::INFINITY;
            for _ in 0..PROBE_REPEATS {
                let span = tracer.begin("checkpoint.hop", j as u64);
                let t = Instant::now();
                let again = spec.resume_to_cycle(&snapshot, half).map_err(err)?;
                best = best.min(t.elapsed().as_secs_f64());
                tracer.end(span);
                report.attempted += 1;
                if !matches!(&again, JobProgress::Paused(s) if *s == snapshot) {
                    report.failed += 1;
                }
            }
            hop_s += best;
            hop_jobs += 1;
            bytes += snapshot.len() as u64;
        }

        let line = spec.to_json();
        let (mut best_parse, mut best_json) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..PROBE_REPEATS * 10 {
            let t = Instant::now();
            let parsed = JobSpec::from_json_str(black_box(&line));
            best_parse = best_parse.min(t.elapsed().as_secs_f64());
            report.attempted += 1;
            if parsed.as_ref() != Ok(spec) {
                report.failed += 1;
            }
            let t = Instant::now();
            black_box((outcome.to_json(), outcome.digest()));
            best_json = best_json.min(t.elapsed().as_secs_f64());
        }
        parse_s += best_parse;
        json_s += best_json;
    }
    if hop_jobs == 0 {
        return Err("no job ran long enough to pause".into());
    }

    let mut hops = 0u64;
    if let Some(q) = quantum {
        for (spec, outcome) in specs.iter().zip(outcomes) {
            let mut pause_at = q;
            let mut progress = spec.execute_to_cycle(pause_at).map_err(err)?;
            while let JobProgress::Paused(snapshot) = progress {
                hops += 1;
                pause_at += q;
                progress = spec.resume_to_cycle(&snapshot, pause_at).map_err(err)?;
            }
            report.attempted += 1;
            if !matches!(&progress, JobProgress::Finished(o) if o.to_json() == outcome.to_json()) {
                report.failed += 1;
            }
        }
    }
    let n = specs.len() as f64;
    Ok(vec![
        metric("checkpoint.hop_ms", hop_s / hop_jobs as f64 * 1e3, "ms"),
        metric("checkpoint.hops", hops as f64, "count"),
        metric("checkpoint.snapshot_bytes", bytes as f64, "bytes"),
        metric("jobspec.parse_us", parse_s / n * 1e6, "us"),
        metric("jobspec.outcome_json_us", json_s / n * 1e6, "us"),
    ])
}

/// Writes the traced run's spans as Chrome trace-event JSON and a
/// per-layer table (span self time by name, then the metrics) under
/// [`sys::out_dir`], and prints the table.
///
/// # Errors
///
/// Returns an error when a file cannot be written.
pub fn write_trace(
    workload: &str,
    seed: u64,
    spans: &[Span],
    metrics: &[Metric],
) -> Result<(), String> {
    let dir = sys::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let trace_path = dir.join(format!("trace_{workload}_seed{seed}.json"));
    std::fs::write(&trace_path, spans::chrome_json(spans))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for s in spans {
        *counts.entry(s.name).or_default() += 1;
    }
    let by_name = spans::self_seconds_by_name(spans);
    let total: f64 = by_name.values().sum();
    let mut table = format!("layer self time, {workload} seed {seed} (traced run)\n");
    let _ = writeln!(
        table,
        "{:<22} {:>8} {:>12} {:>8}",
        "span", "count", "self_s", "share"
    );
    for (name, secs) in &by_name {
        let _ = writeln!(
            table,
            "{:<22} {:>8} {:>12.6} {:>7.1}%",
            name,
            counts[name],
            secs,
            100.0 * secs / total.max(1e-12)
        );
    }
    let _ = writeln!(table, "\nper-layer metrics");
    for m in metrics {
        let _ = writeln!(table, "{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let table_path = dir.join(format!("layers_{workload}_seed{seed}.txt"));
    std::fs::write(&table_path, &table)
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    print!("{table}");
    println!(
        "wrote {} and {}",
        trace_path.display(),
        table_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        assert!(merge_tree_ns_per_pop(64, 1) > 0.0);
        assert!(dram_ns_per_request(true, 1) > 0.0);
    }

    #[test]
    fn counts_sum_over_units_and_iterations() {
        let mut pu = PuStats::default();
        pu.iterations.push(menda_core::IterationStats {
            loads_issued: 3,
            root_stall_cycles: 2,
            ..Default::default()
        });
        pu.iterations.push(menda_core::IterationStats {
            loads_issued: 4,
            ..Default::default()
        });
        pu.dram.reads = 9;
        let m = count_metrics(&[vec![pu.clone(), pu]]);
        let get = |n: &str| m.iter().find(|x| x.name == n).expect(n).value;
        assert_eq!(get("merge_tree.iterations"), 4.0);
        assert_eq!(get("coalesce.loads_issued"), 14.0);
        assert_eq!(get("merge_tree.root_stall_cycles"), 4.0);
        assert_eq!(get("dram.reads"), 18.0);
    }
}
