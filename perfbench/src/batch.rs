//! The batch workloads: `table3-1t` and `table4-1t`.
//!
//! Each builds a job list from the seed, then runs it in round-robin
//! passes until the measurement time is used up, timing a fixed reference
//! kernel before every job ([`sys::reference_seconds`]). Pass 0 is
//! warm-up; each job's host time is its median over the remaining passes
//! of its reference-normalized time, and `wall_s` is the sum of those
//! medians (see [`stats::sum_of_job_medians`]). Every execution is checked
//! against the software golden model and against the simulated cycles of
//! pass 0.

use std::time::Instant;

use menda_core::{
    spmv, BackendKind, JobKernel, JobSpec, MatrixSource, MendaConfig, MendaSystem, PuStats,
    TraceConfig,
};
use menda_sparse::rng::StdRng;
use menda_sparse::{gen, CscMatrix, CsrMatrix};

use crate::spans::Tracer;
use crate::{layers, metric, stats, sys, Args, Metric, Report};

/// Table 3 divisor. One pass of its 32 jobs takes about 1.4 s on a 2-vCPU
/// host, and N7/N8/P7/P8 still need two merge iterations.
pub const TABLE3_SCALE: usize = 256;
/// Table 4 divisor. One pass of its 30 jobs takes about 1.1 s.
pub const TABLE4_SCALE: usize = 64;
/// Warm-up plus at least two timed passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Load levels, as shares of the job list's measured capacity, at which
/// the batch workloads replay a fixed arrival schedule through one
/// worker. The ladder brackets the saturation point (1.0) from both
/// sides, so its answer does not flip with a few percent of noise.
const REPLAY_LO: f64 = 0.25;
const REPLAY_HI: f64 = 0.5;
const REPLAY_LADDER: [f64; 5] = [0.25, 0.5, 0.75, 1.0, 1.25];
/// Replay p90 limit, in mean job times.
const REPLAY_LIMIT: f64 = 50.0;
/// Replayed arrivals: every job of the list this many times.
const REPLAY_CYCLES: usize = 500;
/// Seed of the replay schedule. The schedule is part of the metric's
/// definition, not a workload input, so it does not follow `--seed`:
/// the replayed latencies then move only with the measured job times.
const REPLAY_SEED: u64 = 0xA77_1BA1;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `table3-1t`.
    Three,
    /// `table4-1t`.
    Four,
}

impl Table {
    fn scale(self) -> usize {
        match self {
            Table::Three => TABLE3_SCALE,
            Table::Four => TABLE4_SCALE,
        }
    }

    /// The paper system (8 PUs, 1024-leaf trees, DDR4-2400,
    /// fast-forward) on one host thread, tracing off. At two threads the
    /// engine's run-to-run spread on a shared 2-vCPU host was wider than
    /// any bound the benchmark can keep (see `README.md`).
    pub fn config(self) -> MendaConfig {
        MendaConfig::paper()
            .with_threads(1)
            .with_trace(TraceConfig::off())
    }

    /// Matrix names in job-list order.
    pub fn names(self) -> Vec<&'static str> {
        match self {
            Table::Three => gen::TABLE3_UNIFORM
                .iter()
                .chain(&gen::TABLE3_POWER_LAW)
                .map(|e| e.name)
                .collect(),
            Table::Four => gen::TABLE4.iter().map(|e| e.name).collect(),
        }
    }

    fn generate(self, name: &str, seed: u64) -> CsrMatrix {
        match self {
            Table::Three => gen::table3_spec(name)
                .expect("name comes from TABLE3")
                .generate_scaled(self.scale(), seed),
            Table::Four => gen::suite_matrix(name)
                .expect("name comes from TABLE4")
                .generate_scaled(self.scale(), seed),
        }
    }

    /// The kernels run on every matrix: transposition and SpMV for Table
    /// 3; transposition on both backends for Table 4.
    pub fn kernels(self) -> [(Kernel, BackendKind); 2] {
        match self {
            Table::Three => [
                (Kernel::Transpose, BackendKind::Menda),
                (Kernel::Spmv, BackendKind::Menda),
            ],
            Table::Four => [
                (Kernel::Transpose, BackendKind::Menda),
                (Kernel::Transpose, BackendKind::Pim),
            ],
        }
    }

    /// The job list: every kernel on every matrix, matrix-major.
    pub fn jobs(self) -> Vec<Job> {
        (0..self.names().len())
            .flat_map(|matrix| {
                self.kernels()
                    .into_iter()
                    .map(move |(kernel, backend)| Job {
                        matrix,
                        kernel,
                        backend,
                    })
            })
            .collect()
    }
}

/// Kernel of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// CSR → CSC transposition.
    Transpose,
    /// `y = A·x`.
    Spmv,
}

/// One entry of a job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Index into [`Inputs::matrices`].
    pub matrix: usize,
    /// Kernel to run.
    pub kernel: Kernel,
    /// Accelerator backend.
    pub backend: BackendKind,
}

impl Job {
    /// Span name of the layer call this job makes.
    pub fn layer(&self) -> &'static str {
        match (self.backend, self.kernel) {
            (BackendKind::Pim, Kernel::Transpose) => "pim.transpose",
            (BackendKind::Pim, Kernel::Spmv) => "pim.spmv",
            (BackendKind::Menda, Kernel::Transpose) => "engine.transpose",
            (BackendKind::Menda, Kernel::Spmv) => "engine.spmv",
        }
    }
}

/// Generated inputs of a batch workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Matrix names.
    pub names: Vec<&'static str>,
    /// Per-matrix generator seeds, drawn from the workload seed.
    pub seeds: Vec<u64>,
    /// The matrices.
    pub matrices: Vec<CsrMatrix>,
    /// One SpMV input vector per matrix.
    pub xs: Vec<Vec<f32>>,
}

/// Generates the workload's inputs from `seed`, returning them with each
/// matrix's generation time.
pub fn generate(table: Table, seed: u64, tracer: &mut Tracer) -> (Inputs, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names = table.names();
    // 53-bit seeds, so every job also fits a daemon job description
    // (JSON carries integers exactly only up to 2^53).
    let seeds: Vec<u64> = names.iter().map(|_| rng.next_u64() >> 11).collect();
    let mut times = Vec::with_capacity(names.len());
    let mut matrices = Vec::with_capacity(names.len());
    let mut xs = Vec::with_capacity(names.len());
    for (i, (name, &s)) in names.iter().zip(&seeds).enumerate() {
        let span = tracer.begin("sparse.gen", i as u64);
        let t = Instant::now();
        let m = table.generate(name, s);
        let x = x_vector(m.ncols(), s);
        times.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        matrices.push(m);
        xs.push(x);
    }
    let inputs = Inputs {
        names,
        seeds,
        matrices,
        xs,
    };
    (inputs, times)
}

/// Seeded SpMV input vector with values in `[-2, 2)`.
pub fn x_vector(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED);
    (0..n).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect()
}

/// Generates the inputs once after a reference kernel; returns them with
/// the normalized and the raw generation seconds.
fn timed_generation(table: Table, seed: u64, tracer: &mut Tracer) -> (Inputs, f64, f64) {
    let reference = sys::reference_seconds();
    let (inputs, times) = generate(table, seed, tracer);
    let seconds: f64 = times.iter().sum();
    (inputs, sys::normalize(seconds, reference), seconds)
}

/// Reference outputs from the software golden model.
#[derive(Debug)]
pub struct Golden {
    csc: Vec<CscMatrix>,
    y: Vec<Vec<f32>>,
}

impl Golden {
    /// `CsrMatrix::to_csc` and `CsrMatrix::spmv` of every input.
    pub fn of(inputs: &Inputs) -> Golden {
        Golden {
            csc: inputs.matrices.iter().map(CsrMatrix::to_csc).collect(),
            y: inputs
                .matrices
                .iter()
                .zip(&inputs.xs)
                .map(|(m, x)| m.spmv(x))
                .collect(),
        }
    }
}

/// One checked execution.
#[derive(Debug)]
pub struct JobRun {
    /// Host seconds inside the engine call.
    pub seconds: f64,
    /// Process CPU seconds inside the engine call (traced runs only).
    pub cpu_seconds: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Per-unit statistics.
    pub pu_stats: Vec<PuStats>,
    /// Output matched the golden model.
    pub correct: bool,
}

enum Output {
    Csc(CscMatrix),
    Y(Vec<f32>),
}

/// Runs one job through the engine (timed, inside a layer span), then
/// checks its output: transposition exactly against `to_csc`, SpMV within
/// `1e-3 · max(|want|, 1)` of `spmv`, the tolerance `repro bench` uses.
pub fn execute(
    job: &Job,
    inputs: &Inputs,
    golden: &Golden,
    config: &MendaConfig,
    tracer: &mut Tracer,
    id: u64,
) -> JobRun {
    let m = &inputs.matrices[job.matrix];
    let span = tracer.begin(job.layer(), id);
    let cpu0 = tracer.enabled().then(sys::process_cpu_seconds);
    let t = Instant::now();
    let (cycles, pu_stats, output) = match job.kernel {
        Kernel::Transpose => {
            let r = MendaSystem::new(config.clone()).transpose_with(m, job.backend);
            (r.cycles, r.pu_stats, Output::Csc(r.output))
        }
        Kernel::Spmv => {
            let r = spmv::run_with_backend(
                config,
                m,
                &inputs.xs[job.matrix],
                spmv::SpmvOptions::default(),
                job.backend,
            );
            (r.cycles, r.pu_stats, Output::Y(r.y))
        }
    };
    let seconds = t.elapsed().as_secs_f64();
    let cpu_seconds = cpu0.map_or(0.0, |c| sys::process_cpu_seconds() - c);
    tracer.end(span);

    let check = tracer.begin("check", id);
    let correct = match &output {
        Output::Csc(c) => *c == golden.csc[job.matrix],
        Output::Y(y) => {
            let want = &golden.y[job.matrix];
            y.len() == want.len()
                && y.iter()
                    .zip(want)
                    .all(|(g, w)| (g - w).abs() <= 1e-3 * w.abs().max(1.0))
        }
    };
    tracer.end(check);
    JobRun {
        seconds,
        cpu_seconds,
        cycles,
        pu_stats,
        correct,
    }
}

/// Everything the measured passes produce.
#[derive(Debug, Default)]
pub struct Passes {
    /// Per-job host seconds of untraced passes (pass 0 first).
    pub samples: Vec<Vec<f64>>,
    /// The reference kernel's seconds just before each sample.
    pub refs: Vec<Vec<f64>>,
    /// Per-job host seconds of traced passes (pass 0 first).
    pub traced: Vec<Vec<f64>>,
    /// The reference kernel's seconds just before each traced sample.
    pub traced_refs: Vec<Vec<f64>>,
    /// Per-job simulated cycles of pass 0.
    pub cycles: Vec<u64>,
    /// Per-job unit statistics of pass 0.
    pub stats: Vec<Vec<PuStats>>,
    /// Executions.
    pub attempted: u64,
    /// Executions with a wrong output or a cycle count that differs from
    /// pass 0.
    pub failed: u64,
    /// Process CPU and wall seconds inside engine calls of traced passes.
    pub engine_cpu_s: f64,
    /// See `engine_cpu_s`.
    pub engine_wall_s: f64,
}

/// Reference-normalized copies of per-job samples.
pub fn normalized(samples: &[Vec<f64>], refs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    samples
        .iter()
        .zip(refs)
        .map(|(s, r)| {
            s.iter()
                .zip(r)
                .map(|(&t, &r)| sys::normalize(t, r))
                .collect()
        })
        .collect()
}

/// Runs round-robin passes over `jobs` until `seconds` have elapsed (and
/// at least `min_passes` ran), timing the reference kernel before every
/// job and calling `between` after every pass. With `alternate`, odd passes record spans and even passes
/// do not, so both sample the same noise.
#[allow(clippy::too_many_arguments)]
pub fn run_passes(
    jobs: &[Job],
    inputs: &Inputs,
    golden: &Golden,
    config: &MendaConfig,
    seconds: f64,
    min_passes: usize,
    alternate: bool,
    tracer: &mut Tracer,
    between: &mut dyn FnMut(&mut Tracer),
) -> Passes {
    let mut out = Passes {
        samples: vec![Vec::new(); jobs.len()],
        refs: vec![Vec::new(); jobs.len()],
        traced: vec![Vec::new(); jobs.len()],
        traced_refs: vec![Vec::new(); jobs.len()],
        ..Passes::default()
    };
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = alternate && pass % 2 == 1;
        tracer.set_enabled(traced);
        let span = tracer.begin("pass", pass as u64);
        for (j, job) in jobs.iter().enumerate() {
            let reference = sys::reference_seconds();
            let run = execute(job, inputs, golden, config, tracer, j as u64);
            out.attempted += 1;
            if pass == 0 {
                out.cycles.push(run.cycles);
                out.stats.push(run.pu_stats.clone());
            }
            if !run.correct || run.cycles != out.cycles[j] {
                out.failed += 1;
            }
            if pass == 0 || !traced {
                out.samples[j].push(run.seconds);
                out.refs[j].push(reference);
            }
            if pass == 0 || traced {
                out.traced[j].push(run.seconds);
                out.traced_refs[j].push(reference);
            }
            if traced {
                out.engine_cpu_s += run.cpu_seconds;
                out.engine_wall_s += run.seconds;
            }
        }
        tracer.end(span);
        between(tracer);
        pass += 1;
    }
    tracer.set_enabled(alternate);
    out
}

/// Runs a batch workload.
///
/// # Errors
///
/// Returns an error when a metric cannot be computed.
pub fn run(table: Table, args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    // Set-up is timed once up front and again after every pass, so its
    // samples spread over the whole run like the jobs'.
    let (inputs, first_norm, first_raw) = timed_generation(table, args.seed, &mut tracer);
    let mut setup_norm = vec![first_norm];
    let mut setup_raw = vec![first_raw];
    let golden = Golden::of(&inputs);
    let config = table.config();
    let jobs = table.jobs();
    let min_passes = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let passes = run_passes(
        &jobs,
        &inputs,
        &golden,
        &config,
        args.seconds,
        min_passes,
        args.trace,
        &mut tracer,
        &mut |tracer| {
            let (_, norm, raw) = timed_generation(table, args.seed, tracer);
            setup_norm.push(norm);
            setup_raw.push(raw);
        },
    );
    let (setup_s, gen_s) = (stats::middle(&setup_norm), stats::middle(&setup_raw));
    let sim_cycles: u64 = passes.cycles.iter().sum();
    let mut report = Report {
        attempted: passes.attempted,
        failed: passes.failed,
        metrics: Vec::new(),
    };
    if args.trace {
        report.metrics = layers::batch_layers(
            table,
            args,
            &inputs,
            &golden,
            &jobs,
            &passes,
            gen_s,
            &mut tracer,
            &mut report,
        )?;
        layers::write_trace(&args.workload, args.seed, tracer.spans(), &report.metrics)?;
        return Ok(report);
    }
    let norm = normalized(&passes.samples, &passes.refs);
    let wall_s = stats::sum_of_job_medians(&norm);
    let service: Vec<f64> = norm.iter().map(|s| stats::middle(&s[1..])).collect();
    let mut metrics = vec![
        metric("sim_cycles", sim_cycles as f64, "cycles"),
        metric("wall_s", wall_s, "s"),
        metric("sim_cycles_per_s", sim_cycles as f64 / wall_s, "cycles/s"),
    ];
    metrics.extend(replay_metrics(&service)?);
    metrics.push(metric("setup_s", setup_s, "s"));
    metrics.push(metric("peak_rss_mb", sys::peak_rss_mb()?, "MB"));
    report.metrics = metrics;
    Ok(report)
}

/// Latency and capacity of the job list as a one-worker FIFO queue would
/// serve it: a fixed Poisson schedule in which every job appears
/// [`REPLAY_CYCLES`] times, in seeded random order, replayed over the
/// measured per-job host times ([`stats::fifo_replay`]) at [`REPLAY_LO`]
/// and [`REPLAY_HI`] of capacity, and up [`REPLAY_LADDER`] for the
/// highest load whose p90 stays within [`REPLAY_LIMIT`] mean job times
/// without a growing backlog.
pub fn replay_metrics(service: &[f64]) -> Result<Vec<Metric>, String> {
    let mean = service.iter().sum::<f64>() / service.len() as f64;
    let mut rng = StdRng::seed_from_u64(REPLAY_SEED);
    let mut order = Vec::with_capacity(service.len() * REPLAY_CYCLES);
    for _ in 0..REPLAY_CYCLES {
        let mut cycle: Vec<usize> = (0..service.len()).collect();
        for i in (1..cycle.len()).rev() {
            cycle.swap(i, rng.random_range(0..i + 1));
        }
        order.extend(cycle);
    }
    let work: Vec<f64> = order.iter().map(|&j| service[j]).collect();
    // Unit-rate gaps, scaled per load level.
    let gaps = stats::poisson_arrivals(&mut rng, 1.0, work.len());
    let latencies_at = |rho: f64| {
        let due: Vec<f64> = gaps.iter().map(|g| g * mean / rho).collect();
        stats::fifo_replay(&due, &work)
    };
    let pct = |lat: &[f64], p: f64| {
        stats::percentile(lat, p)
            .map(|v| v * 1e3)
            .ok_or_else(|| format!("too few replayed arrivals for p{p}"))
    };
    let lo = latencies_at(REPLAY_LO);
    let hi = latencies_at(REPLAY_HI);
    let mut best = None;
    for rho in REPLAY_LADDER {
        let lat = latencies_at(rho);
        let (early, late) = lat.split_at(lat.len() / 2);
        let within = pct(&lat, 90.0)? <= REPLAY_LIMIT * mean * 1e3;
        if !within || stats::backlog_grows(early, late) {
            break;
        }
        best = Some(rho / mean);
    }
    Ok(vec![
        metric("p50_ms.rate_lo", pct(&lo, 50.0)?, "ms"),
        metric("p90_ms.rate_lo", pct(&lo, 90.0)?, "ms"),
        metric("p50_ms.rate_hi", pct(&hi, 50.0)?, "ms"),
        metric("p90_ms.rate_hi", pct(&hi, 90.0)?, "ms"),
        metric(
            "max_rate_jobs_s",
            best.ok_or("even the lowest replay load misses the p90 limit")?,
            "jobs/s",
        ),
    ])
}

/// The batch jobs as daemon job descriptions (same matrix, scale, seed,
/// kernel, backend and host threads), for the checkpoint and job-JSON
/// layer probes.
pub fn job_specs(table: Table, inputs: &Inputs, jobs: &[Job]) -> Vec<JobSpec> {
    jobs.iter()
        .map(|job| {
            let name = inputs.names[job.matrix].to_string();
            let mut spec = JobSpec::new(match table {
                Table::Three => MatrixSource::Table3(name),
                Table::Four => MatrixSource::Table4(name),
            });
            spec.scale = table.scale();
            spec.seed = inputs.seeds[job.matrix];
            spec.kernel = match job.kernel {
                Kernel::Transpose => JobKernel::Transpose,
                Kernel::Spmv => JobKernel::Spmv,
            };
            spec.backend = job.backend;
            spec.threads = Some(1);
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(table: Table, seed: u64) -> Inputs {
        generate(table, seed, &mut Tracer::new(false, Instant::now(), 0)).0
    }

    #[test]
    fn same_seed_same_inputs_other_seed_same_shape() {
        for table in [Table::Three, Table::Four] {
            let a = inputs(table, 1);
            assert_eq!(a, inputs(table, 1));
            let b = inputs(table, 2);
            assert_eq!(a.names, b.names);
            for (ma, mb) in a.matrices.iter().zip(&b.matrices) {
                assert_eq!((ma.nrows(), ma.ncols()), (mb.nrows(), mb.ncols()));
                assert_eq!(ma.nnz(), mb.nnz());
            }
            assert_ne!(a.matrices, b.matrices);
            assert_ne!(a.xs, b.xs);
        }
    }

    #[test]
    fn same_seed_same_cycles_and_checked_outputs() {
        // The smallest Table 3 matrix (N4) keeps this quick.
        let table = Table::Three;
        let jobs: Vec<Job> = table.jobs().into_iter().filter(|j| j.matrix == 3).collect();
        let cycles = |seed| {
            let inputs = inputs(table, seed);
            let golden = Golden::of(&inputs);
            let mut tracer = Tracer::new(false, Instant::now(), 0);
            let passes = run_passes(
                &jobs,
                &inputs,
                &golden,
                &table.config(),
                0.0,
                2,
                false,
                &mut tracer,
                &mut |_| {},
            );
            assert_eq!(passes.failed, 0);
            assert_eq!(passes.attempted, 2 * jobs.len() as u64);
            passes.cycles
        };
        assert_eq!(cycles(5), cycles(5));
        assert_ne!(cycles(5), cycles(6));
    }

    #[test]
    fn wrong_outputs_count_as_failed() {
        let table = Table::Three;
        let inputs = inputs(table, 1);
        let mut golden = Golden::of(&inputs);
        golden.csc.swap(2, 3);
        golden.y[3][0] += 1.0;
        let jobs: Vec<Job> = table.jobs().into_iter().filter(|j| j.matrix == 3).collect();
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let passes = run_passes(
            &jobs,
            &inputs,
            &golden,
            &table.config(),
            0.0,
            2,
            false,
            &mut tracer,
            &mut |_| {},
        );
        assert_eq!(passes.failed, passes.attempted);
    }

    #[test]
    fn job_lists_cover_the_tables() {
        assert_eq!(Table::Three.jobs().len(), 32);
        assert_eq!(Table::Four.jobs().len(), 30);
        assert!(Table::Four
            .jobs()
            .iter()
            .any(|j| j.backend == BackendKind::Pim));
    }

    #[test]
    fn replay_latency_grows_with_load_and_rates_scale_with_speed() {
        let service: Vec<f64> = (1..=32).map(|i| 0.001 * i as f64).collect();
        let m = replay_metrics(&service).expect("metrics");
        let get = |name: &str| m.iter().find(|x| x.name == name).expect(name).value;
        assert!(get("p50_ms.rate_hi") > get("p50_ms.rate_lo"));
        assert!(get("p90_ms.rate_hi") > get("p90_ms.rate_lo"));
        let faster: Vec<f64> = service.iter().map(|s| s / 2.0).collect();
        let f = replay_metrics(&faster).expect("metrics");
        let rate = |v: &[Metric]| {
            v.iter()
                .find(|x| x.name == "max_rate_jobs_s")
                .expect("rate")
                .value
        };
        assert!((rate(&f) / rate(&m) - 2.0).abs() < 1e-9);
    }
}
