//! The `serve-preempt` workload: an in-process `menda-server` with a
//! preemption quantum, driven over loopback by one seeded open-loop
//! client.
//!
//! The offered rates form a fixed ladder. A run visits the whole ladder
//! in rounds, one window per rate, so every rate samples the same host
//! noise; each window sends every job of the list once, in a seeded
//! order, on a seeded Poisson schedule, and waits for all results before
//! the next window starts. Latency runs from each request's due time to
//! the arrival of its result line ([`stats::open_loop_latency`]).

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use menda_core::{JobOutcome, JobSpec, MatrixSource};
use menda_server::{loadgen, ServerConfig, ServerHandle};
use menda_sparse::rng::StdRng;
use menda_sparse::{gen, CsrMatrix};
use menda_trace::json::{self, JsonValue};

use crate::batch::{self, Inputs};
use crate::spans::Tracer;
use crate::{layers, metric, stats, sys, Args, Metric, Report};

/// Matrix divisor of the job mix (Table 3 at 1/1024: 0.4k–8k nonzeros).
pub const SCALE: usize = 1024;
/// Preemption quantum in device cycles, below the median job's ~6.6k
/// simulated cycles, so a median job is paused and resumed about six
/// times.
pub const QUANTUM: u64 = 1_000;
/// Distinct jobs: the first 28 of the `loadgen::job_for_index` mix, the
/// sixteen Table 3 matrices transposed and twelve multiplied. Twelve of
/// them are 8k-nonzero jobs; with 32 it would be exactly half, and the
/// median would sit on the gap between the small and the large jobs.
pub const JOBS: usize = 28;
/// Offered rates in jobs/s. On a 2-vCPU host about 100 jobs/s saturates
/// the two workers. At the top rate a window's jobs arrive almost at once
/// and queue for hundreds of ms, so it fails the limit by a wide margin;
/// 60 jobs/s passes it by one. Frozen: changing them changes the
/// benchmark.
pub const LADDER: [f64; 4] = [30.0, 45.0, 60.0, 480.0];
/// Ladder index of `rate_lo`.
pub const RATE_LO: usize = 0;
/// Ladder index of `rate_hi`, still below saturation.
pub const RATE_HI: usize = 1;
/// Ladder index whose queue waits `server.queue_ms` reports.
pub const QUEUE_RUNG: usize = 2;
/// p90 latency limit for `max_rate_jobs_s` (reference-host ms).
pub const LIMIT_MS: f64 = 160.0;
/// Rounds over the ladder before time may end the run: four windows of
/// 28 jobs give each rate 112 samples, enough for a p90.
const MIN_ROUNDS: usize = 4;
/// Reference kernels timed between two windows.
const REFS_PER_WINDOW: usize = 3;
/// Daemon start-up and input generation are repeated this often.
const SETUP_REPEATS: usize = 15;
/// A window that has not resolved within this long is an error.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);

/// The daemon configuration: one worker per core and the quantum.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: cores(),
        queue_capacity: 1024,
        preemption_quantum: Some(QUANTUM),
        ..ServerConfig::default()
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client connections: at most one per core, at most two.
fn connections() -> usize {
    cores().min(2)
}

/// The job list: the `loadgen::job_for_index` mix (64-leaf PUs, 1
/// channel × 2 ranks, one engine thread) with generator seeds drawn from
/// the workload seed.
pub fn job_list(seed: u64) -> Vec<JobSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..JOBS)
        .map(|i| {
            let mut spec = loadgen::job_for_index(i, SCALE);
            // JSON carries integers exactly only up to 2^53.
            spec.seed = rng.next_u64() >> 11;
            spec
        })
        .collect()
}

fn table3_name(spec: &JobSpec) -> &'static str {
    let MatrixSource::Table3(name) = &spec.matrix else {
        unreachable!("the job mix uses Table 3 matrices only")
    };
    gen::table3_spec(name)
        .expect("job mix names come from Table 3")
        .name
}

/// Generates a job's input matrix the way the daemon does.
pub fn job_matrix(spec: &JobSpec) -> CsrMatrix {
    gen::table3_spec(table3_name(spec))
        .expect("job mix names come from Table 3")
        .generate_scaled(spec.scale, spec.seed)
}

/// Expected daemon output of one job, from the batch path.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `JobOutcome::to_json`.
    pub stats: String,
    /// `JobOutcome::digest` as the wire prints it.
    pub digest: String,
    /// The outcome itself.
    pub outcome: JobOutcome,
}

/// Runs every job through `JobSpec::execute`.
///
/// # Errors
///
/// Returns the first job error.
pub fn expected(jobs: &[JobSpec]) -> Result<Vec<Expected>, String> {
    jobs.iter()
        .map(|spec| {
            let outcome = spec.execute().map_err(|e| format!("batch execute: {e}"))?;
            Ok(Expected {
                stats: outcome.to_json(),
                digest: format!("{:016x}", outcome.digest()),
                outcome,
            })
        })
        .collect()
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Ladder index.
    pub rung: usize,
    /// Round the window belonged to.
    pub round: usize,
    /// Position in the window's send order.
    pub position: usize,
    /// Job index in the job list.
    pub job: usize,
    /// Seconds from the window start at which the request was due.
    pub due: f64,
    /// Seconds from the window start at which it was sent.
    pub sent: f64,
    /// Seconds from the window start at which its result arrived.
    pub done: f64,
    /// Server-reported queue wait (whole ms, truncated).
    pub queue_ms: f64,
    /// Server-reported run time (whole ms, truncated).
    pub run_ms: f64,
    /// Median seconds of the reference kernel timed before each window of
    /// the sample's round.
    pub reference: f64,
}

impl Sample {
    /// Client-observed latency in ms.
    pub fn latency_ms(&self) -> f64 {
        stats::open_loop_latency(self.due, self.done) * 1e3
    }

    /// Client-observed latency in ms as it would read on the reference
    /// host.
    pub fn normalized_ms(&self) -> f64 {
        sys::normalize(self.latency_ms(), self.reference)
    }
}

/// Outcome of a client session.
#[derive(Debug, Default)]
pub struct Session {
    /// Successful, verified requests.
    pub samples: Vec<Sample>,
    /// Requests sent.
    pub attempted: u64,
    /// Rejections, failed jobs and results that differ from the batch
    /// path.
    pub failed: u64,
    /// Rejections alone.
    pub rejected: u64,
}

/// A line a reader thread hands to the sender.
enum Event {
    Result {
        window: usize,
        position: usize,
        done: Instant,
        queue_ms: f64,
        run_ms: f64,
        matches: bool,
    },
    Failed,
    Rejected,
    Broken(String),
}

/// Parses a result tag `w<window>.<position>.<job>`.
fn parse_tag(tag: &str) -> Option<(usize, usize, usize)> {
    let mut it = tag.strip_prefix('w')?.split('.').map(|p| p.parse().ok());
    Some((it.next()??, it.next()??, it.next()??))
}

fn reader_loop(
    stream: TcpStream,
    expected: &[Expected],
    tx: &mpsc::Sender<Event>,
    tracer: &mut Tracer,
) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => {
                let _ = tx.send(Event::Broken(format!("read: {e}")));
                return;
            }
        }
        let done = Instant::now();
        let span = tracer.begin("client.result", 0);
        let event = classify(line.trim_end(), expected, done);
        tracer.end(span);
        if let Some(event) = event {
            if tx.send(event).is_err() {
                return;
            }
        }
    }
}

/// Turns a response line into an event; `accepted` and `started` lines
/// carry nothing the client needs.
fn classify(line: &str, expected: &[Expected], done: Instant) -> Option<Event> {
    let value = match json::parse(line) {
        Ok(v) => v,
        Err((pos, msg)) => return Some(Event::Broken(format!("bad line at {pos}: {msg}"))),
    };
    let kind = value.get("type").and_then(JsonValue::as_str).unwrap_or("");
    match kind {
        "accepted" | "started" => None,
        "rejected" => Some(Event::Rejected),
        "result" if matches!(value.get("ok"), Some(JsonValue::Bool(true))) => {
            let tag = value
                .get("tag")
                .and_then(JsonValue::as_str)
                .and_then(parse_tag);
            let num = |k: &str| value.get(k).and_then(JsonValue::as_num);
            let digest = value.get("stats_digest").and_then(JsonValue::as_str);
            match (tag, num("queue_ms"), num("run_ms")) {
                (Some((window, position, job)), Some(queue_ms), Some(run_ms))
                    if job < expected.len() =>
                {
                    // The same byte-level check as loadgen's
                    // `wire_matches_batch`: digest and stats JSON.
                    let want = &expected[job];
                    let matches =
                        digest == Some(want.digest.as_str()) && line.contains(&want.stats);
                    Some(Event::Result {
                        window,
                        position,
                        done,
                        queue_ms,
                        run_ms,
                        matches,
                    })
                }
                _ => Some(Event::Broken(format!("malformed result line: {line}"))),
            }
        }
        "result" => Some(Event::Failed),
        _ => Some(Event::Broken(format!("unexpected line: {line}"))),
    }
}

/// Seeded send order and arrival schedule of window `window` at `rate`.
pub fn window_plan(seed: u64, window: usize, rate: f64) -> (Vec<usize>, Vec<f64>) {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (window as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..JOBS).collect();
    for i in (1..JOBS).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let due = stats::poisson_arrivals(&mut rng, rate, JOBS);
    (order, due)
}

/// Drives the daemon at `addr`: rounds over `rungs` (ladder indices)
/// until `seconds` have passed and at least `min_rounds` ran; later
/// rounds keep only `rate_lo` and `rate_hi`. With `alternate`, odd rounds
/// record spans.
#[allow(clippy::too_many_arguments)]
pub fn run_session(
    addr: std::net::SocketAddr,
    jobs: &[JobSpec],
    expected: &Arc<Vec<Expected>>,
    rungs: &[usize],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    alternate: bool,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let lines: Vec<String> = jobs.iter().map(JobSpec::to_json).collect();
    let (tx, rx) = mpsc::channel();
    let mut writers = Vec::new();
    let mut readers = Vec::new();
    for c in 0..connections() {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (tx, expected) = (tx.clone(), Arc::clone(expected));
        let mut reader_tracer = Tracer::new(tracer.enabled(), tracer.epoch(), 1 + c as u32);
        readers.push(
            std::thread::Builder::new()
                .name(format!("perfbench-reader-{c}"))
                .spawn(move || {
                    reader_loop(read_half, &expected, &tx, &mut reader_tracer);
                    reader_tracer
                })
                .map_err(|e| format!("spawn reader: {e}"))?,
        );
        writers.push(stream);
    }
    drop(tx);

    let result = drive(
        &mut writers,
        &rx,
        &lines,
        rungs,
        seed,
        seconds,
        min_rounds,
        alternate,
        tracer,
    );
    // Close the send side; the daemon then closes the connection and the
    // readers see end of file.
    for w in &writers {
        let _ = w.shutdown(Shutdown::Write);
    }
    for r in readers {
        let reader_tracer = r.join().map_err(|_| "reader thread panicked".to_string())?;
        tracer.absorb(reader_tracer);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn drive(
    writers: &mut [TcpStream],
    rx: &mpsc::Receiver<Event>,
    lines: &[String],
    rungs: &[usize],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    alternate: bool,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    let mut session = Session::default();
    let start = Instant::now();
    let mut window = 0usize;
    let mut round = 0usize;
    while round < min_rounds || start.elapsed().as_secs_f64() < seconds {
        tracer.set_enabled(!alternate || round % 2 == 1);
        let first_sample = session.samples.len();
        let mut round_refs = Vec::new();
        // Past the first `min_rounds`, only rate_lo and rate_hi windows
        // run: every rate has enough samples for its p90 by then, and the
        // remaining time goes to the two reported rates.
        let active: Vec<usize> = rungs
            .iter()
            .copied()
            .filter(|&r| round < min_rounds || r == RATE_LO || r == RATE_HI)
            .collect();
        for &rung in &active {
            let (order, due) = window_plan(seed, window, LADDER[rung]);
            // Nothing is in flight between windows: time the reference
            // kernel there.
            round_refs.extend((0..REFS_PER_WINDOW).map(|_| sys::reference_seconds()));
            let span = tracer.begin("client.window", window as u64);
            let t0 = Instant::now();
            let mut sent = vec![0.0; JOBS];
            for (position, (&job, &d)) in order.iter().zip(&due).enumerate() {
                let due_at = t0 + Duration::from_secs_f64(d);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let submit = tracer.begin("client.submit", job as u64);
                sent[position] = t0.elapsed().as_secs_f64();
                let line = format!(
                    "{{\"op\":\"submit\",\"tag\":\"w{window}.{position}.{job}\",\"job\":{}}}\n",
                    lines[job]
                );
                writers[position % writers.len()]
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("submit: {e}"))?;
                tracer.end(submit);
                session.attempted += 1;
            }
            let mut resolved = 0;
            while resolved < JOBS {
                let event = rx
                    .recv_timeout(DRAIN_TIMEOUT)
                    .map_err(|e| format!("window {window} did not drain: {e}"))?;
                resolved += 1;
                match event {
                    Event::Result {
                        window: w,
                        position,
                        done,
                        queue_ms,
                        run_ms,
                        matches,
                    } => {
                        if w != window || position >= JOBS {
                            return Err(format!("result for window {w} during window {window}"));
                        }
                        if !matches {
                            session.failed += 1;
                            continue;
                        }
                        let job = order[position];
                        let done = done.saturating_duration_since(t0).as_secs_f64();
                        tracer.record(
                            "client.job",
                            t0 + Duration::from_secs_f64(due[position]),
                            t0 + Duration::from_secs_f64(done),
                            job as u64,
                        );
                        session.samples.push(Sample {
                            rung,
                            round,
                            position,
                            job,
                            due: due[position],
                            sent: sent[position],
                            done,
                            queue_ms,
                            run_ms,
                            reference: f64::NAN,
                        });
                    }
                    Event::Failed => session.failed += 1,
                    Event::Rejected => {
                        session.failed += 1;
                        session.rejected += 1;
                    }
                    Event::Broken(msg) => return Err(msg),
                }
            }
            tracer.end(span);
            window += 1;
        }
        // One reference per round: phases last seconds, and the median of
        // a round's samples is steadier than any single one.
        let reference = stats::middle(&round_refs);
        for s in &mut session.samples[first_sample..] {
            s.reference = reference;
        }
        round += 1;
    }
    tracer.set_enabled(alternate);
    Ok(session)
}

/// Reference-normalized latencies in ms of the samples at ladder index
/// `rung`, restricted by `keep`.
pub fn latencies(session: &Session, rung: usize, keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    session
        .samples
        .iter()
        .filter(|s| s.rung == rung && keep(s))
        .map(Sample::normalized_ms)
        .collect()
}

fn pct(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    stats::percentile(values, p)
        .ok_or_else(|| format!("{what}: {} samples cannot back a p{p}", values.len()))
}

/// Highest ladder rate such that it and every lower rate kept p90 within
/// [`LIMIT_MS`] without a growing backlog (later half of each window
/// waiting more than twice as long as the earlier half).
pub fn max_rate(session: &Session) -> Result<f64, String> {
    let mut best = None;
    for (rung, &rate) in LADDER.iter().enumerate() {
        let all = latencies(session, rung, |_| true);
        if all.is_empty() {
            break;
        }
        let early = latencies(session, rung, |s| s.position < JOBS / 2);
        let late = latencies(session, rung, |s| s.position >= JOBS / 2);
        if pct(&all, 90.0, "ladder")? > LIMIT_MS || stats::backlog_grows(&early, &late) {
            break;
        }
        best = Some(rate);
    }
    best.ok_or_else(|| format!("even {} jobs/s misses the p90 limit", LADDER[0]))
}

/// A started daemon plus the client's set-up products.
struct Setup {
    server: ServerHandle,
    inputs: Inputs,
    setup_s: f64,
    gen_s: f64,
}

/// Starts the daemon and generates every job's input matrix,
/// [`SETUP_REPEATS`] times, each after a reference kernel; set-up time is
/// the median over repeats of the normalized time. The last daemon stays
/// up.
fn setup(jobs: &[JobSpec], tracer: &mut Tracer) -> Result<Setup, String> {
    let mut normalized = Vec::with_capacity(SETUP_REPEATS);
    let mut raw_gen = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for repeat in 0..SETUP_REPEATS {
        let reference = sys::reference_seconds();
        let span = tracer.begin("server.bind", repeat as u64);
        let t = Instant::now();
        let mut server =
            ServerHandle::bind("127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
        let probe = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let start_s = t.elapsed().as_secs_f64();
        tracer.end(span);
        drop(probe);
        let t = Instant::now();
        let mut matrices = Vec::with_capacity(jobs.len());
        for (j, spec) in jobs.iter().enumerate() {
            let span = tracer.begin("sparse.gen", j as u64);
            matrices.push(job_matrix(spec));
            tracer.end(span);
        }
        let gen_s = t.elapsed().as_secs_f64();
        normalized.push(sys::normalize(start_s + gen_s, reference));
        raw_gen.push(gen_s);
        if repeat + 1 == SETUP_REPEATS {
            kept = Some((server, matrices));
        } else {
            server.shutdown(true);
            server.join();
        }
    }
    let (server, matrices) = kept.expect("SETUP_REPEATS > 0");
    let inputs = Inputs {
        names: jobs.iter().map(|s| table3_name(s)).collect(),
        seeds: jobs.iter().map(|s| s.seed).collect(),
        xs: matrices
            .iter()
            .zip(jobs)
            .map(|(m, s)| batch::x_vector(m.ncols(), s.seed))
            .collect(),
        matrices,
    };
    Ok(Setup {
        server,
        inputs,
        setup_s: stats::middle(&normalized),
        gen_s: stats::middle(&raw_gen),
    })
}

/// Runs the `serve-preempt` workload.
///
/// # Errors
///
/// Returns an error when the daemon misbehaves at the protocol level or
/// a metric cannot be computed.
pub fn run(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch, 0);
    let jobs = job_list(args.seed);
    let expected = Arc::new(expected(&jobs)?);
    let Setup {
        mut server,
        inputs,
        setup_s,
        gen_s,
    } = setup(&jobs, &mut tracer)?;
    let rungs: Vec<usize> = (0..LADDER.len()).collect();
    let min_rounds = if args.trace {
        2 * MIN_ROUNDS
    } else {
        MIN_ROUNDS
    };
    let session = run_session(
        server.local_addr(),
        &jobs,
        &expected,
        &rungs,
        args.seed,
        args.seconds,
        min_rounds,
        args.trace,
        &mut tracer,
    );
    server.shutdown(true);
    server.join();
    let session = session?;
    let mut report = Report {
        attempted: session.attempted,
        failed: session.failed,
        metrics: Vec::new(),
    };
    if args.trace {
        report.metrics = layers::serve_layers(
            args,
            &jobs,
            &expected,
            &inputs,
            &session,
            gen_s,
            &mut tracer,
            &mut report,
        )?;
        layers::write_trace(&args.workload, args.seed, tracer.spans(), &report.metrics)?;
        return Ok(report);
    }
    for (rung, rate) in LADDER.iter().enumerate() {
        let lat = latencies(&session, rung, |_| true);
        println!(
            "  offered {rate:>5} jobs/s: {} answers, normalized p50 {:.1} ms, p90 {:.1} ms",
            lat.len(),
            stats::median(&lat).unwrap_or(f64::NAN),
            stats::percentile(&lat, 90.0).unwrap_or(f64::NAN),
        );
    }
    report.metrics = end_to_end(&session, &expected, setup_s)?;
    Ok(report)
}

fn end_to_end(
    session: &Session,
    expected: &[Expected],
    setup_s: f64,
) -> Result<Vec<Metric>, String> {
    let sim_cycles: u64 = expected.iter().map(|e| e.outcome.cycles).sum();
    // Host time for one pass of the job list through the daemon: the lower
    // quartile of each job's normalized latencies over every rate, summed.
    // Queueing and delayed ACKs only ever add time, so the lower quartile
    // is the job's service time, without the outliers a minimum would pick.
    let wall_s: f64 = (0..JOBS)
        .map(|j| {
            let lat: Vec<f64> = session
                .samples
                .iter()
                .filter(|s| s.job == j)
                .map(Sample::normalized_ms)
                .collect();
            pct(&lat, 25.0, "job latencies").map(|ms| ms / 1e3)
        })
        .sum::<Result<f64, String>>()?;
    let lo = latencies(session, RATE_LO, |_| true);
    let hi = latencies(session, RATE_HI, |_| true);
    Ok(vec![
        metric("sim_cycles", sim_cycles as f64, "cycles"),
        metric("wall_s", wall_s, "s"),
        metric("sim_cycles_per_s", sim_cycles as f64 / wall_s, "cycles/s"),
        metric("p50_ms.rate_lo", pct(&lo, 50.0, "rate_lo")?, "ms"),
        metric("p90_ms.rate_lo", pct(&lo, 90.0, "rate_lo")?, "ms"),
        metric("p50_ms.rate_hi", pct(&hi, 50.0, "rate_hi")?, "ms"),
        metric("p90_ms.rate_hi", pct(&hi, 90.0, "rate_hi")?, "ms"),
        metric("max_rate_jobs_s", max_rate(session)?, "jobs/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", sys::peak_rss_mb()?, "MB"),
    ])
}

/// Raw host numbers behind the normalized ones: the fastest raw latency of
/// each job summed, and the median reference kernel time.
pub fn host_metrics(session: &Session) -> Result<Vec<Metric>, String> {
    let mut fastest = vec![f64::INFINITY; JOBS];
    for s in &session.samples {
        fastest[s.job] = fastest[s.job].min(s.latency_ms() / 1e3);
    }
    if fastest.iter().any(|f| !f.is_finite()) {
        return Err("a job never completed".into());
    }
    let refs: Vec<f64> = session.samples.iter().map(|s| s.reference).collect();
    Ok(vec![
        metric("host.wall_s_raw", fastest.iter().sum(), "s"),
        metric("host.reference_ms", stats::middle(&refs) * 1e3, "ms"),
    ])
}

/// The daemon-side layer metrics of a session: queue wait at
/// [`QUEUE_RUNG`], run time and wire time at `rate_lo`, rejections and
/// sender lateness. The daemon reports whole milliseconds, truncated.
pub fn server_metrics(session: &Session) -> Result<Vec<Metric>, String> {
    let at = |rung: usize, f: fn(&Sample) -> f64| -> Vec<f64> {
        session
            .samples
            .iter()
            .filter(|s| s.rung == rung)
            .map(f)
            .collect()
    };
    // Queueing is rare at rate_hi; the highest rate below saturation
    // shows it.
    let queue = at(QUEUE_RUNG, |s| s.queue_ms);
    let run = at(RATE_LO, |s| s.run_ms);
    let wire = at(RATE_LO, |s| s.latency_ms() - s.queue_ms - s.run_ms);
    let late: Vec<f64> = session
        .samples
        .iter()
        .map(|s| (s.sent - s.due) * 1e3)
        .collect();
    Ok(vec![
        metric("server.queue_ms.p50", pct(&queue, 50.0, "queue")?, "ms"),
        metric("server.queue_ms.p90", pct(&queue, 90.0, "queue")?, "ms"),
        metric("server.run_ms.p50", pct(&run, 50.0, "run")?, "ms"),
        metric("server.run_ms.p90", pct(&run, 90.0, "run")?, "ms"),
        metric("server.wire_ms.p50", pct(&wire, 50.0, "wire")?, "ms"),
        metric("server.rejected", session.rejected as f64, "count"),
        metric("loadgen.late_ms.p90", pct(&late, 90.0, "late")?, "ms"),
    ])
}

/// A short session at `rate_lo` and [`QUEUE_RUNG`] on a fresh daemon, for
/// the server layer metrics of workloads that do not run the daemon.
///
/// # Errors
///
/// As [`run`].
pub fn server_probe(seed: u64, tracer: &mut Tracer) -> Result<Session, String> {
    let jobs = job_list(seed);
    let expected = Arc::new(expected(&jobs)?);
    let mut server =
        ServerHandle::bind("127.0.0.1:0", server_config()).map_err(|e| format!("bind: {e}"))?;
    let session = run_session(
        server.local_addr(),
        &jobs,
        &expected,
        &[RATE_LO, QUEUE_RUNG],
        seed,
        0.0,
        MIN_ROUNDS,
        false,
        tracer,
    );
    server.shutdown(true);
    server.join();
    session
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_and_schedule_other_seed_same_shape() {
        let a = job_list(1);
        let b = job_list(1);
        let c = job_list(2);
        let json = |v: &[JobSpec]| v.iter().map(JobSpec::to_json).collect::<Vec<_>>();
        assert_eq!(json(&a), json(&b));
        assert_ne!(json(&a), json(&c));
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(
                (x.kernel, &x.matrix, x.scale),
                (y.kernel, &y.matrix, y.scale)
            );
            let (mx, my) = (job_matrix(x), job_matrix(y));
            assert_eq!((mx.nrows(), mx.nnz()), (my.nrows(), my.nnz()));
            assert_ne!(mx, my);
            x.validate().expect("valid job");
        }
        assert_eq!(window_plan(1, 3, 40.0), window_plan(1, 3, 40.0));
        let (order, due) = window_plan(2, 3, 40.0);
        assert_ne!((order.clone(), due.clone()), window_plan(1, 3, 40.0));
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..JOBS).collect::<Vec<_>>());
        assert_eq!(due.len(), JOBS);
    }

    #[test]
    fn quantum_is_below_the_median_job() {
        let expected = expected(&job_list(1)).expect("jobs run");
        let mut cycles: Vec<u64> = expected.iter().map(|e| e.outcome.cycles).collect();
        cycles.sort_unstable();
        assert!(
            QUANTUM * 3 < cycles[JOBS / 2],
            "median {}",
            cycles[JOBS / 2]
        );
    }

    #[test]
    fn tags_round_trip_and_results_are_byte_checked() {
        assert_eq!(parse_tag("w12.3.31"), Some((12, 3, 31)));
        assert_eq!(parse_tag("x1.2.3"), None);
        assert_eq!(parse_tag("w1.2"), None);
        let jobs = job_list(4);
        let expected = expected(&jobs[..2]).expect("jobs run");
        let good = format!(
            "{{\"ok\": true, \"type\": \"result\", \"job_id\": 1, \"tag\": \"w0.5.1\", \
             \"queue_ms\": 0, \"run_ms\": 3, \"stats_digest\": \"{}\", \"stats\": {}}}",
            expected[1].digest, expected[1].stats
        );
        let now = Instant::now();
        assert!(matches!(
            classify(&good, &expected, now),
            Some(Event::Result {
                matches: true,
                position: 5,
                ..
            })
        ));
        // The right stats under the wrong job fail the byte compare.
        let swapped = good.replace("w0.5.1", "w0.5.0");
        assert!(matches!(
            classify(&swapped, &expected, now),
            Some(Event::Result { matches: false, .. })
        ));
        assert!(matches!(
            classify(
                "{\"ok\": false, \"type\": \"rejected\", \"reason\": \"queue_full\"}",
                &expected,
                now
            ),
            Some(Event::Rejected)
        ));
        assert!(classify(
            "{\"ok\": true, \"type\": \"started\", \"job_id\": 1}",
            &expected,
            now
        )
        .is_none());
    }

    #[test]
    fn a_stalled_daemon_charges_later_requests() {
        // Open-loop bookkeeping: a result that arrives late is charged
        // from its due time even though it was sent on time.
        let s = Sample {
            rung: 0,
            round: 0,
            position: 1,
            job: 0,
            due: 0.010,
            sent: 0.010,
            done: 0.250,
            queue_ms: 200.0,
            run_ms: 30.0,
            reference: sys::REFERENCE_S * 2.0,
        };
        assert!((s.latency_ms() - 240.0).abs() < 1e-9);
        assert!((s.normalized_ms() - 120.0).abs() < 1e-9);
    }
}
